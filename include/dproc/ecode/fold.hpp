// Constant folding: an AST optimization pass.
//
// Filters are compiled on every deployment and executed on every polling
// iteration at kernel level, so shrinking them is worth a pass. Folding
// runs between semantic analysis and code generation: literal arithmetic
// collapses (including resolved environment constants like `LOADAVG * 2`),
// short-circuit and ternary operators with constant conditions drop dead
// branches. Division by a constant zero is left in place so the runtime
// error (and its diagnostic) still happens. Integer results wrap exactly as
// the VM's do: both evaluate through the same helpers.
#pragma once

#include "dproc/ecode/ast.hpp"

namespace dproc::ecode {

/// Folds constants in place. Requires a semantically analyzed program;
/// annotations (types, slots) are preserved or re-derived for new literals.
void fold_constants(Program& program);

/// Exposed for tests: folds one expression tree, returning true if the
/// node was replaced by a literal.
bool fold_expr(ExprPtr& expr);

}  // namespace dproc::ecode
