// The unfolded reference for constant-folding tests: the public Lexer ->
// Parser -> Sema -> Compiler stages that Filter::compile runs, without its
// fold_constants step. Folding must agree with this bytecode on every
// status, output and return value, at no more fuel.
#pragma once

#include <string_view>
#include <utility>

#include "dproc/ecode/bytecode.hpp"
#include "dproc/ecode/compiler.hpp"
#include "dproc/ecode/lexer.hpp"
#include "dproc/ecode/parser.hpp"
#include "dproc/ecode/sema.hpp"
#include "dproc/util/status.hpp"

namespace dproc::ecode::test {

inline Result<Bytecode> compile_unfolded(std::string_view source,
                                         const CompileEnv& env = {}) {
  auto tokens = Lexer{source}.tokenize();
  if (!tokens) return tokens.status();
  auto program = Parser{std::move(tokens).value()}.parse_program();
  if (!program) return program.status();
  Program ast = std::move(program).value();
  if (Status status = Sema{env}.analyze(ast); !status) return status;
  return Compiler{}.compile(ast);
}

}  // namespace dproc::ecode::test
