#include "dproc/ecode/fold.hpp"

#include <cmath>
#include <optional>

#include "arith.hpp"

namespace dproc::ecode {

namespace {

struct Constant {
  bool is_double = false;
  std::int64_t i = 0;
  double d = 0.0;

  [[nodiscard]] double as_double() const {
    return is_double ? d : static_cast<double>(i);
  }
  [[nodiscard]] bool truthy() const { return is_double ? d != 0.0 : i != 0; }
};

std::optional<Constant> constant_of(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kIntLit:
      return Constant{false, expr.int_value, 0.0};
    case Expr::Kind::kFloatLit:
      return Constant{true, 0, expr.float_value};
    case Expr::Kind::kIdent:
      if (expr.resolution == Resolution::kConstant) {
        return Constant{false, expr.const_value, 0.0};
      }
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

void replace_with(ExprPtr& slot, Constant value, SourceLoc loc) {
  auto literal = std::make_unique<Expr>();
  literal->loc = loc;
  if (value.is_double) {
    literal->kind = Expr::Kind::kFloatLit;
    literal->float_value = value.d;
    literal->type = Type::kDouble;
  } else {
    literal->kind = Expr::Kind::kIntLit;
    literal->int_value = value.i;
    literal->type = Type::kInt;
  }
  slot = std::move(literal);
}

std::optional<Constant> eval_binary(BinaryOp op, Constant a, Constant b) {
  const bool floating = a.is_double || b.is_double;
  Constant result;
  if (floating) {
    const double x = a.as_double(), y = b.as_double();
    result.is_double = true;
    switch (op) {
      case BinaryOp::kAdd: result.d = x + y; break;
      case BinaryOp::kSub: result.d = x - y; break;
      case BinaryOp::kMul: result.d = x * y; break;
      case BinaryOp::kDiv:
        if (y == 0.0) return std::nullopt;  // keep the runtime diagnostic
        result.d = x / y;
        break;
      case BinaryOp::kLt: return Constant{false, x < y, 0.0};
      case BinaryOp::kLe: return Constant{false, x <= y, 0.0};
      case BinaryOp::kGt: return Constant{false, x > y, 0.0};
      case BinaryOp::kGe: return Constant{false, x >= y, 0.0};
      case BinaryOp::kEq: return Constant{false, x == y, 0.0};
      case BinaryOp::kNe: return Constant{false, x != y, 0.0};
      default:
        return std::nullopt;  // int-only ops cannot be floating (sema)
    }
    return result;
  }
  const std::int64_t x = a.i, y = b.i;
  switch (op) {
    case BinaryOp::kAdd: return Constant{false, arith::add(x, y), 0.0};
    case BinaryOp::kSub: return Constant{false, arith::sub(x, y), 0.0};
    case BinaryOp::kMul: return Constant{false, arith::mul(x, y), 0.0};
    case BinaryOp::kDiv:
      if (y == 0) return std::nullopt;
      return Constant{false, arith::div(x, y), 0.0};
    case BinaryOp::kMod:
      if (y == 0) return std::nullopt;
      return Constant{false, arith::mod(x, y), 0.0};
    case BinaryOp::kBitAnd: return Constant{false, x & y, 0.0};
    case BinaryOp::kBitOr: return Constant{false, x | y, 0.0};
    case BinaryOp::kBitXor: return Constant{false, x ^ y, 0.0};
    case BinaryOp::kShl:
      if (y < 0 || y > 63) return std::nullopt;
      return Constant{false, arith::shl(x, y), 0.0};
    case BinaryOp::kShr:
      if (y < 0 || y > 63) return std::nullopt;
      return Constant{false, x >> y, 0.0};
    case BinaryOp::kLt: return Constant{false, x < y, 0.0};
    case BinaryOp::kLe: return Constant{false, x <= y, 0.0};
    case BinaryOp::kGt: return Constant{false, x > y, 0.0};
    case BinaryOp::kGe: return Constant{false, x >= y, 0.0};
    case BinaryOp::kEq: return Constant{false, x == y, 0.0};
    case BinaryOp::kNe: return Constant{false, x != y, 0.0};
    case BinaryOp::kLogicalAnd:
    case BinaryOp::kLogicalOr:
      return std::nullopt;  // handled structurally for short-circuiting
  }
  return std::nullopt;
}

void fold_stmt(Stmt& stmt);

}  // namespace

bool fold_expr(ExprPtr& expr) {
  if (!expr) return false;
  // Fold children first (assignment targets keep their identity).
  switch (expr->kind) {
    case Expr::Kind::kAssign:
      fold_expr(expr->b);
      if (expr->a && expr->a->kind == Expr::Kind::kIndex) fold_expr(expr->a->b);
      if (expr->a && expr->a->kind == Expr::Kind::kField &&
          expr->a->a->kind == Expr::Kind::kIndex) {
        fold_expr(expr->a->a->b);
      }
      return false;
    case Expr::Kind::kIncDec:
      return false;
    default:
      break;
  }
  fold_expr(expr->a);
  fold_expr(expr->b);
  fold_expr(expr->c);
  for (ExprPtr& arg : expr->args) fold_expr(arg);

  switch (expr->kind) {
    case Expr::Kind::kUnary: {
      const auto operand = constant_of(*expr->a);
      if (!operand) return false;
      Constant result;
      switch (expr->unary_op) {
        case UnaryOp::kNeg:
          result = *operand;
          if (result.is_double) {
            result.d = -result.d;
          } else {
            result.i = arith::neg(result.i);
          }
          break;
        case UnaryOp::kNot:
          result = Constant{false, operand->truthy() ? 0 : 1, 0.0};
          break;
        case UnaryOp::kBitNot:
          if (operand->is_double) return false;
          result = Constant{false, ~operand->i, 0.0};
          break;
      }
      replace_with(expr, result, expr->loc);
      return true;
    }
    case Expr::Kind::kBinary: {
      // Short-circuit operators fold structurally on a constant left side.
      if (expr->bin_op == BinaryOp::kLogicalAnd ||
          expr->bin_op == BinaryOp::kLogicalOr) {
        const auto lhs = constant_of(*expr->a);
        if (!lhs) return false;
        const bool lhs_true = lhs->truthy();
        const bool is_and = expr->bin_op == BinaryOp::kLogicalAnd;
        if (is_and != lhs_true) {
          // false && x  => 0;  true || x => 1 — the right side is dead and
          // side-effect-free expressions are all E-code allows there to
          // matter; assignments in dead branches are dropped as C would.
          replace_with(expr, Constant{false, lhs_true ? 1 : 0, 0.0}, expr->loc);
          return true;
        }
        // true && x => bool(x); folding to x would skip normalization, so
        // only fold when x is constant too.
        if (const auto rhs = constant_of(*expr->b)) {
          replace_with(expr, Constant{false, rhs->truthy() ? 1 : 0, 0.0},
                       expr->loc);
          return true;
        }
        return false;
      }
      const auto a = constant_of(*expr->a);
      const auto b = constant_of(*expr->b);
      if (!a || !b) return false;
      const auto result = eval_binary(expr->bin_op, *a, *b);
      if (!result) return false;
      replace_with(expr, *result, expr->loc);
      return true;
    }
    case Expr::Kind::kTernary: {
      const auto cond = constant_of(*expr->a);
      if (!cond) return false;
      ExprPtr& branch = cond->truthy() ? expr->b : expr->c;
      // Preserve the ternary's unified type: an int branch under a double
      // ternary must still widen, so only fold it when it is itself a
      // constant we can widen here; otherwise keep the ternary and let
      // codegen insert the conversion.
      if (expr->type == Type::kDouble && branch->type == Type::kInt) {
        const auto value = constant_of(*branch);
        if (!value) return false;
        replace_with(branch, Constant{true, 0, value->as_double()},
                     branch->loc);
      }
      ExprPtr chosen = std::move(branch);
      expr = std::move(chosen);
      return true;
    }
    case Expr::Kind::kCall: {
      // Pure builtins with constant arguments.
      double args[2] = {0.0, 0.0};
      for (std::size_t i = 0; i < expr->args.size() && i < 2; ++i) {
        const auto value = constant_of(*expr->args[i]);
        if (!value) return false;
        args[i] = value->as_double();
      }
      double result = 0.0;
      switch (expr->builtin) {
        case 0: result = std::abs(args[0]); break;
        case 1: result = std::min(args[0], args[1]); break;
        case 2: result = std::max(args[0], args[1]); break;
        case 3: result = std::floor(args[0]); break;
        case 4: result = std::ceil(args[0]); break;
        case 5:
          if (args[0] < 0) return false;  // keep the runtime diagnostic
          result = std::sqrt(args[0]);
          break;
        default:
          return false;
      }
      replace_with(expr, Constant{true, 0, result}, expr->loc);
      return true;
    }
    default:
      return false;
  }
}

namespace {

void fold_stmt(Stmt& stmt) {
  fold_expr(stmt.expr);
  fold_expr(stmt.step);
  if (stmt.init) fold_stmt(*stmt.init);
  if (stmt.then_branch) fold_stmt(*stmt.then_branch);
  if (stmt.else_branch) fold_stmt(*stmt.else_branch);
  if (stmt.loop_body) fold_stmt(*stmt.loop_body);
  for (StmtPtr& child : stmt.body) fold_stmt(*child);
}

}  // namespace

void fold_constants(Program& program) {
  for (StmtPtr& stmt : program.statements) fold_stmt(*stmt);
}

}  // namespace dproc::ecode
