#include "dproc/ecode/ecode.hpp"

#include <sstream>

#include "dproc/ecode/compiler.hpp"
#include "dproc/ecode/fold.hpp"
#include "dproc/ecode/lexer.hpp"
#include "dproc/ecode/parser.hpp"

namespace dproc::ecode {

Result<Filter> Filter::compile(std::string_view source,
                               const CompileEnv& env) {
  auto tokens = Lexer{source}.tokenize();
  if (!tokens) return tokens.status();

  auto program = Parser{std::move(tokens).value()}.parse_program();
  if (!program) return program.status();

  Program ast = std::move(program).value();
  if (Status status = Sema{env}.analyze(ast); !status) return status;
  fold_constants(ast);
  return Filter{std::string{source}, Compiler{}.compile(ast)};
}

const char* to_string(Op op) {
  switch (op) {
    case Op::kPushInt: return "push_int";
    case Op::kPushFloat: return "push_float";
    case Op::kPushZeroSample: return "push_zero_sample";
    case Op::kCallBuiltin: return "call_builtin";
    case Op::kCallSketch: return "call_sketch";
    case Op::kLoadLocal: return "load_local";
    case Op::kStoreLocal: return "store_local";
    case Op::kDup: return "dup";
    case Op::kPop: return "pop";
    case Op::kLoadInput: return "load_input";
    case Op::kLoadOutput: return "load_output";
    case Op::kStoreOutput: return "store_output";
    case Op::kFieldGet: return "field_get";
    case Op::kOutputFieldSet: return "output_field_set";
    case Op::kLocalFieldSet: return "local_field_set";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kNeg: return "neg";
    case Op::kNot: return "not";
    case Op::kBitNot: return "bit_not";
    case Op::kBitAnd: return "bit_and";
    case Op::kBitOr: return "bit_or";
    case Op::kBitXor: return "bit_xor";
    case Op::kShl: return "shl";
    case Op::kShr: return "shr";
    case Op::kLt: return "lt";
    case Op::kLe: return "le";
    case Op::kGt: return "gt";
    case Op::kGe: return "ge";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kToInt: return "to_int";
    case Op::kToDouble: return "to_double";
    case Op::kToBool: return "to_bool";
    case Op::kJmp: return "jmp";
    case Op::kJmpIfFalse: return "jmp_if_false";
    case Op::kJmpIfTrue: return "jmp_if_true";
    case Op::kReturn: return "return";
    case Op::kHalt: return "halt";
  }
  return "?";
}

std::string Bytecode::disassemble() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < insns.size(); ++i) {
    const Insn& insn = insns[i];
    out << i << ": " << to_string(insn.op);
    switch (insn.op) {
      case Op::kPushInt:
        out << " " << insn.imm_i;
        break;
      case Op::kPushFloat:
        out << " " << insn.imm_f;
        break;
      case Op::kLoadLocal:
      case Op::kStoreLocal:
      case Op::kJmp:
      case Op::kJmpIfFalse:
      case Op::kJmpIfTrue:
      case Op::kFieldGet:
      case Op::kOutputFieldSet:
        out << " " << insn.arg;
        break;
      case Op::kLocalFieldSet:
      case Op::kCallBuiltin:
      case Op::kCallSketch:
        out << " " << insn.arg << " " << insn.arg2;
        break;
      default:
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace dproc::ecode
