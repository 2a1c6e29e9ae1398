// E-code bytecode.
//
// The paper's E-code generates native binary at the publishing host; this
// reproduction compiles to a compact stack bytecode executed by a fueled VM
// instead (see DESIGN.md for why the substitution preserves the system's
// behaviour). The compiler's output is the only bytecode: the VM runs it as
// emitted and charges one unit of fuel per instruction executed, so a
// filter's modeled cost is a count of these instructions. Every store
// instruction leaves the stored value on the stack, giving C's
// assignment-as-expression semantics; statement contexts emit an explicit
// kPop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dproc/ecode/ast.hpp"

namespace dproc::ecode {

enum class Op : std::uint8_t {
  kPushInt,      // push imm_i
  kPushFloat,    // push imm_f
  kLoadLocal,    // push locals[arg]
  kStoreLocal,   // locals[arg] = top (value stays)
  kDup,
  kPop,

  kLoadInput,    // pop idx; push input[idx] (sample)
  kLoadOutput,   // pop idx; push output[idx] (sample; zero if unwritten)
  kStoreOutput,  // pop value, pop idx; output[idx] = value; push value
  kFieldGet,     // pop sample; push sample.field(arg)
  kOutputFieldSet,  // pop value, pop idx; output[idx].field(arg) = value; push value
  kLocalFieldSet,   // pop value; locals[arg].field(arg2) = value; push value

  kAdd, kSub, kMul, kDiv, kMod,
  kNeg, kNot, kBitNot,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kLt, kLe, kGt, kGe, kEq, kNe,

  kToInt,     // truncate top to int
  kToDouble,  // widen top to double
  kToBool,    // top = (top != 0) as int
  kPushZeroSample,  // push a zero-initialized sample (declaration default)
  kCallBuiltin,     // pop arg(arg2) args; push builtin(arg) result
  kCallSketch,      // pop arg(arg2) args; push sketch-host fn(arg) result

  kJmp,         // pc = arg
  kJmpIfFalse,  // pop; if zero pc = arg
  kJmpIfTrue,   // pop; if nonzero pc = arg

  kReturn,      // pop return value; halt
  kHalt,        // end of program, no return value
};

struct Insn {
  Op op;
  std::int32_t arg = 0;    // slot / jump target / field / builtin
  std::int32_t arg2 = 0;   // kLocalFieldSet: field; kCall*: argument count
  std::int64_t imm_i = 0;  // kPushInt
  double imm_f = 0.0;      // kPushFloat
};

struct Bytecode {
  std::vector<Insn> insns;
  std::size_t local_slot_count = 0;

  [[nodiscard]] std::string disassemble() const;
};

[[nodiscard]] const char* to_string(Op op);

}  // namespace dproc::ecode
