// The interpreter: one switch over the opcode inside a loop over the program
// counter. Falling off the end of the program, or jumping past it, is a
// clean halt. Integer arithmetic and double->int conversion go through
// arith.hpp, the helpers the constant folder uses too.
#include "dproc/ecode/vm.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "arith.hpp"

namespace dproc::ecode {

namespace {

std::string at_pc(std::size_t pc) {
  return " (pc=" + std::to_string(pc) + ")";
}

/// A kSample operand reached an int/double/bool context. Historically the
/// converters coerced samples to 0/false, so a type-confused filter (raw
/// sample compared against an int) evaluated to a wrong-but-valid verdict;
/// now it errors like the other runtime failures and d-mon fails open.
Status sample_operand_error(std::size_t pc) {
  return Status::invalid_argument("sample operand in numeric context" +
                                  at_pc(pc));
}

// Comparison predicate for the kLt..kNe block; `which` is the offset from
// kLt.
template <typename T>
bool compare_values(int which, T x, T y) {
  switch (which) {
    case 0: return x < y;
    case 1: return x <= y;
    case 2: return x > y;
    case 3: return x >= y;
    case 4: return x == y;
    case 5: return x != y;
    default: return false;
  }
}

}  // namespace

void Vm::ensure_output_slot(std::size_t idx) {
  const std::size_t needed = idx + 1;
  if (out_samples_.size() >= needed) return;
  std::size_t grown = std::max(needed, out_samples_.size() * 2);
  grown = std::min(grown,
                   static_cast<std::size_t>(limits_.max_output_index) + 1);
  out_samples_.resize(grown);
  out_written_.resize(grown, 0);
  // The touched-list can hold one entry per dense slot; reserving it to the
  // same bound here keeps the first-touch push_back in touch_output() from
  // allocating mid-run (all growth happens on this cold path).
  out_touched_.reserve(grown);
}

Result<FilterResult> Vm::run(const Bytecode& code,
                             std::span<const Sample> input) {
  FilterResult result;
  if (Status status = run(code, input, result); !status) return status;
  return result;
}

Status Vm::run(const Bytecode& code, std::span<const Sample> input,
               FilterResult& result) {
  using Kind = Value::Kind;

  // Converters for operands already vetted by VM_CHECK_NUM (the kSample
  // arms are unreachable and kept only so the switches stay exhaustive).
  const auto as_double = [](const Value& v) -> double {
    switch (v.kind) {
      case Kind::kInt: return static_cast<double>(v.i);
      case Kind::kDouble: return v.d;
      case Kind::kSample: break;
    }
    return 0.0;
  };
  const auto as_int = [](const Value& v) -> std::int64_t {
    switch (v.kind) {
      case Kind::kInt: return v.i;
      case Kind::kDouble: return arith::to_int(v.d);
      case Kind::kSample: break;
    }
    return 0;
  };
  const auto truthy = [](const Value& v) -> bool {
    return v.kind == Kind::kDouble ? v.d != 0.0
                                   : (v.kind == Kind::kInt ? v.i != 0 : false);
  };
  const auto from_int = [](std::int64_t v) {
    Value x;
    x.kind = Kind::kInt;
    x.i = v;
    return x;
  };
  const auto from_double = [](double v) {
    Value x;
    x.kind = Kind::kDouble;
    x.d = v;
    return x;
  };
  const auto from_sample = [](const Sample& v) {
    Value x;
    x.kind = Kind::kSample;
    x.s = v;
    return x;
  };

  // --- reset the scratch arenas (allocation-free once warm) ---------------
  // Every instruction pushes at most one value, so the program length bounds
  // the operand-stack depth; sizing to it up front lets the dispatch loop
  // run on a raw pointer with no per-push capacity checks.
  if (stack_.size() < code.insns.size() + 8) {
    stack_.resize(code.insns.size() + 8);
  }
  locals_.assign(code.local_slot_count, Value{});
  for (const std::int32_t idx : out_touched_) {
    out_written_[static_cast<std::size_t>(idx)] = 0;
  }
  out_touched_.clear();
  result.outputs.clear();
  result.return_value.reset();
  result.instructions_executed = 0;

  // Marks `idx` written this run, zeroing the slot on first touch (the
  // dense array may hold stale samples from the previous run).
  const auto touch_output = [&](std::int64_t idx) -> Sample& {
    const auto u = static_cast<std::size_t>(idx);
    ensure_output_slot(u);
    Sample& slot = out_samples_[u];
    if (!out_written_[u]) {
      out_written_[u] = 1;
      out_touched_.push_back(static_cast<std::int32_t>(idx));
      slot = Sample{};
    }
    return slot;
  };

  std::uint64_t fuel = 0;
  std::size_t pc = 0;

  Value* sp = stack_.data();  // one past the top of the operand stack
  const auto push = [&](const Value& v) { *sp++ = v; };
  const auto pop = [&]() -> Value { return *--sp; };
  // The fuel *limit* is enforced at control-flow edges only: straight-line
  // code cannot loop, so any runaway program hits a jump check. The
  // counter itself stays exact: one unit per instruction executed.
  const auto out_of_fuel = [&]() { return fuel > limits_.max_instructions; };
  const auto fuel_error = [&]() {
    return Status{StatusCode::kResourceExhausted,
                  "filter exceeded instruction limit (" +
                      std::to_string(limits_.max_instructions) + ")"};
  };
  // The one exit of a completed run: kHalt, kReturn, or pc leaving the
  // program (falling off the end or a jump past it).
  const auto finish = [&]() -> Status {
    if (out_of_fuel()) return fuel_error();
    result.instructions_executed = fuel;
    // The touched-list records first-write order; the contract is ascending
    // slot order. The list is small (one entry per written slot).
    std::sort(out_touched_.begin(), out_touched_.end());
    for (const std::int32_t idx : out_touched_) {
      result.outputs.emplace_back(idx,
                                  out_samples_[static_cast<std::size_t>(idx)]);
    }
    return Status::ok();
  };

#define VM_CHECK_NUM(v)                          \
  do {                                           \
    if ((v).kind == Kind::kSample) {             \
      return sample_operand_error(pc);           \
    }                                            \
  } while (0)

  const Insn* const insns = code.insns.data();
  const std::size_t end = code.insns.size();

  // Each handler either breaks out of the switch (advance to pc + 1),
  // continues the loop after setting pc (a taken jump), or returns.
  while (pc < end) {
    const Insn& insn = insns[pc];
    ++fuel;
    switch (insn.op) {
      case Op::kPushInt:
        push(from_int(insn.imm_i));
        break;
      case Op::kPushFloat:
        push(from_double(insn.imm_f));
        break;
      case Op::kPushZeroSample:
        push(from_sample(Sample{}));
        break;
      case Op::kLoadLocal:
        push(locals_[static_cast<std::size_t>(insn.arg)]);
        break;
      case Op::kStoreLocal:
        locals_[static_cast<std::size_t>(insn.arg)] = sp[-1];
        break;
      case Op::kDup:
        push(sp[-1]);
        break;
      case Op::kPop:
        --sp;
        break;

      case Op::kLoadInput: {
        const Value idxv = pop();
        VM_CHECK_NUM(idxv);
        const std::int64_t idx = as_int(idxv);
        if (idx < 0 || static_cast<std::size_t>(idx) >= input.size()) {
          return Status::invalid_argument(
              "input index " + std::to_string(idx) + " out of range [0, " +
              std::to_string(input.size()) + ")" + at_pc(pc));
        }
        push(from_sample(input[static_cast<std::size_t>(idx)]));
        break;
      }
      case Op::kLoadOutput: {
        const Value idxv = pop();
        VM_CHECK_NUM(idxv);
        const std::int64_t idx = as_int(idxv);
        if (idx < 0 || idx > limits_.max_output_index) {
          return Status::invalid_argument("output index " +
                                          std::to_string(idx) +
                                          " out of range" + at_pc(pc));
        }
        const auto u = static_cast<std::size_t>(idx);
        push(from_sample(u < out_samples_.size() && out_written_[u]
                             ? out_samples_[u]
                             : Sample{}));
        break;
      }
      case Op::kStoreOutput: {
        const Value value = pop();
        const Value idxv = pop();
        VM_CHECK_NUM(idxv);
        const std::int64_t idx = as_int(idxv);
        if (idx < 0 || idx > limits_.max_output_index) {
          return Status::invalid_argument("output index " +
                                          std::to_string(idx) +
                                          " out of range" + at_pc(pc));
        }
        if (value.kind != Kind::kSample) {
          return Status::internal("store of non-sample into output" +
                                  at_pc(pc));
        }
        touch_output(idx) = value.s;
        push(value);
        break;
      }
      case Op::kFieldGet: {
        const Value base = pop();
        if (base.kind != Kind::kSample) {
          return Status::internal("field access on non-sample" + at_pc(pc));
        }
        switch (static_cast<SampleField>(insn.arg)) {
          case SampleField::kValue:
            push(from_double(base.s.value));
            break;
          case SampleField::kLastValueSent:
            push(from_double(base.s.last_value_sent));
            break;
          case SampleField::kId:
            push(from_int(base.s.id));
            break;
          case SampleField::kTimestamp:
            push(from_int(base.s.timestamp_ns));
            break;
        }
        break;
      }
      case Op::kOutputFieldSet: {
        const Value value = pop();
        VM_CHECK_NUM(value);
        const Value idxv = pop();
        VM_CHECK_NUM(idxv);
        const std::int64_t idx = as_int(idxv);
        if (idx < 0 || idx > limits_.max_output_index) {
          return Status::invalid_argument("output index " +
                                          std::to_string(idx) +
                                          " out of range" + at_pc(pc));
        }
        Sample& sample = touch_output(idx);
        switch (static_cast<SampleField>(insn.arg)) {
          case SampleField::kValue: sample.value = as_double(value); break;
          case SampleField::kLastValueSent:
            sample.last_value_sent = as_double(value);
            break;
          case SampleField::kId: sample.id = as_int(value); break;
          case SampleField::kTimestamp:
            sample.timestamp_ns = as_int(value);
            break;
        }
        push(value);
        break;
      }
      case Op::kLocalFieldSet: {
        const Value value = pop();
        VM_CHECK_NUM(value);
        Value& local = locals_[static_cast<std::size_t>(insn.arg)];
        if (local.kind != Kind::kSample) {
          local.kind = Kind::kSample;
          local.s = Sample{};
        }
        Sample& sample = local.s;
        switch (static_cast<SampleField>(insn.arg2)) {
          case SampleField::kValue: sample.value = as_double(value); break;
          case SampleField::kLastValueSent:
            sample.last_value_sent = as_double(value);
            break;
          case SampleField::kId: sample.id = as_int(value); break;
          case SampleField::kTimestamp:
            sample.timestamp_ns = as_int(value);
            break;
        }
        push(value);
        break;
      }

      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv: {
        const Value b = pop();
        const Value a = pop();
        VM_CHECK_NUM(a);
        VM_CHECK_NUM(b);
        if (a.kind == Kind::kDouble || b.kind == Kind::kDouble) {
          const double x = as_double(a), y = as_double(b);
          double r = 0;
          switch (insn.op) {
            case Op::kAdd: r = x + y; break;
            case Op::kSub: r = x - y; break;
            case Op::kMul: r = x * y; break;
            case Op::kDiv:
              if (y == 0.0) {
                return Status::invalid_argument("division by zero" +
                                                at_pc(pc));
              }
              r = x / y;
              break;
            default: break;
          }
          push(from_double(r));
        } else {
          const std::int64_t x = as_int(a), y = as_int(b);
          std::int64_t r = 0;
          switch (insn.op) {
            case Op::kAdd: r = arith::add(x, y); break;
            case Op::kSub: r = arith::sub(x, y); break;
            case Op::kMul: r = arith::mul(x, y); break;
            case Op::kDiv:
              if (y == 0) {
                return Status::invalid_argument("division by zero" +
                                                at_pc(pc));
              }
              r = arith::div(x, y);
              break;
            default: break;
          }
          push(from_int(r));
        }
        break;
      }
      case Op::kMod: {
        const Value bv = pop();
        const Value av = pop();
        VM_CHECK_NUM(av);
        VM_CHECK_NUM(bv);
        const std::int64_t y = as_int(bv);
        const std::int64_t x = as_int(av);
        if (y == 0) {
          return Status::invalid_argument("modulo by zero" + at_pc(pc));
        }
        push(from_int(arith::mod(x, y)));
        break;
      }
      case Op::kNeg: {
        const Value a = pop();
        VM_CHECK_NUM(a);
        push(a.kind == Kind::kDouble ? from_double(-a.d)
                                     : from_int(arith::neg(as_int(a))));
        break;
      }
      case Op::kNot: {
        const Value a = pop();
        VM_CHECK_NUM(a);
        push(from_int(truthy(a) ? 0 : 1));
        break;
      }
      case Op::kBitNot: {
        const Value a = pop();
        VM_CHECK_NUM(a);
        push(from_int(~as_int(a)));
        break;
      }
      case Op::kBitAnd: {
        const Value bv = pop(), av = pop();
        VM_CHECK_NUM(av);
        VM_CHECK_NUM(bv);
        push(from_int(as_int(av) & as_int(bv)));
        break;
      }
      case Op::kBitOr: {
        const Value bv = pop(), av = pop();
        VM_CHECK_NUM(av);
        VM_CHECK_NUM(bv);
        push(from_int(as_int(av) | as_int(bv)));
        break;
      }
      case Op::kBitXor: {
        const Value bv = pop(), av = pop();
        VM_CHECK_NUM(av);
        VM_CHECK_NUM(bv);
        push(from_int(as_int(av) ^ as_int(bv)));
        break;
      }
      case Op::kShl:
      case Op::kShr: {
        const Value bv = pop(), av = pop();
        VM_CHECK_NUM(av);
        VM_CHECK_NUM(bv);
        const std::int64_t y = as_int(bv), x = as_int(av);
        if (y < 0 || y > 63) {
          return Status::invalid_argument("shift amount out of range" +
                                          at_pc(pc));
        }
        push(from_int(insn.op == Op::kShl ? arith::shl(x, y) : x >> y));
        break;
      }

      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe:
      case Op::kEq:
      case Op::kNe: {
        const Value b = pop();
        const Value a = pop();
        VM_CHECK_NUM(a);
        VM_CHECK_NUM(b);
        const int which = static_cast<int>(insn.op) - static_cast<int>(Op::kLt);
        const bool r = a.kind == Kind::kDouble || b.kind == Kind::kDouble
                           ? compare_values(which, as_double(a), as_double(b))
                           : compare_values(which, a.i, b.i);
        push(from_int(r ? 1 : 0));
        break;
      }

      case Op::kToInt: {
        Value& top = sp[-1];
        VM_CHECK_NUM(top);
        if (top.kind == Kind::kDouble) {
          top = from_int(arith::to_int(top.d));
        }
        break;
      }
      case Op::kToDouble: {
        Value& top = sp[-1];
        VM_CHECK_NUM(top);
        if (top.kind == Kind::kInt) {
          top = from_double(static_cast<double>(top.i));
        }
        break;
      }
      case Op::kToBool: {
        Value& top = sp[-1];
        VM_CHECK_NUM(top);
        top = from_int(truthy(top) ? 1 : 0);
        break;
      }

      case Op::kCallBuiltin: {
        const int argc = insn.arg2;
        double args[2] = {0.0, 0.0};
        for (int i = argc - 1; i >= 0; --i) {
          const Value v = pop();
          VM_CHECK_NUM(v);
          args[i] = as_double(v);
        }
        double r = 0.0;
        switch (insn.arg) {
          case 0: r = std::abs(args[0]); break;           // abs
          case 1: r = std::min(args[0], args[1]); break;  // min
          case 2: r = std::max(args[0], args[1]); break;  // max
          case 3: r = std::floor(args[0]); break;         // floor
          case 4: r = std::ceil(args[0]); break;          // ceil
          case 5:                                          // sqrt
            if (args[0] < 0) {
              return Status::invalid_argument("sqrt of negative value" +
                                              at_pc(pc));
            }
            r = std::sqrt(args[0]);
            break;
          default:
            return Status::internal("unknown builtin" + at_pc(pc));
        }
        push(from_double(r));
        break;
      }
      case Op::kCallSketch: {
        // Sketch builtins (topk/topkid/cmlookup/skmerge) read the embedder's
        // sketch state. Sema only accepts them when the environment enables
        // them, so reaching this with no host means the embedder enabled the
        // builtins without binding state — a wiring error, not filter input.
        if (sketch_ == nullptr) {
          return Status::invalid_argument(
              "sketch builtin called with no sketch state bound" + at_pc(pc));
        }
        const Value av = pop();
        VM_CHECK_NUM(av);
        const std::int64_t x = as_int(av);
        double r = 0.0;
        switch (insn.arg) {
          case 0:  // topk(rank): estimated count of the rank-th heaviest key
            if (x < 0) {
              return Status::invalid_argument("topk rank must be >= 0" +
                                              at_pc(pc));
            }
            r = sketch_->topk_count(x);
            break;
          case 1:  // topkid(rank): key of the rank-th heaviest entry
            if (x < 0) {
              return Status::invalid_argument("topkid rank must be >= 0" +
                                              at_pc(pc));
            }
            r = sketch_->topk_key(x);
            break;
          case 2:  // cmlookup(key): count-min estimate
            r = sketch_->cm_estimate(x);
            break;
          case 3:  // skmerge(index): fold auxiliary sketch into the primary
            r = sketch_->merge_aux(x);
            break;
          default:
            return Status::internal("unknown sketch builtin" + at_pc(pc));
        }
        push(from_double(r));
        break;
      }

      case Op::kJmp:
        if (out_of_fuel()) return fuel_error();
        pc = static_cast<std::size_t>(insn.arg);
        continue;
      case Op::kJmpIfFalse:
      case Op::kJmpIfTrue: {
        const Value a = pop();
        VM_CHECK_NUM(a);
        if (truthy(a) == (insn.op == Op::kJmpIfTrue)) {
          if (out_of_fuel()) return fuel_error();
          pc = static_cast<std::size_t>(insn.arg);
          continue;
        }
        break;
      }

      case Op::kReturn: {
        if (out_of_fuel()) return fuel_error();
        const Value a = pop();
        VM_CHECK_NUM(a);
        result.return_value = as_double(a);
        return finish();
      }
      case Op::kHalt:
        return finish();
    }
    ++pc;
  }
  return finish();

#undef VM_CHECK_NUM
}

}  // namespace dproc::ecode
