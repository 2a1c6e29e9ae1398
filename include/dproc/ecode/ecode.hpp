// Public facade of the E-code filter language.
//
// Usage, mirroring the paper's deployment path: an application writes filter
// source to a node's control file; d-mon ships the string over the control
// channel; the receiving d-mon compiles it with the monitoring-source
// constants bound (LOADAVG, FREEMEM, ...) and runs it before each
// publication.
//
//   ecode::CompileEnv env;
//   env.constants = {{"LOADAVG", 0}, {"FREEMEM", 1}};
//   auto filter = ecode::Filter::compile(source, env);
//   if (!filter) { /* report filter.status() back through the control file */ }
//   auto out = filter.value().run(samples);
//
// A filter compiles to one bytecode and runs on one interpreter, the Vm in
// vm.hpp, which charges one unit of fuel per instruction. Its ints are
// 64-bit and wrap on overflow (INT64_MIN / -1 == INT64_MIN,
// INT64_MIN % -1 == 0); a double stored into an int truncates and
// saturates, with NaN giving 0. Constant folding follows the same rules, so
// it never changes a result, only lowers the fuel a filter burns.
#pragma once

#include <string>
#include <string_view>

#include "dproc/ecode/bytecode.hpp"
#include "dproc/ecode/sema.hpp"
#include "dproc/ecode/vm.hpp"
#include "dproc/util/status.hpp"

namespace dproc::ecode {

class Filter {
 public:
  /// Compiles filter source against the environment's constant bindings:
  /// lex, parse, check, fold constants, then emit the bytecode the Vm runs
  /// as is. Errors carry line:column diagnostics suitable for the control
  /// file.
  static Result<Filter> compile(std::string_view source,
                                const CompileEnv& env = {});

  /// Runs the filter on a fresh Vm; `input[i]` is the sample for
  /// monitoring source i. Callers that evaluate every period keep one Vm
  /// and a reused FilterResult instead (Vm::run), which allocates nothing
  /// once warm.
  [[nodiscard]] Result<FilterResult> run(std::span<const Sample> input,
                                         VmLimits limits = {}) const {
    return Vm{limits}.run(bytecode_, input);
  }

  [[nodiscard]] const Bytecode& bytecode() const { return bytecode_; }
  [[nodiscard]] const std::string& source() const { return source_; }

 private:
  Filter(std::string source, Bytecode bytecode)
      : source_(std::move(source)), bytecode_(std::move(bytecode)) {}

  std::string source_;
  Bytecode bytecode_;
};

}  // namespace dproc::ecode
