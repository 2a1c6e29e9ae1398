// Execution semantics of compiled E-code filters.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "dproc/ecode/ecode.hpp"

namespace dproc::ecode {
namespace {

FilterResult run(std::string_view source, std::vector<Sample> input = {},
                 const CompileEnv& env = {}, VmLimits limits = {}) {
  auto filter = Filter::compile(source, env);
  EXPECT_TRUE(filter.is_ok()) << filter.status().to_string();
  if (!filter.is_ok()) return {};
  auto result = filter.value().run(input, limits);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.is_ok() ? std::move(result).value() : FilterResult{};
}

double ret(std::string_view source, std::vector<Sample> input = {},
           const CompileEnv& env = {}) {
  auto result = run(source, std::move(input), env);
  EXPECT_TRUE(result.return_value.has_value()) << source;
  return result.return_value.value_or(0.0);
}

TEST(Vm, ReturnLiteral) { EXPECT_DOUBLE_EQ(ret("return 42;"), 42.0); }

TEST(Vm, IntegerArithmeticMatchesC) {
  EXPECT_DOUBLE_EQ(ret("return 7 + 3 * 2;"), 13.0);
  EXPECT_DOUBLE_EQ(ret("return 7 / 2;"), 3.0);       // int division
  EXPECT_DOUBLE_EQ(ret("return -7 / 2;"), -3.0);     // truncation toward zero
  EXPECT_DOUBLE_EQ(ret("return 7 % 3;"), 1.0);
  EXPECT_DOUBLE_EQ(ret("return -7 % 3;"), -1.0);
  EXPECT_DOUBLE_EQ(ret("return (1 + 2) * 3;"), 9.0);
}

TEST(Vm, DoubleArithmetic) {
  EXPECT_DOUBLE_EQ(ret("return 7.0 / 2;"), 3.5);  // promotion
  EXPECT_DOUBLE_EQ(ret("return 1.5 + 2.25;"), 3.75);
  EXPECT_DOUBLE_EQ(ret("return 50e6 / 1e6;"), 50.0);
}

TEST(Vm, TruncationOnIntAssignment) {
  EXPECT_DOUBLE_EQ(ret("int x = 2.9; return x;"), 2.0);
  EXPECT_DOUBLE_EQ(ret("int x = -2.9; return x;"), -2.0);
  EXPECT_DOUBLE_EQ(ret("int x = 1; x += 1.5; return x;"), 2.0);
}

TEST(Vm, ComparisonsAndLogic) {
  EXPECT_DOUBLE_EQ(ret("return 3 < 5;"), 1.0);
  EXPECT_DOUBLE_EQ(ret("return 5 <= 4;"), 0.0);
  EXPECT_DOUBLE_EQ(ret("return 2 == 2 && 3 != 4;"), 1.0);
  EXPECT_DOUBLE_EQ(ret("return 0 || 2;"), 1.0);  // normalized to 0/1
  EXPECT_DOUBLE_EQ(ret("return !3;"), 0.0);
  EXPECT_DOUBLE_EQ(ret("return !0;"), 1.0);
  EXPECT_DOUBLE_EQ(ret("return 1.5 > 1;"), 1.0);
}

TEST(Vm, ShortCircuitSkipsSideEffects) {
  EXPECT_DOUBLE_EQ(
      ret("int i = 0; int x = 0 && (i = 1); return i;"), 0.0);
  EXPECT_DOUBLE_EQ(
      ret("int i = 0; int x = 1 || (i = 1); return i;"), 0.0);
  EXPECT_DOUBLE_EQ(
      ret("int i = 0; int x = 1 && (i = 1); return i;"), 1.0);
}

TEST(Vm, BitwiseAndShifts) {
  EXPECT_DOUBLE_EQ(ret("return 12 & 10;"), 8.0);
  EXPECT_DOUBLE_EQ(ret("return 12 | 10;"), 14.0);
  EXPECT_DOUBLE_EQ(ret("return 12 ^ 10;"), 6.0);
  EXPECT_DOUBLE_EQ(ret("return ~0;"), -1.0);
  EXPECT_DOUBLE_EQ(ret("return 1 << 10;"), 1024.0);
  EXPECT_DOUBLE_EQ(ret("return -16 >> 2;"), -4.0);  // arithmetic shift
}

TEST(Vm, TernarySelects) {
  EXPECT_DOUBLE_EQ(ret("return 1 ? 10 : 20;"), 10.0);
  EXPECT_DOUBLE_EQ(ret("return 0 ? 10 : 20;"), 20.0);
  EXPECT_DOUBLE_EQ(ret("return 0 ? 1 : 2.5;"), 2.5);
}

TEST(Vm, IfElseChains) {
  const char* source =
      "int x = 7;\n"
      "if (x > 10) { return 1; } else if (x > 5) { return 2; } else { return 3; }";
  EXPECT_DOUBLE_EQ(ret(source), 2.0);
}

TEST(Vm, ForLoopSums) {
  EXPECT_DOUBLE_EQ(
      ret("int sum = 0; for (int i = 1; i <= 10; i = i + 1) sum += i; return sum;"),
      55.0);
}

TEST(Vm, WhileLoopWithBreakContinue) {
  const char* source =
      "int sum = 0; int i = 0;\n"
      "while (1) {\n"
      "  i = i + 1;\n"
      "  if (i > 10) break;\n"
      "  if (i % 2) continue;\n"
      "  sum += i;\n"
      "}\n"
      "return sum;";  // 2+4+6+8+10
  EXPECT_DOUBLE_EQ(ret(source), 30.0);
}

TEST(Vm, NestedLoopsAndBreakInnerOnly) {
  const char* source =
      "int count = 0;\n"
      "for (int i = 0; i < 3; ++i) {\n"
      "  for (int j = 0; j < 10; ++j) {\n"
      "    if (j == 2) break;\n"
      "    count++;\n"
      "  }\n"
      "}\n"
      "return count;";
  EXPECT_DOUBLE_EQ(ret(source), 6.0);
}

TEST(Vm, IncrementDecrementSemantics) {
  EXPECT_DOUBLE_EQ(ret("int i = 5; int x = i++; return x * 100 + i;"), 506.0);
  EXPECT_DOUBLE_EQ(ret("int i = 5; int x = ++i; return x * 100 + i;"), 606.0);
  EXPECT_DOUBLE_EQ(ret("int i = 5; int x = i--; return x * 100 + i;"), 504.0);
  EXPECT_DOUBLE_EQ(ret("double d = 1.5; ++d; return d;"), 2.5);
}

TEST(Vm, CompoundAssignments) {
  EXPECT_DOUBLE_EQ(ret("int x = 10; x -= 3; x *= 2; x /= 4; x %= 2; return x;"),
                   1.0);
  EXPECT_DOUBLE_EQ(ret("double x = 10; x /= 4; return x;"), 2.5);
}

TEST(Vm, InputFieldsReadable) {
  std::vector<Sample> input{{7, 3.5, 2.0, 1234}};
  EXPECT_DOUBLE_EQ(ret("return input[0].value;", input), 3.5);
  EXPECT_DOUBLE_EQ(ret("return input[0].last_value_sent;", input), 2.0);
  EXPECT_DOUBLE_EQ(ret("return input[0].id;", input), 7.0);
  EXPECT_DOUBLE_EQ(ret("return input[0].timestamp;", input), 1234.0);
}

TEST(Vm, OutputCopiesWholeSample) {
  std::vector<Sample> input{{7, 3.5, 2.0, 1234}};
  auto result = run("output[0] = input[0];", input);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 0);
  EXPECT_EQ(result.outputs[0].second, input[0]);
}

TEST(Vm, OutputFieldWrites) {
  auto result = run("output[2].value = 9.5; output[2].id = 4;");
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].first, 2);
  EXPECT_DOUBLE_EQ(result.outputs[0].second.value, 9.5);
  EXPECT_EQ(result.outputs[0].second.id, 4);
}

TEST(Vm, OutputsReportedInIndexOrder) {
  auto result = run("output[5].value = 5; output[1].value = 1; output[3].value = 3;");
  ASSERT_EQ(result.outputs.size(), 3u);
  EXPECT_EQ(result.outputs[0].first, 1);
  EXPECT_EQ(result.outputs[1].first, 3);
  EXPECT_EQ(result.outputs[2].first, 5);
}

TEST(Vm, LocalSampleRoundTrip) {
  std::vector<Sample> input{{1, 10.0, 0.0, 0}};
  auto result = run(
      "sample s = input[0]; s.value = s.value * 2; output[0] = s;", input);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.outputs[0].second.value, 20.0);
  EXPECT_EQ(result.outputs[0].second.id, 1);
}

// The paper's Figure 3 filter, with its monitoring sources bound.
const char* const kFigure3Filter = R"({
  int i = 0;
  if (input[LOADAVG].value > 2) {
    output[i] = input[LOADAVG];
    i = i + 1;
  }
  if (input[DISKUSAGE].value > 10000 && input[FREEMEM].value < 50e6) {
    output[i] = input[DISKUSAGE];
    i = i + 1;
    output[i] = input[FREEMEM];
    i = i + 1;
  }
  if (input[CACHE_MISS].value > input[CACHE_MISS].last_value_sent) {
    output[i] = input[CACHE_MISS];
    i = i + 1;
  }
})";

CompileEnv figure3_env() {
  CompileEnv env;
  env.constants = {{"LOADAVG", 0}, {"DISKUSAGE", 1}, {"FREEMEM", 2},
                   {"CACHE_MISS", 3}};
  return env;
}

TEST(Vm, PaperFigure3FilterBehaves) {
  const CompileEnv env = figure3_env();
  const char* source = kFigure3Filter;

  // Quiet system: nothing passes.
  std::vector<Sample> quiet{
      {0, 0.5, 0.5, 0}, {1, 100, 100, 0}, {2, 400e6, 400e6, 0}, {3, 50, 50, 0}};
  EXPECT_TRUE(run(source, quiet, env).outputs.empty());

  // Loaded system: loadavg and both disk/mem conditions fire, plus cache.
  std::vector<Sample> loaded{
      {0, 3.0, 0.5, 0}, {1, 20000, 100, 0}, {2, 10e6, 400e6, 0}, {3, 99, 50, 0}};
  auto result = run(source, loaded, env);
  ASSERT_EQ(result.outputs.size(), 4u);
  EXPECT_EQ(result.outputs[0].second.id, 0);
  EXPECT_EQ(result.outputs[1].second.id, 1);
  EXPECT_EQ(result.outputs[2].second.id, 2);
  EXPECT_EQ(result.outputs[3].second.id, 3);
}

// --- runtime failures -----------------------------------------------------

TEST(Vm, DivisionByZeroIsRuntimeError) {
  auto filter = Filter::compile("int x = 0; return 1 / x;");
  ASSERT_TRUE(filter.is_ok());
  auto result = filter.value().run({});
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("division by zero"),
            std::string::npos);
}

TEST(Vm, ModuloByZeroIsRuntimeError) {
  auto filter = Filter::compile("int x = 0; return 1 % x;");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_FALSE(filter.value().run({}).is_ok());
}

TEST(Vm, InputIndexOutOfRange) {
  auto filter = Filter::compile("return input[2].value;");
  ASSERT_TRUE(filter.is_ok());
  std::vector<Sample> input{{0, 1, 0, 0}};
  auto result = filter.value().run(input);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("out of range"), std::string::npos);
}

TEST(Vm, NegativeIndexRejected) {
  auto filter = Filter::compile("output[0-1].value = 1;");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_FALSE(filter.value().run({}).is_ok());
}

TEST(Vm, OutputIndexLimitEnforced) {
  auto filter = Filter::compile("output[1000].value = 1;");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_FALSE(filter.value().run({}).is_ok());
}

TEST(Vm, InfiniteLoopRunsOutOfFuel) {
  auto filter = Filter::compile("while (1) { }");
  ASSERT_TRUE(filter.is_ok());
  auto result = filter.value().run({}, VmLimits{.max_instructions = 10'000});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Vm, ShiftOutOfRangeRejected) {
  auto filter = Filter::compile("return 1 << 70;");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_FALSE(filter.value().run({}).is_ok());
}

TEST(Vm, HaltWithoutReturnGivesNoValue) {
  auto result = run("int x = 1;");
  EXPECT_FALSE(result.return_value.has_value());
}

TEST(Vm, EarlyReturnSkipsRest) {
  auto result = run("output[0].value = 1; return 5; output[1].value = 2;");
  EXPECT_EQ(result.outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(result.return_value.value(), 5.0);
}

TEST(Vm, InstructionCountReported) {
  auto result = run("return 1;");
  EXPECT_GT(result.instructions_executed, 0u);
  EXPECT_LT(result.instructions_executed, 10u);
}

// --- fuel pin ---------------------------------------------------------------
//
// A filter's modeled cost is its fuel, instructions_executed, which d-mon
// charges to the publishing kernel. These rows pin the fuel, the return value
// and every output slot of the filters the benches and the golden trace
// deploy: the Figure 3 filter on three inputs, the five filters of
// micro_ecode's corpus, and the filter test_trace_golden deploys on every
// node. A change to the compiler or the VM that moves a modeled cycle fails
// here before it reaches a figure.

struct FuelPin {
  const char* name;
  const char* source;
  CompileEnv env;
  std::vector<Sample> input;
  std::uint64_t instructions;
  std::optional<double> return_value;
  std::vector<std::pair<std::int64_t, Sample>> outputs;
};

std::vector<Sample> corpus_input() {
  std::vector<Sample> input;
  for (int i = 0; i < 8; ++i) {
    input.push_back({i, 100.0 + i, (i % 2 == 0) ? 90.0 : 100.0 + i, 0});
  }
  return input;
}

const char* const kDeployedFilter = R"({
  int i = 0;
  if (input[LOADAVG].value > 0.1) {
    output[i] = input[LOADAVG];
    i = i + 1;
  }
  if (input[FREEMEM].value < input[FREEMEM].last_value_sent * 0.999) {
    output[i] = input[FREEMEM];
    i = i + 1;
  }
  if (input[RTT].value > input[RTT].last_value_sent) {
    output[i] = input[RTT];
    i = i + 1;
  }
  if (input[NET_OUT].value > 0) {
    output[i] = input[NET_OUT];
    i = i + 1;
  }
})";

std::vector<Sample> deployed_input() {
  std::vector<Sample> input;
  for (int i = 0; i < 12; ++i) {
    input.push_back({i, 0.0, 0.0, 1'000'000'000LL * (i + 1)});
  }
  input[0].value = 0.35;
  input[0].last_value_sent = 0.2;
  input[2].value = 3.9e9;
  input[2].last_value_sent = 4.0e9;
  input[8].value = 1.25e6;
  input[10].value = 180.5;
  input[10].last_value_sent = 210.0;
  return input;
}

std::vector<FuelPin> fuel_pins() {
  CompileEnv deployed_env;
  deployed_env.constants = {
      {"LOADAVG", 0}, {"FREEMEM", 2}, {"NET_OUT", 8}, {"RTT", 10}};
  const CompileEnv no_constants;
  const std::vector<Sample> corpus = corpus_input();
  const std::vector<Sample> deployed = deployed_input();
  return {
      {"figure3_quiet", kFigure3Filter, figure3_env(),
       {{0, 0.5, 0.5, 0}, {1, 100, 100, 0}, {2, 400e6, 400e6, 0},
        {3, 50, 50, 0}},
       26, std::nullopt, {}},
      {"figure3_loaded", kFigure3Filter, figure3_env(),
       {{0, 3.0, 0.5, 0}, {1, 20000, 100, 0}, {2, 10e6, 400e6, 0},
        {3, 99, 50, 0}},
       72, std::nullopt,
       {{0, {0, 3.0, 0.5, 0}},
        {1, {1, 20000, 100, 0}},
        {2, {2, 10e6, 400e6, 0}},
        {3, {3, 99, 50, 0}}}},
      {"figure3_bench", kFigure3Filter, figure3_env(),
       {{0, 2.5, 0.4, 0}, {1, 20'000, 220, 0}, {2, 41e6, 310e6, 0},
        {3, 8'812'004, 8'611'220, 0}},
       72, std::nullopt,
       {{0, {0, 2.5, 0.4, 0}},
        {1, {1, 20'000, 220, 0}},
        {2, {2, 41e6, 310e6, 0}},
        {3, {3, 8'812'004, 8'611'220, 0}}}},
      {"corpus_counted_loop",
       "int s = 0; for (int i = 0; i < 1000; ++i) s += i; return s;",
       no_constants, corpus, 17012, 499500.0, {}},
      {"corpus_xorshift",
       "int h = 12345;\n"
       "for (int i = 0; i < 600; ++i) {\n"
       "  h = h ^ (h << 13); h = h ^ (h >> 7); h = h + i;\n"
       "}\n"
       "return h % 65536;",
       no_constants, corpus, 18014, 41564.0, {}},
      {"corpus_ternaries",
       "int a = 0; int b = 1;\n"
       "for (int i = 1; i < 500; ++i) {\n"
       "  a = (i % 3 == 0) ? a + b : a - 1;\n"
       "  b = b + (a < 0 ? 1 : 2);\n"
       "}\n"
       "return a + b;",
       no_constants, corpus, 15655, 83166.0, {}},
      {"corpus_hysteresis",
       "int state = 0; int flips = 0; int level = 0;\n"
       "for (int i = 0; i < 500; ++i) {\n"
       "  level = (level * 13 + 7) % 100;\n"
       "  if (state == 0) { if (level > 80) { state = 1; flips = flips + 1; } }\n"
       "  else { if (level < 20) { state = 0; flips = flips + 1; } }\n"
       "}\n"
       "return flips * 2 + state;",
       no_constants, corpus, 14797, 100.0, {}},
      {"corpus_threshold",
       "int sent = 0;\n"
       "for (int i = 0; i < 8; ++i) {\n"
       "  if (input[i].value > input[i].last_value_sent * 1.05) {\n"
       "    output[i] = input[i]; sent = sent + 1;\n"
       "  }\n"
       "}\n"
       "return sent;",
       no_constants, corpus, 220, 4.0,
       {{0, corpus[0]}, {2, corpus[2]}, {4, corpus[4]}, {6, corpus[6]}}},
      {"trace_golden_deployed", kDeployedFilter, deployed_env, deployed, 64,
       std::nullopt,
       {{0, deployed[0]}, {1, deployed[2]}, {2, deployed[8]}}},
  };
}

TEST(Vm, FuelOutputsAndReturnValuesArePinned) {
  for (const FuelPin& pin : fuel_pins()) {
    SCOPED_TRACE(pin.name);
    auto filter = Filter::compile(pin.source, pin.env);
    ASSERT_TRUE(filter.is_ok()) << filter.status().to_string();
    // Once on a fresh Vm, once on a warm one reusing its result: both paths
    // charge the same fuel.
    auto fresh = filter.value().run(pin.input);
    ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
    Vm vm;
    FilterResult warm;
    for (int round = 0; round < 2; ++round) {
      ASSERT_TRUE(vm.run(filter.value().bytecode(), pin.input, warm));
    }
    const FilterResult* const results[] = {&fresh.value(), &warm};
    for (const FilterResult* result : results) {
      EXPECT_EQ(result->instructions_executed, pin.instructions);
      EXPECT_EQ(result->return_value, pin.return_value);
      EXPECT_EQ(result->outputs, pin.outputs);
    }
  }
}

TEST(Vm, BuiltinFunctions) {
  EXPECT_DOUBLE_EQ(ret("return abs(0-5);"), 5.0);
  EXPECT_DOUBLE_EQ(ret("return abs(3.5);"), 3.5);
  EXPECT_DOUBLE_EQ(ret("return min(2, 7);"), 2.0);
  EXPECT_DOUBLE_EQ(ret("return max(2.5, 7);"), 7.0);
  EXPECT_DOUBLE_EQ(ret("return floor(2.9);"), 2.0);
  EXPECT_DOUBLE_EQ(ret("return ceil(2.1);"), 3.0);
  EXPECT_DOUBLE_EQ(ret("return sqrt(16);"), 4.0);
  EXPECT_DOUBLE_EQ(ret("return min(max(1, 5), 3);"), 3.0);  // nesting
}

TEST(Vm, BuiltinInFilterContext) {
  std::vector<Sample> input{{0, 100.0, 80.0, 0}};
  // Relative change as a function: |v - last| / max(|last|, 1).
  const char* source =
      "double change = abs(input[0].value - input[0].last_value_sent) /"
      " max(abs(input[0].last_value_sent), 1.0);"
      "if (change > 0.15) output[0] = input[0];"
      "return change;";
  EXPECT_NEAR(ret(source, input), 0.25, 1e-12);
  EXPECT_EQ(run(source, input).outputs.size(), 1u);
}

TEST(Vm, SqrtOfNegativeIsRuntimeError) {
  auto filter = Filter::compile("return sqrt(0-1);");
  ASSERT_TRUE(filter.is_ok());
  EXPECT_FALSE(filter.value().run({}).is_ok());
}

TEST(Vm, UnknownFunctionRejectedAtCompile) {
  auto filter = Filter::compile("return frobnicate(1);");
  ASSERT_FALSE(filter.is_ok());
  EXPECT_NE(filter.status().message().find("unknown function"),
            std::string::npos);
}

TEST(Vm, BuiltinArityChecked) {
  EXPECT_FALSE(Filter::compile("return abs(1, 2);").is_ok());
  EXPECT_FALSE(Filter::compile("return min(1);").is_ok());
}

TEST(Vm, BuiltinArgumentTypeChecked) {
  EXPECT_FALSE(Filter::compile("return abs(input[0]);").is_ok());
}

TEST(Vm, LocalsShadowBuiltinNamesAsVariables) {
  // `min` used as a variable still works when declared.
  EXPECT_DOUBLE_EQ(ret("int min = 4; return min + 1;"), 5.0);
}

// --- sample-operand coercion errors ------------------------------------------
//
// Sema statically rejects samples in numeric contexts, so these paths are
// only reachable from hand-assembled (or corrupted) bytecode — which is
// exactly what a kernel accepting programs over the wire must survive. The
// old behavior silently coerced the sample to 0/false; it must now be a
// clean kInvalidArgument naming the pc.

/// input[0] pushed as a whole sample, then fed to `op`.
Bytecode sample_into(Op op) {
  Bytecode code;
  code.insns.push_back(Insn{.op = Op::kPushInt, .imm_i = 0});
  code.insns.push_back(Insn{.op = Op::kLoadInput});
  code.insns.push_back(Insn{.op = Op::kPushInt, .imm_i = 1});
  code.insns.push_back(Insn{.op = op});
  code.insns.push_back(Insn{.op = Op::kHalt});
  return code;
}

TEST(Vm, SampleOperandInArithmeticIsInvalidArgument) {
  for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kMod,
                      Op::kBitAnd, Op::kShl, Op::kLt, Op::kEq}) {
    Vm vm;
    FilterResult result;
    std::vector<Sample> input{{7, 1.5, 0.5, 0}};
    const Status status = vm.run(sample_into(op), input, result);
    ASSERT_FALSE(status) << "op " << static_cast<int>(op);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("sample operand in numeric context"),
              std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("pc="), std::string::npos)
        << status.message();  // names the faulting pc
  }
}

TEST(Vm, SampleOperandInUnaryAndReturnIsInvalidArgument) {
  for (const Op op : {Op::kNeg, Op::kNot, Op::kBitNot, Op::kToInt,
                      Op::kToDouble, Op::kToBool, Op::kReturn}) {
    Bytecode code;
    code.insns.push_back(Insn{.op = Op::kPushInt, .imm_i = 0});
    code.insns.push_back(Insn{.op = Op::kLoadInput});
    code.insns.push_back(Insn{.op = op});
    code.insns.push_back(Insn{.op = Op::kHalt});
    Vm vm;
    FilterResult result;
    std::vector<Sample> input{{7, 1.5, 0.5, 0}};
    const Status status = vm.run(code, input, result);
    ASSERT_FALSE(status) << "op " << static_cast<int>(op);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("sample operand"), std::string::npos);
  }
}

TEST(Vm, SampleOperandAsJumpConditionIsInvalidArgument) {
  Bytecode code;
  code.insns.push_back(Insn{.op = Op::kPushInt, .imm_i = 0});
  code.insns.push_back(Insn{.op = Op::kLoadInput});
  code.insns.push_back(Insn{.op = Op::kJmpIfFalse, .arg = 4});
  code.insns.push_back(Insn{.op = Op::kHalt});
  code.insns.push_back(Insn{.op = Op::kHalt});
  Vm vm;
  FilterResult result;
  std::vector<Sample> input{{7, 1.5, 0.5, 0}};
  const Status status = vm.run(code, input, result);
  ASSERT_FALSE(status);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// --- integer wrap and saturating conversion -------------------------------

constexpr std::int64_t kIntMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kIntMax = std::numeric_limits<std::int64_t>::max();

// Runs `body`, which leaves its result in `int r`, and reads r back through
// an output's id field: return values are doubles and cannot hold every
// 64-bit int exactly.
std::int64_t int_result(const std::string& body) {
  const FilterResult result = run(body + " output[0].id = r;");
  EXPECT_EQ(result.outputs.size(), 1u) << body;
  return result.outputs.empty() ? 0 : result.outputs[0].second.id;
}

TEST(Vm, IntArithmeticWrapsOnOverflow) {
  // Operands live in locals so the VM's kAdd, kSub, kMul and kNeg handlers
  // compute, not the folder.
  EXPECT_EQ(
      int_result("int a = 9223372036854775807; int b = 1; int r = a + b;"),
      kIntMin);
  EXPECT_EQ(int_result("int a = 9223372036854775807; int r = a + 1;"), kIntMin);
  EXPECT_EQ(int_result("int r = 9223372036854775807; r = r + 1;"), kIntMin);
  EXPECT_EQ(int_result("int a = 1 << 63; int b = 1; int r = a - b;"), kIntMax);
  EXPECT_EQ(int_result("int a = 3037000500; int r = a * a;"),
            static_cast<std::int64_t>(std::uint64_t{3037000500} *
                                      std::uint64_t{3037000500}));
  EXPECT_EQ(int_result("int a = 1 << 63; int r = -a;"), kIntMin);
}

TEST(Vm, MinIntDividedByMinusOneWraps) {
  // The one overflowing quotient: hardware division traps on it.
  EXPECT_EQ(int_result("int a = 1 << 63; int b = 0 - 1; int r = a / b;"),
            kIntMin);
  EXPECT_EQ(int_result("int a = 1 << 63; int b = 0 - 1; int r = a % b;"), 0);
  // The folder evaluates the literal forms with the same rules.
  EXPECT_EQ(int_result("int r = (1 << 63) / -1;"), kIntMin);
  EXPECT_EQ(int_result("int r = (1 << 63) % -1;"), 0);
  EXPECT_EQ(int_result("int r = -(1 << 63);"), kIntMin);
  EXPECT_EQ(int_result("int r = 9223372036854775807 + 1;"), kIntMin);
}

TEST(Vm, DoubleToIntConversionSaturates) {
  EXPECT_EQ(int_result("int r = 1e300;"), kIntMax);
  EXPECT_EQ(int_result("int r = -1e300;"), kIntMin);
  EXPECT_EQ(int_result("double z = 1e308 * 10; int r = z - z;"), 0);  // NaN
  EXPECT_EQ(int_result("int r = 0; r += 1e19;"), kIntMax);
  // Sample id fields convert the same way.
  const FilterResult stored = run("output[0].id = 1e300;");
  ASSERT_EQ(stored.outputs.size(), 1u);
  EXPECT_EQ(stored.outputs[0].second.id, kIntMax);
  // A double compared against an int stays a double comparison.
  EXPECT_DOUBLE_EQ(ret("double d = 1e300; return d > 1;"), 1.0);
}

// --- limits ---------------------------------------------------------------

TEST(Vm, ConstructorClampsInstructionLimitToHardCeiling) {
  // The fuel counter is only checked at control-flow edges; a limit near
  // 2^64 would make exhaustion unreachable. The constructor clamps.
  Vm vm{VmLimits{.max_instructions = ~0ull}};
  EXPECT_EQ(vm.limits().max_instructions, VmLimits::kMaxInstructionLimit);
  Vm sane{VmLimits{.max_instructions = 500}};
  EXPECT_EQ(sane.limits().max_instructions, 500u);
}

TEST(Vm, DisassemblyNonEmpty) {
  auto filter = Filter::compile("int i = 0; i = i + 1;");
  ASSERT_TRUE(filter.is_ok());
  const std::string disasm = filter.value().bytecode().disassemble();
  EXPECT_NE(disasm.find("store_local"), std::string::npos);
  EXPECT_NE(disasm.find("halt"), std::string::npos);
}

}  // namespace
}  // namespace dproc::ecode
