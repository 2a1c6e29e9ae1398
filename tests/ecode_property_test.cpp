// Property tests: the E-code VM must agree with C++ evaluation on randomly
// generated programs, and filters must respect structural invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "dproc/ecode/ecode.hpp"
#include "dproc/util/rng.hpp"
#include "ecode_unfolded.hpp"

namespace dproc::ecode {
namespace {

double run_ret(const std::string& source) {
  auto filter = Filter::compile(source);
  EXPECT_TRUE(filter.is_ok()) << filter.status().to_string() << "\n" << source;
  if (!filter.is_ok()) return 0;
  auto result = filter.value().run({});
  EXPECT_TRUE(result.is_ok()) << result.status().to_string() << "\n" << source;
  if (!result.is_ok()) return 0;
  EXPECT_TRUE(result.value().return_value.has_value()) << source;
  return result.value().return_value.value_or(0);
}

// --- single binary operations against native C++ ------------------------

struct IntOpCase {
  const char* op;
  std::int64_t (*eval)(std::int64_t, std::int64_t);
  bool (*valid)(std::int64_t, std::int64_t);
};

std::int64_t shift_mask(std::int64_t b) { return b & 63; }

const IntOpCase kIntOps[] = {
    {"+", [](std::int64_t a, std::int64_t b) { return a + b; }, nullptr},
    {"-", [](std::int64_t a, std::int64_t b) { return a - b; }, nullptr},
    {"*", [](std::int64_t a, std::int64_t b) { return a * b; }, nullptr},
    {"/", [](std::int64_t a, std::int64_t b) { return a / b; },
     [](std::int64_t, std::int64_t b) { return b != 0; }},
    {"%", [](std::int64_t a, std::int64_t b) { return a % b; },
     [](std::int64_t, std::int64_t b) { return b != 0; }},
    {"&", [](std::int64_t a, std::int64_t b) { return a & b; }, nullptr},
    {"|", [](std::int64_t a, std::int64_t b) { return a | b; }, nullptr},
    {"^", [](std::int64_t a, std::int64_t b) { return a ^ b; }, nullptr},
    {"<", [](std::int64_t a, std::int64_t b) -> std::int64_t { return a < b; },
     nullptr},
    {"<=", [](std::int64_t a, std::int64_t b) -> std::int64_t { return a <= b; },
     nullptr},
    {">", [](std::int64_t a, std::int64_t b) -> std::int64_t { return a > b; },
     nullptr},
    {">=", [](std::int64_t a, std::int64_t b) -> std::int64_t { return a >= b; },
     nullptr},
    {"==", [](std::int64_t a, std::int64_t b) -> std::int64_t { return a == b; },
     nullptr},
    {"!=", [](std::int64_t a, std::int64_t b) -> std::int64_t { return a != b; },
     nullptr},
    {"<<",
     [](std::int64_t a, std::int64_t b) {
       return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                        << shift_mask(b));
     },
     nullptr},
    {">>", [](std::int64_t a, std::int64_t b) { return a >> shift_mask(b); },
     nullptr},
};

class IntOpProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IntOpProperty, MatchesNativeOnRandomOperands) {
  const IntOpCase& op_case = kIntOps[GetParam()];
  Rng rng{0xBEEF + GetParam()};
  for (int trial = 0; trial < 200; ++trial) {
    std::int64_t a = rng.uniform_int(-1000, 1000);
    std::int64_t b = rng.uniform_int(-1000, 1000);
    if (std::string_view{op_case.op} == "<<" ||
        std::string_view{op_case.op} == ">>") {
      b = rng.uniform_int(0, 63);
    }
    if (op_case.valid != nullptr && !op_case.valid(a, b)) continue;
    std::ostringstream source;
    source << "int a = " << a << "; int b = " << b << "; return a "
           << op_case.op << " b;";
    const double expected = static_cast<double>(op_case.eval(a, b));
    EXPECT_DOUBLE_EQ(run_ret(source.str()), expected) << source.str();
  }
}

std::string int_op_name(const ::testing::TestParamInfo<std::size_t>& info) {
  static const char* const names[] = {"add", "sub", "mul", "div",  "mod",
                                      "band", "bor", "bxor", "lt", "le",
                                      "gt",   "ge",  "eq",   "ne", "shl",
                                      "shr"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllIntOps, IntOpProperty,
                         ::testing::Range<std::size_t>(0, std::size(kIntOps)),
                         int_op_name);

// --- double operations ----------------------------------------------------

struct FloatOpCase {
  const char* op;
  double (*eval)(double, double);
};

const FloatOpCase kFloatOps[] = {
    {"+", [](double a, double b) { return a + b; }},
    {"-", [](double a, double b) { return a - b; }},
    {"*", [](double a, double b) { return a * b; }},
    {"/", [](double a, double b) { return a / b; }},
};

class FloatOpProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FloatOpProperty, MatchesNativeOnRandomOperands) {
  const FloatOpCase& op_case = kFloatOps[GetParam()];
  Rng rng{0xF00D + GetParam()};
  for (int trial = 0; trial < 200; ++trial) {
    const double a = rng.uniform(-100.0, 100.0);
    double b = rng.uniform(-100.0, 100.0);
    if (std::string_view{op_case.op} == "/" && b == 0.0) b = 1.0;
    std::ostringstream source;
    source.precision(17);
    source << "double a = " << a << "; double b = " << b << "; return a "
           << op_case.op << " b;";
    EXPECT_DOUBLE_EQ(run_ret(source.str()), op_case.eval(a, b)) << source.str();
  }
}

std::string float_op_name(const ::testing::TestParamInfo<std::size_t>& info) {
  static const char* const names[] = {"add", "sub", "mul", "div"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllFloatOps, FloatOpProperty,
                         ::testing::Range<std::size_t>(0, std::size(kFloatOps)),
                         float_op_name);

// --- random straight-line programs (differential interpretation) ----------

TEST(ProgramProperty, RandomStraightLineProgramsMatchReference) {
  Rng rng{0xCAFE};
  constexpr int kVars = 4;
  for (int trial = 0; trial < 100; ++trial) {
    std::int64_t vars[kVars] = {0, 0, 0, 0};
    std::ostringstream source;
    for (int v = 0; v < kVars; ++v) {
      const std::int64_t init = rng.uniform_int(-50, 50);
      vars[v] = init;
      source << "int v" << v << " = " << init << ";\n";
    }
    for (int stmt = 0; stmt < 30; ++stmt) {
      const int dst = static_cast<int>(rng.uniform_int(0, kVars - 1));
      const int lhs = static_cast<int>(rng.uniform_int(0, kVars - 1));
      const int rhs = static_cast<int>(rng.uniform_int(0, kVars - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:
          source << "v" << dst << " = v" << lhs << " + v" << rhs << ";\n";
          vars[dst] = vars[lhs] + vars[rhs];
          break;
        case 1:
          source << "v" << dst << " = v" << lhs << " - v" << rhs << ";\n";
          vars[dst] = vars[lhs] - vars[rhs];
          break;
        case 2: {
          // Keep magnitudes bounded so multiplication cannot overflow.
          source << "v" << dst << " = v" << lhs << " % 97 * (v" << rhs
                 << " % 13);\n";
          vars[dst] = vars[lhs] % 97 * (vars[rhs] % 13);
          break;
        }
        case 3:
          source << "v" << dst << " = v" << lhs << " < v" << rhs << " ? v"
                 << lhs << " : v" << rhs << ";\n";
          vars[dst] = vars[lhs] < vars[rhs] ? vars[lhs] : vars[rhs];
          break;
      }
    }
    source << "return v0 + 1000 * v1 + 1000000 * v2 + v3;\n";
    const double expected = static_cast<double>(
        vars[0] + 1000 * vars[1] + 1000000 * vars[2] + vars[3]);
    ASSERT_DOUBLE_EQ(run_ret(source.str()), expected)
        << "trial " << trial << "\n" << source.str();
  }
}

// --- loop equivalence -------------------------------------------------------

TEST(ProgramProperty, CountedLoopsMatchClosedForm) {
  Rng rng{0xD1CE};
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t n = rng.uniform_int(0, 200);
    std::ostringstream source;
    source << "int sum = 0; for (int i = 0; i < " << n
           << "; ++i) sum += i; return sum;";
    EXPECT_DOUBLE_EQ(run_ret(source.str()),
                     static_cast<double>(n * (n - 1) / 2));
  }
}

// --- filter invariants -------------------------------------------------------

TEST(FilterProperty, OutputsAreSubsetCopiesUnderIdentityFilter) {
  // A pass-through filter must reproduce every input sample exactly.
  Rng rng{0xAB};
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 16));
    std::vector<Sample> input;
    for (int i = 0; i < n; ++i) {
      input.push_back(Sample{i, rng.uniform(-1e6, 1e6), rng.uniform(0, 10),
                             rng.uniform_int(0, 1'000'000)});
    }
    std::ostringstream source;
    source << "for (int i = 0; i < " << n << "; ++i) output[i] = input[i];";
    auto filter = Filter::compile(source.str());
    ASSERT_TRUE(filter.is_ok());
    auto result = filter.value().run(input);
    ASSERT_TRUE(result.is_ok());
    ASSERT_EQ(result.value().outputs.size(), input.size());
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(result.value().outputs[static_cast<std::size_t>(i)].second,
                input[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(FilterProperty, ThresholdFilterEquivalentToPredicate) {
  // A value-threshold filter must forward exactly the samples that pass.
  CompileEnv env;
  const char* source = R"({
    int i = 0;
    int n = 8;
    for (int k = 0; k < n; ++k) {
      if (input[k].value > 100.0) {
        output[i] = input[k];
        i = i + 1;
      }
    }
  })";
  auto filter = Filter::compile(source, env);
  ASSERT_TRUE(filter.is_ok()) << filter.status().to_string();

  Rng rng{0xEE};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Sample> input;
    std::vector<Sample> expected;
    for (int i = 0; i < 8; ++i) {
      Sample s{i, rng.uniform(0.0, 200.0), 0.0, 0};
      input.push_back(s);
      if (s.value > 100.0) expected.push_back(s);
    }
    auto result = filter.value().run(input);
    ASSERT_TRUE(result.is_ok());
    ASSERT_EQ(result.value().outputs.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.value().outputs[i].second, expected[i]);
    }
  }
}

TEST(FilterProperty, FuelBoundIsProportionalToWork) {
  // Executing n iterations must consume O(n) instructions — a guard against
  // accidental quadratic dispatch in the VM.
  auto instructions_for = [](int n) {
    std::ostringstream source;
    source << "int s = 0; for (int i = 0; i < " << n << "; ++i) s += i;";
    auto filter = Filter::compile(source.str());
    EXPECT_TRUE(filter.is_ok());
    auto result = filter.value().run({});
    EXPECT_TRUE(result.is_ok());
    return result.value().instructions_executed;
  };
  const auto small = instructions_for(100);
  const auto large = instructions_for(10'000);
  EXPECT_LT(static_cast<double>(large),
            110.0 * static_cast<double>(small));  // linear, not quadratic
}

TEST(ProgramProperty, FoldingPreservesSemanticsOnRandomPrograms) {
  // Differential test of the optimizer: compile every random program with
  // and without constant folding and require identical results.
  Rng rng{0xF01D};
  for (int trial = 0; trial < 80; ++trial) {
    std::ostringstream source;
    source << "int a = " << rng.uniform_int(-20, 20) << ";\n"
           << "double b = " << rng.uniform_int(0, 9) << ".25;\n";
    for (int stmt = 0; stmt < 10; ++stmt) {
      switch (rng.uniform_int(0, 5)) {
        case 0:
          source << "a = a + " << rng.uniform_int(1, 9) << " * "
                 << rng.uniform_int(1, 9) << ";\n";
          break;
        case 1:
          source << "b = b * (1.5 + " << rng.uniform_int(0, 3) << ") + a;\n";
          break;
        case 2:
          source << "a = " << rng.uniform_int(0, 1) << " ? a + 1 : a - 1;\n";
          break;
        case 3:
          source << "a = a + (0 && (a = 99));\n";
          break;
        case 4:
          source << "b = b + max(" << rng.uniform_int(0, 5) << ", abs(0 - "
                 << rng.uniform_int(0, 5) << "));\n";
          break;
        case 5: {
          // Integer edges the folder and the VM must wrap (and convert)
          // identically.
          static const char* const kEdges[] = {
              "(1 << 63) / -1",          "(1 << 63) % -1",
              "-(1 << 63)",              "9223372036854775807 + 1",
              "(1 << 63) - 1",           "3037000500 * 3037000500",
              "1e300 * (0 - 1)",         "1e308 * 10 - 1e308 * 10"};
          source << "a = a + " << kEdges[rng.uniform_int(0, 7)] << ";\n";
          break;
        }
      }
    }
    source << "return a * 1000 + b;";
    auto folded = Filter::compile(source.str());
    auto unfolded = test::compile_unfolded(source.str());
    ASSERT_TRUE(folded.is_ok()) << source.str();
    ASSERT_TRUE(unfolded.is_ok());
    auto folded_run = folded.value().run({});
    auto unfolded_run = Vm{}.run(unfolded.value(), {});
    ASSERT_TRUE(folded_run.is_ok());
    ASSERT_TRUE(unfolded_run.is_ok());
    ASSERT_EQ(folded_run.value().return_value.has_value(),
              unfolded_run.value().return_value.has_value());
    EXPECT_DOUBLE_EQ(*folded_run.value().return_value,
                     *unfolded_run.value().return_value)
        << source.str();
    EXPECT_LE(folded.value().bytecode().insns.size(),
              unfolded.value().insns.size());
  }
}

TEST(FilterProperty, CompileDeterministic) {
  const char* source = "int i = 0; for (; i < 4; ++i) output[i] = input[i];";
  auto a = Filter::compile(source);
  auto b = Filter::compile(source);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().bytecode().disassemble(),
            b.value().bytecode().disassemble());
}

}  // namespace
}  // namespace dproc::ecode
