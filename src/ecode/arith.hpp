// Integer arithmetic and double->int conversion shared by the VM handlers
// and the constant folder, so a folded expression and the same expression
// evaluated at run time cannot disagree.
//
// E-code ints are 64-bit two's complement and wrap: + - * and negation wrap
// on overflow, INT64_MIN / -1 == INT64_MIN and INT64_MIN % -1 == 0. A double
// converted to int truncates toward zero and saturates at the int range;
// NaN converts to 0. Division and modulo by zero stay errors: callers check
// the divisor (and the shift amount) before calling in.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace dproc::ecode::arith {

inline std::int64_t add(std::int64_t x, std::int64_t y) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) +
                                   static_cast<std::uint64_t>(y));
}

inline std::int64_t sub(std::int64_t x, std::int64_t y) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) -
                                   static_cast<std::uint64_t>(y));
}

inline std::int64_t mul(std::int64_t x, std::int64_t y) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) *
                                   static_cast<std::uint64_t>(y));
}

inline std::int64_t neg(std::int64_t x) { return sub(0, x); }

/// Requires y != 0. INT64_MIN / -1 is the one quotient that overflows (and
/// traps in hardware division); it wraps to INT64_MIN like neg().
inline std::int64_t div(std::int64_t x, std::int64_t y) {
  return y == -1 ? neg(x) : x / y;
}

/// Requires y != 0.
inline std::int64_t mod(std::int64_t x, std::int64_t y) {
  return y == -1 ? 0 : x % y;
}

/// Requires 0 <= y <= 63.
inline std::int64_t shl(std::int64_t x, std::int64_t y) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(x) << y);
}

inline std::int64_t to_int(double d) {
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact in double
  if (std::isnan(d)) return 0;
  if (d >= kTwo63) return std::numeric_limits<std::int64_t>::max();
  if (d < -kTwo63) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(d);
}

}  // namespace dproc::ecode::arith
