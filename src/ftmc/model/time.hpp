// Time base of the whole library.
//
// All analyses, simulations, and models operate on integer microseconds so
// that fixed-point response-time iteration terminates exactly and simulator
// event ordering is deterministic.  The paper reports milliseconds; benches
// convert on output.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>

namespace ftmc::model {

/// Integer time in microseconds.
using Time = std::int64_t;

inline constexpr Time kMicrosecond = 1;
inline constexpr Time kMillisecond = 1000 * kMicrosecond;
inline constexpr Time kSecond = 1000 * kMillisecond;

/// True when a non-negative, already rounded duration in microseconds
/// converts to Time.  Converting a double outside Time's range (or NaN) is
/// undefined behaviour, so check with this before such a cast.
constexpr bool fits_in_time(double us) noexcept {
  return us >= 0.0 && us < 0x1p63;  // 2^63 = max() + 1, exact in a double
}

/// Converts an analysis/simulation time to milliseconds for reporting.
constexpr double to_milliseconds(Time t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

/// Least common multiple of a set of periods (the hyperperiod).
/// Throws on empty input or non-positive periods, and std::overflow_error
/// when the multiple does not fit in Time.
inline Time hyperperiod(std::span<const Time> periods) {
  if (periods.empty())
    throw std::invalid_argument("hyperperiod: no periods");
  Time result = 1;
  for (Time period : periods) {
    if (period <= 0)
      throw std::invalid_argument("hyperperiod: non-positive period");
    if (__builtin_mul_overflow(result, period / std::gcd(result, period),
                               &result))
      throw std::overflow_error("hyperperiod: the periods' least common "
                                "multiple overflows model::Time");
  }
  return result;
}

}  // namespace ftmc::model
