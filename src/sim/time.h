// Simulation clock. All times are signed 64-bit nanoseconds, which keeps
// event ordering exact (no floating-point ties) while leaving headroom for
// ~292 years of simulated time.
#ifndef CRN_SIM_TIME_H_
#define CRN_SIM_TIME_H_

#include <cstdint>

namespace crn::sim {

using TimeNs = std::int64_t;

inline constexpr TimeNs kNanosecond = 1;
inline constexpr TimeNs kMicrosecond = 1'000;
inline constexpr TimeNs kMillisecond = 1'000'000;
inline constexpr TimeNs kSecond = 1'000'000'000;

constexpr double ToMilliseconds(TimeNs t) { return static_cast<double>(t) / kMillisecond; }
constexpr double ToSeconds(TimeNs t) { return static_cast<double>(t) / kSecond; }
constexpr TimeNs FromMilliseconds(double ms) {
  return static_cast<TimeNs>(ms * static_cast<double>(kMillisecond));
}
// FromMilliseconds converts every ms in [0, kMillisecondsPastClock) inside
// the int64 clock; at the bound itself the product rounds to 2^63.
inline constexpr double kMillisecondsPastClock =
    0x1p63 / static_cast<double>(kMillisecond);

}  // namespace crn::sim

#endif  // CRN_SIM_TIME_H_
