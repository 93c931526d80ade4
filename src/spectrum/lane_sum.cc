#include "spectrum/lane_sum.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace crn::spectrum::lane_sum {

// Why the window holds (u = 2^-53, γ_n = nu/(1 − nu)). Let τ_q be the
// exact loop's terms and I their left-to-right sum; ApproxInterference's
// terms τ'_q and lane sum S̃.
//  * Terms. d² = dx² + dy² is within γ_2 of its real value whether or not
//    an FMA fuses one product, so the two d² differ by a factor at most
//    δ = 2γ_2/(1 − γ_2); the kMinDistance clamp only narrows that gap.
//    P/(d²·d²) and P·pow(d², −α/2) (pow within 1 ulp = 2u) then differ by
//    at most ε = (1 + δ)^h·((1 + 2u)/(1 − 2u))² − 1, h = max(2, α/2).
//  * Sums. Any order of summing n non-negative terms errs by at most
//    γ_{n−1}·Σ. Hence |S̃ − I| ≤ (2γ_{n−1} + ε + γ_{n−1}ε)/(1 − γ_{n−1})·I,
//    which is at most ρ = 2γ_n + ε for n ≤ 2^20.
//  * Window. I then lies in [S̃/(1 + ρ), S̃/(1 − ρ)], inside the rounded
//    [S̃(1 − m), S̃(1 + m)] for m = 2ρ + 2u.
// Underflowed terms break the relative bounds but add at most a few
// 2^-1074 each; Enclose acts only on S̃ in [2^-900, 2^900], where that is
// far below u·S̃ and no term or sum overflows.
double Margin(std::size_t terms, double alpha) {
  constexpr std::size_t kMaxTerms = std::size_t{1} << 20;
  if (terms > kMaxTerms) return std::numeric_limits<double>::infinity();
  constexpr double u = 0x1p-53;
  const auto gamma = [](double n) { return n * u / (1.0 - n * u); };
  const double delta = 2.0 * gamma(2.0) / (1.0 - gamma(2.0));
  const double rounding = (1.0 + 2.0 * u) / (1.0 - 2.0 * u);
  const double power = std::max(2.0, alpha / 2.0);
  const double epsilon =
      std::pow(1.0 + delta, power) *  // crn-lint-ok: once per run or audit check
          rounding * rounding -
      1.0;
  const double rho = 2.0 * gamma(static_cast<double>(terms)) + epsilon;
  return 2.0 * rho + 2.0 * u;
}

std::optional<Window> Enclose(double approx, double margin) {
  if (!(approx >= 0x1p-900 && approx <= 0x1p900 && margin < 0.5)) return std::nullopt;
  return Window{approx * (1.0 - margin), approx * (1.0 + margin)};
}

namespace {

// kWidth doubles in one register (GCC/Clang vector extensions). One
// accumulator measured faster than two or four: the divisions bound the
// loop, not the add chain. Every width's sum lies in the same window, so
// the width never changes a verdict.
template <int kWidth>
struct LaneVector {
  typedef double type __attribute__((vector_size(8 * kWidth)));
};

template <int kWidth>
[[gnu::always_inline]] inline double SumLanes(const double* xs, const double* ys,
                                              std::size_t count, geom::Vec2 rx,
                                              double power, const PathLoss& loss) {
  using V = typename LaneVector<kWidth>::type;
  constexpr double kMinSq = PathLoss::kMinDistance * PathLoss::kMinDistance;
  const V rx_x = V{} + rx.x;
  const V rx_y = V{} + rx.y;
  const V min_sq = V{} + kMinSq;
  const V watts = V{} + power;
  const bool alpha_is_four = loss.alpha() == 4.0;
  V sum = {};
  for (std::size_t i = 0; i < count; i += kWidth) {
    V x;
    V y;
    __builtin_memcpy(&x, xs + i, sizeof x);
    __builtin_memcpy(&y, ys + i, sizeof y);
    const V dx = x - rx_x;
    const V dy = y - rx_y;
    V d2 = dx * dx + dy * dy;
    d2 = d2 < min_sq ? min_sq : d2;
    if (alpha_is_four) {
      sum += watts / (d2 * d2);
    } else {
      for (int e = 0; e < kWidth; ++e) sum[e] += loss.ReceivedPowerSquared(power, d2[e]);
    }
  }
  double total = 0.0;
  for (int e = 0; e < kWidth; ++e) total += sum[e];
  return total;
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx512f")]] double SumLanes8(const double* xs, const double* ys,
                                            std::size_t count, geom::Vec2 rx,
                                            double power, const PathLoss& loss) {
  return SumLanes<8>(xs, ys, count, rx, power, loss);
}

[[gnu::target("avx2")]] double SumLanes4(const double* xs, const double* ys,
                                         std::size_t count, geom::Vec2 rx, double power,
                                         const PathLoss& loss) {
  return SumLanes<4>(xs, ys, count, rx, power, loss);
}
#endif

}  // namespace

double ApproxInterference(const double* xs, const double* ys, std::size_t count,
                          geom::Vec2 rx, double power, const PathLoss& loss,
                          int width) {
  CRN_DCHECK(count % kLanes == 0);
#if defined(__x86_64__) || defined(__i386__)
  if (width == 8) return SumLanes8(xs, ys, count, rx, power, loss);
  if (width == 4) return SumLanes4(xs, ys, count, rx, power, loss);
#endif
  CRN_CHECK(width == 2) << "no lane sum of width " << width;
  return SumLanes<2>(xs, ys, count, rx, power, loss);
}

}  // namespace crn::spectrum::lane_sum
