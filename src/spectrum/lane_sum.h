// Interference sums taken in SIMD lanes, with a proven window around the
// in-order sum (DESIGN.md §7, "Deciding PU protection from a reordered
// sum", and §10, "Deciding SU receptions from a lane sum").
//
// The exact SIR predicates are defined on sums taken one term at a time in
// a fixed order. A lane sum adds the same terms in another order, so it may
// differ from that sum in its last bits; Margin bounds the difference.
// Callers decide from the window when every sum inside it gives one answer
// and otherwise fall back to the in-order loop. The invariant auditor's
// Lemma 2 check and the MAC's SU receptions share this one kernel.
#ifndef CRN_SPECTRUM_LANE_SUM_H_
#define CRN_SPECTRUM_LANE_SUM_H_

#include <cstddef>
#include <optional>

#include "geom/vec2.h"
#include "spectrum/interference.h"

namespace crn::spectrum::lane_sum {

// ApproxInterference's arrays are padded to a multiple of this many
// doubles, a multiple of every lane width.
inline constexpr std::size_t kLanes = 8;

// Relative half-width of the window around an approximate sum S̃ of `terms`
// non-negative interferers that provably contains the exact sequential
// sum, whatever the order of S̃'s additions and however the compiler
// contracts each term's d² into an FMA. Infinite (nothing is decided) past
// 2^20 terms.
[[nodiscard]] double Margin(std::size_t terms, double alpha);

// The rounded window [S̃(1 − margin), S̃(1 + margin)] around `approx`, or
// nothing when `approx` is not a comfortably normal number (outside
// [2^-900, 2^900], zero, infinite or NaN) or the margin is 0.5 or more.
struct Window {
  double low = 0.0;
  double high = 0.0;
};
[[nodiscard]] std::optional<Window> Enclose(double approx, double margin);

// Σ_q P·d(q, rx)^{-α} over the `count` positions (xs[q], ys[q]), each term
// the same expression as PathLoss::ReceivedPowerSquared, summed in `width`
// independent lanes, `width` one of simd::SupportedWidths(). An entry with
// xs[q] = +inf adds exactly 0: the padding, and any position a caller
// masks out. `count` is a multiple of kLanes.
[[nodiscard]] double ApproxInterference(const double* xs, const double* ys,
                                        std::size_t count, geom::Vec2 rx,
                                        double power, const PathLoss& loss, int width);

}  // namespace crn::spectrum::lane_sum

#endif  // CRN_SPECTRUM_LANE_SUM_H_
