// The auditor's bounded PU-protection decision: whenever it decides from a
// reordered PU sum it agrees with the exact in-order predicate, and near a
// threshold it leaves the decision to that predicate.
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/invariant_auditor.h"
#include "spectrum/interference.h"

namespace crn::core::pu_protection {
namespace {

constexpr double kAbsent = std::numeric_limits<double>::infinity();
constexpr double kEta = 10.0;  // η_p = 10 dB
constexpr double kPower = 10.0;

// Positions padded to whole lane groups, as the auditor lays them out.
struct Layout {
  std::vector<double> xs;
  std::vector<double> ys;

  explicit Layout(const std::vector<geom::Vec2>& positions) {
    const std::size_t padded = (positions.size() + kLanes - 1) / kLanes * kLanes;
    xs.assign(padded, kAbsent);
    ys.assign(padded, 0.0);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      xs[i] = positions[i].x;
      ys[i] = positions[i].y;
    }
  }
  [[nodiscard]] double Approx(geom::Vec2 rx, const spectrum::PathLoss& loss,
                              int width) const {
    return ApproxInterference(xs.data(), ys.data(), xs.size(), rx, kPower, loss, width);
  }
};

// The auditor's exact loop: every position but `skip`, in order.
double ExactSum(const std::vector<geom::Vec2>& positions, std::size_t skip,
                geom::Vec2 rx, const spectrum::PathLoss& loss) {
  double sum = 0.0;
  for (std::size_t q = 0; q < positions.size(); ++q) {
    if (q == skip) continue;
    sum += loss.ReceivedPowerSquared(kPower, geom::DistanceSquared(positions[q], rx));
  }
  return sum;
}

// The bound Margin promises before the window's rounding allowance.
double Rho(double margin) { return (margin - 2.0 * 0x1p-53) / 2.0; }

// Decide either defers or matches Flipped at the exact sum. Returns whether
// it deferred.
bool DefersOrAgrees(double signal, double approx, double exact, double su,
                    double margin) {
  const Verdict verdict = Decide(signal, approx, su, kEta, margin);
  if (verdict == Verdict::kUndecided) return true;
  EXPECT_EQ(verdict == Verdict::kFlipped, Flipped(signal, exact, su, kEta))
      << "signal=" << signal << " approx=" << approx << " exact=" << exact
      << " su=" << su << " verdict=" << static_cast<int>(verdict);
  return false;
}

// The smallest PU sum at which `holds(sum)` turns false, walked in
// adjacent doubles from `start`, a few ulp from it.
template <class Holds>
double FirstFailing(double start, Holds holds) {
  double sum = start;
  while (!holds(sum)) sum = std::nextafter(sum, 0.0);
  while (holds(sum)) sum = std::nextafter(sum, kAbsent);
  return sum;
}

TEST(PuProtectionTest, AdjacentDoublesAroundBothThresholds) {
  const double signal = 1.0;
  const double su = 0.03;
  const double margin = Margin(95, 4.0);
  const double rho = Rho(margin);
  // Threshold A: signal / I >= eta (about I = 0.1); threshold B:
  // signal / (I + su) >= eta (about I = 0.07).
  const double threshold_a =
      FirstFailing(signal / kEta, [&](double i) { return signal / i >= kEta; });
  const double threshold_b = FirstFailing(
      signal / kEta - su, [&](double i) { return signal / (i + su) >= kEta; });
  int deferred = 0;
  int decided = 0;
  for (const double threshold : {threshold_a, threshold_b}) {
    double exact = threshold;
    for (int step = 0; step < 8; ++step) exact = std::nextafter(exact, 0.0);
    for (int step = 0; step < 16; ++step, exact = std::nextafter(exact, kAbsent)) {
      for (const double shift : {-0.99, -0.5, -0.25, 0.0, 0.25, 0.5, 0.99}) {
        const double approx = exact * (1.0 + shift * rho);
        (DefersOrAgrees(signal, approx, exact, su, margin) ? deferred : decided)++;
      }
      for (const double approx : {std::nextafter(exact, 0.0), std::nextafter(exact, kAbsent)}) {
        (DefersOrAgrees(signal, approx, exact, su, margin) ? deferred : decided)++;
      }
    }
  }
  EXPECT_GT(deferred, 0);
  // Far from both thresholds every case is decided, and correctly.
  for (const double exact : {0.01, 0.085, 0.5}) {
    EXPECT_FALSE(DefersOrAgrees(signal, exact * (1.0 + rho), exact, su, margin));
    EXPECT_FALSE(DefersOrAgrees(signal, exact * (1.0 - rho), exact, su, margin));
  }
  EXPECT_EQ(Decide(signal, 0.01, su, kEta, margin), Verdict::kHoldsWithSu);
  EXPECT_EQ(Decide(signal, 0.085, su, kEta, margin), Verdict::kFlipped);
  EXPECT_EQ(Decide(signal, 0.5, su, kEta, margin), Verdict::kFailsWithoutSu);
}

TEST(PuProtectionTest, NoOtherPuLeavesTheDecisionToTheExactPredicate) {
  const spectrum::PathLoss loss(4.0);
  const geom::Vec2 rx{3.0, 4.0};
  // K = 0: nothing to sum. K = 1: the receiver's own PU is blanked.
  const Layout alone({{kAbsent, 0.0}});
  for (const int width : SupportedWidths()) {
    EXPECT_EQ(ApproxInterference(nullptr, nullptr, 0, rx, kPower, loss, width), 0.0);
    EXPECT_EQ(alone.Approx(rx, loss, width), 0.0);
  }
  for (const std::size_t terms : {std::size_t{0}, std::size_t{1}}) {
    const double margin = Margin(terms, 4.0);
    for (const double su : {0.0, 1e-3, 1.0}) {
      EXPECT_EQ(Decide(1.0, 0.0, su, kEta, margin), Verdict::kUndecided);
    }
  }
  // interference_pu <= 0: the reception holds without SUs, so SU
  // interference alone decides.
  EXPECT_FALSE(Flipped(1.0, 0.0, 0.0, kEta));
  EXPECT_FALSE(Flipped(1.0, 0.0, 1e-3, kEta));
  EXPECT_TRUE(Flipped(1.0, 0.0, 1.0, kEta));
  // Sums too small or too large to bound relatively are never decided.
  for (const double approx : {0x1p-1000, 0x1p1000, kAbsent,
                              std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(Decide(1.0, approx, 0.0, kEta, Margin(10, 4.0)), Verdict::kUndecided);
  }
  EXPECT_EQ(Decide(1.0, 0.5, 0.0, kEta, Margin(std::size_t{1} << 21, 4.0)),
            Verdict::kUndecided);
}

// One interferer on the receiver and one 1e-7 m from it (both inside the
// 1e-6 m clamp): a single term is the exact term, bit for bit, and a mix of
// clamped and far terms stays inside the window.
void CheckClamp(double alpha, int width) {
  SCOPED_TRACE("width " + std::to_string(width));
  const spectrum::PathLoss loss(alpha);
  const geom::Vec2 rx{100.0, 200.0};
  for (const geom::Vec2 at : {rx, geom::Vec2{rx.x + 1e-7, rx.y}}) {
    const Layout one({at});
    EXPECT_EQ(one.Approx(rx, loss, width),
              loss.ReceivedPowerSquared(kPower, geom::DistanceSquared(at, rx)));
  }
  const std::vector<geom::Vec2> positions = {
      {kAbsent, 0.0}, rx, {rx.x, rx.y - 5e-7}, {rx.x + 40.0, rx.y}, {rx.x, rx.y + 90.0}};
  const double exact = ExactSum(positions, 0, rx, loss);
  const double approx = Layout(positions).Approx(rx, loss, width);
  const double margin = Margin(positions.size() - 1, alpha);
  EXPECT_LE(std::abs(approx - exact), Rho(margin) * exact);
  for (const double scale : {0.5, 1.0, 1.0 + 1e-15, 2.0}) {
    const double signal = kEta * exact * scale;
    DefersOrAgrees(signal, approx, exact, 0.0, margin);
    DefersOrAgrees(signal, approx, exact, exact, margin);
  }
}

TEST(PuProtectionTest, TermsAtTheMinDistanceClamp) {
  for (const int width : SupportedWidths()) {
    CheckClamp(4.0, width);
    CheckClamp(3.5, width);
  }
}

// Random PU fields with the receiver placed so one threshold sits within a
// few windows of the exact sum: Decide must agree whenever it decides, and
// near the threshold the exact predicate provably runs.
void CheckRandomGeometries(double alpha, int width) {
  SCOPED_TRACE("width " + std::to_string(width));
  const spectrum::PathLoss loss(alpha);
  Rng rng(0xA5A5 + static_cast<std::uint64_t>(alpha * 10));
  int deferred = 0;
  int decided = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto count = static_cast<std::size_t>(rng.UniformInt(2, 130));
    std::vector<geom::Vec2> positions(count);
    for (geom::Vec2& position : positions) {
      position = {rng.UniformDouble(0.0, 1000.0), rng.UniformDouble(0.0, 1000.0)};
    }
    const auto p = static_cast<std::size_t>(rng.UniformInt(count));
    const geom::Vec2 rx{positions[p].x + rng.UniformDouble(-30.0, 30.0),
                        positions[p].y + rng.UniformDouble(-30.0, 30.0)};
    const double exact = ExactSum(positions, p, rx, loss);
    Layout layout(positions);
    layout.xs[p] = kAbsent;
    const double approx = layout.Approx(rx, loss, width);
    const double margin = Margin(count - 1, alpha);
    ASSERT_LE(std::abs(approx - exact), Rho(margin) * exact) << "trial " << trial;
    const double su = rng.Bernoulli(0.5) ? 0.0 : exact * rng.UniformDouble(0.0, 0.5);
    for (int near = 0; near < 8; ++near) {
      const double offset = rng.UniformDouble(-4.0, 4.0) * margin;
      // Alternate the threshold the signal sits at: A, then B.
      const double base = near % 2 == 0 ? exact : exact + su;
      const double signal = kEta * base * (1.0 + offset);
      (DefersOrAgrees(signal, approx, exact, su, margin) ? deferred : decided)++;
    }
  }
  EXPECT_GT(deferred, 0);
  EXPECT_GT(decided, 0);
}

TEST(PuProtectionTest, RandomGeometriesAtAlphaFour) {
  for (const int width : SupportedWidths()) CheckRandomGeometries(4.0, width);
}
TEST(PuProtectionTest, RandomGeometriesAtAlphaThreeAndAHalf) {
  for (const int width : SupportedWidths()) CheckRandomGeometries(3.5, width);
}

TEST(PuProtectionTest, EveryHostRunsTheBaselineWidth) {
  const std::vector<int> widths = SupportedWidths();
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.back(), 2);
  EXPECT_EQ(BestWidth(), widths.front());
  std::string names;
  for (const int width : widths) names += " " + std::to_string(width);
  std::cout << "[ widths   ]" << names << "\n";
}

}  // namespace
}  // namespace crn::core::pu_protection
