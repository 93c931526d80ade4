#include "core/theory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.h"
#include "sim/time.h"

namespace crn::core {
namespace {

TEST(TheoryTest, BetaMatchesLemma4Formula) {
  EXPECT_NEAR(BetaX(2.43), 2.0 * M_PI * 2.43 * 2.43 / std::sqrt(3.0) + M_PI * 2.43 + 1.0,
              1e-9);
}

TEST(TheoryTest, BackboneWithinPcrBound) {
  // Lemma 5: β_κ + 12·β_{κ+1}.
  const double kappa = 2.43;
  EXPECT_NEAR(BackboneWithinPcrBound(kappa), BetaX(kappa) + 12.0 * BetaX(kappa + 1.0),
              1e-9);
}

TEST(TheoryTest, MaxTreeDegreeBoundFormula) {
  // Lemma 6: log n + π r²(e² − 1)/(2 c0).
  const double bound = MaxTreeDegreeBound(2000, 10.0, 31.25);
  EXPECT_NEAR(bound,
              std::log(2000.0) + M_PI * 100.0 * (std::exp(2.0) - 1.0) / 62.5, 1e-9);
  // The bound grows with n and r, shrinks with c0.
  EXPECT_GT(MaxTreeDegreeBound(4000, 10.0, 31.25), bound);
  EXPECT_GT(MaxTreeDegreeBound(2000, 12.0, 31.25), bound);
  EXPECT_LT(MaxTreeDegreeBound(2000, 10.0, 62.5), bound);
}

TEST(TheoryTest, SpectrumOpportunityKnownValue) {
  // Lemma 7 at Fig. 6 defaults with the paper's κ ≈ 2.432:
  // p_o = 0.7^{π(24.32)²·400/62500}.
  const double pcr = 24.3211;
  const double p_o = SpectrumOpportunityProbability(pcr, 400, 62500.0, 0.3);
  const double exponent = M_PI * pcr * pcr * 400.0 / 62500.0;
  EXPECT_NEAR(p_o, std::pow(0.7, exponent), 1e-12);
  EXPECT_NEAR(p_o, 0.0144, 2e-3);
}

TEST(TheoryTest, SpectrumOpportunityEdgeCases) {
  EXPECT_DOUBLE_EQ(SpectrumOpportunityProbability(10.0, 0, 100.0, 0.9), 1.0);
  EXPECT_DOUBLE_EQ(SpectrumOpportunityProbability(10.0, 100, 100.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(SpectrumOpportunityProbability(10.0, 100, 100.0, 1.0), 0.0);
}

TEST(TheoryTest, SpectrumOpportunityMonotonicity) {
  const double base = SpectrumOpportunityProbability(20.0, 400, 62500.0, 0.3);
  EXPECT_LT(SpectrumOpportunityProbability(25.0, 400, 62500.0, 0.3), base);  // ↑PCR
  EXPECT_LT(SpectrumOpportunityProbability(20.0, 600, 62500.0, 0.3), base);  // ↑N
  EXPECT_LT(SpectrumOpportunityProbability(20.0, 400, 62500.0, 0.4), base);  // ↑p_t
  EXPECT_GT(SpectrumOpportunityProbability(20.0, 400, 90000.0, 0.3), base);  // ↑A
}

TEST(TheoryTest, ExpectedOpportunityWait) {
  EXPECT_EQ(ExpectedOpportunityWait(sim::kMillisecond, 0.5), 2 * sim::kMillisecond);
  EXPECT_EQ(ExpectedOpportunityWait(sim::kMillisecond, 1.0), sim::kMillisecond);
  EXPECT_THROW(ExpectedOpportunityWait(sim::kMillisecond, 0.0), ContractViolation);
}

TEST(TheoryTest, Theorem1BoundFormula) {
  // (2Δβ_κ + 24β_{κ+1} − 1)·τ/p_o.
  const double delta = 10.0;
  const double kappa = 2.43;
  const double p_o = 0.0144;
  const double slots = 2.0 * delta * BetaX(kappa) + 24.0 * BetaX(kappa + 1.0) - 1.0;
  EXPECT_NEAR(static_cast<double>(Theorem1ServiceBound(delta, kappa, sim::kMillisecond, p_o)),
              slots * sim::kMillisecond / p_o, 1e6);
}

TEST(TheoryTest, Lemma8IsTheorem1WithUnitDegree) {
  EXPECT_EQ(Lemma8ServiceBound(2.43, sim::kMillisecond, 0.01),
            Theorem1ServiceBound(1.0, 2.43, sim::kMillisecond, 0.01));
}

TEST(TheoryTest, Theorem2Composition) {
  const double kappa = 2.43;
  const double p_o = 0.0144;
  const sim::TimeNs bound =
      Theorem2DelayBound(2000, 10.0, 15, kappa, sim::kMillisecond, p_o);
  const sim::TimeNs expected =
      Theorem1ServiceBound(10.0, kappa, sim::kMillisecond, p_o) +
      1985 * Lemma8ServiceBound(kappa, sim::kMillisecond, p_o);
  EXPECT_EQ(bound, expected);
}

// At N = 1,100 PUs in a 100 m square at p_t = 0.3, p_o is about 1e-32:
// every bound passes the int64 clock and saturates there.
TEST(TheoryTest, BoundsSaturateWhenPoVanishes) {
  constexpr sim::TimeNs kMax = std::numeric_limits<sim::TimeNs>::max();
  const double p_o = 1e-32;
  EXPECT_EQ(ExpectedOpportunityWait(sim::kMillisecond, p_o), kMax);
  EXPECT_EQ(Theorem1ServiceBound(10.0, 2.43, sim::kMillisecond, p_o), kMax);
  EXPECT_EQ(Theorem2DelayBound(300, 10.0, 5, 2.43, sim::kMillisecond, p_o), kMax);
  // Each hop fits but their sum does not: p_o ≈ 1e-8 with 2,000 SUs.
  const sim::TimeNs per_packet = Lemma8ServiceBound(2.43, sim::kMillisecond, 1e-8);
  ASSERT_LT(per_packet, kMax / 2);
  ASSERT_GT(per_packet, kMax / 2000);
  EXPECT_EQ(Theorem2DelayBound(2000, 10.0, 15, 2.43, sim::kMillisecond, 1e-8), kMax);
}

TEST(TheoryTest, Theorem2BoundGrowsLinearlyInN) {
  const sim::TimeNs b1 = Theorem2DelayBound(1000, 8.0, 10, 2.43, sim::kMillisecond, 0.01);
  const sim::TimeNs b2 = Theorem2DelayBound(2000, 8.0, 10, 2.43, sim::kMillisecond, 0.01);
  // Doubling n roughly doubles the bound (the Theorem 1 head is shared).
  EXPECT_GT(static_cast<double>(b2), 1.8 * static_cast<double>(b1));
  EXPECT_LT(static_cast<double>(b2), 2.2 * static_cast<double>(b1));
}

TEST(TheoryTest, CapacityFractionConsistentWithDelayBound) {
  // Capacity = n·B / delay ≥ p_o·W/(2β_κ+24β_{κ+1}−1); with Δ_b = 0 and the
  // Theorem 1 head ignored the identity is exact in the n → ∞ limit.
  const double kappa = 2.43;
  const double p_o = 0.0144;
  const double fraction = Theorem2CapacityFraction(kappa, p_o);
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 1.0);
  const double slots = 2.0 * BetaX(kappa) + 24.0 * BetaX(kappa + 1.0) - 1.0;
  EXPECT_NEAR(fraction, p_o / slots, 1e-12);
}

TEST(TheoryTest, OrderOptimalityCapacityImprovesWithPo) {
  EXPECT_GT(Theorem2CapacityFraction(2.43, 0.1), Theorem2CapacityFraction(2.43, 0.01));
  EXPECT_GT(Theorem2CapacityFraction(2.0, 0.01), Theorem2CapacityFraction(3.0, 0.01));
}

TEST(TheoryTest, InvalidArgumentsRejected) {
  EXPECT_THROW(Theorem1ServiceBound(0.5, 2.43, sim::kMillisecond, 0.01),
               ContractViolation);
  EXPECT_THROW(Theorem1ServiceBound(2.0, 2.43, sim::kMillisecond, 0.0),
               ContractViolation);
  EXPECT_THROW(Theorem2DelayBound(0, 2.0, 0, 2.43, sim::kMillisecond, 0.01),
               ContractViolation);
  EXPECT_THROW(Theorem2DelayBound(10, 2.0, 11, 2.43, sim::kMillisecond, 0.01),
               ContractViolation);
  EXPECT_THROW(MaxTreeDegreeBound(0, 10.0, 31.25), ContractViolation);
  EXPECT_THROW(SpectrumOpportunityProbability(0.0, 10, 100.0, 0.3), ContractViolation);
}

}  // namespace
}  // namespace crn::core
