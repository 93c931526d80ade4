#include "core/theory.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "geom/packing.h"

namespace crn::core {

double BetaX(double x) { return geom::Beta(x); }

double BackboneWithinPcrBound(double kappa) {
  CRN_CHECK(kappa > 0.0);
  return BetaX(kappa) + 12.0 * BetaX(kappa + 1.0);
}

double MaxTreeDegreeBound(std::int64_t num_sus, double su_radius, double c0) {
  CRN_CHECK(num_sus > 0);
  CRN_CHECK(su_radius > 0.0);
  CRN_CHECK(c0 > 0.0);
  const double e2 = std::exp(2.0);
  return std::log(static_cast<double>(num_sus)) +
         M_PI * su_radius * su_radius * (e2 - 1.0) / (2.0 * c0);
}

double SpectrumOpportunityProbability(double pcr, std::int64_t num_pus,
                                      double area, double pu_activity) {
  CRN_CHECK(pcr > 0.0);
  CRN_CHECK(num_pus >= 0);
  CRN_CHECK(area > 0.0);
  CRN_CHECK(pu_activity >= 0.0 && pu_activity <= 1.0);
  if (pu_activity >= 1.0 && num_pus > 0) return 0.0;
  const double expected_pus_in_pcr =
      M_PI * pcr * pcr * static_cast<double>(num_pus) / area;
  return std::pow(1.0 - pu_activity, expected_pus_in_pcr);
}

namespace {

constexpr sim::TimeNs kEndOfClock = std::numeric_limits<sim::TimeNs>::max();

// A wait of `ns` nanoseconds as TimeNs. A vanishing p_o (dense, busy PUs)
// makes it pass the int64 clock, where it saturates: converting such a
// double is undefined behaviour.
sim::TimeNs SaturatingNs(double ns) {
  return ns < 0x1p63 ? static_cast<sim::TimeNs>(ns) : kEndOfClock;
}

}  // namespace

sim::TimeNs ExpectedOpportunityWait(sim::TimeNs slot, double p_o) {
  CRN_CHECK(p_o > 0.0) << "an SU needs a positive spectrum-access probability";
  return SaturatingNs(static_cast<double>(slot) / p_o);
}

namespace {

double ServiceSlots(double delta, double kappa) {
  // 2Δβ_κ + 24β_{κ+1} − 1 from Theorem 1 (Δ = 1 recovers Lemma 8).
  return 2.0 * delta * BetaX(kappa) + 24.0 * BetaX(kappa + 1.0) - 1.0;
}

}  // namespace

sim::TimeNs Theorem1ServiceBound(double delta, double kappa, sim::TimeNs slot,
                                 double p_o) {
  CRN_CHECK(delta >= 1.0);
  CRN_CHECK(p_o > 0.0);
  return SaturatingNs(ServiceSlots(delta, kappa) * static_cast<double>(slot) / p_o);
}

sim::TimeNs Lemma8ServiceBound(double kappa, sim::TimeNs slot, double p_o) {
  return Theorem1ServiceBound(1.0, kappa, slot, p_o);
}

sim::TimeNs Theorem2DelayBound(std::int64_t num_sus, double delta,
                               std::int64_t sink_degree, double kappa,
                               sim::TimeNs slot, double p_o) {
  CRN_CHECK(num_sus > 0);
  CRN_CHECK(sink_degree >= 0 && sink_degree <= num_sus);
  const std::int64_t tail = num_sus - sink_degree;
  const sim::TimeNs head = Theorem1ServiceBound(delta, kappa, slot, p_o);
  const sim::TimeNs per_packet = Lemma8ServiceBound(kappa, slot, p_o);
  if (per_packet > 0 && tail > (kEndOfClock - head) / per_packet) return kEndOfClock;
  return head + tail * per_packet;
}

double Theorem2CapacityFraction(double kappa, double p_o) {
  CRN_CHECK(p_o > 0.0);
  return p_o / ServiceSlots(1.0, kappa);
}

}  // namespace crn::core
