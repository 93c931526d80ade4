// Closed-form performance bounds of §IV-D (Lemmas 5–8, Theorems 1–2).
// These functions are the paper's analysis, not the simulation; tests
// compare simulated behaviour against them.
#ifndef CRN_CORE_THEORY_H_
#define CRN_CORE_THEORY_H_

#include <cstdint>

#include "sim/time.h"

namespace crn::core {

// β_x of Lemma 4/5: maximum number of points with mutual distance ≥ 1 in a
// disk of radius x (β_x = 2πx²/√3 + πx + 1).
double BetaX(double x);

// Lemma 5: upper bound on dominators + connectors within an SU's PCR,
// β_κ + 12·β_{κ+1}.
double BackboneWithinPcrBound(double kappa);

// Lemma 6: Δ ≤ log n + π r²(e² − 1)/(2 c0) with probability 1, where Δ is
// the maximum degree of the CDS-based collection tree and c0 = A/n.
double MaxTreeDegreeBound(std::int64_t num_sus, double su_radius, double c0);

// Lemma 7: p_o = (1 − p_t)^{π (κ r)² N / A}, the per-slot probability that
// no PU within the PCR is active; the expected wait for a spectrum
// opportunity is τ / p_o.
double SpectrumOpportunityProbability(double pcr, std::int64_t num_pus,
                                      double area, double pu_activity);
sim::TimeNs ExpectedOpportunityWait(sim::TimeNs slot, double p_o);

// Theorem 1: any SU with data transmits at least one packet to its parent
// within (2Δβ_κ + 24β_{κ+1} − 1)·τ/p_o.
sim::TimeNs Theorem1ServiceBound(double delta, double kappa, sim::TimeNs slot,
                                 double p_o);

// Lemma 8: once only backbone nodes hold packets, per-packet service is
// bounded by (2β_κ + 24β_{κ+1} − 1)·τ/p_o.
sim::TimeNs Lemma8ServiceBound(double kappa, sim::TimeNs slot, double p_o);

// Theorem 2: total collection delay is bounded by
//   Theorem1ServiceBound + (n − Δ_b)·Lemma8ServiceBound,
// where Δ_b is the degree of the base station in the tree. These bounds
// saturate at the largest TimeNs when p_o is too small for them to fit. Capacity is then
// n·B/delay ≥ p_o·W/(2β_κ + 24β_{κ+1} − 1) — order-optimal since W is the
// trivial upper bound.
sim::TimeNs Theorem2DelayBound(std::int64_t num_sus, double delta,
                               std::int64_t sink_degree, double kappa,
                               sim::TimeNs slot, double p_o);

// Capacity lower bound as a fraction of the bandwidth W.
double Theorem2CapacityFraction(double kappa, double p_o);

}  // namespace crn::core

#endif  // CRN_CORE_THEORY_H_
