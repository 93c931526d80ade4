// Proper Carrier-sensing Range (PCR), §IV-B of the paper.
//
// Definitions 4.1–4.3: R_pcr is *proper* when every R-set (nodes pairwise
// ≥ R_pcr apart) is a concurrent set (all can transmit simultaneously and
// successfully). Lemmas 2 and 3 derive sufficient conditions:
//
//   R_pcr ≥ (1 + (c2·η_p / c1)^{1/α}) · R      (primary protection)
//   R_pcr ≥ (1 + (c2·η_s / c3)^{1/α}) · r      (secondary success)
//
// with c1 = P_p/max(P_p,P_s), c3 = P_s/max(P_p,P_s), and a constant c2
// bounding the hexagon-packing interference sum. The paper sets
// κ = max of the two normalized bounds and uses R_pcr = κ·r (eq. (16)).
//
// ERRATUM (DESIGN.md §4): the paper prints
//   c2 = 6 + 6·(√3/2)^{-α}·(1/(α−2) − 1),
// but the inequality it invokes is ζ(α−1) − 1 ≤ 1/(α−2), which yields
//   c2 = 6 + 6·(√3/2)^{-α}·(1/(α−2)).
// The printed constant is negative for α ≳ 4.2038 and, even where positive,
// yields a range too small to guarantee concurrency (the property tests
// exhibit a counterexample). We expose both variants; all simulation
// defaults use the corrected one.
#ifndef CRN_CORE_PCR_H_
#define CRN_CORE_PCR_H_

#include "common/units.h"

namespace crn::core {

enum class C2Variant {
  kPaper,      // as printed in Lemma 2 (valid only where it stays positive)
  kCorrected,  // with the zeta-function bound applied correctly
};

const char* ToString(C2Variant variant);

struct PcrParams {
  double pu_power = 10.0;   // P_p
  double su_power = 10.0;   // P_s
  double pu_radius = 10.0;  // R
  double su_radius = 10.0;  // r
  SirThreshold eta_p = SirThreshold::FromDb(8.0);
  SirThreshold eta_s = SirThreshold::FromDb(8.0);
  double alpha = 4.0;       // must exceed 2
};

// The packing constant c2 of Lemma 2 for the given variant. Throws when the
// paper variant is non-positive at this α (above about 4.2038), where the
// printed formula stops being meaningful.
double C2(double alpha, C2Variant variant);
// The variant's formula for α > 2 with no check on its sign: C2 throws
// exactly where this is not positive (ScenarioConfig::Validate asks it).
double UncheckedC2(double alpha, C2Variant variant);

// κ of eq. (16): PCR in units of the SU radius r.
//
// `interference_margin` scales the aggregate-interference budget (the c2·η
// product) before the range is solved: 1.0 is the paper's tight
// hexagon-packing bound — §IV-B objective (iii), "the carrier-sensing range
// is as small as possible, which implies SUs can obtain more spectrum
// opportunities". A designer without that analysis protects PUs with a
// conventional safety margin instead (2.0 = budget twice the worst-case
// aggregate), which is how the Coolest baseline's sensing range is modeled;
// because p_o is exponential in the sensed area, even that modest margin
// costs the baseline ~2–3x in spectrum opportunities.
double Kappa(const PcrParams& params, C2Variant variant,
             double interference_margin = 1.0);

// R_pcr = κ·r in meters — the carrier-sensing range ADDC configures.
double ProperCarrierSensingRange(const PcrParams& params, C2Variant variant,
                                 double interference_margin = 1.0);

// The two individual lemma bounds (useful for Fig. 4, which shows how each
// constraint responds to its own parameters).
double PrimaryProtectionRange(const PcrParams& params, C2Variant variant,
                              double interference_margin = 1.0);  // Lemma 2
double SecondarySuccessRange(const PcrParams& params, C2Variant variant,
                             double interference_margin = 1.0);   // Lemma 3

}  // namespace crn::core

#endif  // CRN_CORE_PCR_H_
