#include "core/pcr.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace crn::core {

const char* ToString(C2Variant variant) {
  switch (variant) {
    case C2Variant::kPaper:
      return "paper";
    case C2Variant::kCorrected:
      return "corrected";
  }
  return "unknown";
}

double UncheckedC2(double alpha, C2Variant variant) {
  const double hex = 6.0 * std::pow(std::sqrt(3.0) / 2.0, -alpha);
  return variant == C2Variant::kPaper ? 6.0 + hex * (1.0 / (alpha - 2.0) - 1.0)
                                      : 6.0 + hex / (alpha - 2.0);
}

double C2(double alpha, C2Variant variant) {
  CRN_CHECK(alpha > 2.0) << "alpha=" << alpha;
  const double c2 = UncheckedC2(alpha, variant);
  CRN_CHECK(c2 > 0.0) << "the paper's printed c2 is non-positive at alpha="
                      << alpha << " (see DESIGN.md §4); use kCorrected";
  return c2;
}

namespace {

double RangeFromConstraint(double c_power, double eta_linear, double alpha,
                           double radius, C2Variant variant, double margin) {
  CRN_CHECK(margin >= 1.0) << "interference_margin=" << margin;
  const double c2 = C2(alpha, variant);
  return (1.0 + std::pow(margin * c2 * eta_linear / c_power, 1.0 / alpha)) * radius;
}

}  // namespace

double PrimaryProtectionRange(const PcrParams& params, C2Variant variant,
                              double interference_margin) {
  const double c1 = params.pu_power / std::max(params.pu_power, params.su_power);
  return RangeFromConstraint(c1, params.eta_p.linear(), params.alpha,
                             params.pu_radius, variant, interference_margin);
}

double SecondarySuccessRange(const PcrParams& params, C2Variant variant,
                             double interference_margin) {
  const double c3 = params.su_power / std::max(params.pu_power, params.su_power);
  return RangeFromConstraint(c3, params.eta_s.linear(), params.alpha,
                             params.su_radius, variant, interference_margin);
}

double Kappa(const PcrParams& params, C2Variant variant, double interference_margin) {
  CRN_CHECK(params.pu_power > 0.0 && params.su_power > 0.0);
  CRN_CHECK(params.pu_radius > 0.0 && params.su_radius > 0.0);
  return std::max(
      PrimaryProtectionRange(params, variant, interference_margin) / params.su_radius,
      SecondarySuccessRange(params, variant, interference_margin) / params.su_radius);
}

double ProperCarrierSensingRange(const PcrParams& params, C2Variant variant,
                                 double interference_margin) {
  return Kappa(params, variant, interference_margin) * params.su_radius;
}

}  // namespace crn::core
