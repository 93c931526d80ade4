#include "core/scenario.h"

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/units.h"

namespace crn::core {

PcrParams ScenarioConfig::MakePcrParams() const {
  PcrParams params;
  params.pu_power = pu_power;
  params.su_power = su_power;
  params.pu_radius = pu_radius;
  params.su_radius = su_radius;
  params.eta_p = SirThreshold::FromDb(eta_p_db);
  params.eta_s = SirThreshold::FromDb(eta_s_db);
  params.alpha = alpha;
  return params;
}

pu::PrimaryConfig ScenarioConfig::MakePrimaryConfig() const {
  pu::PrimaryConfig config;
  config.count = num_pus;
  config.power = pu_power;
  config.radius = pu_radius;
  config.activity = pu_activity;
  config.slot = slot;
  config.process = pu_activity_process;
  config.mean_burst_slots = pu_mean_burst_slots;
  return config;
}

namespace {

bool Positive(double value) { return std::isfinite(value) && value > 0.0; }

const ScenarioConfig& Validated(const ScenarioConfig& config) {
  const std::string error = config.Validate();
  CRN_CHECK(error.empty()) << error;
  return config;
}

}  // namespace

std::string ScenarioConfig::Validate() const {
  // Each rule is a plain test, safe on any value; the first to fail is named.
  std::string error;
  const auto rule = [&error](bool holds, const char* field, auto value,
                             const char* must) {
    if (holds || !error.empty()) return;
    std::ostringstream out;
    out << field << " must be " << must << ", got " << value;
    error = out.str();
  };
  const bool markov = pu_activity_process == pu::ActivityProcess::kMarkov;
  const char* const kPositive = "finite and > 0";
  const char* const kThreshold = "a threshold whose linear value is finite and > 0";
  rule(num_sus >= 1, "num_sus", num_sus, ">= 1");
  rule(num_pus >= 0, "num_pus", num_pus, ">= 0");
  // The side squared can underflow to 0 or overflow to inf on its own.
  rule(Positive(area_side) && Positive(area()), "area_side", area_side,
       "finite and > 0, with a finite area > 0");
  rule(pu_activity >= 0.0 && pu_activity <= 1.0, "pu_activity", pu_activity, "in [0, 1]");
  rule(std::isfinite(alpha) && alpha > 2.0, "alpha", alpha, "finite and > 2");
  rule(c2_variant != C2Variant::kPaper || UncheckedC2(alpha, c2_variant) > 0.0, "alpha",
       alpha,
       "below about 4.2038 under the paper's c2, which turns non-positive there "
       "(Lemma 2, DESIGN.md §4; --c2=corrected holds for any alpha > 2)");
  rule(Positive(pu_power), "pu_power", pu_power, kPositive);
  rule(Positive(su_power), "su_power", su_power, kPositive);
  rule(Positive(pu_radius), "pu_radius", pu_radius, kPositive);
  rule(Positive(su_radius), "su_radius", su_radius, kPositive);
  rule(Positive(DbToLinear(eta_p_db)), "eta_p_db", eta_p_db, kThreshold);
  rule(Positive(DbToLinear(eta_s_db)), "eta_s_db", eta_s_db, kThreshold);
  rule(!markov || (std::isfinite(pu_mean_burst_slots) && pu_mean_burst_slots >= 1.0),
       "pu_mean_burst_slots", pu_mean_burst_slots,
       "finite and >= 1 under the Markov process");
  rule(!markov || pu::MarkovReaches(pu_activity, pu_mean_burst_slots), "pu_activity",
       pu_activity,
       "at most pu_mean_burst_slots / (pu_mean_burst_slots + 1), or exactly 1, "
       "under the Markov process");
  if (error.empty()) {  // every input of the PCR is valid
    const double pcr = ProperCarrierSensingRange(MakePcrParams(), c2_variant);
    rule(std::isfinite(pcr), "the PCR from these powers, radii and SIR thresholds", pcr,
         "finite");
  }
  return error;
}

ScenarioConfig ScenarioConfig::PaperDefaults() { return ScenarioConfig{}; }

ScenarioConfig ScenarioConfig::ScaledDefaults(double scale) {
  CRN_CHECK(scale > 0.0 && scale <= 1.0) << "scale=" << scale;
  ScenarioConfig config;
  config.num_sus = static_cast<std::int32_t>(std::lround(config.num_sus * scale));
  config.num_pus = static_cast<std::int32_t>(std::lround(config.num_pus * scale));
  config.area_side *= std::sqrt(scale);  // area scales linearly with n and N
  return config;
}

Scenario::Scenario(const ScenarioConfig& config, std::uint64_t repetition)
    : Scenario(config, repetition,
               ScenarioPrefab::Build(Validated(config), repetition)) {}

Scenario::Scenario(const ScenarioConfig& config, std::uint64_t repetition,
                   std::shared_ptr<const ScenarioPrefab> prefab)
    : config_(Validated(config)), repetition_(repetition), prefab_(std::move(prefab)) {
  CRN_CHECK(prefab_ != nullptr);
  CRN_CHECK(prefab_->key == PrefabKey::Of(config, repetition))
      << "prefab key mismatch: the supplied prefab was built for a different "
      << "geometry than (config, repetition=" << repetition
      << ") — sharing it would simulate the wrong deployment";
  kappa_ = Kappa(config.MakePcrParams(), config.c2_variant);
  pcr_ = kappa_ * config.su_radius;
}

pu::PrimaryNetwork Scenario::MakePrimaryNetwork() const {
  return pu::PrimaryNetwork(config_.MakePrimaryConfig(), prefab_->area,
                            prefab_->pu_positions);
}

Rng Scenario::RunRngFor(const ScenarioConfig& config, std::uint64_t repetition) {
  return Rng(config.seed).Stream("run", repetition);
}

}  // namespace crn::core
