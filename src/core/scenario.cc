#include "core/scenario.h"

#include <cmath>
#include <utility>

#include "common/check.h"

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
    : Scenario(config, repetition, ScenarioPrefab::Build(config, repetition)) {}

Scenario::Scenario(const ScenarioConfig& config, std::uint64_t repetition,
                   std::shared_ptr<const ScenarioPrefab> prefab)
    : config_(config), repetition_(repetition), prefab_(std::move(prefab)) {
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
