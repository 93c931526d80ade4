// Scenario assembly: turns one ScenarioConfig (the paper's parameter vector)
// plus a repetition index into a concrete deployed network — SU positions
// with the base station at the area center, a connected unit-disk secondary
// graph, PU positions, and the PCR — ready for a collection run.
#ifndef CRN_CORE_SCENARIO_H_
#define CRN_CORE_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pcr.h"
#include "core/scenario_prefab.h"
#include "geom/vec2.h"
#include "graph/cds_tree.h"
#include "graph/unit_disk_graph.h"
#include "pu/primary_network.h"
#include "sim/time.h"

namespace crn::core {

// The full parameter vector of §V. Defaults are the paper's Fig. 6 caption
// values; ScaledDefaults() shrinks the instance preserving every density
// (n/A, N/A), which is what keeps the delay *shape* intact at lower cost.
struct ScenarioConfig {
  // Secondary network.
  std::int32_t num_sus = 2000;  // n (base station excluded)
  double area_side = 250.0;     // A = area_side²
  double su_power = 10.0;       // P_s
  double su_radius = 10.0;      // r
  double eta_s_db = 8.0;        // η_s in dB
  // Primary network.
  std::int32_t num_pus = 400;   // N
  double pu_power = 10.0;       // P_p
  double pu_radius = 10.0;      // R
  double pu_activity = 0.3;     // p_t
  double eta_p_db = 8.0;        // η_p in dB
  // Activity process: the paper's evaluation uses i.i.d. Bernoulli slots;
  // kMarkov keeps the same stationary p_t but bursty on/off runs (A6).
  pu::ActivityProcess pu_activity_process = pu::ActivityProcess::kIid;
  double pu_mean_burst_slots = 4.0;
  // Shared physical parameters.
  double alpha = 4.0;
  sim::TimeNs slot = sim::kMillisecond;                    // τ
  sim::TimeNs contention_window = sim::kMillisecond / 2;   // τ_c
  // Algorithmic knobs. Simulations default to the paper's printed c2 (the
  // operating point its evaluation used — the corrected constant inflates
  // the PCR until p_o ~ 1e-5 and no evaluation, the authors' included,
  // could finish; see DESIGN.md §4 and ablation A2).
  C2Variant c2_variant = C2Variant::kPaper;
  bool fairness_wait = true;
  // --- Coolest-baseline MAC model (DESIGN.md §3, EXPERIMENTS.md) --------
  // The baseline is a routing protocol [17] over a conventional CSMA MAC.
  // PU protection is mandatory for every CRN, so it must carrier-sense far
  // enough to protect primary receivers — but deriving the *minimal* safe
  // range is exactly ADDC's §IV-B contribution (objective (iii)). The
  // baseline therefore budgets a standard 2x aggregate-interference safety
  // margin in the same Lemma-2/3 construction; since p_o shrinks
  // exponentially in the sensed area, that margin costs it ~2-3x in
  // spectrum opportunities. Setting coolest_sensing_factor > 0 overrides
  // the range to factor·r outright (ablation A4: under-sensing "wins" on
  // delay only by violating PU protection). The discrete contention slots
  // plus carrier-detection latency produce the same-slot collisions and
  // retransmissions of §I challenge 3, which Algorithm 1's continuous
  // backoff avoids by construction.
  double baseline_interference_margin = 2.0;
  double coolest_sensing_factor = 0.0;
  sim::TimeNs baseline_backoff_granularity = 50 * sim::kMicrosecond;
  sim::TimeNs baseline_sensing_latency = 10 * sim::kMicrosecond;
  std::int32_t audit_stride = 16;
  sim::TimeNs max_sim_time = 7'200 * sim::kSecond;
  // Reproducibility.
  std::uint64_t seed = 0x5EEDADDCULL;
  std::int32_t max_deployment_attempts = 500;

  [[nodiscard]] double area() const { return area_side * area_side; }
  [[nodiscard]] double c0() const { return area() / static_cast<double>(num_sus); }
  [[nodiscard]] PcrParams MakePcrParams() const;
  [[nodiscard]] pu::PrimaryConfig MakePrimaryConfig() const;
  // The first constraint this vector violates, as a message naming the
  // field and its value; empty when a Scenario can be built and run on it.
  // Both Scenario constructors CRN_CHECK it; the CLI reports it.
  [[nodiscard]] std::string Validate() const;

  // Fig. 6 caption parameters (n = 2000, A = 250×250, N = 400, ...).
  static ScenarioConfig PaperDefaults();
  // Density-preserving shrink: n, N, and A scale together by `scale`.
  static ScenarioConfig ScaledDefaults(double scale = 0.25);
};

// One deployed instance. The geometry (positions, graph, CDS tree) lives in
// an immutable ScenarioPrefab: the single-argument constructor builds a
// private one (deployment resamples SU positions until the secondary
// unit-disk graph is connected — the paper's standing assumption; PU
// positions need no such constraint), while the prefab-taking constructor
// shares one across scenarios that differ only in MAC/spectrum parameters
// (see ScenarioPrefabCache). The derived quantities that do depend on those
// parameters — κ and the PCR — stay per-Scenario.
class Scenario {
 public:
  Scenario(const ScenarioConfig& config, std::uint64_t repetition);
  // Shares `prefab` instead of deploying. CRN_CHECKs that the prefab's key
  // matches PrefabKey::Of(config, repetition) — a mismatched prefab would
  // silently simulate the wrong geometry.
  Scenario(const ScenarioConfig& config, std::uint64_t repetition,
           std::shared_ptr<const ScenarioPrefab> prefab);

  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t repetition() const { return repetition_; }
  [[nodiscard]] geom::Aabb area() const { return prefab_->area; }
  // Index 0 is the base station (area center); 1..n are SUs.
  [[nodiscard]] const std::vector<geom::Vec2>& su_positions() const {
    return prefab_->su_positions;
  }
  [[nodiscard]] graph::NodeId sink() const { return 0; }
  [[nodiscard]] const graph::UnitDiskGraph& secondary_graph() const {
    return *prefab_->graph;
  }
  // CDS collection tree rooted at the sink (§IV-A) — prebuilt with the
  // geometry so ADDC runs on shared prefabs never rebuild it.
  [[nodiscard]] const graph::CdsTree& collection_tree() const {
    return *prefab_->tree;
  }
  [[nodiscard]] const std::vector<geom::Vec2>& pu_positions() const {
    return prefab_->pu_positions;
  }
  [[nodiscard]] const std::shared_ptr<const ScenarioPrefab>& prefab() const {
    return prefab_;
  }
  [[nodiscard]] double pcr() const { return pcr_; }
  [[nodiscard]] double kappa() const { return kappa_; }

  // Fresh primary network (activity state is mutable, so each run builds
  // its own from the deployed positions).
  [[nodiscard]] pu::PrimaryNetwork MakePrimaryNetwork() const;

  // Root RNG for this (seed, repetition); runs derive named streams.
  [[nodiscard]] Rng MakeRunRng() const { return RunRngFor(config_, repetition_); }
  // The same stream without building the deployment.
  [[nodiscard]] static Rng RunRngFor(const ScenarioConfig& config,
                                     std::uint64_t repetition);

 private:
  ScenarioConfig config_;
  std::uint64_t repetition_;
  std::shared_ptr<const ScenarioPrefab> prefab_;
  double pcr_ = 0.0;
  double kappa_ = 0.0;
};

}  // namespace crn::core

#endif  // CRN_CORE_SCENARIO_H_
