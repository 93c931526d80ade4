// Scenario prefab: the deployment-determined, immutable part of a scenario
// — SU/PU positions, the connected unit-disk secondary graph, and the CDS
// collection tree — split out of Scenario so sweep cells that share the
// same geometry can share one build.
//
// Keying rule (DESIGN.md §15): geometry is a pure function of exactly
// (seed, repetition, num_sus, num_pus, area_side, su_radius,
// max_deployment_attempts). Every other ScenarioConfig field — powers, SIR
// thresholds, PU activity, MAC timing, algorithmic knobs — feeds the
// simulation but never the deployment RNG streams, the connectivity
// resampling loop, the graph, or the tree. PrefabKey captures that subset
// bit-exactly (doubles by bit pattern), so four of the six Fig.-6 sweep
// axes (τ_c, p_a, PU power, SIR thresholds) map every point of a sweep to
// the same prefab.
//
// Invalidation is by immutability: a prefab's geometry is never mutated
// after Build(), so a key either names exactly this geometry forever or is
// a different key. The one thing a prefab adds later is derived data — the
// PU sensing table of each PCR a run asks for, memoized once per PCR bit
// pattern — which is a pure function of that geometry and the PCR and
// enters neither the key, the digest nor ApproxBytes. A cache therefore
// needs no invalidation; it only drops its reference once every announced
// request for a key has been served (ScenarioPrefabCache::Announce).
#ifndef CRN_CORE_SCENARIO_PREFAB_H_
#define CRN_CORE_SCENARIO_PREFAB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "geom/vec2.h"
#include "graph/cds_tree.h"
#include "graph/unit_disk_graph.h"
#include "mac/pu_sensing_table.h"

namespace crn::core {

struct ScenarioConfig;  // core/scenario.h

// The geometry-determining subset of (ScenarioConfig, repetition). Doubles
// are compared by bit pattern: prefab reuse requires *identical* geometry,
// not approximately-equal geometry.
struct PrefabKey {
  std::uint64_t seed = 0;
  std::uint64_t repetition = 0;
  std::int32_t num_sus = 0;
  std::int32_t num_pus = 0;
  std::uint64_t area_side_bits = 0;
  std::uint64_t su_radius_bits = 0;
  std::int32_t max_deployment_attempts = 0;

  static PrefabKey Of(const ScenarioConfig& config, std::uint64_t repetition);

  friend auto operator<=>(const PrefabKey&, const PrefabKey&) = default;
};

// One immutable deployed geometry. Shared across Scenario instances via
// shared_ptr<const ScenarioPrefab>; nothing here is mutated after Build()
// but the sensing-table memo, which is derived data.
struct ScenarioPrefab {
  PrefabKey key;
  geom::Aabb area;
  // Index 0 is the base station (area center); 1..n are SUs.
  std::vector<geom::Vec2> su_positions;
  std::vector<geom::Vec2> pu_positions;
  std::unique_ptr<const graph::UnitDiskGraph> graph;
  std::unique_ptr<const graph::CdsTree> tree;  // rooted at the base station

  // Deploys (resampling until the secondary graph is connected), builds the
  // graph and the CDS tree. Pure function of the key fields — the CHECKed
  // contract the cache's equivalence mode re-verifies. CRN_CHECKs that a
  // connected draw came within config.max_deployment_attempts.
  static std::shared_ptr<const ScenarioPrefab> Build(
      const ScenarioConfig& config, std::uint64_t repetition);
  // The same, but a deployment that stays disconnected for every attempt is
  // an input error, not a contract violation: returns nullptr and says why
  // in `error` (command-line front ends report it as a usage error).
  static std::shared_ptr<const ScenarioPrefab> TryBuild(
      const ScenarioConfig& config, std::uint64_t repetition, std::string& error);

  // FNV-1a digest over positions, graph CSR, and tree structure; equal
  // digests certify a bit-identical prefab.
  [[nodiscard]] std::uint64_t GeometryDigest() const;

  // Heap footprint estimate for the prefab.bytes counter: vector payloads
  // and CSR arrays, not allocator overhead. Deterministic given the key.
  // Sensing tables are not counted: they depend on which PCRs runs ask for.
  [[nodiscard]] std::int64_t ApproxBytes() const;

  // The PUs within `pcr` of every node (mac/pu_sensing_table.h), built on
  // the first request for that PCR's bit pattern — never in Build() — and
  // shared by every later one. Thread-safe: concurrent first requests for
  // one PCR block on a single build.
  [[nodiscard]] std::shared_ptr<const mac::PuSensingTable> SensingTable(double pcr) const;

 private:
  struct TableSlot {
    std::once_flag once;
    std::shared_ptr<const mac::PuSensingTable> table;
  };
  mutable std::mutex tables_mutex_;
  mutable std::map<std::uint64_t, std::unique_ptr<TableSlot>> tables_;
};

// Content-addressed, thread-safe prefab cache for sweep engines. Each
// distinct PrefabKey is built exactly once (concurrent requesters block on
// the builder); the counters are therefore deterministic at every jobs
// value: misses = number of distinct keys requested, hits = requests -
// misses, bytes = sum of ApproxBytes over built prefabs — all independent
// of scheduling, so they are safe to export through the digest-compared
// MetricsRegistry.
//
// Lifetime: a caller that knows its requests up front Announce()s each one
// before its first Get; the cache then drops its reference to a key's
// prefab as soon as the last announced request for it has been served, so
// a sweep holds each geometry only while a cell still needs it. A key that
// was never announced stays cached for the cache's lifetime.
class ScenarioPrefabCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t bytes = 0;
    // Equivalence mode only: cache hits re-verified against a fresh build.
    std::int64_t verified = 0;
  };

  // `verify` turns on the digest-verified equivalence mode: every cache hit
  // rebuilds the prefab from scratch and CRN_CHECKs GeometryDigest()
  // equality — cached ≡ rebuilt, proven per hit. Test/CI mode; the rebuild
  // obviously forfeits the cache's speedup.
  explicit ScenarioPrefabCache(bool verify = false) : verify_(verify) {}

  ScenarioPrefabCache(const ScenarioPrefabCache&) = delete;
  ScenarioPrefabCache& operator=(const ScenarioPrefabCache&) = delete;

  // Declares one future Get(config, repetition). Call it for every request
  // before the first Get of that key; a key's announced requests may not be
  // exceeded (CRN_CHECK), since its prefab is gone after the last of them.
  void Announce(const ScenarioConfig& config, std::uint64_t repetition);

  // Returns the shared prefab for (config, repetition), building it if this
  // is the first request for its key.
  std::shared_ptr<const ScenarioPrefab> Get(const ScenarioConfig& config,
                                            std::uint64_t repetition);

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const ScenarioPrefab> prefab;
    bool requested = false;  // the first Get counted this key's miss
    // Requests announced, claimed (counted on entry to Get) and served (the
    // prefab handed out); an entry never announced keeps its prefab.
    std::int64_t announced = 0;
    std::int64_t claimed = 0;
    std::int64_t served = 0;
  };

  bool verify_;
  mutable std::mutex mutex_;
  std::map<PrefabKey, std::unique_ptr<Entry>> entries_;
  Stats stats_;
};

}  // namespace crn::core

#endif  // CRN_CORE_SCENARIO_PREFAB_H_
