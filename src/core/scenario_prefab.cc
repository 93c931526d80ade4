#include "core/scenario_prefab.h"

#include <bit>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "core/scenario.h"
#include "geom/deployment.h"

namespace crn::core {

PrefabKey PrefabKey::Of(const ScenarioConfig& config,
                        std::uint64_t repetition) {
  PrefabKey key;
  key.seed = config.seed;
  key.repetition = repetition;
  key.num_sus = config.num_sus;
  key.num_pus = config.num_pus;
  key.area_side_bits = std::bit_cast<std::uint64_t>(config.area_side);
  key.su_radius_bits = std::bit_cast<std::uint64_t>(config.su_radius);
  key.max_deployment_attempts = config.max_deployment_attempts;
  return key;
}

std::shared_ptr<const ScenarioPrefab> ScenarioPrefab::Build(
    const ScenarioConfig& config, std::uint64_t repetition) {
  std::string error;
  std::shared_ptr<const ScenarioPrefab> prefab = TryBuild(config, repetition, error);
  CRN_CHECK(prefab != nullptr) << error;
  return prefab;
}

std::shared_ptr<const ScenarioPrefab> ScenarioPrefab::TryBuild(
    const ScenarioConfig& config, std::uint64_t repetition, std::string& error) {
  CRN_CHECK(config.num_sus > 0);
  CRN_CHECK(config.num_pus >= 0);
  CRN_CHECK(config.area_side > 0.0);
  CRN_CHECK(config.su_radius > 0.0);

  auto prefab = std::make_shared<ScenarioPrefab>();
  prefab->key = PrefabKey::Of(config, repetition);
  prefab->area = geom::Aabb::Square(config.area_side);

  const Rng root(config.seed);
  Rng su_rng = root.Stream("su-deployment", repetition);
  Rng pu_rng = root.Stream("pu-deployment", repetition);

  // Resample the SU layout until the unit-disk graph is connected. The
  // paper's density (n = 2,000 in 250² m², r = 10 m: about 10 expected
  // neighbours) sits near the connectivity threshold, so most draws fail:
  // over 16 repetitions at seeds 1–10, 29% of the draws were rejected at
  // n = 500, 53% at n = 2,000 and 87% at n = 10,000, and 50%, 71% and 82%
  // of those had an isolated point, which IsUnitDiskConnected finds without
  // a traversal (DESIGN.md §5). The attempt cap turns a mis-parameterized
  // config into a clear error instead of a hang.
  for (std::int32_t attempt = 0;; ++attempt) {
    if (attempt >= config.max_deployment_attempts) {
      std::ostringstream message;
      message << "could not draw a connected secondary network in "
              << config.max_deployment_attempts << " attempts; the configured "
              << "density (n=" << config.num_sus << ", A=" << config.area()
              << ", r=" << config.su_radius << ") is likely sub-critical";
      error = message.str();
      return nullptr;
    }
    prefab->su_positions.clear();
    prefab->su_positions.push_back(prefab->area.Center());  // base station
    auto sus = geom::UniformDeployment(config.num_sus, prefab->area, su_rng);
    prefab->su_positions.insert(prefab->su_positions.end(), sus.begin(),
                                sus.end());
    if (geom::IsUnitDiskConnected(prefab->su_positions, prefab->area,
                                  config.su_radius)) {
      break;
    }
  }
  prefab->graph = std::make_unique<const graph::UnitDiskGraph>(
      prefab->su_positions, prefab->area, config.su_radius);
  prefab->tree = std::make_unique<const graph::CdsTree>(*prefab->graph,
                                                        /*root=*/0);
  prefab->pu_positions =
      geom::UniformDeployment(config.num_pus, prefab->area, pu_rng);
  return prefab;
}

std::uint64_t ScenarioPrefab::GeometryDigest() const {
  // SU positions are covered by the graph digest (the graph stores them);
  // fold in the PU layout and the tree on top.
  std::uint64_t hash = graph->StructureDigest();
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFU;
      hash *= 0x100000001B3ULL;
    }
  };
  mix(tree->StructureDigest());
  mix(static_cast<std::uint64_t>(pu_positions.size()));
  for (const geom::Vec2& p : pu_positions) {
    mix(std::bit_cast<std::uint64_t>(p.x));
    mix(std::bit_cast<std::uint64_t>(p.y));
  }
  return hash;
}

std::int64_t ScenarioPrefab::ApproxBytes() const {
  const auto n = static_cast<std::int64_t>(su_positions.size());
  std::int64_t bytes = 0;
  // Position vectors: the prefab's own copies plus the graph's.
  bytes += static_cast<std::int64_t>(
      (su_positions.size() * 2 + pu_positions.size()) * sizeof(geom::Vec2));
  // Graph CSR: offsets (n + 1) plus both directions of every edge.
  bytes += (n + 1) * static_cast<std::int64_t>(sizeof(std::int32_t));
  bytes += 2 * graph->edge_count() *
           static_cast<std::int64_t>(sizeof(graph::NodeId));
  // Tree arrays: role + parent + depth per node, one child id per tree edge,
  // one child-vector header per node.
  bytes += n * static_cast<std::int64_t>(sizeof(graph::NodeRole) +
                                         2 * sizeof(graph::NodeId) +
                                         sizeof(std::vector<graph::NodeId>));
  bytes += (n > 0 ? n - 1 : 0) *
           static_cast<std::int64_t>(sizeof(graph::NodeId));
  return bytes;
}

std::shared_ptr<const mac::PuSensingTable> ScenarioPrefab::SensingTable(
    double pcr) const {
  TableSlot* slot = nullptr;
  {
    const std::lock_guard<std::mutex> lock(tables_mutex_);
    std::unique_ptr<TableSlot>& entry = tables_[std::bit_cast<std::uint64_t>(pcr)];
    if (entry == nullptr) entry = std::make_unique<TableSlot>();
    slot = entry.get();
  }
  std::call_once(slot->once, [&] {
    slot->table = mac::BuildPuSensingTable(su_positions, pu_positions, area, pcr);
  });
  return slot->table;
}

void ScenarioPrefabCache::Announce(const ScenarioConfig& config,
                                   std::uint64_t repetition) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Entry>& slot = entries_[PrefabKey::Of(config, repetition)];
  if (slot == nullptr) slot = std::make_unique<Entry>();
  CRN_CHECK(!slot->requested) << "Announce after the key's first Get (seed="
                              << config.seed << ", repetition=" << repetition << ")";
  ++slot->announced;
}

std::shared_ptr<const ScenarioPrefab> ScenarioPrefabCache::Get(
    const ScenarioConfig& config, std::uint64_t repetition) {
  const PrefabKey key = PrefabKey::Of(config, repetition);
  Entry* entry = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Entry>& slot = entries_[key];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry = slot.get();
    // Counted at the first request, not at build completion, so the split
    // is a pure function of the request sequence's key set: misses =
    // distinct keys, hits = requests - misses, at every jobs value.
    ++(entry->requested ? stats_.hits : stats_.misses);
    entry->requested = true;
    CRN_CHECK(entry->announced == 0 || entry->claimed < entry->announced)
        << "request " << entry->claimed + 1 << " for (seed=" << config.seed
        << ", repetition=" << repetition << ") exceeds the "
        << entry->announced << " announced; the prefab has been dropped";
    ++entry->claimed;
  }
  std::call_once(entry->once, [&] {
    std::shared_ptr<const ScenarioPrefab> built =
        ScenarioPrefab::Build(config, repetition);
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.bytes += built->ApproxBytes();
    entry->prefab = std::move(built);
  });
  std::shared_ptr<const ScenarioPrefab> prefab;
  {
    // Served in any order: the request that is served last, not the one
    // claimed last, drops the cache's reference, so no claimed request can
    // find the prefab gone.
    const std::lock_guard<std::mutex> lock(mutex_);
    prefab = entry->prefab;
    if (entry->announced > 0 && ++entry->served == entry->announced) {
      entry->prefab.reset();
    }
  }
  return prefab;
}

ScenarioPrefabCache::Stats ScenarioPrefabCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace crn::core
