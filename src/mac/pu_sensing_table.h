// The PU sensing table: for every node, the PUs inside its PCR disk (the
// carrier-sensing targets of Lemma 7, radius κ·r). For a fixed deployment
// and PCR the table is a constant, so one build serves every run on that
// geometry and range: ScenarioPrefab memoizes it per PCR
// (core/scenario_prefab.h) and CollectionMac reads it through a shared,
// immutable pointer, building its own only when none is handed in.
#ifndef CRN_MAC_PU_SENSING_TABLE_H_
#define CRN_MAC_PU_SENSING_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "pu/primary_network.h"

namespace crn::mac {

// CSR layout: node v's PUs are pus[begin[v], begin[v + 1]), in ascending PU
// id — every PU p with DistanceSquared(node, p) <= pcr². A pure function of
// (node positions, PU positions, pcr): the grid the builder queries decides
// neither membership nor order.
struct PuSensingTable {
  double pcr = 0.0;
  std::int32_t pu_count = 0;
  std::vector<std::int32_t> begin;
  std::vector<pu::PuId> pus;

  [[nodiscard]] std::int32_t node_count() const {
    return static_cast<std::int32_t>(begin.size()) - 1;
  }
  [[nodiscard]] std::span<const pu::PuId> PusOf(std::int32_t node) const {
    return {pus.data() + begin[static_cast<std::size_t>(node)],
            pus.data() + begin[static_cast<std::size_t>(node) + 1]};
  }
};

// The one builder: one PU-grid disk query per node, each run sorted.
// `area` bounds the PU grid (points outside it clamp to the edge cells).
[[nodiscard]] std::shared_ptr<const PuSensingTable> BuildPuSensingTable(
    const std::vector<geom::Vec2>& node_positions,
    const std::vector<geom::Vec2>& pu_positions, geom::Aabb area, double pcr);

}  // namespace crn::mac

#endif  // CRN_MAC_PU_SENSING_TABLE_H_
