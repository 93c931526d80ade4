#include "mac/pu_sensing_table.h"

#include <algorithm>

#include "common/check.h"
#include "geom/spatial_grid.h"

namespace crn::mac {

std::shared_ptr<const PuSensingTable> BuildPuSensingTable(
    const std::vector<geom::Vec2>& node_positions,
    const std::vector<geom::Vec2>& pu_positions, geom::Aabb area, double pcr) {
  CRN_CHECK(pcr > 0.0) << "pcr=" << pcr;
  auto table = std::make_shared<PuSensingTable>();
  table->pcr = pcr;
  table->pu_count = static_cast<std::int32_t>(pu_positions.size());
  table->begin.reserve(node_positions.size() + 1);
  // Cells one PCR wide: a query scans at most the 3×3 cells around its node.
  const geom::SpatialGrid grid(pu_positions, area, std::max(pcr, 1.0));
  for (const geom::Vec2& node : node_positions) {
    const auto first = static_cast<std::ptrdiff_t>(table->pus.size());
    table->begin.push_back(static_cast<std::int32_t>(first));
    grid.ForEachInDisk(node, pcr, [&](pu::PuId p) { table->pus.push_back(p); });
    std::sort(table->pus.begin() + first, table->pus.end());
  }
  table->begin.push_back(static_cast<std::int32_t>(table->pus.size()));
  return table;
}

}  // namespace crn::mac
