// The PU sensing table against an all-pairs scan: every node's row must be
// exactly the PUs p with d²(node, p) <= pcr², ascending, for PCRs below one
// grid cell and beyond the whole area, and for PUs sitting on cell edges.
// The MAC must refuse a table built for another run.
#include "mac/pu_sensing_table.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "mac/collection_mac.h"
#include "pu/primary_network.h"
#include "sim/simulator.h"

namespace crn::mac {
namespace {

std::vector<geom::Vec2> RandomPoints(std::int32_t count, geom::Aabb area, Rng& rng) {
  std::vector<geom::Vec2> points;
  for (std::int32_t i = 0; i < count; ++i) {
    points.push_back({rng.UniformDouble(area.min.x, area.max.x),
                      rng.UniformDouble(area.min.y, area.max.y)});
  }
  return points;
}

void ExpectAllPairs(const std::vector<geom::Vec2>& nodes,
                    const std::vector<geom::Vec2>& pus, geom::Aabb area, double pcr) {
  const std::shared_ptr<const PuSensingTable> table =
      BuildPuSensingTable(nodes, pus, area, pcr);
  ASSERT_EQ(table->node_count(), static_cast<std::int32_t>(nodes.size()));
  EXPECT_EQ(table->pu_count, static_cast<std::int32_t>(pus.size()));
  EXPECT_EQ(table->pcr, pcr);
  for (std::int32_t v = 0; v < table->node_count(); ++v) {
    std::vector<pu::PuId> want;
    for (pu::PuId p = 0; p < static_cast<pu::PuId>(pus.size()); ++p) {
      if (geom::DistanceSquared(nodes[v], pus[p]) <= pcr * pcr) want.push_back(p);
    }
    const std::span<const pu::PuId> got = table->PusOf(v);
    ASSERT_EQ(std::vector<pu::PuId>(got.begin(), got.end()), want)
        << "node " << v << " pcr=" << pcr;
  }
}

TEST(PuSensingTableTest, EqualsAnAllPairsScan) {
  const geom::Aabb area = geom::Aabb::Square(100.0);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    const auto nodes = RandomPoints(150, area, rng);
    const auto pus = RandomPoints(40, area, rng);
    // Below one cell (cells are at least 1 m), typical, and past the area.
    for (const double pcr : {0.4, 7.5, 23.0, 1e6}) ExpectAllPairs(nodes, pus, area, pcr);
  }
}

TEST(PuSensingTableTest, CountsPusOnCellEdgesAndAtExactlyThePcr) {
  // Cells are one PCR wide, so PUs on multiples of 10 sit on cell edges,
  // and nodes on the same lattice put PUs at exactly d = pcr.
  const geom::Aabb area = geom::Aabb::Square(50.0);
  const double pcr = 10.0;
  std::vector<geom::Vec2> pus;
  std::vector<geom::Vec2> nodes;
  for (double x = 0.0; x <= 50.0; x += 10.0) {
    for (double y = 0.0; y <= 50.0; y += 10.0) {
      pus.push_back({x, y});
      nodes.push_back({x, y});
      nodes.push_back({x + 5.0, y});
    }
  }
  ExpectAllPairs(nodes, pus, area, pcr);
  const auto table = BuildPuSensingTable(nodes, pus, area, pcr);
  // An interior lattice node hears itself and its four neighbours at d = pcr.
  EXPECT_EQ(table->PusOf(2 * (1 * 6 + 1)).size(), 5u);
}

TEST(PuSensingTableTest, NoPusGiveEmptyRows) {
  const geom::Aabb area = geom::Aabb::Square(20.0);
  const auto table = BuildPuSensingTable({{1.0, 1.0}, {10.0, 10.0}}, {}, area, 5.0);
  ASSERT_EQ(table->node_count(), 2);
  EXPECT_TRUE(table->PusOf(0).empty());
  EXPECT_TRUE(table->PusOf(1).empty());
}

TEST(PuSensingTableTest, TheMacRejectsATableBuiltForAnotherRun) {
  const geom::Aabb area = geom::Aabb::Square(40.0);
  const std::vector<geom::Vec2> nodes{{20.0, 20.0}, {25.0, 20.0}, {30.0, 20.0}};
  pu::PrimaryConfig primary_config;
  primary_config.count = 2;
  pu::PrimaryNetwork primary(primary_config, area, {{5.0, 5.0}, {35.0, 35.0}});
  MacConfig config;
  config.pcr = 12.0;
  const std::vector<NodeId> next_hop{0, 0, 1};
  const auto make = [&](std::shared_ptr<const PuSensingTable> table) {
    sim::Simulator simulator;
    CollectionMac mac(simulator, primary, nodes, area, 0, next_hop, config, Rng(1),
                      std::move(table));
  };
  EXPECT_NO_THROW(make(BuildPuSensingTable(nodes, primary.positions(), area, 12.0)));
  EXPECT_THROW(make(BuildPuSensingTable(nodes, primary.positions(), area, 13.0)),
               ContractViolation);
  EXPECT_THROW(make(BuildPuSensingTable({nodes[0], nodes[1]}, primary.positions(),
                                        area, 12.0)),
               ContractViolation);
  EXPECT_THROW(make(BuildPuSensingTable(nodes, {{5.0, 5.0}}, area, 12.0)),
               ContractViolation);
}

}  // namespace
}  // namespace crn::mac
