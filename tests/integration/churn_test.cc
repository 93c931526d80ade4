// Network-dynamics tests: SUs leaving mid-collection with local route
// repair (the §I scenario that motivates distributed operation).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "graph/repair.h"
#include "core/scenario.h"
#include "graph/cds_tree.h"
#include "mac/collection_mac.h"
#include "sim/simulator.h"

namespace crn::core {
namespace {

using geom::Aabb;
using geom::Vec2;
using graph::NodeId;
using graph::PlanCascadeRepair;
using graph::PlanLocalRepair;
using graph::RepairPlan;

// A line 0 <- 1 <- 2 <- 3 <- 4 with a shortcut neighbor: node 2 will fail.
struct ChurnRig {
  ChurnRig()
      : area(Aabb::Square(100.0)),
        positions{{10, 50}, {18, 50}, {26, 50}, {34, 50}, {42, 50}, {26, 44}},
        primary(PuConfig(), area, std::vector<Vec2>{}),
        mac(simulator, primary, positions, area, 0, {0, 0, 1, 2, 3, 1},
            Config(), Rng(23)) {}

  static mac::MacConfig Config() {
    mac::MacConfig config;
    config.pcr = 30.0;
    config.audit_stride = 0;
    config.max_sim_time = 60 * sim::kSecond;
    return config;
  }
  static pu::PrimaryConfig PuConfig() {
    pu::PrimaryConfig config;
    config.count = 0;
    config.activity = 0.0;
    return config;
  }

  Aabb area;
  std::vector<Vec2> positions;
  sim::Simulator simulator;
  pu::PrimaryNetwork primary;
  mac::CollectionMac mac;
};

TEST(ChurnTest, FailedNodeQueueShrinksExpectations) {
  ChurnRig rig;
  rig.mac.StartSnapshotCollection();  // 5 packets
  // Kill node 2 immediately: its own packet dies with it.
  rig.simulator.ScheduleOnce(0, sim::EventPriority::kDefault, [&] {
    rig.mac.FailNode(2);
    // Node 3 routed through 2; re-route via the shortcut node 5 — within
    // range (node 3 at (34,50), node 5 at (26,44): ~10 m if radius allows;
    // the MAC does not enforce radii, routing policy does).
    rig.mac.UpdateNextHop(3, 5);
  });
  rig.simulator.Run();
  EXPECT_TRUE(rig.mac.finished());
  EXPECT_EQ(rig.mac.expected_packets(), 4);
  EXPECT_EQ(rig.mac.stats().delivered, 4);
  EXPECT_LT(rig.mac.delivery_time()[2], 0) << "node 2's packet died with it";
  EXPECT_GE(rig.mac.delivery_time()[4], 0) << "node 4 re-routed via 3 -> 5 -> 1";
}

TEST(ChurnTest, MidFlightFailureCutsTransmission) {
  ChurnRig rig;
  rig.mac.StartCollection({2});
  bool failed_midflight = false;
  rig.mac.AddObserver([&](const mac::MacEvent& event) {
    if (event.kind == mac::MacEvent::Kind::kTxEnd && event.node == 2 &&
        !failed_midflight && event.outcome == mac::TxOutcome::kAbortedPuReturn) {
      failed_midflight = true;
    }
  });
  // Fail node 2 at 0.35 ms — mid-backoff or mid-transmission.
  rig.simulator.ScheduleOnceAfter(350 * sim::kMicrosecond, sim::EventPriority::kDefault,
                              [&] { rig.mac.FailNode(2); });
  rig.simulator.Run();
  EXPECT_EQ(rig.mac.expected_packets(), 0);
  EXPECT_EQ(rig.mac.stats().delivered, 0);
  EXPECT_TRUE(rig.mac.IsFailed(2));
}

TEST(ChurnTest, TransmissionTowardFailedNodeFails) {
  ChurnRig rig;
  rig.mac.StartCollection({3});  // routes 3 -> 2 -> 1 -> 0
  rig.simulator.ScheduleOnce(0, sim::EventPriority::kDefault,
                           [&] { rig.mac.FailNode(2); });
  // No repair: node 3 keeps failing into the void until the timeout.
  ChurnRig::Config();
  rig.simulator.Run();
  EXPECT_FALSE(rig.mac.finished());
  EXPECT_GT(rig.mac.stats().outcomes[static_cast<int>(mac::TxOutcome::kReceiverBusy)],
            0);
}

TEST(ChurnTest, GuardsRejectIllegalOperations) {
  ChurnRig rig;
  rig.mac.StartSnapshotCollection();
  EXPECT_THROW(rig.mac.FailNode(0), ContractViolation);  // sink
  rig.simulator.ScheduleOnce(0, sim::EventPriority::kDefault, [&] {
    rig.mac.FailNode(2);
    EXPECT_THROW(rig.mac.FailNode(2), ContractViolation);          // twice
    EXPECT_THROW(rig.mac.UpdateNextHop(3, 2), ContractViolation);  // dead hop
    EXPECT_THROW(rig.mac.UpdateNextHop(3, 3), ContractViolation);  // self-loop
    rig.mac.UpdateNextHop(3, 5);  // legal repair: 3 -> 5 -> 1 -> 0
    EXPECT_THROW(rig.mac.UpdateNextHop(5, 4), ContractViolation);  // 3-5-4 cycle
    rig.simulator.Stop();
  });
  rig.simulator.Run();
}

TEST(PlanLocalRepairTest, OrphansReattachToLowerLevelNeighbors) {
  // Deployed scenario: kill one connector, plan repair, verify the plan is
  // level-monotone and complete.
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.1);
  config.seed = 33;
  const Scenario scenario(config, 0);
  const graph::UnitDiskGraph& graph = scenario.secondary_graph();
  const graph::BfsLayering bfs = BreadthFirstLayering(graph, scenario.sink());
  const graph::CdsTree tree(graph, scenario.sink());
  std::vector<NodeId> next_hop(tree.node_count());
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    next_hop[v] = v == scenario.sink() ? scenario.sink() : tree.parent(v);
  }
  // Pick a connector with children.
  NodeId victim = graph::kInvalidNode;
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    if (tree.role(v) == graph::NodeRole::kConnector && !tree.children(v).empty()) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, graph::kInvalidNode);
  std::vector<char> alive(tree.node_count(), 1);
  alive[victim] = 0;
  const RepairPlan plan = PlanLocalRepair(graph, bfs, next_hop, alive, victim);
  EXPECT_TRUE(plan.complete()) << plan.orphaned.size() << " orphans remain";
  // Every direct child is rewired (the rest of the subtree may be too).
  ASSERT_GE(plan.repaired.size(), tree.children(victim).size());
  for (const auto& [node, new_hop] : plan.repaired) {
    EXPECT_TRUE(graph.HasEdge(node, new_hop));
    EXPECT_TRUE(alive[new_hop]);
    EXPECT_NE(new_hop, victim);
    next_hop[node] = new_hop;
  }
  // Applying the plan, every live node routes to the sink without touching
  // the victim, acyclically.
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    if (!alive[v]) continue;
    NodeId cursor = v;
    std::int32_t steps = 0;
    while (cursor != scenario.sink()) {
      ASSERT_NE(cursor, victim) << "route of " << v << " still passes the victim";
      cursor = next_hop[cursor];
      ASSERT_LE(++steps, tree.node_count()) << "cycle from " << v;
    }
  }
}

TEST(PlanLocalRepairTest, ReportsUnrepairableOrphans) {
  // Line 0 - 1 - 2: node 2's only lower neighbor is 1; kill 1. The planner
  // must not throw — it reports the partition so the caller can degrade
  // gracefully (delivery ratio < 1) instead of aborting the run.
  const std::vector<Vec2> line{{0, 50}, {8, 50}, {16, 50}};
  const graph::UnitDiskGraph graph(line, Aabb::Square(60.0), 10.0);
  const graph::BfsLayering bfs = BreadthFirstLayering(graph, 0);
  std::vector<NodeId> next_hop{0, 0, 1};
  std::vector<char> alive{1, 0, 1};
  const RepairPlan plan = PlanLocalRepair(graph, bfs, next_hop, alive, 1);
  EXPECT_FALSE(plan.complete());
  EXPECT_TRUE(plan.repaired.empty());
  ASSERT_EQ(plan.orphaned.size(), 1u);
  EXPECT_EQ(plan.orphaned[0], 2);
  // Cascade repair sees the same partition — and the same verdict.
  const RepairPlan cascade = PlanCascadeRepair(graph, next_hop, alive, 0);
  EXPECT_TRUE(cascade.repaired.empty());
  ASSERT_EQ(cascade.orphaned.size(), 1u);
  EXPECT_EQ(cascade.orphaned[0], 2);
}

TEST(PlanCascadeRepairTest, RerootsDeepOrphansAcrossMultipleFailures) {
  // Two parallel lines to the sink joined at the far end:
  //   0 <- 1 <- 2 <- 3          (top row, y = 50)
  //   0 <- 4 <- 5 <- 6 <- 7     (bottom row, y = 42; 3 - 7 edge by proximity)
  // Killing 1 AND 2 strands {3}: its only live neighbor is 7, three hops
  // from the sink on the other branch — exactly the multi-hop re-rooting
  // the cascade provides in one pass.
  const std::vector<Vec2> positions{{0, 50},  {9, 50},  {18, 50}, {27, 50},
                                    {0, 42},  {9, 42},  {18, 42}, {27, 42}};
  const graph::UnitDiskGraph graph(positions, Aabb::Square(60.0), 10.0);
  std::vector<NodeId> next_hop{0, 0, 1, 2, 0, 4, 5, 6};
  std::vector<char> alive{1, 0, 0, 1, 1, 1, 1, 1};
  const RepairPlan plan = PlanCascadeRepair(graph, next_hop, alive, 0);
  EXPECT_TRUE(plan.complete());
  // Node 3 re-attaches through its cross-line neighbor 7 (at (27,42)).
  std::vector<NodeId> repaired_hop(graph.node_count(), graph::kInvalidNode);
  for (const auto& [node, new_hop] : plan.repaired) {
    EXPECT_TRUE(graph.HasEdge(node, new_hop));
    EXPECT_TRUE(alive[new_hop]);
    repaired_hop[node] = new_hop;
    next_hop[node] = new_hop;
  }
  EXPECT_EQ(repaired_hop[3], 7);
  // The healed table routes every live node to the sink acyclically.
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (!alive[v]) continue;
    NodeId cursor = v;
    std::int32_t steps = 0;
    while (cursor != 0) {
      ASSERT_TRUE(alive[cursor]);
      cursor = next_hop[cursor];
      ASSERT_LE(++steps, graph.node_count()) << "cycle from " << v;
    }
  }
}

TEST(PlanLocalRepairTest, EndToEndCollectionSurvivesBackboneFailure) {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.1);
  config.seed = 34;
  config.pu_activity = 0.1;  // keep the test fast
  const Scenario scenario(config, 0);
  const graph::UnitDiskGraph& graph = scenario.secondary_graph();
  const graph::BfsLayering bfs = BreadthFirstLayering(graph, scenario.sink());
  const graph::CdsTree tree(graph, scenario.sink());
  std::vector<NodeId> next_hop(tree.node_count());
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    next_hop[v] = v == scenario.sink() ? scenario.sink() : tree.parent(v);
  }
  NodeId victim = graph::kInvalidNode;
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    if (tree.role(v) == graph::NodeRole::kConnector && !tree.children(v).empty()) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, graph::kInvalidNode);

  sim::Simulator simulator;
  pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
  mac::MacConfig mac_config;
  mac_config.pcr = scenario.pcr();
  mac_config.audit_stride = 0;
  mac_config.max_sim_time = 600 * sim::kSecond;
  mac::CollectionMac mac(simulator, primary, scenario.su_positions(),
                         scenario.area(), scenario.sink(), next_hop, mac_config,
                         scenario.MakeRunRng().Stream("churn"));
  mac.StartSnapshotCollection();
  // 100 ms in: the connector dies; orphans repair locally.
  simulator.ScheduleOnceAfter(100 * sim::kMillisecond, sim::EventPriority::kDefault, [&] {
    std::vector<char> alive(graph.node_count(), 1);
    alive[victim] = 0;
    const RepairPlan plan = PlanLocalRepair(graph, bfs, next_hop, alive, victim);
    ASSERT_TRUE(plan.complete());
    mac.FailNode(victim);
    for (const auto& [node, new_hop] : plan.repaired) {
      mac.UpdateNextHop(node, new_hop);
    }
  });
  simulator.Run();
  EXPECT_TRUE(mac.finished()) << "surviving packets must still be collected";
  // Everything except (at most) the victim's own packet and whatever was
  // queued at the victim arrives.
  EXPECT_GE(mac.stats().delivered, config.num_sus - 10);
  EXPECT_LE(mac.stats().delivered, config.num_sus - 1);
}

}  // namespace
}  // namespace crn::core
