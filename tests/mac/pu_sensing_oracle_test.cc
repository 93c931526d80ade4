// Carrier sensing's ground truth against a brute-force oracle. At every
// slot of short collections at N = 100 and N = 1,100 (for a rotating fifth
// of the SUs), and whenever an SU starts contending, including mid-window,
// CollectionMac::ComputePuBusy (one shift of a word cached per activity
// window) must equal the OR of IsActive over the PUs within the SU's PCR,
// found by scanning every PU.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "geom/vec2.h"
#include "mac/collection_mac.h"
#include "pu/primary_network.h"
#include "sim/simulator.h"

namespace crn::mac {
namespace {

struct Counts {
  std::int64_t checks = 0;
  std::int64_t busy = 0;
  std::int64_t mid_window_entries = 0;  // contention starts off window slot 0
};

Counts ExpectSensingMatchesOracle(const core::ScenarioConfig& config) {
  const core::Scenario scenario(config, 0);
  const graph::CdsTree& tree = scenario.collection_tree();
  std::vector<NodeId> next_hop(static_cast<std::size_t>(tree.node_count()));
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    next_hop[v] = v == scenario.sink() ? scenario.sink() : tree.parent(v);
  }
  MacConfig mac_config;
  mac_config.su_power = config.su_power;
  mac_config.eta_s = SirThreshold::FromDb(config.eta_s_db);
  mac_config.eta_p = SirThreshold::FromDb(config.eta_p_db);
  mac_config.pcr = scenario.pcr();
  mac_config.alpha = config.alpha;
  mac_config.slot = config.slot;
  mac_config.contention_window = config.contention_window;
  mac_config.tx_duration = config.slot - config.contention_window;
  mac_config.audit_stride = 0;
  mac_config.max_sim_time = config.max_sim_time;

  sim::Simulator simulator;
  pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
  const std::vector<geom::Vec2>& positions = scenario.su_positions();
  CollectionMac mac(simulator, primary, positions, scenario.area(), scenario.sink(),
                    next_hop, mac_config, scenario.MakeRunRng().Stream("mac"));

  // The oracle's PU lists, by scanning every PU.
  const double pcr2 = mac_config.pcr * mac_config.pcr;
  std::vector<std::vector<pu::PuId>> nearby(positions.size());
  for (std::size_t v = 0; v < positions.size(); ++v) {
    for (pu::PuId p = 0; p < primary.count(); ++p) {
      if (geom::DistanceSquared(primary.position(p), positions[v]) <= pcr2) {
        nearby[v].push_back(p);
      }
    }
  }
  Counts counts;
  const auto check = [&](NodeId node, const char* when) {
    bool truth = false;
    for (const pu::PuId p : nearby[static_cast<std::size_t>(node)]) {
      truth = truth || primary.IsActive(p);
    }
    ++counts.checks;
    if (truth) ++counts.busy;
    EXPECT_EQ(mac.ComputePuBusy(node), truth)
        << "node " << node << " " << when << " at t=" << simulator.now()
        << " ns, window slot " << primary.window_slot();
  };
  std::int64_t slot = 0;
  mac.AddObserver([&](const MacEvent& event) {
    if (event.kind == MacEvent::Kind::kSlotBoundary) {
      // A rotating fifth of the SUs per slot, so an SU's first query in a
      // window falls on every window offset.
      for (NodeId v = static_cast<NodeId>(slot % 5); v < mac.node_count(); v += 5) {
        check(v, "at a slot boundary");
      }
      ++slot;
    } else if (event.kind == MacEvent::Kind::kContentionStarted) {
      if (primary.window_slot() != 0) ++counts.mid_window_entries;
      check(event.node, "entering contention");
    }
  });
  mac.StartSnapshotCollection();
  simulator.Run();
  EXPECT_GE(slot, 2 * pu::PrimaryNetwork::kWindowSlots);
  return counts;
}

core::ScenarioConfig ShortRun(std::int32_t num_sus, std::int32_t num_pus, double side,
                              double activity) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.25);
  config.seed = 41;
  config.num_sus = num_sus;
  config.num_pus = num_pus;
  config.area_side = side;
  config.pu_activity = activity;
  config.max_sim_time = 300 * sim::kMillisecond;
  return config;
}

void ExpectExercised(const Counts& counts) {
  EXPECT_GT(counts.busy, 0);
  EXPECT_LT(counts.busy, counts.checks);
  EXPECT_GT(counts.mid_window_entries, 0);
}

TEST(PuSensingOracleTest, SmallPopulation) {
  ExpectExercised(ExpectSensingMatchesOracle(ShortRun(500, 100, 125.0, 0.1)));
}

TEST(PuSensingOracleTest, SmallPopulationMarkov) {
  core::ScenarioConfig config = ShortRun(500, 100, 125.0, 0.1);
  config.pu_activity_process = pu::ActivityProcess::kMarkov;
  ExpectExercised(ExpectSensingMatchesOracle(config));
}

TEST(PuSensingOracleTest, LargePopulation) {
  ExpectExercised(ExpectSensingMatchesOracle(ShortRun(200, 1100, 80.0, 0.005)));
}

}  // namespace
}  // namespace crn::mac
