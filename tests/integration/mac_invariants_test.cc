// Deployment-scale MAC invariants, checked over full collection runs via
// observers: the properties Algorithm 1's correctness argument rests on.
#include <gtest/gtest.h>

#include <vector>

#include "core/scenario.h"
#include "graph/cds_tree.h"
#include "mac/collection_mac.h"
#include "sim/simulator.h"

namespace crn::mac {
namespace {

struct RunArtifacts {
  std::vector<MacEvent> events;  // the kTxEnd events, in end order
  bool finished = false;
  MacStats stats;
};

RunArtifacts RunDeployed(std::uint64_t seed, double pu_activity,
                         sim::TimeNs sensing_latency = 0) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.1);
  config.seed = seed;
  config.pu_activity = pu_activity;
  const core::Scenario scenario(config, 0);
  const graph::CdsTree tree(scenario.secondary_graph(), scenario.sink());
  std::vector<NodeId> next_hop(tree.node_count());
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    next_hop[v] = v == scenario.sink() ? scenario.sink() : tree.parent(v);
  }
  sim::Simulator simulator;
  pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
  MacConfig mac_config;
  mac_config.pcr = scenario.pcr();
  mac_config.audit_stride = 0;
  mac_config.sensing_latency = sensing_latency;
  mac_config.max_sim_time = 1200 * sim::kSecond;
  CollectionMac mac(simulator, primary, scenario.su_positions(), scenario.area(),
                    scenario.sink(), next_hop, mac_config,
                    scenario.MakeRunRng().Stream("invariants"));
  RunArtifacts artifacts;
  mac.AddObserver([&](const MacEvent& event) {
    if (event.kind == MacEvent::Kind::kTxEnd) artifacts.events.push_back(event);
  });
  mac.StartSnapshotCollection();
  simulator.Run();
  artifacts.finished = mac.finished();
  artifacts.stats = mac.stats();
  // Keep positions for the separation check.
  return artifacts;
}

// Carrier sensing's defining guarantee: two transmissions overlapping in
// time have transmitters at least the PCR apart (the R-set construction of
// §IV-B realized by the MAC). Requires perfect sensing and zero latency.
class SeparationPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeparationPropertyTest, ConcurrentTransmittersArePcrSeparated) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.1);
  config.seed = GetParam();
  const core::Scenario scenario(config, 0);
  const double pcr = scenario.pcr();
  const auto& positions = scenario.su_positions();

  const RunArtifacts artifacts = RunDeployed(GetParam(), 0.2);
  ASSERT_TRUE(artifacts.finished);
  ASSERT_GT(artifacts.events.size(), 100u);

  // Sweep-line over start-sorted events; events arrive in end order, so
  // re-sort by start.
  std::vector<MacEvent> events = artifacts.events;
  std::sort(events.begin(), events.end(),
            [](const MacEvent& a, const MacEvent& b) { return a.start < b.start; });
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size() && events[j].start < events[i].end;
         ++j) {
      const double d =
          geom::Distance(positions[events[i].node], positions[events[j].node]);
      ASSERT_GE(d, pcr - 1e-9)
          << "transmitters " << events[i].node << " and " << events[j].node
          << " overlapped at distance " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeparationPropertyTest,
                         ::testing::Values(101, 102, 103, 104));

TEST(MacInvariantsTest, SensingLatencyBreaksSeparation) {
  // The same sweep with a large detection lag must produce at least one
  // sub-PCR overlap — the collision channel of the conventional baseline
  // is real, not an artifact of the checker.
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.1);
  config.seed = 101;
  const core::Scenario scenario(config, 0);
  const double pcr = scenario.pcr();
  const auto& positions = scenario.su_positions();

  const RunArtifacts artifacts =
      RunDeployed(101, 0.2, /*sensing_latency=*/200 * sim::kMicrosecond);
  std::vector<MacEvent> events = artifacts.events;
  std::sort(events.begin(), events.end(),
            [](const MacEvent& a, const MacEvent& b) { return a.start < b.start; });
  bool violation = false;
  for (std::size_t i = 0; i < events.size() && !violation; ++i) {
    for (std::size_t j = i + 1; j < events.size() && events[j].start < events[i].end;
         ++j) {
      if (geom::Distance(positions[events[i].node], positions[events[j].node]) < pcr) {
        violation = true;
        break;
      }
    }
  }
  EXPECT_TRUE(violation);
}

TEST(MacInvariantsTest, AttemptAccountingIsExact) {
  const RunArtifacts artifacts = RunDeployed(105, 0.2);
  ASSERT_TRUE(artifacts.finished);
  std::int64_t per_outcome_total = 0;
  for (std::int64_t count : artifacts.stats.outcomes) per_outcome_total += count;
  EXPECT_EQ(per_outcome_total, artifacts.stats.attempts);
  EXPECT_EQ(static_cast<std::int64_t>(artifacts.events.size()),
            artifacts.stats.attempts);
  // Success events equal successful outcomes equal delivered × hops.
  std::int64_t successes = 0;
  for (const MacEvent& event : artifacts.events) {
    if (event.outcome == TxOutcome::kSuccess) ++successes;
  }
  EXPECT_EQ(successes, artifacts.stats.outcomes[0]);
  EXPECT_EQ(successes, artifacts.stats.delivered_hops_total);
}

TEST(MacInvariantsTest, TransmissionsNeverCrossSlotBoundaries) {
  // With slot-aware deferral (the default), every transmission fits inside
  // one PU slot — the reason the handoff counter stays at zero.
  const RunArtifacts artifacts = RunDeployed(106, 0.3);
  ASSERT_TRUE(artifacts.finished);
  for (const MacEvent& event : artifacts.events) {
    const sim::TimeNs slot_of_start = event.start / sim::kMillisecond;
    const sim::TimeNs slot_of_end = (event.end - 1) / sim::kMillisecond;
    ASSERT_EQ(slot_of_start, slot_of_end)
        << "transmission [" << event.start << ", " << event.end << ") crosses";
  }
  EXPECT_EQ(artifacts.stats.outcomes[static_cast<int>(TxOutcome::kAbortedPuReturn)],
            0);
}

}  // namespace
}  // namespace crn::mac
