// Tests for continuous (multi-snapshot) data collection.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/collection.h"
#include "core/scenario.h"
#include "mac/collection_mac.h"
#include "sim/simulator.h"

namespace crn::mac {
namespace {

using geom::Aabb;
using geom::Vec2;

struct Rig {
  explicit Rig(MacConfig config, std::uint64_t seed = 3)
      : area(Aabb::Square(100.0)),
        primary(MakePuConfig(config), area, std::vector<Vec2>{}),
        mac(simulator, primary, {{50, 50}, {56, 50}, {62, 50}}, area, 0,
            {0, 0, 1}, config, Rng(seed)) {}

  static pu::PrimaryConfig MakePuConfig(const MacConfig& mac_config) {
    pu::PrimaryConfig config;
    config.count = 0;
    config.activity = 0.0;
    config.slot = mac_config.slot;
    return config;
  }

  Aabb area;
  sim::Simulator simulator;
  pu::PrimaryNetwork primary;
  CollectionMac mac;
};

MacConfig Config() {
  MacConfig config;
  config.pcr = 30.0;
  config.audit_stride = 0;
  config.max_sim_time = 120 * sim::kSecond;
  return config;
}

TEST(ContinuousCollectionTest, AllSnapshotsDelivered) {
  Rig rig(Config());
  rig.mac.StartContinuousCollection({1, 2}, 20 * sim::kMillisecond, 5);
  rig.simulator.Run();
  EXPECT_TRUE(rig.mac.finished());
  EXPECT_EQ(rig.mac.expected_packets(), 10);
  EXPECT_EQ(rig.mac.stats().delivered, 10);
}

TEST(ContinuousCollectionTest, SnapshotTimesAreOrderedAndComplete) {
  Rig rig(Config());
  const sim::TimeNs interval = 25 * sim::kMillisecond;
  rig.mac.StartContinuousCollection({1, 2}, interval, 4);
  rig.simulator.Run();
  ASSERT_TRUE(rig.mac.finished());
  const auto& snapshots = rig.mac.snapshots();
  ASSERT_EQ(snapshots.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(snapshots[k].created, static_cast<sim::TimeNs>(k) * interval);
    EXPECT_GT(snapshots[k].finish, snapshots[k].created) << "snapshot " << k;
  }
}

TEST(ContinuousCollectionTest, SingleSnapshotIsTheClassicWorkload) {
  Rig a(Config());
  a.mac.StartSnapshotCollection();
  a.simulator.Run();
  Rig b(Config());
  b.mac.StartContinuousCollection({1, 2}, sim::kMillisecond, 1);
  b.simulator.Run();
  EXPECT_EQ(a.mac.stats().finish_time, b.mac.stats().finish_time);
  EXPECT_EQ(a.mac.stats().attempts, b.mac.stats().attempts);
}

TEST(ContinuousCollectionTest, RejectsBadArguments) {
  Rig rig(Config());
  EXPECT_THROW(rig.mac.StartContinuousCollection({}, sim::kMillisecond, 1),
               ContractViolation);
  EXPECT_THROW(rig.mac.StartContinuousCollection({1}, 0, 1), ContractViolation);
  EXPECT_THROW(rig.mac.StartContinuousCollection({1}, sim::kMillisecond, 0),
               ContractViolation);
  EXPECT_THROW(rig.mac.StartContinuousCollection({0}, sim::kMillisecond, 1),
               ContractViolation);
}

TEST(ContinuousCollectionTest, BacklogCarriesAcrossSnapshots) {
  // Tiny interval: later snapshots arrive while earlier ones still drain;
  // everything must still be delivered exactly once.
  Rig rig(Config());
  rig.mac.StartContinuousCollection({1, 2}, 2 * sim::kMillisecond, 10);
  rig.simulator.Run();
  EXPECT_TRUE(rig.mac.finished());
  EXPECT_EQ(rig.mac.stats().delivered, 20);
}

TEST(RunAddcContinuousTest, SustainableAtGenerousInterval) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.05);
  config.seed = 21;
  config.pu_activity = 0.1;
  const core::Scenario scenario(config, 0);
  const core::CollectionResult single = core::RunAddc(scenario);
  ASSERT_TRUE(single.completed);
  const auto interval =
      static_cast<sim::TimeNs>(sim::FromMilliseconds(single.delay_ms * 3.0));
  const core::ContinuousResult result =
      core::RunAddcContinuous(scenario, interval, 4);
  EXPECT_TRUE(result.aggregate.completed);
  EXPECT_TRUE(result.sustainable);
  EXPECT_EQ(result.aggregate.snapshot_delay_ms.size(), 4u);
  EXPECT_GT(result.mean_snapshot_delay_ms, 0.0);
}

TEST(RunAddcContinuousTest, OverloadShowsPositiveDrift) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.05);
  config.seed = 22;
  config.pu_activity = 0.1;
  const core::Scenario scenario(config, 0);
  const core::CollectionResult single = core::RunAddc(scenario);
  ASSERT_TRUE(single.completed);
  // Offer 5x the single-snapshot rate: the backlog must grow.
  const auto interval =
      static_cast<sim::TimeNs>(sim::FromMilliseconds(single.delay_ms / 5.0));
  const core::ContinuousResult result =
      core::RunAddcContinuous(scenario, interval, 6);
  ASSERT_TRUE(result.aggregate.completed);
  EXPECT_GT(result.delay_drift_ms_per_round, 0.0);
  EXPECT_FALSE(result.sustainable);
}

// A continuous run is RunAddc with a longer workload, so it reports the
// per-packet hop count and delivery fairness like a snapshot run.
TEST(RunAddcContinuousTest, ReportsHopsAndFairness) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.05);
  config.seed = 23;
  config.pu_activity = 0.1;
  const core::Scenario scenario(config, 0);
  const core::ContinuousResult result =
      core::RunAddcContinuous(scenario, 500 * sim::kMillisecond, 3);
  ASSERT_TRUE(result.aggregate.completed);
  EXPECT_GT(result.aggregate.avg_hops, 0.0);
  EXPECT_GT(result.aggregate.jain_delivery_fairness, 0.0);
  EXPECT_LE(result.aggregate.jain_delivery_fairness, 1.0);
}

// ...and it takes RunAddc's attachments: the auditor watches every
// transmission of the whole run.
TEST(RunAddcContinuousTest, TakesTheAuditor) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.05);
  config.seed = 23;
  config.pu_activity = 0.1;
  const core::Scenario scenario(config, 0);
  core::AuditReport report;
  core::RunOptions options;
  options.audit_report = &report;
  const core::ContinuousResult result =
      core::RunAddcContinuous(scenario, 500 * sim::kMillisecond, 3, options);
  EXPECT_GT(report.tx_starts, 0);
  EXPECT_EQ(report.tx_starts, result.aggregate.mac.attempts);
}

}  // namespace
}  // namespace crn::mac
