// End-to-end collection runs over deployed scenarios: completion,
// exactly-once delivery, determinism, PU protection, and the paper's
// headline ADDC-vs-Coolest ordering.
#include <gtest/gtest.h>

#include "core/collection.h"
#include "core/scenario.h"
#include "graph/cds_tree.h"

namespace crn::core {
namespace {

ScenarioConfig SmallConfig() {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.1);  // n = 200
  config.seed = 17;
  return config;
}

TEST(CollectionIntegrationTest, AddcCompletesAndDeliversEveryPacket) {
  const Scenario scenario(SmallConfig(), 0);
  const CollectionResult result = RunAddc(scenario);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.mac.delivered, SmallConfig().num_sus);
  EXPECT_FALSE(result.mac.timed_out);
  EXPECT_GT(result.delay_ms, 0.0);
  EXPECT_GT(result.capacity_fraction, 0.0);
  EXPECT_GT(result.avg_hops, 1.0);
  EXPECT_GT(result.jain_delivery_fairness, 0.0);
  EXPECT_LE(result.jain_delivery_fairness, 1.0);
  EXPECT_GT(result.dominators, 0);
  EXPECT_GT(result.connectors, 0);
}

TEST(CollectionIntegrationTest, CoolestCompletesOnSameDeployment) {
  const Scenario scenario(SmallConfig(), 0);
  for (routing::TemperatureMetric metric :
       {routing::TemperatureMetric::kAccumulated, routing::TemperatureMetric::kHighest,
        routing::TemperatureMetric::kMixed}) {
    const CollectionResult result = RunCoolest(scenario, metric);
    EXPECT_TRUE(result.completed) << routing::ToString(metric);
    EXPECT_EQ(result.mac.delivered, SmallConfig().num_sus);
  }
}

// RunCoolest reads its temperatures from the prefab's sensing table at the
// Coolest range; the per-SU PU-grid disk queries of NodeTemperatures are
// the oracle. Checked bit for bit, with the next-hop tables they produce,
// on the Fig. 6(c) points (n = 500, N = 100, A = 125², p_t 0.1 to 0.45).
TEST(CollectionIntegrationTest, CoolestTemperaturesMatchDiskQueries) {
  for (const double p_t : {0.1, 0.2, 0.3, 0.4, 0.45}) {
    ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.25);
    config.pu_activity = p_t;
    const Scenario scenario(config, 0);
    const std::vector<double> from_table = CoolestTemperatures(scenario);
    const std::vector<double> oracle = routing::NodeTemperatures(
        scenario.su_positions(), scenario.MakePrimaryNetwork(),
        CoolestSensingRange(config));
    ASSERT_EQ(from_table.size(), oracle.size());
    for (std::size_t v = 0; v < oracle.size(); ++v) {
      ASSERT_EQ(from_table[v], oracle[v]) << "p_t=" << p_t << " node " << v;
    }
    for (routing::TemperatureMetric metric :
         {routing::TemperatureMetric::kAccumulated,
          routing::TemperatureMetric::kHighest, routing::TemperatureMetric::kMixed}) {
      EXPECT_EQ(routing::CoolestNextHops(scenario.secondary_graph(), from_table,
                                         scenario.sink(), metric),
                routing::CoolestNextHops(scenario.secondary_graph(), oracle,
                                         scenario.sink(), metric))
          << "p_t=" << p_t << " " << routing::ToString(metric);
    }
  }
}

TEST(CollectionIntegrationTest, DeterministicAcrossIdenticalRuns) {
  const Scenario scenario(SmallConfig(), 1);
  const CollectionResult a = RunAddc(scenario);
  const CollectionResult b = RunAddc(scenario);
  EXPECT_EQ(a.mac.finish_time, b.mac.finish_time);
  EXPECT_EQ(a.mac.attempts, b.mac.attempts);
  EXPECT_EQ(a.mac.outcomes, b.mac.outcomes);
  const CollectionResult c = RunCoolest(scenario);
  const CollectionResult d = RunCoolest(scenario);
  EXPECT_EQ(c.mac.finish_time, d.mac.finish_time);
}

TEST(CollectionIntegrationTest, RepetitionsDiffer) {
  const CollectionResult a = RunAddc(Scenario(SmallConfig(), 0));
  const CollectionResult b = RunAddc(Scenario(SmallConfig(), 1));
  EXPECT_NE(a.mac.finish_time, b.mac.finish_time);
}

// The paper's headline (§V): ADDC finishes well ahead of Coolest. Averaged
// over repetitions at this scale the ratio sits around 2-4x; assert a
// conservative floor.
TEST(CollectionIntegrationTest, AddcBeatsCoolestOnAverage) {
  double addc_total = 0.0;
  double coolest_total = 0.0;
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    const ComparisonResult result = RunComparison(SmallConfig(), rep);
    ASSERT_TRUE(result.addc.completed);
    ASSERT_TRUE(result.coolest.completed);
    addc_total += result.addc.delay_ms;
    coolest_total += result.coolest.delay_ms;
  }
  EXPECT_GT(coolest_total / addc_total, 1.3)
      << "expected ADDC to finish data collection substantially faster";
}

// PU protection: with the corrected c2 the PCR guarantees Lemma 2, so the
// audit must find zero SU-caused violations. (Run at low p_t where the
// corrected range keeps p_o simulable; see DESIGN.md §4.)
TEST(CollectionIntegrationTest, CorrectedPcrProtectsPrimaryUsers) {
  ScenarioConfig config = SmallConfig();
  config.c2_variant = C2Variant::kCorrected;
  config.pu_activity = 0.05;
  config.audit_stride = 2;
  const Scenario scenario(config, 0);
  const CollectionResult result = RunAddc(scenario);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.mac.audited_pu_receptions, 0);
  EXPECT_EQ(result.mac.su_caused_violations, 0)
      << "Lemma 2 (corrected) must keep SUs harmless to PUs";
}

// Invariant-auditor integration (DESIGN.md §"Correctness tooling"): a full
// protected-regime collection must audit green on every invariant — event
// clock, R-set separation, SU SIR floors, PU protection, routing shape.
TEST(CollectionIntegrationTest, AuditedRunUpholdsConcurrentSetSirInvariants) {
  ScenarioConfig config = SmallConfig();
  config.c2_variant = C2Variant::kCorrected;
  config.pu_activity = 0.05;
  const Scenario scenario(config, 0);
  RunOptions options;
  AuditReport report;
  options.audit_report = &report;
  const CollectionResult result = RunAddc(scenario, options);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.separation_checks, 0);
  EXPECT_GT(report.receptions_checked, 0);
  EXPECT_GT(report.pu_checks, 0);
}

// The digest-based determinism claim, machine-checked end to end: two
// executions of the identical scenario must fold every transmission into
// the same FNV trace digest.
TEST(CollectionIntegrationTest, DualRunTraceDigestsAreIdentical) {
  const DeterminismReport report = CheckAddcDeterminism(Scenario(SmallConfig(), 2));
  EXPECT_TRUE(report.identical)
      << std::hex << report.first_digest << " vs " << report.second_digest;
  EXPECT_NE(report.first_digest, 0u);
}

TEST(CollectionIntegrationTest, CustomNextHopsViaPublicApi) {
  // A BFS shortest-path tree through RunWithNextHops: the extension point
  // examples use for custom routing structures.
  const Scenario scenario(SmallConfig(), 0);
  const graph::BfsLayering bfs =
      BreadthFirstLayering(scenario.secondary_graph(), scenario.sink());
  std::vector<graph::NodeId> next_hop(bfs.parent);
  next_hop[scenario.sink()] = scenario.sink();
  const CollectionResult result = RunWithNextHops(scenario, next_hop, "BFS-SPT");
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.algorithm, "BFS-SPT");
}

TEST(CollectionIntegrationTest, FairnessAblationStillCompletes) {
  ScenarioConfig config = SmallConfig();
  config.fairness_wait = false;
  const CollectionResult result = RunAddc(Scenario(config, 0));
  EXPECT_TRUE(result.completed);
}

TEST(CollectionIntegrationTest, DelayIncreasesWithPuActivity) {
  // Fig. 6(c)'s monotone claim at test scale, single repetition each.
  ScenarioConfig low = SmallConfig();
  low.pu_activity = 0.1;
  ScenarioConfig high = SmallConfig();
  high.pu_activity = 0.4;
  const CollectionResult r_low = RunAddc(Scenario(low, 0));
  const CollectionResult r_high = RunAddc(Scenario(high, 0));
  ASSERT_TRUE(r_low.completed);
  ASSERT_TRUE(r_high.completed);
  EXPECT_GT(r_high.delay_ms, r_low.delay_ms);
}

TEST(CollectionIntegrationTest, SinkDegreeAndDepthReported) {
  const Scenario scenario(SmallConfig(), 0);
  const CollectionResult result = RunAddc(scenario);
  EXPECT_GT(result.sink_degree, 0);
  EXPECT_GT(result.max_route_depth, 1);
  EXPECT_LT(result.max_route_depth, SmallConfig().num_sus);
}

}  // namespace
}  // namespace crn::core
