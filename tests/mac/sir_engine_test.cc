// SIR engine property test (DESIGN.md §10): a full ADDC run under the
// interference field — read records, epoch skips, bound skips, memos and
// resumed sums — must be bit-identical to summing every interference term
// from scratch at every evaluation. That reference engine is gone from the
// code; each configuration below pins the outcome it produced (trace
// digest, delay, capacity, attempts, deliveries) and its SIR work, and the
// field's bookkeeping must account for every evaluation it skips:
//   evals + reeval_skipped + bound_skips == the reference's evals.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/collection.h"
#include "core/scenario.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace crn::core {
namespace {

struct EngineRun {
  CollectionResult result;
  std::uint64_t digest = 0;
  std::int64_t sir_evaluations = 0;
  std::int64_t sir_terms = 0;
  std::int64_t reeval_skipped = 0;
  std::int64_t bound_skips = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
};

EngineRun RunEngine(const ScenarioConfig& config, const RunOptions& base_options) {
  const Scenario scenario(config, 0);
  obs::MetricsRegistry metrics;
  AuditReport report;
  RunOptions options = base_options;
  options.audit_report = &report;
  options.metrics = &metrics;
  EngineRun run;
  run.result = RunAddc(scenario, options);
  run.digest = report.trace_digest;
  const obs::Labels engine{{"engine", "cached"}};
  const auto counter = [&](const char* name) {
    return metrics.GetCounter(name, engine).value();
  };
  run.sir_evaluations = counter("perf.sir_evaluations");
  run.sir_terms = counter("perf.sir_terms_evaluated");
  run.reeval_skipped = counter("perf.reeval_skipped");
  run.bound_skips = counter("perf.bound_skips");
  run.cache_hits = counter("perf.gain_cache_hits");
  run.cache_misses = counter("perf.gain_cache_misses");
  return run;
}

// Pinned while the reference engine still ran: the outcome both engines
// produced on one configuration, and the reference's work — every SIR
// evaluation the triggers ask for, and every interference term those
// evaluations sum.
struct Pins {
  std::uint64_t digest;
  double delay_ms;
  double capacity;
  std::int64_t attempts;
  std::int64_t delivered;
  std::int64_t direct_evaluations;
  std::int64_t direct_terms;
};

void ExpectEnginesEquivalent(const ScenarioConfig& config,
                             const RunOptions& options,
                             const std::string& label, const Pins& pins) {
  SCOPED_TRACE(label);
  const EngineRun run = RunEngine(config, options);
  std::printf("[ pins     ] %s: {0x%016llxULL, %a, %a, %lld, %lld, ...}\n",
              label.c_str(), static_cast<unsigned long long>(run.digest),
              run.result.delay_ms, run.result.capacity_fraction,
              static_cast<long long>(run.result.mac.attempts),
              static_cast<long long>(run.result.mac.delivered));

  // Bit-identity: same triggers, same floors, same everything.
  ASSERT_NE(run.digest, 0u);
  EXPECT_EQ(run.digest, pins.digest);
  EXPECT_EQ(run.result.delay_ms, pins.delay_ms);
  EXPECT_EQ(run.result.capacity_fraction, pins.capacity);
  EXPECT_EQ(run.result.mac.attempts, pins.attempts);
  EXPECT_EQ(run.result.mac.delivered, pins.delivered);

  // Work accounting: every reference evaluation is either performed or
  // explicitly skipped (epoch skip or bound skip)...
  EXPECT_EQ(run.sir_evaluations + run.reeval_skipped + run.bound_skips,
            pins.direct_evaluations);
  // ...and no pair's first read is charged twice.
  EXPECT_EQ(run.sir_terms, run.cache_misses);
  EXPECT_LE(run.sir_terms, pins.direct_terms);
}

ScenarioConfig SmallConfig() {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.02);
  config.seed = 0xE2E5EED;
  return config;
}

constexpr Pins kDefaultPins = {0xfd1e82603b827f5eULL, 0x1.1bd126d8b1dd6p+9,
                               0x1.20a2fe4f7b4adp-4, 96, 40, 103, 170};

TEST(SirEngineTest, CachedMatchesDirectOnDefaultScenario) {
  ExpectEnginesEquivalent(SmallConfig(), RunOptions{}, "default", kDefaultPins);
}

TEST(SirEngineTest, CachedMatchesDirectOnGeneralAlpha) {
  // alpha != 4 takes PathLoss's std::pow path; the cache must hold the
  // exact doubles that path produces.
  ScenarioConfig config = SmallConfig();
  config.alpha = 3.5;
  ExpectEnginesEquivalent(config, RunOptions{}, "alpha=3.5",
                          {0xba0ca6c7c3e238a8ULL, 0x1.7e5126d8b1dd6p+9,
                           0x1.ac8b7e8c66c44p-5, 96, 40, 101, 122});
}

TEST(SirEngineTest, CachedMatchesDirectAcrossPuActivity) {
  constexpr std::array<double, 2> kActivities = {0.05, 0.7};
  constexpr std::array<Pins, 2> kPins = {{
      {0x45ea8ce8a8007cfbULL, 0x1.ec0c9c90c4decp+5,
       0x1.4cf98bca72ef4p-1, 97, 40, 120, 171},
      {0x56cbbdde53904b70ULL, 0x1.a2887b2938de7p+18,
       0x1.8776627749bc7p-14, 98, 40, 101, 210},
  }};
  for (std::size_t i = 0; i < kActivities.size(); ++i) {
    ScenarioConfig config = SmallConfig();
    config.pu_activity = kActivities[i];
    ExpectEnginesEquivalent(config, RunOptions{},
                            "pu_activity=" + std::to_string(kActivities[i]),
                            kPins[i]);
  }
}

TEST(SirEngineTest, CachedMatchesDirectAcrossSeeds) {
  constexpr std::array<std::uint64_t, 3> kSeeds = {1ULL, 42ULL, 0xDEADBEEFULL};
  constexpr std::array<Pins, 3> kPins = {{
      {0x4c7c0953f86ae126ULL, 0x1.11cp+9,
       0x1.2b404ad012b4p-4, 98, 40, 110, 181},
      {0xebbe99873d657886ULL, 0x1.d0aa72b884407p+8,
       0x1.6098f532299a9p-4, 109, 40, 117, 262},
      {0xcae1fc6fb063c1daULL, 0x1.b3cdc347e8ccep+8,
       0x1.77f2f37266383p-4, 102, 40, 118, 217},
  }};
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    ScenarioConfig config = SmallConfig();
    config.seed = kSeeds[i];
    ExpectEnginesEquivalent(config, RunOptions{},
                            "seed=" + std::to_string(kSeeds[i]), kPins[i]);
  }
}

TEST(SirEngineTest, CachedMatchesDirectUnderConventionalMac) {
  // Conventional-MAC emulation lets transmissions cross slot boundaries,
  // which is the regime where the change-epoch skip actually fires (under
  // ADDC's slot-aware defer the active set empties at every boundary).
  ScenarioConfig config = SmallConfig();
  RunOptions options;
  options.backoff_granularity = config.baseline_backoff_granularity;
  options.sensing_latency = config.baseline_sensing_latency;
  options.slot_aware_defer = false;
  ExpectEnginesEquivalent(config, options, "conventional-mac",
                          {0x5b993edd45d1df7dULL, 0x1.7dccc77574f72p+9,
                           0x1.ad2012e082d18p-5, 208, 40, 254, 488});
}

TEST(SirEngineTest, CachedEngineDoesStrictlyLessGeometryWork) {
  // The read records charge each pair's first read only, so the term count
  // must fall well below the reference's total on any nontrivial run.
  const EngineRun run = RunEngine(SmallConfig(), RunOptions{});
  EXPECT_LT(run.sir_terms, kDefaultPins.direct_terms);
  EXPECT_GT(run.cache_hits, 0);
}

}  // namespace
}  // namespace crn::core
