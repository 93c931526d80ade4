// Pins the simulator's deterministic work counters and verification digests
// on the sweeps the throughput and sweep-scaling benches used to run. Every
// value here is an exact function of (scenario, seed): the same at any jobs
// value and on any host, so a drift is a behaviour change, never noise.
// Wall time is not gated here; bench/suite's workloads time the same runs
// (horizon_n10k is the n = 10,000 rung, sweep_n2000 the delay sweep).
//
// The instances: the bench base ScaledDefaults(0.25) (n = 500, N = 100,
// A = 125², default seed), rescaled with density preserved to n = 100,
// 400, 1,600 and 10,000 (the last capped at 10 s of simulated time), plus
// n = 400 at α = 3.5; the n = 2,000 delay sweep over p_t = 0.1 … 0.8 capped
// at 5 ms; and two identical n = 100 points, also capped at 5 ms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "harness/sweep.h"
#include "harness/table.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace crn::harness {
namespace {

// The eight spectrum::FieldWork counters, exported as perf.*{engine=cached}.
struct FieldWork {
  std::int64_t sir_evaluations;
  std::int64_t sir_terms_evaluated;
  std::int64_t gain_cache_hits;
  std::int64_t gain_cache_misses;
  std::int64_t reeval_skipped;
  std::int64_t pu_partials_reused;
  std::int64_t su_resumes;
  std::int64_t bound_skips;
};

// Density-preserving rescale (the law of ScenarioConfig::ScaledDefaults):
// node counts scale linearly, the area side by sqrt(factor).
core::ScenarioConfig ScaledBy(double factor) {
  const core::ScenarioConfig base = core::ScenarioConfig::ScaledDefaults(0.25);
  core::ScenarioConfig config = base;
  config.num_sus = static_cast<std::int32_t>(std::lround(base.num_sus * factor));
  config.num_pus = static_cast<std::int32_t>(std::lround(base.num_pus * factor));
  config.area_side = base.area_side * std::sqrt(factor);
  return config;
}

// One counter of a sweep's captured registry state; -1 when it is absent.
std::int64_t Metric(const SweepResult& sweep, const std::string& key) {
  for (const auto& [name, value] : sweep.metric_values) {
    if (name == key) return value;
  }
  return -1;
}

void ExpectFieldWork(const SweepResult& sweep, const FieldWork& expected) {
  const auto perf = [&sweep](const std::string& name) {
    return Metric(sweep, "perf." + name + "{engine=cached}");
  };
  EXPECT_EQ(perf("sir_evaluations"), expected.sir_evaluations);
  EXPECT_EQ(perf("sir_terms_evaluated"), expected.sir_terms_evaluated);
  EXPECT_EQ(perf("gain_cache_hits"), expected.gain_cache_hits);
  EXPECT_EQ(perf("gain_cache_misses"), expected.gain_cache_misses);
  EXPECT_EQ(perf("reeval_skipped"), expected.reeval_skipped);
  EXPECT_EQ(perf("pu_partials_reused"), expected.pu_partials_reused);
  EXPECT_EQ(perf("su_resumes"), expected.su_resumes);
  EXPECT_EQ(perf("bound_skips"), expected.bound_skips);
}

// A one-point ADDC-only sweep of `config` over 2 repetitions with a
// registry attached.
SweepResult RunRung(const core::ScenarioConfig& config, bool collect_digests) {
  obs::MetricsRegistry metrics;
  SweepSpec spec;
  spec.title = "n=" + std::to_string(config.num_sus);
  spec.parameter_name = "n";
  spec.repetitions = 2;
  spec.jobs = 2;
  spec.addc_only = true;
  spec.collect_digests = collect_digests;
  spec.metrics = &metrics;
  spec.points.push_back({std::to_string(config.num_sus), config});
  return RunSweep(spec);
}

// A timing rung: audits off, as the throughput bench ran them.
SweepResult RunThroughputRung(core::ScenarioConfig config) {
  config.audit_stride = 0;
  return RunRung(config, /*collect_digests=*/false);
}

TEST(WorkCounterPinTest, ThroughputN100) {
  const SweepResult sweep = RunThroughputRung(ScaledBy(0.2));
  ASSERT_EQ(sweep.labels.front(), "100");
  ExpectFieldWork(sweep, {871, 1'085, 2'542, 1'085, 0, 58, 84, 0});
}

TEST(WorkCounterPinTest, ThroughputN400) {
  const SweepResult sweep = RunThroughputRung(ScaledBy(0.8));
  ASSERT_EQ(sweep.labels.front(), "400");
  ExpectFieldWork(sweep, {8'225, 19'418, 127'507, 19'418, 0, 363, 1'321, 27});
}

TEST(WorkCounterPinTest, ThroughputN1600) {
  const SweepResult sweep = RunThroughputRung(ScaledBy(3.2));
  ASSERT_EQ(sweep.labels.front(), "1600");
  ExpectFieldWork(sweep,
                  {79'404, 341'607, 4'496'565, 341'607, 0, 3'129, 25'580, 1'282});
}

TEST(WorkCounterPinTest, ThroughputN400Alpha35) {
  core::ScenarioConfig config = ScaledBy(0.8);
  config.alpha = 3.5;
  const SweepResult sweep = RunThroughputRung(config);
  ASSERT_EQ(sweep.labels.front(), "400");
  ExpectFieldWork(sweep, {6'006, 15'579, 94'409, 15'579, 0, 138, 175, 3});
}

// A full collection at n = 10,000 takes minutes of simulated time, so this
// rung stops at a 10 s horizon (a timeout by design).
TEST(WorkCounterPinTest, ThroughputN10000HorizonCapped) {
  core::ScenarioConfig config = ScaledBy(20.0);
  config.max_sim_time = 10 * sim::kSecond;
  const SweepResult sweep = RunThroughputRung(config);
  ASSERT_EQ(sweep.labels.front(), "10000");
  ExpectFieldWork(sweep, {1'288'891, 13'407'186, 105'264'937, 13'407'186, 0,
                          52'453, 1'044'331, 111'154});
}

// With the auditor attached, the n = 100 rung's ADDC digest is the one the
// deleted direct-sum SIR engine produced, and attaching the auditor moves
// no counter.
TEST(WorkCounterPinTest, EngineVerificationDigestN100) {
  const SweepResult sweep = RunRung(ScaledBy(0.2), /*collect_digests=*/true);
  ASSERT_EQ(sweep.summaries.size(), 1u);
  EXPECT_EQ(sweep.summaries.front().addc_trace_digest, 0xed5a627cb78a6befULL);
  ExpectFieldWork(sweep, {871, 1'085, 2'542, 1'085, 0, 58, 84, 0});
}

// The n = 2,000 delay sweep: p_t does not key the prefab, so the 8 points
// of each of the 3 repetitions share one geometry (3 builds, 21 hits) at
// every jobs value.
TEST(WorkCounterPinTest, DelaySweepN2000AtJobs1To4) {
  for (const std::int32_t jobs : {1, 2, 4}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    obs::MetricsRegistry metrics;
    SweepSpec spec;
    spec.title = "delay n=2000";
    spec.parameter_name = "p_t";
    spec.repetitions = 3;
    spec.jobs = jobs;
    spec.addc_only = true;
    spec.metrics = &metrics;
    for (const double p_t : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}) {
      core::ScenarioConfig config = ScaledBy(4.0);
      config.pu_activity = p_t;
      config.max_sim_time = 5 * sim::kMillisecond;
      config.audit_stride = 0;
      spec.points.push_back({FormatDouble(p_t, 1), config});
    }
    ASSERT_EQ(spec.points.front().config.num_sus, 2'000);
    const SweepResult sweep = RunSweep(spec);
    EXPECT_EQ(Metric(sweep, "prefab.hits"), 21);
    EXPECT_EQ(Metric(sweep, "prefab.misses"), 3);
    EXPECT_EQ(Metric(sweep, "prefab.bytes"), 686'003);
    ExpectFieldWork(sweep, {27'427, 200'456, 42'130, 200'456, 0, 577, 25'051, 3'829});
    EXPECT_EQ(sweep.pool.tasks, 24);
    EXPECT_LE(sweep.pool.steals, sweep.pool.chunks);
  }
}

// Two identical points on one geometry per repetition, at jobs 4: every
// second request is a cache hit, and both points' digests are the one that
// per-cell geometry rebuilds produced.
TEST(WorkCounterPinTest, CacheVerificationDigestN100) {
  core::ScenarioConfig config = ScaledBy(0.2);
  config.max_sim_time = 5 * sim::kMillisecond;
  SweepSpec spec;
  spec.title = "cache verification";
  spec.parameter_name = "run";
  spec.repetitions = 3;
  spec.jobs = 4;
  spec.collect_digests = true;
  spec.addc_only = true;
  spec.points.push_back({"first", config});
  spec.points.push_back({"again", config});
  const SweepResult sweep = RunSweep(spec);
  ASSERT_EQ(sweep.summaries.size(), 2u);
  EXPECT_EQ(sweep.summaries[0].addc_trace_digest, 0x2bb8148b4654c89bULL);
  EXPECT_EQ(sweep.summaries[1].addc_trace_digest, 0x2bb8148b4654c89bULL);
}

}  // namespace
}  // namespace crn::harness
