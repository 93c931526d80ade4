// The parallel engine's contract: a sweep is bit-identical at any jobs
// value. Every cell deploys its own Scenario from (config.seed, rep) and the
// reduction runs in fixed (point, repetition) order, so jobs=4 must
// reproduce the serial engine exactly — summaries and the auditor's trace
// digests both.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "harness/profiler.h"
#include "harness/sweep.h"
#include "obs/metrics.h"

namespace crn::harness {
namespace {

SweepSpec TinySpec(std::int32_t jobs) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.05);
  config.seed = 11;
  SweepSpec spec;
  spec.title = "equivalence";
  spec.parameter_name = "p_t";
  spec.points.push_back({"0.3", config});
  config.pu_activity = 0.2;
  spec.points.push_back({"0.2", config});
  spec.repetitions = 2;
  spec.jobs = jobs;
  spec.collect_digests = true;
  return spec;
}

void ExpectStatsIdentical(const core::SampleStats& a, const core::SampleStats& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.count, b.count);
}

// Every summary field and every digest of two sweeps of the same spec.
void ExpectSweepsIdentical(const SweepResult& serial, const SweepResult& parallel) {
  EXPECT_EQ(serial.labels, parallel.labels);
  ASSERT_EQ(serial.summaries.size(), parallel.summaries.size());
  for (std::size_t i = 0; i < serial.summaries.size(); ++i) {
    const ComparisonSummary& a = serial.summaries[i];
    const ComparisonSummary& b = parallel.summaries[i];
    ExpectStatsIdentical(a.addc_delay_ms, b.addc_delay_ms);
    ExpectStatsIdentical(a.coolest_delay_ms, b.coolest_delay_ms);
    EXPECT_EQ(a.delay_ratio, b.delay_ratio);
    ExpectStatsIdentical(a.addc_capacity, b.addc_capacity);
    ExpectStatsIdentical(a.coolest_capacity, b.coolest_capacity);
    EXPECT_EQ(a.addc_jain_mean, b.addc_jain_mean);
    EXPECT_EQ(a.coolest_jain_mean, b.coolest_jain_mean);
    EXPECT_EQ(a.addc_completed, b.addc_completed);
    EXPECT_EQ(a.coolest_completed, b.coolest_completed);
    EXPECT_EQ(a.su_caused_violations, b.su_caused_violations);
    EXPECT_EQ(a.theorem2_bound_ms_mean, b.theorem2_bound_ms_mean);
    EXPECT_NE(a.addc_trace_digest, 0u);
    EXPECT_EQ(a.addc_trace_digest, b.addc_trace_digest);
  }
  EXPECT_NE(serial.trace_digest, 0u);
  EXPECT_EQ(serial.trace_digest, parallel.trace_digest);
  EXPECT_EQ(serial.metric_values, parallel.metric_values);
}

TEST(ParallelSweepTest, SerialAndParallelSweepsAreBitIdentical) {
  const SweepResult serial = RunSweep(TinySpec(1));
  const SweepResult parallel = RunSweep(TinySpec(4));
  EXPECT_EQ(serial.jobs, 1);
  EXPECT_EQ(parallel.jobs, 4);
  ExpectSweepsIdentical(serial, parallel);
}

TEST(ParallelSweepTest, DispatchVisitsEveryCellOnceRepetitionByRepetition) {
  // RunSweep's fan-out runs slot `order` on cell CellAtDispatchSlot(order):
  // a bijection onto the point-major cell indices in which every aligned
  // block of points · algorithms slots is one repetition, each point once,
  // ADDC before Coolest.
  for (const std::int64_t points : {1, 2, 5, 8}) {
    for (const std::int64_t reps : {1, 3, 16}) {
      for (const std::int64_t algorithms : {1, 2}) {
        const std::int64_t cells_per_point = algorithms * reps;
        const std::int64_t count = points * cells_per_point;
        std::vector<bool> seen(static_cast<std::size_t>(count), false);
        for (std::int64_t order = 0; order < count; ++order) {
          const std::int64_t cell =
              CellAtDispatchSlot(order, points, reps, algorithms);
          ASSERT_GE(cell, 0);
          ASSERT_LT(cell, count);
          EXPECT_FALSE(seen[static_cast<std::size_t>(cell)]) << "cell " << cell;
          seen[static_cast<std::size_t>(cell)] = true;
          const std::int64_t rest = cell % cells_per_point;
          const std::int64_t block = order / (points * algorithms);
          const std::int64_t slot = order % (points * algorithms);
          EXPECT_EQ(rest / algorithms, block) << "order " << order;
          EXPECT_EQ(cell / cells_per_point, slot / algorithms) << "order " << order;
          EXPECT_EQ(rest % algorithms, slot % algorithms) << "order " << order;
        }
        // One repetition or one point: the point-major order itself.
        if (reps == 1 || points == 1) {
          for (std::int64_t order = 0; order < count; ++order) {
            EXPECT_EQ(CellAtDispatchSlot(order, points, reps, algorithms), order);
          }
        }
      }
    }
  }
}

TEST(ParallelSweepTest, GeometrySweepWithCoolestIsPinnedAcrossJobsAndGrain) {
  // Coolest cells, two geometries per repetition (the num_pus point keys
  // its own prefab, the p_t points share one) and 3 repetitions, which no
  // worker count above 1 divides: the dispatch order still decides only
  // who runs a cell, never what it computes.
  const auto run = [](std::int32_t jobs, std::int64_t grain,
                      obs::MetricsRegistry* metrics) {
    SweepSpec spec = TinySpec(jobs);
    // Light PU load keeps the 12 sweeps short under the thread sanitizer.
    spec.points[0] = {"0.1", spec.points[0].config};
    spec.points[0].config.pu_activity = 0.1;
    core::ScenarioConfig config = spec.points.front().config;
    config.num_pus += 10;
    spec.points.push_back({"N+10", config});
    spec.repetitions = 3;
    spec.grain = grain;
    spec.metrics = metrics;
    return RunSweep(spec);
  };
  obs::MetricsRegistry reference_metrics;
  const SweepResult reference = run(1, 0, &reference_metrics);
  ASSERT_EQ(reference.summaries.size(), 3u);
  // 3 points x 3 reps x 2 algorithms = 18 requests over 2 x 3 geometries.
  EXPECT_EQ(reference_metrics.GetCounter("prefab.misses").value(), 6);
  EXPECT_EQ(reference_metrics.GetCounter("prefab.hits").value(), 12);
  for (const std::int32_t jobs : {1, 2, 4, 8}) {
    for (const std::int64_t grain : {0, 1, 3}) {
      obs::MetricsRegistry metrics;
      const SweepResult result = run(jobs, grain, &metrics);
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " grain=" + std::to_string(grain));
      ExpectSweepsIdentical(reference, result);
      EXPECT_EQ(metrics.Digest(), reference_metrics.Digest());
      for (const char* key : {"prefab.hits", "prefab.misses", "prefab.bytes"}) {
        EXPECT_EQ(metrics.GetCounter(key).value(),
                  reference_metrics.GetCounter(key).value())
            << key;
      }
    }
  }
}

TEST(ParallelSweepTest, MetricsFoldIsBitIdenticalAcrossJobs) {
  // The observability contract on the sweep engine: per-cell registries are
  // merged in fixed (point, rep) order, so the folded state — digest and
  // full snapshot both — cannot depend on the worker count.
  obs::MetricsRegistry serial_metrics;
  obs::MetricsRegistry parallel_metrics;
  SweepSpec serial_spec = TinySpec(1);
  serial_spec.metrics = &serial_metrics;
  SweepSpec parallel_spec = TinySpec(4);
  parallel_spec.metrics = &parallel_metrics;
  const SweepResult serial = RunSweep(serial_spec);
  const SweepResult parallel = RunSweep(parallel_spec);
  EXPECT_EQ(serial.trace_digest, parallel.trace_digest);

  EXPECT_GT(serial_metrics.instrument_count(), 0u);
  EXPECT_NE(serial_metrics.Digest(), 0u);
  EXPECT_EQ(serial_metrics.Digest(), parallel_metrics.Digest());
  const obs::Snapshot a = serial_metrics.Capture(0);
  const obs::Snapshot b = parallel_metrics.Capture(0);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].key, b.entries[i].key);
    EXPECT_EQ(a.entries[i].value, b.entries[i].value);
    EXPECT_EQ(a.entries[i].count, b.entries[i].count);
    EXPECT_EQ(a.entries[i].sum, b.entries[i].sum);
    EXPECT_EQ(a.entries[i].buckets, b.entries[i].buckets);
  }

  // Sanity-check the folded totals: 2 points x 2 reps of ADDC cells, each
  // producing one packet per SU (num_sus excludes the base station).
  const std::int64_t produced_per_cell =
      core::ScenarioConfig::ScaledDefaults(0.05).num_sus;
  EXPECT_EQ(serial_metrics.GetCounter("mac.packets_created_total").value(),
            4 * produced_per_cell);
}

TEST(ParallelSweepTest, AddcOnlyPerfCountersAreJobsInvariant) {
  // An addc_only sweep's captured perf.* counters are pure functions of
  // (scenario, seed), the same at any jobs value, which is what lets
  // WorkCounterPinTest pin them exactly. Two identical points, like its
  // cache-verification points, must also agree with each other.
  const auto make = [](std::int32_t jobs, obs::MetricsRegistry* metrics) {
    core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.05);
    config.seed = 11;
    SweepSpec spec;
    spec.title = "repeat";
    spec.parameter_name = "run";
    spec.points.push_back({"first", config});
    spec.points.push_back({"again", config});
    spec.repetitions = 2;
    spec.jobs = jobs;
    spec.collect_digests = true;
    spec.addc_only = true;
    spec.metrics = metrics;
    return spec;
  };
  obs::MetricsRegistry serial_metrics;
  obs::MetricsRegistry parallel_metrics;
  const SweepResult serial = RunSweep(make(1, &serial_metrics));
  const SweepResult parallel = RunSweep(make(4, &parallel_metrics));

  // Same scenarios, same digests — at every jobs value.
  ASSERT_EQ(serial.summaries.size(), 2u);
  EXPECT_NE(serial.summaries[0].addc_trace_digest, 0u);
  EXPECT_EQ(serial.summaries[0].addc_trace_digest,
            serial.summaries[1].addc_trace_digest);
  EXPECT_EQ(serial.trace_digest, parallel.trace_digest);

  // The captured counter state is identical and carries the perf.* keys
  // crn_bench and WorkCounterPinTest read.
  ASSERT_EQ(serial.metric_values.size(), parallel.metric_values.size());
  ASSERT_FALSE(serial.metric_values.empty());
  bool saw_terms = false;
  bool saw_evals = false;
  for (std::size_t i = 0; i < serial.metric_values.size(); ++i) {
    EXPECT_EQ(serial.metric_values[i].first, parallel.metric_values[i].first);
    EXPECT_EQ(serial.metric_values[i].second, parallel.metric_values[i].second);
    if (serial.metric_values[i].first ==
        "perf.sir_terms_evaluated{engine=cached}") {
      saw_terms = serial.metric_values[i].second > 0;
    }
    if (serial.metric_values[i].first == "perf.sir_evaluations{engine=cached}") {
      saw_evals = serial.metric_values[i].second > 0;
    }
  }
  EXPECT_TRUE(saw_terms);
  EXPECT_TRUE(saw_evals);
}

TEST(ParallelSweepTest, ProfilerIsObservationOnly) {
  // Attaching the wall-clock profiler must not perturb results or digests,
  // and every cell plus the reduce phase must be covered by spans.
  RunProfiler profiler;
  SweepSpec profiled_spec = TinySpec(4);
  profiled_spec.profiler = &profiler;
  const SweepResult profiled = RunSweep(profiled_spec);
  const SweepResult plain = RunSweep(TinySpec(4));
  EXPECT_EQ(profiled.trace_digest, plain.trace_digest);
  ASSERT_EQ(profiled.summaries.size(), plain.summaries.size());
  for (std::size_t i = 0; i < profiled.summaries.size(); ++i) {
    ExpectStatsIdentical(profiled.summaries[i].addc_delay_ms,
                         plain.summaries[i].addc_delay_ms);
  }

  bool saw_cells = false;
  bool saw_reduce = false;
  std::int64_t cell_count = 0;
  for (const RunProfiler::PhaseStats& stats : profiler.PhaseSummary()) {
    if (stats.phase == "cells") {
      saw_cells = true;
      cell_count = stats.count;
    }
    if (stats.phase == "reduce") saw_reduce = true;
  }
  EXPECT_TRUE(saw_cells);
  EXPECT_TRUE(saw_reduce);
  // 2 points x 2 repetitions x 2 algorithms (ADDC and Coolest).
  EXPECT_EQ(cell_count, 8);
}

TEST(ParallelSweepTest, DigestsAndMetricsArePinnedAcrossJobsAndGrain) {
  // The acceptance matrix for the work-stealing engine: trace digests,
  // metric digests (including the prefab counters), and profiler phase
  // counts must be identical at jobs ∈ {1, 2, 4, 8} and at every grain.
  // jobs=1 is the inline serial reference; everything else must match it.
  const auto run = [](std::int32_t jobs, std::int64_t grain,
                      obs::MetricsRegistry* metrics,
                      RunProfiler* profiler) {
    SweepSpec spec = TinySpec(jobs);
    spec.grain = grain;
    spec.metrics = metrics;
    spec.profiler = profiler;
    return RunSweep(spec);
  };
  obs::MetricsRegistry reference_metrics;
  RunProfiler reference_profiler;
  const SweepResult reference =
      run(1, 0, &reference_metrics, &reference_profiler);
  ASSERT_NE(reference.trace_digest, 0u);

  std::int64_t reference_cells = 0;
  for (const RunProfiler::PhaseStats& stats :
       reference_profiler.PhaseSummary()) {
    if (stats.phase == "cells") reference_cells = stats.count;
  }
  EXPECT_EQ(reference_cells, 8);  // 2 points x 2 reps x 2 algorithms

  for (const std::int32_t jobs : {2, 4, 8}) {
    for (const std::int64_t grain :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{2},
          std::int64_t{7}, std::int64_t{1 << 20}}) {
      obs::MetricsRegistry metrics;
      RunProfiler profiler;
      const SweepResult result = run(jobs, grain, &metrics, &profiler);
      EXPECT_EQ(result.trace_digest, reference.trace_digest)
          << "jobs=" << jobs << " grain=" << grain;
      EXPECT_EQ(metrics.Digest(), reference_metrics.Digest())
          << "jobs=" << jobs << " grain=" << grain;
      std::int64_t cells = 0;
      for (const RunProfiler::PhaseStats& stats : profiler.PhaseSummary()) {
        if (stats.phase == "cells") cells = stats.count;
      }
      EXPECT_EQ(cells, reference_cells)
          << "jobs=" << jobs << " grain=" << grain;
    }
  }

  // The prefab counters fold into the registry and are themselves
  // jobs-invariant: 2 distinct (seed, rep) geometries serve all 8 cells.
  EXPECT_EQ(reference_metrics.GetCounter("prefab.misses").value(), 2);
  EXPECT_EQ(reference_metrics.GetCounter("prefab.hits").value(), 6);
  EXPECT_GT(reference_metrics.GetCounter("prefab.bytes").value(), 0);
}

// RunSweep shares one immutable prefab between the cells of a geometry, and
// one PU sensing table between the cells of a geometry and PCR; the oracle
// is the same cells run one by one, each Scenario building its own
// geometry and tables. Digests and every delay must be bit-identical — the
// cache and the table memo are pure memoizations of deterministic builds.
void ExpectSweepMatchesFreshScenarios(const SweepSpec& spec) {
  const SweepResult cached = RunSweep(spec);
  ASSERT_NE(cached.trace_digest, 0u);
  ASSERT_EQ(cached.summaries.size(), spec.points.size());
  const auto fold = [](std::uint64_t accumulator, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      accumulator ^= (value >> (8 * byte)) & 0xFFU;
      accumulator *= 0x100000001B3ULL;
    }
    return accumulator;
  };
  std::uint64_t sweep_digest = 0xCBF29CE484222325ULL;
  for (std::size_t point = 0; point < spec.points.size(); ++point) {
    const core::ScenarioConfig& config = spec.points[point].config;
    std::uint64_t point_digest = 0xCBF29CE484222325ULL;
    std::vector<double> addc_delay;
    std::vector<double> coolest_delay;
    for (std::int32_t rep = 0; rep < spec.repetitions; ++rep) {
      const core::Scenario rebuilt(config, static_cast<std::uint64_t>(rep));
      core::AuditReport report;
      core::RunOptions options;
      options.audit_report = &report;
      addc_delay.push_back(core::RunAddc(rebuilt, options).delay_ms);
      coolest_delay.push_back(core::RunCoolest(rebuilt, spec.metric).delay_ms);
      point_digest = fold(point_digest, report.trace_digest);
      sweep_digest = fold(sweep_digest, report.trace_digest);
    }
    EXPECT_EQ(cached.summaries[point].addc_trace_digest, point_digest);
    ExpectStatsIdentical(cached.summaries[point].addc_delay_ms,
                         core::Summarize(addc_delay));
    ExpectStatsIdentical(cached.summaries[point].coolest_delay_ms,
                         core::Summarize(coolest_delay));
  }
  EXPECT_EQ(cached.trace_digest, sweep_digest);
}

TEST(ParallelSweepTest, PrefabCacheDoesNotChangeAnyDigest) {
  ExpectSweepMatchesFreshScenarios(TinySpec(4));
  // Points on one geometry whose PCRs differ (η_p and the PU power set κ,
  // and Coolest's range with them): each PCR gets a table of its own.
  SweepSpec pcr_axis = TinySpec(4);
  pcr_axis.parameter_name = "eta_p / P_p";
  pcr_axis.points.resize(1);
  core::ScenarioConfig config = pcr_axis.points.front().config;
  config.eta_p_db = 11.0;
  pcr_axis.points.push_back({"eta_p=11", config});
  config.pu_power = 25.0;
  pcr_axis.points.push_back({"eta_p=11 P_p=25", config});
  ASSERT_NE(core::Scenario(pcr_axis.points[0].config, 0).pcr(),
            core::Scenario(pcr_axis.points[1].config, 0).pcr());
  ASSERT_NE(core::Scenario(pcr_axis.points[1].config, 0).pcr(),
            core::Scenario(pcr_axis.points[2].config, 0).pcr());
  ExpectSweepMatchesFreshScenarios(pcr_axis);
}

TEST(ParallelSweepTest, DigestCollectionDoesNotChangeResults) {
  SweepSpec with_digests = TinySpec(1);
  with_digests.points.resize(1);
  with_digests.repetitions = 1;
  SweepSpec without_digests = with_digests;
  without_digests.collect_digests = false;
  const SweepResult audited = RunSweep(with_digests);
  const SweepResult plain = RunSweep(without_digests);
  ExpectStatsIdentical(audited.summaries.front().addc_delay_ms,
                       plain.summaries.front().addc_delay_ms);
  ExpectStatsIdentical(audited.summaries.front().coolest_delay_ms,
                       plain.summaries.front().coolest_delay_ms);
  EXPECT_NE(audited.summaries.front().addc_trace_digest, 0u);
  EXPECT_EQ(plain.summaries.front().addc_trace_digest, 0u);
  EXPECT_EQ(plain.trace_digest, 0u);
}

}  // namespace
}  // namespace crn::harness
