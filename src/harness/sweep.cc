#include "harness/sweep.h"

#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

#include "common/env.h"
#include "harness/flags.h"
#include "harness/parallel_runner.h"
#include "harness/profiler.h"
#include "harness/table.h"

namespace crn::harness {

namespace {

// Order-sensitive FNV-1a fold of a 64-bit value into an accumulator; used
// to combine per-cell trace digests into point- and sweep-level digests.
constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;

std::uint64_t FoldDigest(std::uint64_t accumulator, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    accumulator ^= (value >> (8 * byte)) & 0xFFU;
    accumulator *= 0x100000001B3ULL;
  }
  return accumulator;
}

// One experiment cell: (point, repetition, algorithm). Cells are laid out
// point-major, repetition next, ADDC before Coolest — the same order the
// serial reduction consumes, so results are independent of which worker
// finishes first. They are dispatched repetition-major
// (CellAtDispatchSlot), which changes only who runs a cell and when.
struct CellOutcome {
  core::CollectionResult result;
  std::uint64_t digest = 0;
  // Cell-local registry (ADDC cells, SweepSpec.metrics only): filled by the
  // worker that ran the cell, folded into the caller's registry by the
  // serial reduction below — never touched concurrently.
  obs::MetricsRegistry metrics;
};

}  // namespace

std::int64_t CellAtDispatchSlot(std::int64_t order, std::int64_t points,
                                std::int64_t repetitions, std::int64_t algorithms) {
  const std::int64_t slots_per_rep = points * algorithms;
  const std::int64_t rep = order / slots_per_rep;
  const std::int64_t point = order % slots_per_rep / algorithms;
  const std::int64_t algorithm = order % algorithms;
  return point * algorithms * repetitions + algorithms * rep + algorithm;
}

SweepResult RunSweep(const SweepSpec& spec) {
  const WallTimer timer;
  SweepResult sweep;
  sweep.title = spec.title;
  sweep.parameter_name = spec.parameter_name;
  sweep.repetitions = spec.repetitions;
  sweep.jobs = ResolveJobs(spec.jobs);
  if (!spec.points.empty()) sweep.seed = spec.points.front().config.seed;

  const auto reps = static_cast<std::int64_t>(spec.repetitions);
  const std::int64_t algorithms = spec.addc_only ? 1 : 2;
  const std::int64_t cells_per_point = algorithms * reps;
  const auto points = static_cast<std::int64_t>(spec.points.size());
  const std::int64_t cell_count = cells_per_point * points;
  std::vector<CellOutcome> cells(static_cast<std::size_t>(cell_count));

  // Geometry sharing across cells: the cache hands every cell whose
  // (geometry key, rep) matches the same immutable prefab. Deployment is a
  // pure function of (config, rep) either way, so cached and rebuilt
  // geometry are bit-identical (verify_prefabs re-proves it per hit).
  core::ScenarioPrefabCache prefab_cache(spec.verify_prefabs);
  const ParallelRunner runner(spec.jobs, spec.grain);
  sweep.pool = runner.ForEachIndex(
      cell_count,
      [&](std::int64_t order) {
        const std::int64_t index =
            CellAtDispatchSlot(order, points, reps, algorithms);
        const auto point = static_cast<std::size_t>(index / cells_per_point);
        const std::int64_t rest = index % cells_per_point;
        const auto rep = static_cast<std::uint64_t>(rest / algorithms);
        const bool is_addc = spec.addc_only || rest % 2 == 0;
        const core::ScenarioConfig& config = spec.points[point].config;
        const core::Scenario scenario =
            spec.prefab_cache
                ? core::Scenario(config, rep, prefab_cache.Get(config, rep))
                : core::Scenario(config, rep);
        CellOutcome& cell = cells[static_cast<std::size_t>(index)];
        if (is_addc) {
          core::RunOptions options;
          core::AuditReport report;
          if (spec.collect_digests) options.audit_report = &report;
          if (spec.metrics != nullptr) {
            options.metrics = &cell.metrics;
            // The sweep fold is state-only: per-cell series would interleave
            // unrelated timelines in the merged registry.
            options.metrics_series_stride = 0;
          }
          cell.result = core::RunAddc(scenario, options);
          if (spec.collect_digests) cell.digest = report.trace_digest;
        } else {
          cell.result = core::RunCoolest(scenario, spec.metric);
        }
      },
      spec.profiler, "cells");

  // Reduction, strictly in (point, repetition) order: identical floating-
  // point summation order at every jobs value. Cell registries fold into
  // the caller's registry in the same fixed order, so merged metric state
  // (and its digest) is jobs-invariant too.
  const RunProfiler::Scope reduce_scope(spec.profiler, "reduce", "");
  std::uint64_t sweep_digest = kFnvOffsetBasis;
  sweep.labels.reserve(spec.points.size());
  sweep.summaries.reserve(spec.points.size());
  for (std::size_t point = 0; point < spec.points.size(); ++point) {
    std::vector<double> addc_delay, coolest_delay;
    std::vector<double> addc_capacity, coolest_capacity;
    std::vector<double> addc_jain, coolest_jain;
    std::vector<double> bounds;
    ComparisonSummary summary;
    std::uint64_t point_digest = kFnvOffsetBasis;
    for (std::int64_t rep = 0; rep < reps; ++rep) {
      const std::size_t base = static_cast<std::size_t>(
          static_cast<std::int64_t>(point) * cells_per_point + algorithms * rep);
      const core::CollectionResult& addc = cells[base].result;
      addc_delay.push_back(addc.delay_ms);
      addc_capacity.push_back(addc.capacity_fraction);
      addc_jain.push_back(addc.jain_delivery_fairness);
      bounds.push_back(addc.theorem2_delay_bound_ms);
      summary.addc_completed += addc.completed ? 1 : 0;
      summary.su_caused_violations += addc.mac.su_caused_violations;
      if (!spec.addc_only) {
        const core::CollectionResult& coolest = cells[base + 1].result;
        coolest_delay.push_back(coolest.delay_ms);
        coolest_capacity.push_back(coolest.capacity_fraction);
        coolest_jain.push_back(coolest.jain_delivery_fairness);
        summary.coolest_completed += coolest.completed ? 1 : 0;
        summary.su_caused_violations += coolest.mac.su_caused_violations;
      }
      point_digest = FoldDigest(point_digest, cells[base].digest);
      sweep_digest = FoldDigest(sweep_digest, cells[base].digest);
      if (spec.metrics != nullptr) spec.metrics->Merge(cells[base].metrics);
    }
    summary.addc_delay_ms = core::Summarize(addc_delay);
    summary.coolest_delay_ms = core::Summarize(coolest_delay);
    summary.delay_ratio =
        summary.addc_delay_ms.mean > 0.0
            ? summary.coolest_delay_ms.mean / summary.addc_delay_ms.mean
            : 0.0;
    summary.addc_capacity = core::Summarize(addc_capacity);
    summary.coolest_capacity = core::Summarize(coolest_capacity);
    summary.addc_jain_mean = core::Summarize(addc_jain).mean;
    summary.coolest_jain_mean = core::Summarize(coolest_jain).mean;
    summary.theorem2_bound_ms_mean = core::Summarize(bounds).mean;
    if (spec.collect_digests) summary.addc_trace_digest = point_digest;
    sweep.labels.push_back(spec.points[point].label);
    sweep.summaries.push_back(summary);
  }
  if (spec.collect_digests) sweep.trace_digest = sweep_digest;
  if (spec.metrics != nullptr && spec.prefab_cache) {
    // Deterministic at every jobs/grain value (misses = distinct keys, hits
    // = requests - misses, bytes = Σ built prefabs), so safe to fold into
    // the digest-compared registry. The scheduling-dependent pool.steals
    // stays out — it reports through SweepResult.pool instead.
    const core::ScenarioPrefabCache::Stats stats = prefab_cache.stats();
    spec.metrics->GetCounter("prefab.hits").Add(stats.hits);
    spec.metrics->GetCounter("prefab.misses").Add(stats.misses);
    spec.metrics->GetCounter("prefab.bytes").Add(stats.bytes);
    if (spec.verify_prefabs) {
      spec.metrics->GetCounter("prefab.verified").Add(stats.verified);
    }
  }
  if (spec.metrics != nullptr) {
    // Counter/gauge state snapshot for the BENCH json "metrics" section.
    // Capture iterates sorted keys, so the pairs are already in the
    // deterministic order the json writer and bench_delta.py rely on.
    const obs::Snapshot snapshot = spec.metrics->Capture(0);
    for (const obs::SnapshotEntry& entry : snapshot.entries) {
      if (entry.kind == obs::MetricKind::kHistogram) continue;
      sweep.metric_values.emplace_back(entry.key, entry.value);
    }
  }
  sweep.wall_seconds = timer.Seconds();
  return sweep;
}

ComparisonSummary RunRepeatedComparison(const core::ScenarioConfig& config,
                                        std::int32_t repetitions,
                                        routing::TemperatureMetric metric) {
  SweepSpec spec;
  spec.points.push_back({"", config});
  spec.repetitions = repetitions;
  spec.metric = metric;
  spec.jobs = 1;
  return RunSweep(spec).summaries.front();
}

void RenderDelayTable(const SweepResult& result, std::ostream& out) {
  out << "== " << result.title << " ==\n";
  Table table({result.parameter_name, "ADDC delay (ms)", "Coolest delay (ms)",
               "Coolest/ADDC", "ADDC capacity (·W)", "violations"});
  for (std::size_t i = 0; i < result.summaries.size(); ++i) {
    const ComparisonSummary& s = result.summaries[i];
    table.AddRow({result.labels[i],
                  FormatMeanStd(s.addc_delay_ms.mean, s.addc_delay_ms.stddev, 0),
                  FormatMeanStd(s.coolest_delay_ms.mean, s.coolest_delay_ms.stddev, 0),
                  FormatDouble(s.delay_ratio, 2),
                  FormatDouble(s.addc_capacity.mean, 4),
                  std::to_string(s.su_caused_violations)});
  }
  table.PrintMarkdown(out);
  out << "\n";
}

namespace {

constexpr const char* kBenchUsage =
    R"(Common bench flags (environment fallback in parentheses):
  --full-scale        the paper's exact configuration (CRN_FULL_SCALE=1)
  --scale=F           density-preserving scale factor in (0, 1], default 0.25
                      (CRN_SCALE); not with --full-scale
  --reps=K            repetitions per point, >= 1 (CRN_REPS)
  --jobs=J            worker threads, >= 0; 0 = hardware concurrency (CRN_JOBS)
  --grain=G           cells per work-stealing chunk, >= 0; 0 = auto, i.e.
                      cells/(4*jobs) floored at 1 (CRN_GRAIN). Any grain is
                      bit-identical; this only tunes scheduling granularity
  --seed=S            root scenario seed (CRN_SEED)
  --json-out=PATH     BENCH json path, default BENCH_<name>.json (CRN_JSON_OUT)
  --trace-out=PATH    Chrome trace-event JSON of harness wall-clock spans
                      (CRN_TRACE_OUT); load in Perfetto / chrome://tracing
  --help              this message
)";

}  // namespace

BenchOptions ResolveBenchOptions(int argc, const char* const* argv) {
  FlagParser flags(argc, argv);
  return ResolveBenchOptions(flags, "");
}

BenchOptions ResolveBenchOptions(FlagParser& flags, const std::string& usage) {
  if (flags.Has("help")) {
    std::cout << usage << kBenchUsage;
    std::exit(0);
  }
  BenchOptions options;
  // Values that parse but cannot run: reported with the flag errors below
  // (exit 2), never left to a CRN_CHECK or an allocation deep in a run.
  std::vector<std::string> invalid;
  options.full_scale =
      flags.GetBool("full-scale", GetEnvBool("CRN_FULL_SCALE", false));
  const double factor = flags.GetDouble("scale", GetEnvDouble("CRN_SCALE", 0.25));
  if (options.full_scale) {
    if (flags.Has("scale")) {
      invalid.push_back("--full-scale and --scale conflict: the paper "
                        "configuration has no scale factor");
    }
    options.base = core::ScenarioConfig::PaperDefaults();
    options.repetitions = 10;  // the paper repeats each point 10 times
  } else if (factor > 0.0 && factor <= 1.0) {  // false for NaN too
    options.base = core::ScenarioConfig::ScaledDefaults(factor);
    options.repetitions = 3;
  } else {
    std::ostringstream message;
    message << (flags.Has("scale") ? "--scale" : "CRN_SCALE")
            << " must be in (0, 1], got " << factor;
    invalid.push_back(message.str());
  }
  // Counts are checked in int64, before the narrowing cast, which would
  // wrap 2^32 + 1 to 1; a negative jobs or grain is not "auto" (0 is).
  const auto count = [&](const char* name, const char* env, std::int64_t fallback,
                         std::int64_t min) {
    const std::int64_t value = flags.GetInt(name, GetEnvInt(env, fallback));
    if (value < min || value > std::numeric_limits<std::int32_t>::max()) {
      invalid.push_back((flags.Has(name) ? std::string("--") + name : env) +
                        " must be in [" + std::to_string(min) +
                        ", 2147483647], got " + std::to_string(value));
    }
    return value;
  };
  options.repetitions =
      static_cast<std::int32_t>(count("reps", "CRN_REPS", options.repetitions, 1));
  options.jobs = static_cast<std::int32_t>(count("jobs", "CRN_JOBS", 0, 0));
  options.grain = count("grain", "CRN_GRAIN", 0, 0);
  options.base.seed = static_cast<std::uint64_t>(flags.GetInt(
      "seed", GetEnvInt("CRN_SEED", static_cast<std::int64_t>(options.base.seed))));
  options.json_out = flags.GetString("json-out", GetEnv("CRN_JSON_OUT").value_or(""));
  options.trace_out =
      flags.GetString("trace-out", GetEnv("CRN_TRACE_OUT").value_or(""));
  if (!flags.errors().empty() || !invalid.empty() ||
      !flags.UnconsumedFlags().empty()) {
    for (const std::string& error : flags.errors()) {
      std::cerr << "error: " << error << "\n";
    }
    for (const std::string& error : invalid) {
      std::cerr << "error: " << error << "\n";
    }
    for (const std::string& unknown : flags.UnconsumedFlags()) {
      std::cerr << "error: unknown flag " << unknown << "\n";
    }
    std::cerr << usage << kBenchUsage;
    std::exit(2);
  }
  return options;
}

void PrintBenchHeader(const std::string& figure, const std::string& claim,
                      const BenchOptions& options, std::ostream& out) {
  out << "# Reproduction of " << figure << " — Cai et al., ICDCS 2012\n";
  out << "# Paper claim: " << claim << "\n";
  out << "# Scale: " << (options.full_scale ? "FULL (paper)" : "scaled-down")
      << "  n=" << options.base.num_sus << "  N=" << options.base.num_pus
      << "  A=" << options.base.area_side << "x" << options.base.area_side
      << "  reps=" << options.repetitions << "  jobs=" << ResolveJobs(options.jobs)
      << "  (--full-scale for the paper configuration, --help for flags)\n\n";
}

}  // namespace crn::harness
