// Simulator throughput bench: end-to-end ADDC collection wall time and
// deterministic work accounting (perf.* counters) across network sizes for
// the interference-field SIR engine (spectrum/interference_field.h).
//
// Three jobs in one binary:
//   1. Verification sweep at the smallest size, trace digests on: its
//      digest must match the committed baseline's same-title digest
//      (tools/bench_delta.py --verify-digests), which the reference
//      direct-sum engine reproduced while it still ran.
//   2. Per-(n, alpha) timing sweeps with audits off: one sweep per rung so
//      wall_seconds and the perf.* counters are attributable to exactly one
//      size. tools/bench_delta.py compares these sections against
//      bench/baselines/BENCH_sim_throughput.json in CI.
//   3. Horizon-capped scale rungs (n = 10000; n = 100000 under
//      --full-scale): a full collection at these sizes takes minutes of
//      simulated time, so the rung instead runs a fixed sim horizon —
//      timeout by design — keeping wall bounded while still exercising the
//      event core and MAC at scale. Counters stay exact functions of
//      (scenario, seed), so bench_delta budgets apply unchanged.
//
// At the default --scale=0.25 the size ladder {0.2x, 0.8x, 3.2x} of the base
// instance gives n = 100 / 400 / 1600 (density preserved, so connectivity
// and contention stay representative at every rung).
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "harness/json_writer.h"
#include "harness/parallel_runner.h"
#include "harness/profiler.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "obs/metrics.h"
#include "sim/time.h"

namespace {

using namespace crn;

// Density-preserving rescale of `base` by `factor` (same law as
// ScenarioConfig::ScaledDefaults): node counts scale linearly, the area
// side by sqrt(factor).
core::ScenarioConfig ScaledBy(const core::ScenarioConfig& base, double factor) {
  core::ScenarioConfig config = base;
  config.num_sus =
      static_cast<std::int32_t>(std::lround(base.num_sus * factor));
  config.num_pus =
      static_cast<std::int32_t>(std::lround(base.num_pus * factor));
  config.area_side = base.area_side * std::sqrt(factor);
  return config;
}

// Looks up one counter in a sweep's captured metric state; 0 when the key
// was never touched.
std::int64_t Metric(const harness::SweepResult& sweep, const std::string& key) {
  for (const auto& [name, value] : sweep.metric_values) {
    if (name == key) return value;
  }
  return 0;
}

std::string Perf(const harness::SweepResult& sweep, const std::string& name) {
  return std::to_string(Metric(sweep, name + "{engine=cached}"));
}

// Runs `config` as a one-point ADDC-only sweep with its own registry, and
// adds its table row.
harness::SweepResult TimingSweep(const std::string& title,
                                 const core::ScenarioConfig& config,
                                 const harness::BenchOptions& options,
                                 harness::RunProfiler& profiler, harness::Table& table) {
  obs::MetricsRegistry metrics;
  harness::SweepSpec spec;
  spec.title = title;
  spec.parameter_name = "n";
  spec.repetitions = options.repetitions;
  spec.jobs = options.jobs;
  spec.addc_only = true;
  spec.metrics = &metrics;
  spec.profiler = &profiler;
  spec.points.push_back({std::to_string(config.num_sus), config});
  harness::SweepResult result = harness::RunSweep(spec);
  table.AddRow({std::to_string(config.num_sus), harness::FormatDouble(config.alpha, 1),
                harness::FormatDouble(result.wall_seconds, 3),
                Perf(result, "perf.sir_evaluations"),
                Perf(result, "perf.sir_terms_evaluated"),
                Perf(result, "perf.gain_cache_hits"),
                Perf(result, "perf.gain_cache_misses"),
                Perf(result, "perf.reeval_skipped"), Perf(result, "perf.bound_skips"),
                Perf(result, "perf.pu_partials_reused"),
                Perf(result, "perf.su_resumes")});
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::BenchOptions options = harness::ResolveBenchOptions(argc, argv);
  const harness::WallTimer timer;
  harness::RunProfiler profiler;
  harness::PrintBenchHeader(
      "simulator throughput — SIR engine work accounting",
      "the interference field reproduces the direct-sum SIR engine's digests "
      "while charging each interference pair once",
      options, std::cout);

  const std::vector<double> factors = {0.2, 0.8, 3.2};
  std::vector<harness::SweepResult> sweeps;

  // --- 1. Verification sweep: digests on, smallest n. ---
  obs::MetricsRegistry verify_metrics;
  harness::SweepSpec verify;
  const core::ScenarioConfig smallest = ScaledBy(options.base, factors.front());
  verify.title = "engine verification n=" + std::to_string(smallest.num_sus);
  verify.parameter_name = "engine";
  verify.repetitions = options.repetitions;
  verify.jobs = options.jobs;
  verify.collect_digests = true;
  verify.addc_only = true;
  verify.metrics = &verify_metrics;
  verify.profiler = &profiler;
  verify.points.push_back({"cached", smallest});
  sweeps.push_back(harness::RunSweep(verify));

  // --- 2. Timing sweeps: one per (size, alpha), audits off. The extra
  // alpha=3.5 rung (middle size: non-default alpha changes the interference
  // dynamics and slows the whole simulation, so the largest size would
  // dominate bench wall time) exercises the general std::pow path-loss path
  // alongside the alpha=4 fast path. ---
  struct Rung {
    double factor;
    double alpha;
  };
  std::vector<Rung> rungs;
  for (const double factor : factors) rungs.push_back({factor, 0.0});
  rungs.push_back({factors[1], 3.5});
  harness::Table table({"n", "alpha", "wall (s)", "SIR evals", "SIR terms",
                        "cache hits", "cache misses", "skips", "bound skips",
                        "PU reuse", "resumes"});
  for (const Rung& rung : rungs) {
    core::ScenarioConfig config = ScaledBy(options.base, rung.factor);
    std::string alpha_tag;
    if (rung.alpha > 0.0) {
      config.alpha = rung.alpha;
      alpha_tag = " a" + harness::FormatDouble(rung.alpha, 1);
    }
    config.audit_stride = 0;  // timing runs: no audit receptions in wall time
    sweeps.push_back(TimingSweep(
        "throughput n=" + std::to_string(config.num_sus) + alpha_tag + " (cached)",
        config, options, profiler, table));
  }

  // --- 3. Horizon-capped scale rungs (timeout by design; see header). ---
  struct BigRung {
    std::int32_t target_n;
    sim::TimeNs horizon;
  };
  std::vector<BigRung> big_rungs = {{10'000, 10 * sim::kSecond}};
  if (options.full_scale) big_rungs.push_back({100'000, 2 * sim::kSecond});
  std::vector<std::string> scale_lines;
  for (const BigRung& rung : big_rungs) {
    const double factor =
        static_cast<double>(rung.target_n) /
        static_cast<double>(options.base.num_sus);
    core::ScenarioConfig config = ScaledBy(options.base, factor);
    config.max_sim_time = rung.horizon;
    config.audit_stride = 0;
    const harness::SweepResult result = TimingSweep(
        "throughput n=" + std::to_string(config.num_sus) + " horizon-capped", config,
        options, profiler, table);
    scale_lines.push_back(
        "n=" + std::to_string(config.num_sus) + " horizon-capped: " +
        harness::FormatDouble(result.wall_seconds, 3) + "s wall, sched pushes " +
        std::to_string(Metric(result, "perf.sched_pushes{scheduler=calendar}")) +
        ", pops " +
        std::to_string(Metric(result, "perf.sched_pops{scheduler=calendar}")));
    sweeps.push_back(result);
  }

  table.PrintMarkdown(std::cout);
  std::cout << "\n";
  for (const std::string& line : scale_lines) std::cout << line << "\n";
  std::cout << "verification digest (n=" << smallest.num_sus
            << "): "
            << harness::DigestHex(sweeps.front().summaries.front().addc_trace_digest)
            << "\n\n";

  const bool wrote = harness::WriteBenchJson(
      "sim_throughput", options, sweeps, timer.Seconds(), std::cout, &profiler);
  return wrote ? 0 : 1;
}
