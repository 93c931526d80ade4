// Experiment sweep engine: repeats ADDC-vs-Coolest comparisons over a list
// of configurations — the engine behind every bench binary.
//
// The API is split into a compute phase and a render phase. RunSweep()
// takes a SweepSpec (what to run, how many repetitions, how many worker
// threads) and returns a SweepResult value; RenderDelayTable() and the
// json_writer consume that value afterwards. No entry point here touches an
// std::ostream while computing.
//
// Parallelism never changes results: every (point × repetition × algorithm)
// cell is an independent simulation keyed by (config.seed, point, rep,
// algorithm) — each cell deploys its own Scenario and derives every RNG
// stream from (config.seed, rep), so a sweep is bit-identical at any jobs
// value. tests/harness/parallel_sweep_test.cc pins jobs=1 against jobs=4,
// summaries and trace digests both.
#ifndef CRN_HARNESS_SWEEP_H_
#define CRN_HARNESS_SWEEP_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/collection.h"
#include "core/metrics.h"
#include "core/scenario.h"
#include "harness/work_stealing.h"
#include "obs/metrics.h"
#include "routing/coolest.h"

namespace crn::harness {

class FlagParser;   // flags.h
class RunProfiler;  // profiler.h

// Repetition summary for one configuration.
struct ComparisonSummary {
  core::SampleStats addc_delay_ms;
  core::SampleStats coolest_delay_ms;
  double delay_ratio = 0.0;  // coolest mean / addc mean
  core::SampleStats addc_capacity;
  core::SampleStats coolest_capacity;
  double addc_jain_mean = 0.0;
  double coolest_jain_mean = 0.0;
  std::int32_t addc_completed = 0;
  std::int32_t coolest_completed = 0;
  std::int64_t su_caused_violations = 0;  // summed over both algorithms
  double theorem2_bound_ms_mean = 0.0;
  // FNV fold of the per-repetition ADDC trace digests (invariant_auditor.h),
  // in repetition order; 0 unless SweepSpec.collect_digests was set.
  std::uint64_t addc_trace_digest = 0;
};

// One point of a sweep: label shown in the table plus its configuration.
struct SweepPoint {
  std::string label;
  core::ScenarioConfig config;
};

// The compute request. `jobs` follows ResolveJobs() (parallel_runner.h):
// >= 1 literal, 0 = hardware concurrency; 1 runs inline (the serial
// engine). collect_digests attaches the invariant auditor to every ADDC
// cell and folds its trace digests into the result — attaching the auditor
// never changes a run's behaviour or digest.
struct SweepSpec {
  std::string title;
  std::string parameter_name;
  std::vector<SweepPoint> points;
  std::int32_t repetitions = 1;
  routing::TemperatureMetric metric = routing::TemperatureMetric::kAccumulated;
  std::int32_t jobs = 1;
  bool collect_digests = false;
  // Skip the Coolest baseline cell of every (point, rep): pure-ADDC sweeps
  // (throughput benches) halve their cell count and keep wall_seconds
  // attributable to one algorithm. Coolest summary fields stay zero.
  bool addc_only = false;
  // Cells per work-stealing chunk; 0 = auto (cells / (4 · jobs), floored at
  // 1 — ResolveGrain in work_stealing.h). Any value yields bit-identical
  // results; grain trades scheduling flexibility against claim traffic.
  std::int64_t grain = 0;
  // Share deployment geometry (positions + graph + CDS tree) across cells
  // whose geometry-determining parameters match (core/scenario_prefab.h):
  // points varying only MAC/spectrum parameters skip the rebuild entirely.
  // Off rebuilds per cell (the legacy behaviour, kept for A/B benches).
  // Either way the simulated geometry is bit-identical.
  bool prefab_cache = true;
  // Equivalence mode: every prefab-cache hit is digest-checked against a
  // freshly built prefab (cached ≡ rebuilt, CRN_CHECK). Forfeits the
  // cache's speedup; used by tests and CI, not benches.
  bool verify_prefabs = false;

  // Observability (both optional, both jobs-invariant):
  // `metrics` — every ADDC cell runs with its own MetricsRegistry; the
  // reduction folds them into this registry in the fixed (point, rep)
  // order, so the merged state is bit-identical at any jobs value.
  // `profiler` — wall-clock spans per cell and per sweep phase (compute /
  // reduce) for BENCH profile sections and --trace-out; wall-clock values
  // never enter results or digests.
  obs::MetricsRegistry* metrics = nullptr;
  RunProfiler* profiler = nullptr;
};

// The compute result, consumed by RenderDelayTable() / json_writer.
struct SweepResult {
  std::string title;
  std::string parameter_name;
  std::vector<std::string> labels;             // one per point
  std::vector<ComparisonSummary> summaries;    // one per point, point order
  std::int32_t repetitions = 0;
  std::int32_t jobs = 1;                       // resolved worker count used
  std::uint64_t seed = 0;                      // points.front().config.seed
  std::uint64_t trace_digest = 0;              // fold over all cells; 0 if off
  double wall_seconds = 0.0;
  // Counter/gauge state of SweepSpec.metrics after the reduce, rendered as
  // (sorted key, value) pairs — the BENCH json "metrics" section. Empty
  // when no registry was attached; histograms are presentation-layer and
  // stay out. Includes the deterministic prefab.{hits,misses,bytes}
  // counters when the prefab cache was on and a registry was attached.
  std::vector<std::pair<std::string, std::int64_t>> metric_values;
  // Scheduling diagnostics from the cell fan-out (the BENCH json "pool"
  // section). tasks/chunks/workers are deterministic given (spec, jobs);
  // steals depends on OS scheduling and is bounded by chunks — which is why
  // these live here and never in the digest-compared metrics above.
  WorkStealingStats pool;
};

SweepResult RunSweep(const SweepSpec& spec);

// The order RunSweep's fan-out visits cells in (DESIGN.md §15): dispatch
// slot `order` runs the cell at the returned index. Cells are laid out
// point-major — point · (algorithms · repetitions) + algorithms · rep +
// algorithm, the layout the reduction reads — but dispatched
// repetition-major: slots [rep · points · algorithms, (rep + 1) · points ·
// algorithms) hold every point of repetition `rep`, ADDC before Coolest.
// Cells of one repetition share a prefab key whenever their points agree
// on geometry, so a chunk of them builds one geometry, and workers that
// start on different chunks start on different geometries. A bijection on
// [0, points · repetitions · algorithms); the identity when repetitions or
// points is 1.
std::int64_t CellAtDispatchSlot(std::int64_t order, std::int64_t points,
                                std::int64_t repetitions, std::int64_t algorithms);

// Serial single-point convenience used by tests and custom benches.
ComparisonSummary RunRepeatedComparison(
    const core::ScenarioConfig& config, std::int32_t repetitions,
    routing::TemperatureMetric metric = routing::TemperatureMetric::kAccumulated);

// Render phase: the Fig.-6-style Markdown delay table for a computed sweep.
void RenderDelayTable(const SweepResult& result, std::ostream& out);

// Bench configuration, resolved exactly once from CLI flags with
// environment-variable fallback (DESIGN.md §2):
//   --full-scale / CRN_FULL_SCALE=1   the paper's configuration, 10 reps;
//   --scale=F    / CRN_SCALE=F        density-preserving factor in (0, 1]
//                                     (def. 0.25), not with --full-scale;
//   --reps=K     / CRN_REPS=K         repetition override, >= 1;
//   --jobs=J     / CRN_JOBS=J         worker threads, >= 0 (0 = hardware,
//                                     def.);
//   --grain=G    / CRN_GRAIN=G        cells per work-stealing chunk, >= 0
//                                     (0 = auto: cells/(4·jobs), min 1);
//   --seed=S     / CRN_SEED=S         root scenario seed;
//   --json-out=P / CRN_JSON_OUT=P     BENCH json path (def. BENCH_<name>.json);
//   --trace-out=P / CRN_TRACE_OUT=P   Chrome trace (profiler spans) path.
struct BenchOptions {
  core::ScenarioConfig base;
  std::int32_t repetitions = 3;
  bool full_scale = false;
  std::int32_t jobs = 0;   // 0 = auto (ResolveJobs)
  std::int64_t grain = 0;  // 0 = auto (ResolveGrain)
  std::string json_out;    // "" = default path
  std::string trace_out;  // "" = no trace emission
};

// Parses argv (strictly: unknown flags are fatal) and the environment.
// Handles --help itself. Exits the process (status 2) on usage errors,
// including a scale no run can use, a repetition count outside [1, 2^31 - 1]
// and a jobs or grain value outside [0, 2^31 - 1].
BenchOptions ResolveBenchOptions(int argc, const char* const* argv);

// The same, for a binary with flags of its own: it reads them from `flags`
// first. `usage` describes them; --help and usage errors print it ahead of
// the common flags.
BenchOptions ResolveBenchOptions(FlagParser& flags, const std::string& usage);

// Standard bench banner: what is being reproduced and at what scale.
void PrintBenchHeader(const std::string& figure, const std::string& claim,
                      const BenchOptions& options, std::ostream& out);

}  // namespace crn::harness

#endif  // CRN_HARNESS_SWEEP_H_
