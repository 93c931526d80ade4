// crn_figures — regenerates the paper's evaluation (§V: Fig. 4 and
// Fig. 6(a)–(f)) and our ablations, one figure per --figure=NAME, or every
// figure in turn with --figure=all.
//
// Each figure is one row of kFigures: its BENCH json name, banner, claim,
// an optional change to the resolved options, and either a Fig. 6 sweep
// (data: one ScenarioConfig field over a list of values, run by RunSweep)
// or a function that runs its cells, prints its tables and returns its
// BENCH json series. The ablations, capacity and resilience rows lay their
// cells out as variant × repetition through one FanOut, which deploys
// every repetition once for all the variants that share its geometry.
// Every row shares one frame: options, banner, profiler, timer and
// WriteBenchJson.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/collection.h"
#include "core/pcr.h"
#include "faults/fault_plan.h"
#include "harness/flags.h"
#include "harness/json_writer.h"
#include "harness/parallel_runner.h"
#include "harness/profiler.h"
#include "harness/sweep.h"
#include "harness/table.h"

namespace {

using namespace crn;
using core::CollectionResult;
using harness::BenchOptions;
using harness::FormatDouble;
using harness::FormatMeanStd;
using harness::Json;
using harness::RunProfiler;
using harness::Table;

// The deployments of one FanOut: a cell asks for (config, repetition) and
// gets a Scenario on the shared prefab for that geometry, so the variants
// of a repetition deploy it once between them (a variant that changes
// geometry gets its own entry). Shared prefabs are bit-identical to
// private ones (DESIGN.md §15). Each cell deploys at most once, on the
// base geometry, so the cache is told `variants` requests per repetition
// up front and frees a repetition's geometry after its last cell.
class Deployments {
 public:
  Deployments(const core::ScenarioConfig& base, std::int64_t variants, std::int64_t reps) {
    for (std::int64_t rep = 0; rep < reps; ++rep) {
      for (std::int64_t v = 0; v < variants; ++v) {
        prefabs_.Announce(base, static_cast<std::uint64_t>(rep));
      }
    }
  }

  core::Scenario operator()(const core::ScenarioConfig& config, std::uint64_t rep) {
    return core::Scenario(config, rep, prefabs_.Get(config, rep));
  }

 private:
  core::ScenarioPrefabCache prefabs_;
};

// Runs run(variant, repetition, deploy) for every variant × repetition cell
// on the worker pool; the result holds cell (v, r) at v · reps + r. Cells
// are dispatched repetition-major, as RunSweep's are, so the workers start
// on different repetitions' geometries.
template <typename Run>
auto FanOut(const BenchOptions& options, std::int64_t variants, std::int64_t reps,
            RunProfiler& profiler, Run run) {
  std::vector<std::invoke_result_t<Run&, std::int64_t, std::uint64_t, Deployments&>>
      cells(static_cast<std::size_t>(variants * reps));
  Deployments deploy(options.base, variants, reps);
  harness::ParallelRunner(options.jobs, options.grain)
      .ForEachIndex(variants * reps, [&](std::int64_t order) {
        const std::int64_t index = harness::CellAtDispatchSlot(order, variants, reps, 1);
        cells[static_cast<std::size_t>(index)] =
            run(index / reps, static_cast<std::uint64_t>(index % reps), deploy);
      }, &profiler);
  return cells;
}

// The repetitions of one variant in a FanOut result.
template <typename Cell>
std::span<const Cell> Reps(const std::vector<Cell>& cells, std::int64_t variant,
                           std::int64_t reps) {
  return std::span<const Cell>(cells).subspan(static_cast<std::size_t>(variant * reps),
                                              static_cast<std::size_t>(reps));
}

// Summary of field(cell) over `cells`, in repetition order.
template <typename Cell, typename Field>
core::SampleStats Stats(std::span<const Cell> cells, Field field) {
  std::vector<double> values;
  for (const Cell& cell : cells) values.push_back(std::invoke(field, cell));
  return core::Summarize(values);
}

template <typename Cell, typename Field>
std::int64_t Total(std::span<const Cell> cells, Field field) {
  std::int64_t total = 0;
  for (const Cell& cell : cells) total += std::invoke(field, cell);
  return total;
}

std::int64_t SuViolations(const CollectionResult& result) {
  return result.mac.su_caused_violations;
}

// A3 and A4 run an ADDC reference as variant 0 on the same deployments.
core::SampleStats PrintAddcReference(std::span<const CollectionResult> runs) {
  const core::SampleStats addc = Stats(runs, &CollectionResult::delay_ms);
  std::cout << "ADDC reference delay: " << FormatMeanStd(addc.mean, addc.stddev, 0)
            << " ms\n\n";
  return addc;
}

// Fig. 4: the PCR as a function of P_p, P_s, η_p, η_s for α ∈ {3, 4}, both
// c2 variants (DESIGN.md §4: "paper" is what Fig. 4 plots, "corrected" is
// the constant the concurrency guarantee needs). Formula only, so --jobs,
// --scale and --reps do not change it. Defaults per the caption: P_p = P_s
// = 10, R = 12, r = 10, η_p = η_s = 10 dB.
Json Fig4(const BenchOptions& /*options*/, RunProfiler& /*profiler*/) {
  using core::C2Variant;
  using core::PcrParams;
  const auto table = [](const std::string& title, const std::string& parameter,
                        const std::vector<double>& values,
                        void (*set)(PcrParams&, double)) {
    std::cout << "== Fig. 4: PCR vs " << title << " ==\n";
    Table out({parameter, "PCR α=3 paper (m)", "PCR α=4 paper (m)",
               "PCR α=3 corrected (m)", "PCR α=4 corrected (m)"});
    Json rows = Json::Array();
    for (double value : values) {
      double pcr[2][2];  // [α = 3, 4][paper, corrected]
      for (int a = 0; a < 2; ++a) {
        PcrParams params;
        params.pu_power = 10.0;
        params.su_power = 10.0;
        params.pu_radius = 12.0;
        params.su_radius = 10.0;
        params.eta_p = SirThreshold::FromDb(10.0);
        params.eta_s = SirThreshold::FromDb(10.0);
        params.alpha = 3.0 + a;
        set(params, value);
        pcr[a][0] = core::ProperCarrierSensingRange(params, C2Variant::kPaper);
        pcr[a][1] = core::ProperCarrierSensingRange(params, C2Variant::kCorrected);
      }
      out.AddRow({FormatDouble(value, 1), FormatDouble(pcr[0][0], 2),
                  FormatDouble(pcr[1][0], 2), FormatDouble(pcr[0][1], 2),
                  FormatDouble(pcr[1][1], 2)});
      Json row = Json::Object();
      row["value"] = value;
      row["pcr_alpha3_paper_m"] = pcr[0][0];
      row["pcr_alpha4_paper_m"] = pcr[1][0];
      row["pcr_alpha3_corrected_m"] = pcr[0][1];
      row["pcr_alpha4_corrected_m"] = pcr[1][1];
      rows.Push(std::move(row));
    }
    out.PrintMarkdown(std::cout);
    std::cout << "\n";
    Json sweep = Json::Object();
    sweep["parameter"] = parameter;
    sweep["rows"] = std::move(rows);
    return sweep;
  };
  const std::vector<double> powers{5, 10, 15, 20, 25, 30};
  const std::vector<double> thresholds_db{4, 6, 8, 10, 12, 14, 16};
  Json sweeps = Json::Array();
  sweeps.Push(table("P_p (PU power)", "P_p", powers,
                    [](PcrParams& p, double v) { p.pu_power = v; }));
  sweeps.Push(table("P_s (SU power)", "P_s", powers,
                    [](PcrParams& p, double v) { p.su_power = v; }));
  sweeps.Push(table("η_p (PU SIR threshold, dB)", "η_p (dB)", thresholds_db,
                    [](PcrParams& p, double v) { p.eta_p = SirThreshold::FromDb(v); }));
  sweeps.Push(table("η_s (SU SIR threshold, dB)", "η_s (dB)", thresholds_db,
                    [](PcrParams& p, double v) { p.eta_s = SirThreshold::FromDb(v); }));
  return sweeps;
}

// A1: Algorithm 1 line 12 — after a transmission with backoff t_i, wait
// τ_c − t_i before contending again — on vs off: its delay cost against
// the per-flow fairness Theorem 1 relies on.
Json AblationFairness(const BenchOptions& options, RunProfiler& profiler) {
  const bool cases[] = {true, false};
  const std::int64_t reps = options.repetitions;
  const auto run_cell = [&](std::int64_t v, std::uint64_t rep, Deployments& deploy) {
    core::ScenarioConfig config = options.base;
    config.fairness_wait = cases[v];
    return core::RunAddc(deploy(config, rep));
  };
  const auto cells = FanOut(options, 2, reps, profiler, run_cell);
  Table table({"fairness wait", "ADDC delay (ms)", "Jain index", "capacity (·W)",
               "completed"});
  Json series = Json::Array();
  for (std::int64_t v = 0; v < 2; ++v) {
    const auto runs = Reps(cells, v, reps);
    const auto delay = Stats(runs, &CollectionResult::delay_ms);
    const double jain = Stats(runs, &CollectionResult::jain_delivery_fairness).mean;
    const double capacity = Stats(runs, &CollectionResult::capacity_fraction).mean;
    const std::int64_t completed =
        Total(runs, [](const CollectionResult& r) { return r.completed ? 1 : 0; });
    table.AddRow({cases[v] ? "on (Algorithm 1)" : "off",
                  FormatMeanStd(delay.mean, delay.stddev, 0), FormatDouble(jain, 3),
                  FormatDouble(capacity, 4),
                  std::to_string(completed) + "/" + std::to_string(reps)});
    Json row = Json::Object();
    row["fairness_wait"] = cases[v];
    row["addc_delay_ms"] = harness::ToJson(delay);
    row["jain_mean"] = jain;
    row["capacity_mean"] = capacity;
    row["completed"] = completed;
    series.Push(std::move(row));
  }
  table.PrintMarkdown(std::cout);
  return series;
}

// A2: the paper's printed c2 vs the corrected one (DESIGN.md §4). The
// printed constant gives a smaller PCR — faster, but too short for Lemma
// 2's guarantee, which the densely strided PU-protection audit exposes.
Json AblationC2(const BenchOptions& options, RunProfiler& profiler) {
  const core::C2Variant variants[] = {core::C2Variant::kPaper,
                                      core::C2Variant::kCorrected};
  const std::int64_t reps = options.repetitions;
  const auto run_cell = [&](std::int64_t v, std::uint64_t rep, Deployments& deploy) {
    core::ScenarioConfig config = options.base;
    config.c2_variant = variants[v];
    return core::RunAddc(deploy(config, rep));
  };
  const auto cells = FanOut(options, 2, reps, profiler, run_cell);
  Table table({"c2 variant", "PCR (m)", "theory p_o", "ADDC delay (ms)",
               "SU-caused PU violations", "audited"});
  Json series = Json::Array();
  for (std::int64_t v = 0; v < 2; ++v) {
    const auto runs = Reps(cells, v, reps);
    const auto delay = Stats(runs, &CollectionResult::delay_ms);
    const std::int64_t violations = Total(runs, SuViolations);
    const std::int64_t audited = Total(
        runs, [](const CollectionResult& r) { return r.mac.audited_pu_receptions; });
    const std::string name = core::ToString(variants[v]);
    table.AddRow({name, FormatDouble(runs.back().pcr, 2),
                  FormatDouble(runs.back().theory_po, 5),
                  FormatMeanStd(delay.mean, delay.stddev, 0), std::to_string(violations),
                  std::to_string(audited)});
    Json row = Json::Object();
    row["c2_variant"] = name;
    row["pcr_m"] = runs.back().pcr;
    row["theory_po"] = runs.back().theory_po;
    row["addc_delay_ms"] = harness::ToJson(delay);
    row["su_caused_violations"] = violations;
    row["audited_pu_receptions"] = audited;
    series.Push(std::move(row));
  }
  table.PrintMarkdown(std::cout);
  return series;
}

// A3: the Coolest-path metric of [17] the baseline uses. The paper only
// says Coolest prefers "the most balanced and/or the lowest spectrum
// utilization" path; ADDC's advantage should not hinge on that choice.
Json AblationCoolestMetric(const BenchOptions& options, RunProfiler& profiler) {
  const routing::TemperatureMetric metrics[] = {routing::TemperatureMetric::kAccumulated,
                                                routing::TemperatureMetric::kHighest,
                                                routing::TemperatureMetric::kMixed};
  const std::int64_t reps = options.repetitions;
  const auto run_cell = [&](std::int64_t v, std::uint64_t rep, Deployments& deploy) {
    const core::Scenario scenario = deploy(options.base, rep);
    return v == 0 ? core::RunAddc(scenario) : core::RunCoolest(scenario, metrics[v - 1]);
  };
  const auto cells = FanOut(options, 4, reps, profiler, run_cell);
  const core::SampleStats addc = PrintAddcReference(Reps(cells, 0, reps));
  Table table({"Coolest metric", "delay (ms)", "vs ADDC", "avg hops", "max route depth"});
  Json series = Json::Array();
  for (std::int64_t v = 1; v < 4; ++v) {
    const auto runs = Reps(cells, v, reps);
    const auto delay = Stats(runs, &CollectionResult::delay_ms);
    const double avg_hops = Stats(runs, &CollectionResult::avg_hops).mean;
    std::int32_t depth = 0;
    for (const CollectionResult& r : runs) depth = std::max(depth, r.max_route_depth);
    const std::string name = routing::ToString(metrics[v - 1]);
    table.AddRow({name, FormatMeanStd(delay.mean, delay.stddev, 0),
                  FormatDouble(delay.mean / addc.mean, 2) + "x",
                  FormatDouble(avg_hops, 2), std::to_string(depth)});
    Json row = Json::Object();
    row["metric"] = name;
    row["coolest_delay_ms"] = harness::ToJson(delay);
    row["vs_addc_ratio"] = delay.mean / addc.mean;
    row["avg_hops"] = avg_hops;
    row["max_route_depth"] = static_cast<std::int64_t>(depth);
    series.Push(std::move(row));
  }
  table.PrintMarkdown(std::cout);
  Json payload = Json::Object();
  payload["addc_reference_delay_ms"] = harness::ToJson(addc);
  payload["metrics"] = std::move(series);
  return payload;
}

// A4: what makes the Coolest baseline slower? It differs from ADDC's MAC
// in its safety-margined sensing range (no Lemma 2/3 bound), its discrete
// contention window with sensing latency, and no PU-slot awareness. This
// reruns it with each sensing-range rule, contention unchanged:
//   * the 2x-margined range (the default model): the paper's ~2-3x gap;
//   * ADDC's own PCR: the gap mostly closes, so the range is the lever;
//   * conventional 2r: faster than ADDC, but only by interfering with PUs
//     (the audit counts it), which a cognitive radio may not do.
Json AblationBaselineMac(const BenchOptions& options, RunProfiler& profiler) {
  struct Variant {
    const char* label;
    double margin;          // >0: Lemma-2/3 range with this margin
    double sensing_factor;  // >0: bare factor·r instead
  };
  const Variant variants[] = {{"2x-margin range (default)", 2.0, 0.0},
                              {"ADDC's tight PCR", 1.0, 0.0},
                              {"conventional 2r (under-senses)", 0.0, 2.0}};
  const std::int64_t reps = options.repetitions;
  const auto run_cell = [&](std::int64_t v, std::uint64_t rep, Deployments& deploy) {
    if (v == 0) return core::RunAddc(deploy(options.base, rep));
    core::ScenarioConfig config = options.base;
    config.audit_stride = 4;
    if (variants[v - 1].sensing_factor > 0.0) {
      config.coolest_sensing_factor = variants[v - 1].sensing_factor;
    } else {
      config.baseline_interference_margin = variants[v - 1].margin;
    }
    return core::RunCoolest(deploy(config, rep));
  };
  const auto cells = FanOut(options, 4, reps, profiler, run_cell);
  const core::SampleStats addc = PrintAddcReference(Reps(cells, 0, reps));
  Table table({"baseline sensing rule", "range (m)", "delay (ms)", "vs ADDC",
               "SU-caused PU violations"});
  Json series = Json::Array();
  for (std::int64_t v = 1; v < 4; ++v) {
    const auto runs = Reps(cells, v, reps);
    const auto delay = Stats(runs, &CollectionResult::delay_ms);
    const std::int64_t violations = Total(runs, SuViolations);
    const double range = runs.back().pcr;
    table.AddRow({variants[v - 1].label, FormatDouble(range, 1),
                  FormatMeanStd(delay.mean, delay.stddev, 0),
                  FormatDouble(delay.mean / addc.mean, 2) + "x",
                  std::to_string(violations)});
    Json row = Json::Object();
    row["sensing_rule"] = variants[v - 1].label;
    row["range_m"] = range;
    row["coolest_delay_ms"] = harness::ToJson(delay);
    row["vs_addc_ratio"] = delay.mean / addc.mean;
    row["su_caused_violations"] = violations;
    series.Push(std::move(row));
  }
  table.PrintMarkdown(std::cout);
  Json payload = Json::Object();
  payload["addc_reference_delay_ms"] = harness::ToJson(addc);
  payload["variants"] = std::move(series);
  return payload;
}

// A5: imperfect spectrum sensing, which the paper assumes away. Missed
// detections make SUs transmit over active PUs (the audit counts the
// harm); false alarms waste opportunities and inflate delay.
Json AblationSensingErrors(const BenchOptions& options, RunProfiler& profiler) {
  struct Case {
    double fa;
    double md;
  };
  const Case cases[] = {{0.0, 0.0}, {0.1, 0.0},  {0.3, 0.0},
                        {0.0, 0.05}, {0.0, 0.15}, {0.1, 0.05}};
  const std::int64_t reps = options.repetitions;
  const auto run_cell = [&](std::int64_t v, std::uint64_t rep, Deployments& deploy) {
    core::RunOptions run;
    run.sensing_false_alarm = cases[v].fa;
    run.sensing_missed_detection = cases[v].md;
    return core::RunAddc(deploy(options.base, rep), run);
  };
  const auto cells = FanOut(options, 6, reps, profiler, run_cell);
  Table table({"P(false alarm)", "P(missed detection)", "ADDC delay (ms)",
               "SU-caused PU violations", "SIR failures"});
  Json series = Json::Array();
  for (std::int64_t v = 0; v < 6; ++v) {
    const auto runs = Reps(cells, v, reps);
    const auto delay = Stats(runs, &CollectionResult::delay_ms);
    const std::int64_t violations = Total(runs, SuViolations);
    const std::int64_t sir_failures = Total(runs, [](const CollectionResult& r) {
      return r.mac.outcomes[static_cast<int>(mac::TxOutcome::kSirFailure)];
    });
    table.AddRow({FormatDouble(cases[v].fa, 2), FormatDouble(cases[v].md, 2),
                  FormatMeanStd(delay.mean, delay.stddev, 0), std::to_string(violations),
                  std::to_string(sir_failures)});
    Json row = Json::Object();
    row["false_alarm"] = cases[v].fa;
    row["missed_detection"] = cases[v].md;
    row["addc_delay_ms"] = harness::ToJson(delay);
    row["su_caused_violations"] = violations;
    row["sir_failures"] = sir_failures;
    series.Push(std::move(row));
  }
  table.PrintMarkdown(std::cout);
  return series;
}

// A6: PU burstiness at a fixed duty cycle. A two-state Markov process with
// the same stationary p_t but longer mean bursts leaves Lemma 7's p_o
// unchanged while reshaping the waits: long busy runs stall whole
// neighbourhoods, long free runs let the backlog flush.
Json AblationPuBurstiness(const BenchOptions& options, RunProfiler& profiler) {
  struct Case {
    pu::ActivityProcess process;
    double burst;
  };
  const Case cases[] = {{pu::ActivityProcess::kIid, 1.0},
                        {pu::ActivityProcess::kMarkov, 2.0},
                        {pu::ActivityProcess::kMarkov, 4.0},
                        {pu::ActivityProcess::kMarkov, 8.0},
                        {pu::ActivityProcess::kMarkov, 16.0}};
  const std::int64_t reps = options.repetitions;
  const auto run_cell = [&](std::int64_t v, std::uint64_t rep, Deployments& deploy) {
    core::ScenarioConfig config = options.base;
    config.pu_activity_process = cases[v].process;
    config.pu_mean_burst_slots = cases[v].burst;
    const core::Scenario scenario = deploy(config, rep);
    return core::ComparisonResult{core::RunAddc(scenario), core::RunCoolest(scenario)};
  };
  const auto cells = FanOut(options, 5, reps, profiler, run_cell);
  Table table({"activity process", "mean burst (slots)", "ADDC delay (ms)",
               "Coolest delay (ms)", "measured p_o (ADDC)"});
  Json series = Json::Array();
  for (std::int64_t v = 0; v < 5; ++v) {
    using core::ComparisonResult;
    const auto runs = Reps(cells, v, reps);
    const auto addc =
        Stats(runs, [](const ComparisonResult& r) { return r.addc.delay_ms; });
    const auto coolest =
        Stats(runs, [](const ComparisonResult& r) { return r.coolest.delay_ms; });
    const double measured_po =
        Stats(runs, [](const ComparisonResult& r) { return r.addc.measured_po; }).mean;
    const double mean_burst = cases[v].process == pu::ActivityProcess::kIid
                                  ? 1.0 / (1.0 - options.base.pu_activity)
                                  : cases[v].burst;
    table.AddRow({pu::ToString(cases[v].process), FormatDouble(mean_burst, 1),
                  FormatMeanStd(addc.mean, addc.stddev, 0),
                  FormatMeanStd(coolest.mean, coolest.stddev, 0),
                  FormatDouble(measured_po, 4)});
    Json row = Json::Object();
    row["activity_process"] = std::string(pu::ToString(cases[v].process));
    row["mean_burst_slots"] = mean_burst;
    row["addc_delay_ms"] = harness::ToJson(addc);
    row["coolest_delay_ms"] = harness::ToJson(coolest);
    row["measured_po"] = measured_po;
    series.Push(std::move(row));
  }
  table.PrintMarkdown(std::cout);
  return series;
}

// Theorem 2 bounds *capacity*, but Fig. 6 shows single-snapshot delay.
// This runs continuous collection (a snapshot every interval = D/f, D the
// measured single-snapshot delay) and locates the sustainability
// boundary: snapshot delays stay flat for load factor f ≤ 1 and diverge
// once the offered rate exceeds capacity.
Json CapacityContinuous(const BenchOptions& options, RunProfiler& profiler) {
  // The anchor run is serial: every load factor's interval derives from it.
  const core::Scenario scenario(options.base, 0);
  const CollectionResult single = core::RunAddc(scenario);
  std::cout << "single-snapshot delay D = " << FormatDouble(single.delay_ms, 0)
            << " ms; achieved capacity " << FormatDouble(single.capacity_fraction, 4)
            << "·W (Theorem 2 lower bound "
            << FormatDouble(single.theorem2_capacity_fraction, 6) << "·W)\n\n";
  const std::int32_t rounds = 8;
  const double factors[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
  const auto interval = [&](std::int64_t v) {
    return static_cast<sim::TimeNs>(sim::FromMilliseconds(single.delay_ms / factors[v]));
  };
  const auto run_cell = [&](std::int64_t v, std::uint64_t /*rep*/, Deployments&) {
    return core::RunAddcContinuous(scenario, interval(v), rounds);
  };
  const auto cells = FanOut(options, 6, 1, profiler, run_cell);
  Table table({"load factor f", "interval (ms)", "mean snapshot delay (ms)",
               "drift (ms/round)", "sustainable", "achieved rate (·W)"});
  Json series = Json::Array();
  for (std::int64_t v = 0; v < 6; ++v) {
    const core::ContinuousResult& result = cells[static_cast<std::size_t>(v)];
    table.AddRow({FormatDouble(factors[v], 2),
                  FormatDouble(sim::ToMilliseconds(interval(v)), 0),
                  FormatDouble(result.mean_snapshot_delay_ms, 0),
                  FormatDouble(result.delay_drift_ms_per_round, 1),
                  result.sustainable ? "yes" : "NO",
                  FormatDouble(result.aggregate.capacity_fraction, 4)});
    Json row = Json::Object();
    row["load_factor"] = factors[v];
    row["interval_ms"] = sim::ToMilliseconds(interval(v));
    row["mean_snapshot_delay_ms"] = result.mean_snapshot_delay_ms;
    row["delay_drift_ms_per_round"] = result.delay_drift_ms_per_round;
    row["sustainable"] = result.sustainable;
    row["achieved_rate_w"] = result.aggregate.capacity_fraction;
    series.Push(std::move(row));
  }
  table.PrintMarkdown(std::cout);
  std::cout << "\n(f ≤ 1: inter-snapshot pipelining keeps delays flat; f > 1: the\n"
               "offered rate exceeds the collection capacity and delay diverges.)\n";
  Json payload = Json::Object();
  payload["single_snapshot_delay_ms"] = single.delay_ms;
  payload["achieved_capacity_w"] = single.capacity_fraction;
  payload["theorem2_capacity_w"] = single.theorem2_capacity_fraction;
  payload["rounds"] = static_cast<std::int64_t>(rounds);
  payload["load_factors"] = std::move(series);
  return payload;
}

// Resilience: a seeded fault plan — Poisson SU crashes with later recovery,
// network-wide sensing-error bursts — injected into ADDC's MAC and into the
// conventional baseline MAC on identical deployments, routing tree and
// fault timeline (the injector draws from the scenario rng). Self-healing
// (local repair escalating to cascade re-rooting, DESIGN.md §9) keeps
// Algorithm 1's delivery high.
Json Resilience(const BenchOptions& options, RunProfiler& profiler) {
  struct Case {
    double crash_rate_per_s;  // 0 = no churn
    bool sensing_bursts;      // inject fa=0.3 / md=0.1 bursts
  };
  struct Cell {
    CollectionResult result;
    faults::FaultReport faults;
  };
  const Case cases[] = {{0.0, false}, {0.0, true}, {2.0, false},
                        {2.0, true},  {5.0, false}, {5.0, true}};
  const std::int64_t reps = options.repetitions;
  // Variant 2·case + arm; arm 0 = ADDC, arm 1 = the baseline MAC of
  // DESIGN.md §3 on the same routing tree (discrete contention slots,
  // carrier-detection lag, no PU-slot awareness).
  const auto run_cell = [&](std::int64_t v, std::uint64_t rep, Deployments& deploy) {
    const Case& c = cases[v / 2];
    faults::FaultPlan plan;
    plan.horizon = 2 * sim::kSecond;
    plan.repair_delay = 2 * sim::kMillisecond;
    plan.retx_budget = 8;  // drop toward dead hops: degrade, never hang
    if (c.crash_rate_per_s > 0.0) {
      faults::CrashGenerator crashes;
      crashes.rate_per_s = c.crash_rate_per_s;
      crashes.recover_after = 150 * sim::kMillisecond;
      plan.crash_generators.push_back(crashes);
    }
    if (c.sensing_bursts) {
      faults::SensingBurstGenerator bursts;
      bursts.rate_per_s = 4.0;
      bursts.false_alarm = 0.3;
      bursts.missed_detection = 0.1;
      bursts.duration = 50 * sim::kMillisecond;
      plan.burst_generators.push_back(bursts);
    }
    const core::Scenario scenario = deploy(options.base, rep);
    core::RunOptions run;
    if (v % 2 == 1) {
      run.backoff_granularity = scenario.config().baseline_backoff_granularity;
      run.sensing_latency = scenario.config().baseline_sensing_latency;
      run.slot_aware_defer = false;
    }
    Cell cell;
    run.faults = &plan;
    run.fault_report = &cell.faults;
    cell.result = core::RunAddc(scenario, run);
    return cell;
  };
  const auto cells = FanOut(options, 12, reps, profiler, run_cell);
  Table table({"crash rate (/s)", "sensing bursts", "ADDC delay (ms)", "ADDC delivery",
               "baseline delay (ms)", "baseline delivery", "reattached", "orphaned"});
  Json series = Json::Array();
  for (std::int64_t c = 0; c < 6; ++c) {
    const auto addc = Reps(cells, 2 * c, reps);
    const auto base = Reps(cells, 2 * c + 1, reps);
    const auto delay = [](const Cell& cell) { return cell.result.delay_ms; };
    const auto delivery = [](const Cell& cell) { return cell.result.delivery_ratio; };
    const auto addc_delay = Stats(addc, delay);
    const auto base_delay = Stats(base, delay);
    const auto addc_delivery = Stats(addc, delivery);
    const auto base_delivery = Stats(base, delivery);
    const std::int64_t reattached =
        Total(addc, [](const Cell& cell) { return cell.faults.reattached_total; });
    const std::int64_t orphaned =
        Total(addc, [](const Cell& cell) { return cell.faults.orphaned_now; });
    table.AddRow({FormatDouble(cases[c].crash_rate_per_s, 1),
                  cases[c].sensing_bursts ? "on" : "off",
                  FormatMeanStd(addc_delay.mean, addc_delay.stddev, 0),
                  FormatDouble(addc_delivery.mean, 3),
                  FormatMeanStd(base_delay.mean, base_delay.stddev, 0),
                  FormatDouble(base_delivery.mean, 3), std::to_string(reattached),
                  std::to_string(orphaned)});
    Json row = Json::Object();
    row["crash_rate_per_s"] = cases[c].crash_rate_per_s;
    row["sensing_bursts"] = cases[c].sensing_bursts;
    row["injected_fault_events"] =
        Total(addc, [](const Cell& cell) { return cell.faults.injected_total(); });
    row["addc_delay_ms"] = harness::ToJson(addc_delay);
    row["addc_delivery_ratio"] = harness::ToJson(addc_delivery);
    row["baseline_delay_ms"] = harness::ToJson(base_delay);
    row["baseline_delivery_ratio"] = harness::ToJson(base_delivery);
    row["reattached_total"] = reattached;
    row["orphaned_total"] = orphaned;
    row["cascade_escalations"] =
        Total(addc, [](const Cell& cell) { return cell.faults.cascade_escalations; });
    series.Push(std::move(row));
  }
  table.PrintMarkdown(std::cout);
  return series;
}

// A Fig. 6 panel: ADDC vs Coolest delay over one ScenarioConfig field.
struct Sweep {
  const char* title;
  const char* parameter;
  std::vector<double> values;
  // Sets the field of a copy of the base config to `value`; returns the
  // row label.
  std::string (*set)(core::ScenarioConfig& config, double value);
};

std::int32_t Scaled(std::int32_t count, double factor) {
  return static_cast<std::int32_t>(std::lround(count * factor));
}

struct Figure {
  const char* name;    // --figure value; writes BENCH_<name>.json
  const char* title;   // what the banner says is reproduced
  const char* claim;
  // A formula-only figure prints no scale line and is not simulated.
  bool formula_only = false;
  void (*prepare)(BenchOptions&) = nullptr;  // fixed changes to the options
  std::optional<Sweep> sweep = std::nullopt;  // a Fig. 6 panel, or else …
  Json (*run)(const BenchOptions&, RunProfiler&) = nullptr;  // … this
};

const Figure kFigures[] = {
    {.name = "fig4",
     .title = "Fig. 4",
     .claim = "PCR(α=3) > PCR(α=4); PCR non-decreasing in P_p, P_s, η_p, η_s",
     .formula_only = true,
     .run = Fig4},
    // The paper sweeps N to 2x its default; with the baseline's margined
    // sensing range that point passes the simulation-time ceiling (p_o is
    // exponential in N), so the sweep stops at 1.5x.
    {.name = "fig6a",
     .title = "Fig. 6(a) — delay vs number of PUs N",
     .claim = "delay grows quickly with N; ADDC ~2.7x lower than Coolest",
     .sweep = Sweep{"Fig. 6(a): delay vs N", "N", {0.25, 0.5, 0.75, 1.0, 1.5},
                    [](core::ScenarioConfig& c, double f) {
                      c.num_pus = Scaled(c.num_pus, f);
                      return std::to_string(c.num_pus);
                    }}},
    // The area stays fixed (the Fig. 6 caption pins it), and below the
    // default n the unit-disk graph is sub-critical for connectivity, so n
    // grows upward from the default.
    {.name = "fig6b",
     .title = "Fig. 6(b) — delay vs number of SUs n",
     .claim = "delay grows with n (slower than Fig. 6(a)); ADDC ~2.8x lower",
     .sweep = Sweep{"Fig. 6(b): delay vs n", "n", {1.0, 1.25, 1.5, 1.75, 2.0},
                    [](core::ScenarioConfig& c, double f) {
                      c.num_sus = Scaled(c.num_sus, f);
                      return std::to_string(c.num_sus);
                    }}},
    // p_t = 0.5 drives the baseline past the simulation-time ceiling
    // (waits grow as (1-p_t)^{-πR²N/A}), so the sweep tops out at 0.45.
    {.name = "fig6c",
     .title = "Fig. 6(c) — delay vs PU transmission probability p_t",
     .claim = "delay increases very fast with p_t; ADDC ~3.1x lower",
     .sweep = Sweep{"Fig. 6(c): delay vs p_t", "p_t", {0.1, 0.2, 0.3, 0.4, 0.45},
                    [](core::ScenarioConfig& c, double v) {
                      c.pu_activity = v;
                      return FormatDouble(v, 2);
                    }}},
    // At the default p_t = 0.3, α = 3 gives p_o ≈ 1e-6: waits of ~10^6
    // slots no simulation sits through (EXPERIMENTS.md). p_t = 0.15 keeps
    // the claimed shape and every point finishable.
    {.name = "fig6d",
     .title = "Fig. 6(d) — delay vs path-loss exponent α",
     .claim = "delay decreases with α; ADDC ~1.7x lower (run at p_t=0.15, see header)",
     .prepare = [](BenchOptions& o) { o.base.pu_activity = 0.15; },
     .sweep = Sweep{"Fig. 6(d): delay vs alpha", "alpha", {3.0, 3.25, 3.5, 3.75, 4.0},
                    [](core::ScenarioConfig& c, double v) {
                      c.alpha = v;
                      return FormatDouble(v, 2);
                    }}},
    // Swept upward from P_p = P_s = 10: below the other network's power
    // the PCR is U-shaped in P_p (c1 = P_p/max(P_p,P_s)), as in Fig. 4.
    {.name = "fig6e",
     .title = "Fig. 6(e) — delay vs PU transmission power P_p",
     .claim = "delay increases with P_p; ADDC ~2.6x lower",
     .sweep = Sweep{"Fig. 6(e): delay vs P_p", "P_p", {10.0, 15.0, 20.0, 25.0, 30.0},
                    [](core::ScenarioConfig& c, double v) {
                      c.pu_power = v;
                      return FormatDouble(v, 0);
                    }}},
    {.name = "fig6f",
     .title = "Fig. 6(f) — delay vs SU transmission power P_s",
     .claim = "delay increases with P_s; ADDC ~2.7x lower",
     .sweep = Sweep{"Fig. 6(f): delay vs P_s", "P_s", {10.0, 15.0, 20.0, 25.0, 30.0},
                    [](core::ScenarioConfig& c, double v) {
                      c.su_power = v;
                      return FormatDouble(v, 0);
                    }}},
    {.name = "ablation_fairness",
     .title = "Ablation A1 — fairness wait on/off",
     .claim = "(ours) line 12 trades little delay for per-flow fairness",
     .run = AblationFairness},
    // At the default p_t = 0.3 the corrected (larger) PCR drives p_o below
    // 1e-4: days of simulated time (EXPERIMENTS.md). Violations are the
    // point here, so the audit is dense.
    {.name = "ablation_c2",
     .title = "Ablation A2 — paper vs corrected c2 (run at p_t=0.1)",
     .claim = "(ours) the printed c2 under-protects PUs; the corrected one is "
              "violation-free but slower",
     .prepare =
         [](BenchOptions& o) {
           o.base.pu_activity = 0.1;
           o.base.audit_stride = 4;
         },
     .run = AblationC2},
    {.name = "ablation_coolest_metric",
     .title = "Ablation A3 — Coolest metric choice",
     .claim = "(ours) ADDC wins against all three Coolest metrics of [17]",
     .run = AblationCoolestMetric},
    {.name = "ablation_baseline_mac",
     .title = "Ablation A4 — decomposing the baseline's handicap",
     .claim = "(ours) the sensing range, not the routing tree, drives the Fig. 6 gap",
     .run = AblationBaselineMac},
    {.name = "ablation_sensing_errors",
     .title = "Ablation A5 — imperfect spectrum sensing",
     .claim = "(ours) missed detections harm PUs; false alarms cost delay",
     .prepare = [](BenchOptions& o) { o.base.audit_stride = 4; },
     .run = AblationSensingErrors},
    {.name = "ablation_pu_burstiness",
     .title = "Ablation A6 — PU activity burstiness at fixed duty cycle",
     .claim = "(ours) Lemma 7's p_o is burst-invariant; delay is not",
     .run = AblationPuBurstiness},
    // Continuous runs multiply the packet count by the rounds: below full
    // scale the instance shrinks to 0.1 (density preserved), and a lighter
    // PU load keeps the boundary search fast.
    {.name = "capacity_continuous",
     .title = "Capacity (Theorem 2) — continuous collection sustainability",
     .claim = "(ours) snapshot delays stay flat inside capacity, diverge outside",
     .prepare =
         [](BenchOptions& o) {
           if (!o.full_scale) {
             const std::uint64_t seed = o.base.seed;
             o.base = core::ScenarioConfig::ScaledDefaults(0.1);
             o.base.seed = seed;
           }
           o.base.pu_activity = 0.2;
         },
     .run = CapacityContinuous},
    // Fault load, not PU protection, is the topic: no audit.
    {.name = "resilience",
     .title = "Resilience — collection under churn and sensing bursts",
     .claim = "(ours) self-healing ADDC vs the conventional MAC on identical fault plans",
     .prepare = [](BenchOptions& o) { o.base.audit_stride = 0; },
     .run = Resilience},
};

// Runs one figure at `options` and writes its BENCH json; false on an I/O
// error.
bool RunFigure(const Figure& figure, BenchOptions options) {
  if (figure.prepare != nullptr) figure.prepare(options);
  const harness::WallTimer timer;
  RunProfiler profiler;
  if (figure.formula_only) {
    std::cout << "# Reproduction of " << figure.title << " — Cai et al., ICDCS 2012\n"
              << "# Paper claims: " << figure.claim << "\n\n";
  } else {
    harness::PrintBenchHeader(figure.title, figure.claim, options, std::cout);
  }
  if (!figure.sweep) {
    return harness::WriteBenchJson(figure.name, options, figure.run(options, profiler),
                                   timer.Seconds(), std::cout, &profiler);
  }
  harness::SweepSpec spec;
  spec.title = figure.sweep->title;
  spec.parameter_name = figure.sweep->parameter;
  spec.repetitions = options.repetitions;
  spec.jobs = options.jobs;
  spec.grain = options.grain;
  spec.profiler = &profiler;
  for (double value : figure.sweep->values) {
    core::ScenarioConfig config = options.base;
    std::string label = figure.sweep->set(config, value);
    spec.points.push_back({std::move(label), config});
  }
  const harness::SweepResult result = harness::RunSweep(spec);
  harness::RenderDelayTable(result, std::cout);
  return harness::WriteBenchJson(figure.name, options, {result}, timer.Seconds(),
                                 std::cout, &profiler);
}

}  // namespace

int main(int argc, char** argv) {
  harness::FlagParser flags(argc, argv);
  std::string usage =
      "crn_figures --figure=NAME|all [flags] — regenerates one figure of the\n"
      "paper's evaluation, or every one in turn, and writes BENCH_<NAME>.json.\n"
      "NAME is one of:\n";
  std::vector<std::string_view> names;
  for (const Figure& figure : kFigures) {
    std::string line = std::string("  ") + figure.name;
    line.resize(28, ' ');
    usage += line + figure.title + "\n";
    names.push_back(figure.name);
  }
  names.push_back("all");
  usage += "--json-out and --trace-out name one file, so they need one NAME.\n\n";
  const std::string name = flags.GetChoice("figure", "", names);
  const BenchOptions options = harness::ResolveBenchOptions(flags, usage);

  std::vector<const Figure*> chosen;
  for (const Figure& figure : kFigures) {
    if (name == "all" || name == figure.name) chosen.push_back(&figure);
  }
  if (chosen.size() > 1 && !(options.json_out.empty() && options.trace_out.empty())) {
    std::cerr << "error: --json-out and --trace-out name one file each; "
                 "pick one --figure to use them\n";
    return 2;
  }
  bool ok = true;
  for (const Figure* figure : chosen) {
    if (figure != chosen.front()) std::cout << "\n";
    ok = RunFigure(*figure, options) && ok;
  }
  return ok ? 0 : 1;
}
