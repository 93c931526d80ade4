// crn_bench — runs one workload of the repository benchmark per process.
//
//   crn_bench --workload=NAME [--seed=S] [--seconds=T] [--trace] [--quick]
//             [--out-dir=DIR]
//
// Untraced, it measures the workload's end-to-end metrics: scenario set-up
// time (median of 11 cold builds), the timed section repeated for --seconds
// (median wall time per simulated second) and the process's peak RSS. With
// --trace it runs the section once more with the metrics registry and the
// flight recorder attached and breaks its wall time down by layer. Either
// way it cross-checks the outputs (every repeat ≡ the first, traced ≡
// untraced, jobs=4 ≡ jobs=1, resumed ≡ uninterrupted ≡ sinks off) and writes
// everything to DIR/<workload>.<untraced|traced>.json, which run.py turns
// into the benchmark's result line. bench/suite/README.md describes the
// workloads and every metric.
//
// Each number is taken from outside the layers, around their public entry
// points (scenario builds, RunAddc/RunSweep, the geometry/graph/routing
// builders, PrimaryNetwork::ResampleSlot, WriteFileAtomic) or through the
// flight recorder's harness-installed wall probe; nothing here adds a span
// inside src/.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/collection.h"
#include "core/invariant_auditor.h"
#include "core/pcr.h"
#include "core/scenario.h"
#include "core/scenario_prefab.h"
#include "geom/deployment.h"
#include "geom/vec2.h"
#include "graph/cds_tree.h"
#include "graph/unit_disk_graph.h"
#include "harness/atomic_file.h"
#include "harness/flags.h"
#include "harness/json_writer.h"
#include "harness/obs_export.h"
#include "harness/parallel_runner.h"
#include "harness/profiler.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "pu/primary_network.h"
#include "routing/coolest.h"
#include "sim/flight_recorder.h"
#include "sim/time.h"

namespace {

using namespace crn;
using harness::Json;

constexpr std::uint64_t kDefaultSeed = 0x5EEDADDCULL;
// Cold scenario builds per process: at least kSetupSamples, and more until
// kSetupSeconds are spent, so millisecond-scale set-ups still get a steady
// median.
constexpr int kSetupSamples = 11;
constexpr double kSetupSeconds = 0.5;
constexpr int kReplaySamples = 5;   // geometry, routing and run-setup replays
constexpr std::int32_t kMetricsStride = 1024;  // addc_sim's default stride

// The MAC event kinds reported one by one; every other kind's fire wall is
// summed into mac.other_s.
constexpr const char* kMacKinds[] = {"slot_boundary", "backoff_expiry",
                                     "tx_end", "post_tx_wait"};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string out_dir = ".bench_build/out";
};

// ---------------------------------------------------------------------------
// Small utilities

// FNV-1a over 64-bit words: the result folds.
class Fold {
 public:
  void Mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void MixDouble(double value) { Mix(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

// Quartiles as Python's statistics.quantiles(values, n=4) computes them
// (its default "exclusive" method), so crn_bench, run.py and compare.py
// report the same numbers for the same samples.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Quartiles QuartilesOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  if (n == 0) return {};
  if (n == 1) return {values[0], values[0], values[0]};
  double cuts[3] = {0.0, 0.0, 0.0};
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * (n + 1) / 4, 1, n - 1);
    const std::int64_t delta = i * (n + 1) - j * 4;
    cuts[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  4.0;
  }
  return {cuts[0], cuts[1], cuts[2]};
}

double Median(std::vector<double> values) {
  return QuartilesOf(std::move(values)).median;
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

core::ScenarioConfig ScaledBy(const core::ScenarioConfig& base, double factor) {
  core::ScenarioConfig config = base;
  config.num_sus = static_cast<std::int32_t>(std::lround(base.num_sus * factor));
  config.num_pus = static_cast<std::int32_t>(std::lround(base.num_pus * factor));
  config.area_side = base.area_side * std::sqrt(factor);
  return config;
}

std::int64_t FileBytes(const std::string& path) {
  return static_cast<std::int64_t>(std::filesystem::file_size(path));
}

// Lands `contents` through the harness writer; a failed write is a failed
// operation, so it throws.
void WriteArtifact(const std::string& path, const std::string& contents) {
  std::string error;
  if (!harness::WriteFileAtomic(path, contents, &error)) {
    throw std::runtime_error(error);
  }
}

// Metrics in the order they are added, each with its unit. Exact counts
// stay integers so result files compare them exactly.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    std::ostringstream text;
    text << std::setprecision(6) << value;
    entries_.push_back({name, Json(value), unit, text.str()});
  }
  void AddCount(const std::string& name, std::int64_t value,
                const std::string& unit = "count") {
    entries_.push_back({name, Json(value), unit, std::to_string(value)});
  }

  [[nodiscard]] Json ToJson() const {
    Json out = Json::Object();
    for (const Entry& entry : entries_) {
      Json& metric = out[entry.name];
      metric["value"] = entry.value;
      metric["unit"] = entry.unit;
    }
    return out;
  }

  void Print(std::ostream& out) const {
    for (const Entry& entry : entries_) {
      out << "  " << std::left << std::setw(30) << entry.name << std::right
          << std::setw(16) << entry.text << " " << entry.unit << "\n";
    }
  }

 private:
  struct Entry {
    std::string name;
    Json value;
    std::string unit;
    std::string text;
  };
  std::vector<Entry> entries_;
};

// Correctness checks, aggregated by name. Each failing evaluation counts as
// one failed operation.
class Checks {
 public:
  void Expect(bool ok, const std::string& name, const std::string& detail = "") {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry& e) { return e.name == name; });
    if (it == entries_.end()) {
      entries_.push_back({name, 0, 0, ""});
      it = entries_.end() - 1;
    }
    if (ok) {
      ++it->passed;
      return;
    }
    ++it->failed;
    if (it->first_failure.empty()) it->first_failure = detail;
    std::cerr << "check failed: " << name << (detail.empty() ? "" : ": ")
              << detail << "\n";
  }

  [[nodiscard]] std::int64_t failed() const {
    std::int64_t total = 0;
    for (const Entry& entry : entries_) total += entry.failed;
    return total;
  }

  [[nodiscard]] Json ToJson() const {
    Json out = Json::Array();
    for (const Entry& entry : entries_) {
      Json check = Json::Object();
      check["name"] = entry.name;
      check["passed"] = entry.passed;
      check["failed"] = entry.failed;
      if (!entry.first_failure.empty()) check["detail"] = entry.first_failure;
      out.Push(std::move(check));
    }
    return out;
  }

 private:
  struct Entry {
    std::string name;
    std::int64_t passed;
    std::int64_t failed;
    std::string first_failure;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Scenarios and set-up

struct ScenarioRef {
  core::ScenarioConfig config;
  std::uint64_t rep = 0;
};

std::vector<ScenarioRef> DistinctGeometries(const std::vector<ScenarioRef>& all) {
  std::vector<ScenarioRef> distinct;
  std::set<core::PrefabKey> seen;
  for (const ScenarioRef& ref : all) {
    if (seen.insert(core::PrefabKey::Of(ref.config, ref.rep)).second) {
      distinct.push_back(ref);
    }
  }
  return distinct;
}

struct SetupTimes {
  std::vector<double> total_s;  // prefab builds + Scenario constructors
  std::vector<double> build_s;  // prefab builds alone
};

// Cold builds of every distinct geometry, then every scenario on top of its
// shared prefab — what a sweep pays before its first cell runs.
SetupTimes MeasureSetup(const std::vector<ScenarioRef>& scenarios, bool quick) {
  const std::vector<ScenarioRef> geometries = DistinctGeometries(scenarios);
  SetupTimes times;
  const harness::WallTimer budget;
  while (times.total_s.size() < (quick ? 3U : kSetupSamples) ||
         (!quick && budget.Seconds() < kSetupSeconds)) {
    std::map<core::PrefabKey, std::shared_ptr<const core::ScenarioPrefab>> prefabs;
    std::vector<core::Scenario> built;
    built.reserve(scenarios.size());
    const harness::WallTimer total;
    for (const ScenarioRef& ref : geometries) {
      prefabs[core::PrefabKey::Of(ref.config, ref.rep)] =
          core::ScenarioPrefab::Build(ref.config, ref.rep);
    }
    const double build_s = total.Seconds();
    for (const ScenarioRef& ref : scenarios) {
      built.emplace_back(ref.config, ref.rep,
                         prefabs.at(core::PrefabKey::Of(ref.config, ref.rep)));
    }
    times.total_s.push_back(total.Seconds());
    times.build_s.push_back(build_s);
  }
  return times;
}

// ---------------------------------------------------------------------------
// The per-layer ledger

struct KindWall {
  std::int64_t fires = 0;
  double wall_s = 0.0;
};

// One ADDC run traced from outside: wall time around RunAddc, per-kind
// callback wall from the flight recorder's probe, exact counters from the
// metrics registry, and a replay of the run's PU resampling.
struct TracedCell {
  core::CollectionResult result;
  double wall_s = 0.0;
  std::map<std::string, KindWall> kinds;           // by event-kind name
  std::map<std::string, std::int64_t> counters;    // histograms: their sum
  std::int64_t flight_records = 0;
  double pu_resample_s = 0.0;
  bool pu_replay_matches = false;
};

// Runs `options` (plus `recorder`, probed by `profiler`) on `scenario`. When
// `options.metrics` is null a private registry is attached.
TracedCell TraceAddcCell(const core::Scenario& scenario, core::RunOptions options,
                         sim::FlightRecorder& recorder,
                         harness::RunProfiler& profiler, const std::string& label) {
  obs::MetricsRegistry own_metrics;
  if (options.metrics == nullptr) {
    options.metrics = &own_metrics;
    options.metrics_series_stride = 0;
  }
  harness::AttachFlightRecorderProbe(profiler, recorder);
  options.flight_recorder = &recorder;

  TracedCell cell;
  const double begin = profiler.Now();
  cell.result = core::RunAddc(scenario, options);
  const double end = profiler.Now();
  profiler.RecordSpan("addc", label, begin, end, 0);
  cell.wall_s = end - begin;
  harness::FoldFlightRecorderIntoProfiler(recorder, profiler);

  for (std::size_t k = 0; k < recorder.counters().size(); ++k) {
    const auto id = static_cast<std::uint16_t>(k);
    const std::int64_t fires = recorder.counters()[k].fires;
    const double wall = recorder.fire_wall_seconds(id);
    if (fires == 0 && wall <= 0.0) continue;
    KindWall& kind = cell.kinds[std::string(recorder.KindName(id))];
    kind.fires += fires;
    kind.wall_s += wall;
  }
  cell.flight_records = static_cast<std::int64_t>(recorder.total_recorded());
  for (const obs::SnapshotEntry& entry : options.metrics->Capture(0).entries) {
    if (entry.kind == obs::MetricKind::kGauge) continue;  // per-node state
    cell.counters[entry.key] =
        entry.kind == obs::MetricKind::kHistogram ? entry.sum : entry.value;
  }

  // The PU share of mac.slot_boundary: ResampleSlot replayed on the run's
  // own activity stream, once per slot the run sampled. Equal activation
  // totals prove the replay drew the run's exact sequence.
  const std::int64_t slots = cell.counters["mac.slots_total"];
  pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
  Rng activity = scenario.MakeRunRng().Stream("mac").Stream("pu-activity");
  const double replay_begin = profiler.Now();
  for (std::int64_t slot = 0; slot < slots; ++slot) primary.ResampleSlot(activity);
  const double replay_end = profiler.Now();
  profiler.RecordSpan("pu.replay", label, replay_begin, replay_end, 0);
  cell.pu_resample_s = replay_end - replay_begin;
  cell.pu_replay_matches =
      primary.activations_total() == cell.counters["pu.active_per_slot"];
  return cell;
}

struct GeometryReplay {
  double deploy_s = 0.0;
  double udg_s = 0.0;
  double cds_s = 0.0;
  std::int64_t attempts = 0;
  std::int64_t edges = 0;
  bool digests_match = true;
};

// ScenarioPrefab::Build's stages replayed through the same public calls,
// each timed; the assembled prefab must digest like Build's.
GeometryReplay ReplayGeometry(const ScenarioRef& ref) {
  const core::ScenarioConfig& config = ref.config;
  core::ScenarioPrefab prefab;
  prefab.key = core::PrefabKey::Of(config, ref.rep);
  prefab.area = geom::Aabb::Square(config.area_side);
  const Rng root(config.seed);
  Rng su_rng = root.Stream("su-deployment", ref.rep);
  Rng pu_rng = root.Stream("pu-deployment", ref.rep);

  GeometryReplay replay;
  harness::WallTimer stage;
  for (;;) {
    ++replay.attempts;
    prefab.su_positions.assign(1, prefab.area.Center());
    const std::vector<geom::Vec2> sus =
        geom::UniformDeployment(config.num_sus, prefab.area, su_rng);
    prefab.su_positions.insert(prefab.su_positions.end(), sus.begin(), sus.end());
    if (geom::IsUnitDiskConnected(prefab.su_positions, prefab.area,
                                  config.su_radius)) {
      break;
    }
    if (replay.attempts >= config.max_deployment_attempts) {
      throw std::runtime_error("geometry replay: no connected deployment");
    }
  }
  replay.deploy_s = stage.Seconds();
  stage = harness::WallTimer();
  prefab.graph = std::make_unique<const graph::UnitDiskGraph>(
      prefab.su_positions, prefab.area, config.su_radius);
  replay.udg_s = stage.Seconds();
  stage = harness::WallTimer();
  prefab.tree = std::make_unique<const graph::CdsTree>(*prefab.graph, 0);
  replay.cds_s = stage.Seconds();
  stage = harness::WallTimer();
  prefab.pu_positions =
      geom::UniformDeployment(config.num_pus, prefab.area, pu_rng);
  replay.deploy_s += stage.Seconds();
  replay.edges = prefab.graph->edge_count();
  replay.digests_match =
      prefab.GeometryDigest() ==
      core::ScenarioPrefab::Build(config, ref.rep)->GeometryDigest();
  return replay;
}

// Median per stage over kReplaySamples replays of every distinct geometry.
GeometryReplay ReplayGeometries(const std::vector<ScenarioRef>& scenarios) {
  const std::vector<ScenarioRef> geometries = DistinctGeometries(scenarios);
  std::vector<double> deploy, udg, cds;
  GeometryReplay total;
  for (int sample = 0; sample < kReplaySamples; ++sample) {
    GeometryReplay sum;
    for (const ScenarioRef& ref : geometries) {
      const GeometryReplay one = ReplayGeometry(ref);
      sum.deploy_s += one.deploy_s;
      sum.udg_s += one.udg_s;
      sum.cds_s += one.cds_s;
      sum.attempts += one.attempts;
      sum.edges += one.edges;
      sum.digests_match = sum.digests_match && one.digests_match;
    }
    deploy.push_back(sum.deploy_s);
    udg.push_back(sum.udg_s);
    cds.push_back(sum.cds_s);
    total.attempts = sum.attempts;
    total.edges = sum.edges;
    total.digests_match = total.digests_match && sum.digests_match;
  }
  total.deploy_s = Median(deploy);
  total.udg_s = Median(udg);
  total.cds_s = Median(cds);
  return total;
}

// NodeTemperatures + CoolestNextHops on each scenario's Coolest inputs (the
// sensing range RunCoolest derives), median of kReplaySamples passes.
double ReplayCoolestRouting(const std::vector<ScenarioRef>& refs) {
  std::vector<core::Scenario> scenarios;
  std::vector<double> ranges;
  for (const ScenarioRef& ref : refs) {
    scenarios.emplace_back(ref.config, ref.rep);
    const core::ScenarioConfig& c = ref.config;
    ranges.push_back(c.coolest_sensing_factor > 0.0
                         ? c.coolest_sensing_factor * c.su_radius
                         : core::ProperCarrierSensingRange(
                               c.MakePcrParams(), c.c2_variant,
                               c.baseline_interference_margin));
  }
  std::vector<double> samples;
  for (int sample = 0; sample < kReplaySamples; ++sample) {
    double total = 0.0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const core::Scenario& scenario = scenarios[i];
      const pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
      const harness::WallTimer timer;
      const std::vector<double> temperatures = routing::NodeTemperatures(
          scenario.su_positions(), primary, ranges[i]);
      const std::vector<graph::NodeId> next_hop = routing::CoolestNextHops(
          scenario.secondary_graph(), temperatures, scenario.sink(),
          routing::TemperatureMetric::kAccumulated);
      total += timer.Seconds();
      if (next_hop.size() != scenario.su_positions().size()) {
        throw std::runtime_error("routing replay: next-hop table size");
      }
    }
    samples.push_back(total);
  }
  return Median(samples);
}

// RunAddc with a zero simulated horizon: the run stops at its first slot
// boundary, so this is run construction (MAC, PU network, interference
// field, scheduler) alone.
double MeasureRunSetup(const ScenarioRef& ref) {
  core::ScenarioConfig config = ref.config;
  config.max_sim_time = 0;
  const core::Scenario scenario(config, ref.rep);
  std::vector<double> samples;
  for (int sample = 0; sample < kReplaySamples; ++sample) {
    const harness::WallTimer timer;
    const core::CollectionResult result = core::RunAddc(scenario);
    samples.push_back(timer.Seconds());
    if (result.mac.delivered != 0) {
      throw std::runtime_error("run-setup replay simulated past t=0");
    }
  }
  return Median(samples);
}

// Everything one traced pass measures. Every field is reported on every
// workload, so each traced result carries the same metric names.
struct Ledger {
  double prefab_build_s = 0.0;
  std::int64_t prefab_hits = 0;
  std::int64_t prefab_misses = 0;
  std::int64_t prefab_bytes = 0;
  double run_setup_s = 0.0;
  GeometryReplay geometry;
  double coolest_s = 0.0;
  std::vector<TracedCell> cells;  // traced ADDC runs
  std::int64_t ckpt_saves = 0;
  std::int64_t ckpt_bytes = 0;
  double sinks_s = 0.0;
  std::int64_t span_count = 0;
  std::int64_t series_points = 0;
  std::vector<double> cell_s;     // harness cell spans
  double reduce_s = 0.0;
  double idle_frac = 0.0;
  std::int64_t chunks = 0;
  std::int64_t steals = 0;
  double write_s = 0.0;
  std::int64_t write_bytes = 0;
  // trace.overhead_x: the traced runs' wall over the same runs' untraced wall.
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
};

// The harness layer's share of one traced RunSweep.
void AddHarnessLedger(const harness::SweepResult& result,
                      const harness::RunProfiler& profiler, Ledger& ledger) {
  double busy = 0.0;
  for (const harness::RunProfiler::Span& span : profiler.spans()) {
    const double duration = span.end_s - span.begin_s;
    if (span.phase == "cells") {
      ledger.cell_s.push_back(duration);
      busy += duration;
    } else if (span.phase == "reduce") {
      ledger.reduce_s += duration;
    }
  }
  ledger.idle_frac =
      1.0 - busy / (static_cast<double>(result.pool.workers) * result.wall_seconds);
  ledger.chunks += result.pool.chunks;
  ledger.steals += result.pool.steals;
  for (const auto& [key, value] : result.metric_values) {
    if (key == "prefab.hits") ledger.prefab_hits += value;
    if (key == "prefab.misses") ledger.prefab_misses += value;
    if (key == "prefab.bytes") ledger.prefab_bytes += value;
  }
}

void EmitLedger(const Ledger& ledger, Checks& checks, MetricSet& out) {
  out.Add("core.prefab_build_s", ledger.prefab_build_s, "s");
  out.AddCount("core.prefab_hits", ledger.prefab_hits);
  out.AddCount("core.prefab_misses", ledger.prefab_misses);
  out.AddCount("core.prefab_bytes", ledger.prefab_bytes, "B");
  out.Add("core.run_setup_s", ledger.run_setup_s, "s");
  out.Add("geom.deploy_s", ledger.geometry.deploy_s, "s");
  out.AddCount("geom.deploy_attempts", ledger.geometry.attempts);
  out.Add("graph.udg_s", ledger.geometry.udg_s, "s");
  out.Add("graph.cds_s", ledger.geometry.cds_s, "s");
  out.AddCount("graph.udg_edges", ledger.geometry.edges);
  out.Add("routing.coolest_s", ledger.coolest_s, "s");

  std::map<std::string, KindWall> kinds;
  std::map<std::string, std::int64_t> counters;
  double run_wall = 0.0;
  double fire_wall = 0.0;
  double pu_resample_s = 0.0;
  std::int64_t flight_records = 0;
  for (const TracedCell& cell : ledger.cells) {
    run_wall += cell.wall_s;
    double cell_fire_wall = 0.0;
    for (const auto& [name, kind] : cell.kinds) {
      kinds[name].fires += kind.fires;
      kinds[name].wall_s += kind.wall_s;
      cell_fire_wall += kind.wall_s;
    }
    fire_wall += cell_fire_wall;
    for (const auto& [key, value] : cell.counters) counters[key] += value;
    pu_resample_s += cell.pu_resample_s;
    flight_records += cell.flight_records;
    // sim.self_s is the remainder, so mac.*_s + sim.self_s closes on the
    // RunAddc wall by construction; what can fail is the nesting.
    checks.Expect(cell_fire_wall <= cell.wall_s,
                  "callback wall nests inside its RunAddc wall",
                  std::to_string(cell_fire_wall) + " > " +
                      std::to_string(cell.wall_s));
    checks.Expect(cell.pu_replay_matches,
                  "PU replay reproduces the run's activations");
  }

  double listed_wall = 0.0;
  for (const char* kind : kMacKinds) {
    const KindWall& k = kinds["mac." + std::string(kind)];
    out.Add("mac." + std::string(kind) + "_s", k.wall_s, "s");
    out.AddCount("mac." + std::string(kind) + "_fires", k.fires);
    listed_wall += k.wall_s;
  }
  out.AddCount("mac.pu_audit_fires", kinds["mac.pu_audit"].fires);
  out.Add("mac.other_s", fire_wall - listed_wall, "s");
  std::int64_t attempts = 0;
  for (const auto& [key, value] : counters) {
    if (key.rfind("mac.tx_attempts_total{", 0) == 0) attempts += value;
  }
  const std::int64_t successes = counters["mac.tx_attempts_total{outcome=success}"];
  out.AddCount("mac.tx_attempts", attempts);
  out.AddCount("mac.delivered", counters["mac.packets_delivered_total"]);
  out.AddCount("mac.slot_defers", counters["mac.slot_defers_total"]);
  out.AddCount("mac.backoff_restarts", counters["mac.backoff_restarts_total"]);
  out.Add("mac.tx_success_ratio",
          attempts > 0 ? static_cast<double>(successes) / static_cast<double>(attempts)
                       : 0.0,
          "ratio");

  const std::int64_t slots = counters["mac.slots_total"];
  out.Add("pu.resample_s", pu_resample_s, "s");
  out.Add("pu.ns_per_slot",
          slots > 0 ? pu_resample_s * 1e9 / static_cast<double>(slots) : 0.0, "ns");
  out.AddCount("pu.slots", slots);

  const auto perf = [&counters](const std::string& name) {
    return counters[name + "{engine=cached}"];
  };
  out.AddCount("spectrum.sir_evaluations", perf("perf.sir_evaluations"));
  out.AddCount("spectrum.sir_terms", perf("perf.sir_terms_evaluated"));
  out.AddCount("spectrum.gain_cache_hits", perf("perf.gain_cache_hits"));
  out.AddCount("spectrum.gain_cache_misses", perf("perf.gain_cache_misses"));
  out.AddCount("spectrum.bound_skips", perf("perf.bound_skips"));
  out.AddCount("spectrum.reeval_skipped", perf("perf.reeval_skipped"));
  out.AddCount("spectrum.su_resumes", perf("perf.su_resumes"));
  const std::int64_t evaluations = perf("perf.sir_evaluations");
  out.Add("spectrum.terms_per_eval",
          evaluations > 0 ? static_cast<double>(perf("perf.sir_terms_evaluated")) /
                                static_cast<double>(evaluations)
                          : 0.0,
          "ratio");

  const auto sched = [&counters](const std::string& name) {
    return counters[name + "{scheduler=calendar}"];
  };
  const std::int64_t events = sched("perf.sched_pops");
  const double self_s = run_wall - fire_wall;
  out.AddCount("sim.events", events);
  out.AddCount("sim.pushes", sched("perf.sched_pushes"));
  out.AddCount("sim.cancels", sched("perf.sched_cancels"));
  out.AddCount("sim.stale_skips", sched("perf.sched_stale_skips"));
  out.Add("sim.self_s", self_s, "s");
  out.Add("sim.ns_per_event",
          events > 0 ? self_s * 1e9 / static_cast<double>(events) : 0.0, "ns");
  out.AddCount("sim.ckpt_saves", ledger.ckpt_saves);
  out.AddCount("sim.ckpt_bytes", ledger.ckpt_bytes, "B");

  out.Add("obs.sinks_s", ledger.sinks_s, "s");
  out.AddCount("obs.span_count", ledger.span_count);
  out.AddCount("obs.flight_records", flight_records);
  out.AddCount("obs.series_points", ledger.series_points);

  out.Add("harness.write_s", ledger.write_s, "s");
  out.AddCount("harness.write_bytes", ledger.write_bytes, "B");
  out.AddCount("harness.cells", static_cast<std::int64_t>(ledger.cell_s.size()));
  out.Add("harness.cell_ms_p50", Percentile(ledger.cell_s, 0.50) * 1e3, "ms");
  out.Add("harness.cell_ms_p99", Percentile(ledger.cell_s, 0.99) * 1e3, "ms");
  out.Add("harness.reduce_s", ledger.reduce_s, "s");
  out.Add("harness.idle_frac", ledger.idle_frac, "ratio");
  out.AddCount("harness.chunks", ledger.chunks);
  out.AddCount("harness.steals", ledger.steals);

  out.Add("trace.overhead_x", ledger.traced_wall_s / ledger.untraced_wall_s, "x");
}

// ---------------------------------------------------------------------------
// Workloads

// One timed repeat of a workload's measured section.
struct Repeat {
  double wall_s = 0.0;
  double sim_s = 0.0;  // simulated seconds of the collections it reports
  std::uint64_t fold = 0;
  std::map<std::string, std::uint64_t> digests;
};

// Shared state of one crn_bench invocation.
struct RunRecord {
  Checks checks;
  std::int64_t attempted = 0;   // cells, runs and restores started
  std::int64_t exceptions = 0;
  std::map<std::string, std::uint64_t> digests;
  Json detail = Json::Object();
  harness::RunProfiler profiler;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // The (config, repetition) scenarios the workload simulates.
  [[nodiscard]] virtual std::vector<ScenarioRef> Scenarios() const = 0;
  // Inputs of the Coolest routing replay (routing.coolest_s).
  [[nodiscard]] virtual std::vector<ScenarioRef> CoolestInputs() const = 0;
  // The timed section users pay for.
  virtual Repeat RunRepeat(RunRecord& record) = 0;
  // Cross-checks that need extra, untimed runs.
  virtual void Verify(const Repeat& reference, RunRecord& record) = 0;
  // The traced pass (profiler spans go to record.profiler).
  virtual void Trace(const Repeat& reference, double untraced_wall_s,
                     RunRecord& record, Ledger& ledger) = 0;
};

// Delay means bit for bit, completion and violation counts.
std::uint64_t SweepFold(const harness::SweepResult& result) {
  Fold fold;
  for (const harness::ComparisonSummary& s : result.summaries) {
    fold.MixDouble(s.addc_delay_ms.mean);
    fold.MixDouble(s.coolest_delay_ms.mean);
    fold.Mix(static_cast<std::uint64_t>(s.addc_completed));
    fold.Mix(static_cast<std::uint64_t>(s.coolest_completed));
    fold.Mix(static_cast<std::uint64_t>(s.su_caused_violations));
  }
  return fold.value();
}

double SweepSimSeconds(const harness::SweepResult& result) {
  double ms = 0.0;
  for (const harness::ComparisonSummary& s : result.summaries) {
    ms += result.repetitions * (s.addc_delay_ms.mean + s.coolest_delay_ms.mean);
  }
  return ms / 1e3;
}

// fig6c, horizon_n10k and sweep_n2000: one RunSweep per repeat. The traced
// pass reruns it with the metrics registry, the profiler and — when
// `traced_digests` — the invariant auditor's trace digests.
class SweepWorkload : public Workload {
 public:
  SweepWorkload(harness::SweepSpec spec, bool traced_digests)
      : spec_(std::move(spec)), traced_digests_(traced_digests) {}

  [[nodiscard]] std::vector<ScenarioRef> Scenarios() const override {
    std::vector<ScenarioRef> refs;
    for (const harness::SweepPoint& point : spec_.points) {
      for (std::int32_t rep = 0; rep < spec_.repetitions; ++rep) {
        refs.push_back({point.config, static_cast<std::uint64_t>(rep)});
      }
    }
    return refs;
  }

  [[nodiscard]] std::vector<ScenarioRef> CoolestInputs() const override {
    std::vector<ScenarioRef> refs = Scenarios();
    if (spec_.addc_only) refs.resize(1);
    return refs;
  }

  Repeat RunRepeat(RunRecord& record) override {
    record.attempted += CellCount();
    const harness::WallTimer timer;
    const harness::SweepResult result = harness::RunSweep(spec_);
    Repeat repeat;
    repeat.wall_s = timer.Seconds();
    repeat.sim_s = SweepSimSeconds(result);
    repeat.fold = SweepFold(result);
    return repeat;
  }

  void Verify(const Repeat& reference, RunRecord& record) override {
    const std::int32_t jobs = harness::ResolveJobs(spec_.jobs);
    if (jobs <= 1) return;
    harness::SweepSpec serial = spec_;
    serial.jobs = 1;
    record.attempted += CellCount();
    record.checks.Expect(SweepFold(harness::RunSweep(serial)) == reference.fold,
                         "sweep at jobs=" + std::to_string(jobs) +
                             " == jobs=1");
  }

  void Trace(const Repeat& reference, double untraced_wall_s, RunRecord& record,
             Ledger& ledger) override {
    harness::RunProfiler& profiler = record.profiler;
    obs::MetricsRegistry registry;
    harness::SweepSpec traced = spec_;
    traced.collect_digests = traced_digests_;
    traced.metrics = &registry;
    traced.profiler = &profiler;
    record.attempted += CellCount();
    const double begin = profiler.Now();
    const harness::SweepResult result = harness::RunSweep(traced);
    ledger.sinks_s = profiler.Now() - begin - untraced_wall_s;
    record.checks.Expect(SweepFold(result) == reference.fold,
                         "traced sweep == untraced sweep");
    if (traced_digests_) record.digests["trace_digest"] = result.trace_digest;
    AddHarnessLedger(result, profiler, ledger);

    // Every ADDC cell again, alone: bare, then with the registry and the
    // probed flight recorder.
    core::ScenarioPrefabCache prefabs;
    for (std::size_t p = 0; p < spec_.points.size(); ++p) {
      const core::ScenarioConfig& config = spec_.points[p].config;
      std::vector<double> delays;
      std::int32_t completed = 0;
      for (std::int32_t rep = 0; rep < spec_.repetitions; ++rep) {
        const auto r = static_cast<std::uint64_t>(rep);
        const core::Scenario scenario(config, r, prefabs.Get(config, r));
        record.attempted += 2;
        const double bare_begin = profiler.Now();
        core::RunAddc(scenario);
        ledger.untraced_wall_s += profiler.Now() - bare_begin;
        sim::FlightRecorder recorder;
        ledger.cells.push_back(TraceAddcCell(
            scenario, {}, recorder, profiler,
            "point=" + spec_.points[p].label + " rep=" + std::to_string(rep)));
        ledger.traced_wall_s += ledger.cells.back().wall_s;
        delays.push_back(ledger.cells.back().result.delay_ms);
        completed += ledger.cells.back().result.completed ? 1 : 0;
      }
      const harness::ComparisonSummary& summary = result.summaries[p];
      record.checks.Expect(
          core::Summarize(delays).mean == summary.addc_delay_ms.mean &&
              completed == summary.addc_completed,
          "replayed ADDC cells == sweep cells", "point " + spec_.points[p].label);
    }
  }

 private:
  [[nodiscard]] std::int64_t CellCount() const {
    return static_cast<std::int64_t>(spec_.points.size()) * spec_.repetitions *
           (spec_.addc_only ? 1 : 2);
  }

  harness::SweepSpec spec_;
  bool traced_digests_;
};

// observed_n1600: ADDC collections on `deployments` repetitions, each run
// three ways per repeat — (a) with every debugging sink attached and its
// artifacts written, (b) with checkpoints every `checkpoint_every` events,
// (c) restored from (b)'s middle checkpoint and run to the end.
class ObservedWorkload : public Workload {
 public:
  ObservedWorkload(const core::ScenarioConfig& config, std::int32_t deployments,
                   std::int64_t checkpoint_every, std::string dir)
      : config_(config), checkpoint_every_(checkpoint_every), dir_(std::move(dir)) {
    for (std::int32_t rep = 0; rep < deployments; ++rep) {
      const auto r = static_cast<std::uint64_t>(rep);
      scenarios_.emplace_back(config_, r, prefabs_.Get(config_, r));
    }
  }

  [[nodiscard]] std::vector<ScenarioRef> Scenarios() const override {
    std::vector<ScenarioRef> refs;
    for (const core::Scenario& scenario : scenarios_) {
      refs.push_back({config_, scenario.repetition()});
    }
    return refs;
  }
  [[nodiscard]] std::vector<ScenarioRef> CoolestInputs() const override {
    return {Scenarios().front()};
  }

  Repeat RunRepeat(RunRecord& record) override {
    Repeat repeat;
    Outcome outcome;
    const harness::WallTimer timer;
    for (const core::Scenario& scenario : scenarios_) {
      record.attempted += 3;
      Sinks sinks;
      const core::CollectionResult all = core::RunAddc(scenario, sinks.All());
      WriteSinkArtifacts(all, sinks);
      const Checkpointed checkpointed =
          RunCheckpointed(scenario, Events(sinks.metrics));
      outcome.Add(all, sinks, checkpointed.run, RunRestored(scenario), record);
    }
    repeat.wall_s = timer.Seconds();
    outcome.Finish(repeat);
    return repeat;
  }

  void Verify(const Repeat& reference, RunRecord& record) override {
    Fold digests;
    for (const core::Scenario& scenario : scenarios_) {
      ++record.attempted;
      core::AuditReport audit;
      core::RunOptions options;
      options.audit_report = &audit;
      core::RunAddc(scenario, options);
      digests.Mix(audit.trace_digest);
    }
    record.checks.Expect(digests.value() == reference.digests.at("trace_digest"),
                         "sinks-off trace digests == all-sinks trace digests");
  }

  void Trace(const Repeat& reference, double untraced_wall_s, RunRecord& record,
             Ledger& ledger) override {
    harness::RunProfiler& profiler = record.profiler;

    // The bare runs through the harness, then one sink at a time.
    harness::SweepSpec bare;
    bare.points.push_back({"observed", config_});
    bare.repetitions = static_cast<std::int32_t>(scenarios_.size());
    bare.addc_only = true;
    bare.profiler = &profiler;
    record.attempted += bare.repetitions;
    AddHarnessLedger(harness::RunSweep(bare), profiler, ledger);
    const auto timed = [&](const std::string& name, const auto& options_of) {
      double total = 0.0;
      for (const core::Scenario& scenario : scenarios_) {
        Sinks sinks;
        const core::RunOptions options = options_of(sinks);
        ++record.attempted;
        const double begin = profiler.Now();
        core::RunAddc(scenario, options);
        const double end = profiler.Now();
        profiler.RecordSpan("sink", name, begin, end, 0);
        total += end - begin;
      }
      return total;
    };
    const double bare_s = timed("none", [](Sinks&) { return core::RunOptions{}; });
    Json breakdown = Json::Object();
    breakdown["obs.metrics_s"] = timed("metrics", [](Sinks& s) {
      core::RunOptions options;
      options.metrics = &s.metrics;
      options.metrics_series_stride = kMetricsStride;
      return options;
    }) - bare_s;
    breakdown["obs.spans_s"] = timed("spans", [](Sinks& s) {
      core::RunOptions options;
      options.spans = &s.spans;
      return options;
    }) - bare_s;
    breakdown["obs.flight_s"] = timed("flight", [](Sinks& s) {
      core::RunOptions options;
      options.flight_recorder = &s.flight;
      return options;
    }) - bare_s;
    breakdown["obs.audit_s"] = timed("audit", [](Sinks& s) {
      core::RunOptions options;
      options.audit_report = &s.audit;
      return options;
    }) - bare_s;
    ledger.sinks_s = timed("all", [](Sinks& s) { return s.All(); }) - bare_s;
    const double plain_s =
        timed("audit+metrics", [](Sinks& s) { return s.Checkpointable(); });

    // The traced repeat: (a) with the recorder probed, (b), (c).
    Repeat traced;
    Outcome outcome;
    double checkpointed_s = 0.0;
    double restored_s = 0.0;
    const double begin = profiler.Now();
    for (const core::Scenario& scenario : scenarios_) {
      const std::string rep = " rep=" + std::to_string(scenario.repetition());
      record.attempted += 3;
      Sinks sinks;
      ledger.cells.push_back(TraceAddcCell(scenario, sinks.All(), sinks.flight,
                                           profiler, "(a) all sinks" + rep));
      const core::CollectionResult& all = ledger.cells.back().result;
      double mark = profiler.Now();
      ledger.write_bytes += WriteSinkArtifacts(all, sinks);
      ledger.write_s += profiler.Now() - mark;
      profiler.RecordSpan("harness.write", "sink artifacts" + rep, mark,
                          profiler.Now(), 0);
      mark = profiler.Now();
      const Checkpointed checkpointed =
          RunCheckpointed(scenario, Events(sinks.metrics));
      checkpointed_s += profiler.Now() - mark;
      profiler.RecordSpan("sim.checkpoint", "(b) checkpointed" + rep, mark,
                          profiler.Now(), 0);
      mark = profiler.Now();
      const Run restored = RunRestored(scenario);
      restored_s += profiler.Now() - mark;
      profiler.RecordSpan("sim.restore", "(c) restored" + rep, mark,
                          profiler.Now(), 0);
      outcome.Add(all, sinks, checkpointed.run, restored, record);
      ledger.ckpt_saves += checkpointed.saves;
      ledger.ckpt_bytes += checkpointed.bytes;
      ledger.span_count += static_cast<std::int64_t>(
          sinks.spans.packets().size() + sinks.spans.attempts().size() +
          sinks.spans.freezes().size());
      ledger.series_points +=
          static_cast<std::int64_t>(sinks.metrics.series().size());
    }
    ledger.traced_wall_s = profiler.Now() - begin;
    ledger.untraced_wall_s = untraced_wall_s;
    outcome.Finish(traced);
    record.checks.Expect(traced.fold == reference.fold,
                         "traced repeat == untraced repeat");
    const core::ScenarioPrefabCache::Stats stats = prefabs_.stats();
    ledger.prefab_hits = stats.hits;
    ledger.prefab_misses = stats.misses;
    ledger.prefab_bytes = stats.bytes;

    breakdown["obs.sinks_s"] = ledger.sinks_s;
    breakdown["bare_runs_s"] = bare_s;
    breakdown["sim.ckpt_save_s"] = checkpointed_s - plain_s;
    breakdown["sim.ckpt_restore_s"] = restored_s;
    breakdown["checkpoint_mib"] =
        ledger.ckpt_saves > 0 ? static_cast<double>(ledger.ckpt_bytes) /
                                    static_cast<double>(ledger.ckpt_saves) /
                                    1048576.0
                              : 0.0;
    record.detail["observed_breakdown"] = std::move(breakdown);
  }

 private:
  // The debugging sinks of one run. (b) and (c) carry only the auditor and
  // the registry: span tracing is not checkpointable.
  struct Sinks {
    obs::MetricsRegistry metrics;
    obs::PacketSpanTracer spans;
    sim::FlightRecorder flight;
    core::AuditReport audit;

    core::RunOptions Checkpointable() {
      core::RunOptions options;
      options.audit_report = &audit;
      options.metrics = &metrics;
      options.metrics_series_stride = kMetricsStride;
      return options;
    }
    core::RunOptions All() {
      core::RunOptions options = Checkpointable();
      options.spans = &spans;
      options.flight_recorder = &flight;
      return options;
    }
  };
  struct Run {
    core::CollectionResult result;
    std::uint64_t trace_digest = 0;
    std::uint64_t metrics_digest = 0;
  };
  struct Checkpointed {
    Run run;
    std::int64_t saves = 0;
    std::int64_t bytes = 0;
  };

  // Result fold and cross-checks over the deployments of one repeat:
  // (a) ≡ (b) ≡ (c) on every deployment.
  class Outcome {
   public:
    void Add(const core::CollectionResult& all, const Sinks& sinks,
             const Run& checkpointed, const Run& restored, RunRecord& record) {
      const std::uint64_t metrics_digest = sinks.metrics.Digest();
      fold_.MixDouble(all.delay_ms);
      fold_.Mix(all.completed ? 1U : 0U);
      fold_.Mix(static_cast<std::uint64_t>(all.mac.su_caused_violations));
      fold_.Mix(static_cast<std::uint64_t>(sinks.audit.total_violations()));
      fold_.Mix(sinks.audit.trace_digest);
      fold_.Mix(metrics_digest);
      trace_digests_.Mix(sinks.audit.trace_digest);
      metrics_digests_.Mix(metrics_digest);
      checkpointed_digests_.Mix(checkpointed.metrics_digest);
      sim_s_ += all.delay_ms / 1e3;
      record.checks.Expect(checkpointed.trace_digest == sinks.audit.trace_digest,
                           "checkpointed trace digest == all-sinks trace digest");
      record.checks.Expect(restored.trace_digest == sinks.audit.trace_digest &&
                               restored.result.delay_ms == all.delay_ms,
                           "resumed run == uninterrupted run");
      record.checks.Expect(
          restored.metrics_digest == checkpointed.metrics_digest,
          "resumed metrics digest == checkpointed metrics digest");
    }

    void Finish(Repeat& repeat) const {
      repeat.fold = fold_.value();
      repeat.sim_s = sim_s_;
      repeat.digests["trace_digest"] = trace_digests_.value();
      repeat.digests["metrics_digest"] = metrics_digests_.value();
      repeat.digests["checkpointed_metrics_digest"] = checkpointed_digests_.value();
    }

   private:
    Fold fold_;
    Fold trace_digests_;
    Fold metrics_digests_;
    Fold checkpointed_digests_;
    double sim_s_ = 0.0;
  };

  static std::int64_t Events(const obs::MetricsRegistry& metrics) {
    for (const obs::SnapshotEntry& entry : metrics.Capture(0).entries) {
      if (entry.key == "perf.sched_pops{scheduler=calendar}") return entry.value;
    }
    throw std::runtime_error("metrics registry has no perf.sched_pops");
  }

  [[nodiscard]] std::string MiddlePath() const { return dir_ + "/checkpoint_mid.bin"; }

  // The sink artifacts addc_sim writes, through the harness writers.
  std::int64_t WriteSinkArtifacts(const core::CollectionResult& result,
                                  const Sinks& sinks) const {
    std::ostringstream log;
    const std::string metrics_path = dir_ + "/metrics.json";
    if (!harness::WriteMetricsJson(sinks.metrics, result.mac.finish_time,
                                   metrics_path, log)) {
      throw std::runtime_error("cannot write " + metrics_path);
    }
    std::ostringstream trace;
    sinks.spans.WriteChromeTrace(trace);
    const std::string spans_json = trace.str();
    WriteArtifact(dir_ + "/spans.json", spans_json);
    std::ostringstream dump;
    sinks.flight.WriteDump(dump);
    const std::string flight_dump = dump.str();
    WriteArtifact(dir_ + "/flight.bin", flight_dump);
    return FileBytes(metrics_path) + static_cast<std::int64_t>(spans_json.size()) +
           static_cast<std::int64_t>(flight_dump.size());
  }

  // Every checkpoint goes through WriteFileAtomic; the middle one (by the
  // event count of run (a)) to its own file, which (c) reads back.
  Checkpointed RunCheckpointed(const core::Scenario& scenario,
                               std::int64_t total_events) const {
    const std::int64_t saves_expected = (total_events - 1) / checkpoint_every_;
    if (saves_expected < 1) {
      throw std::runtime_error("run too short for one checkpoint");
    }
    const auto middle = static_cast<std::uint64_t>(
        checkpoint_every_ * std::max<std::int64_t>(1, (saves_expected + 1) / 2));
    Checkpointed checkpointed;
    bool middle_written = false;
    Sinks sinks;
    core::RunOptions options = sinks.Checkpointable();
    options.checkpoint_every_events = checkpoint_every_;
    options.checkpoint_sink = [&](const std::string& blob, std::uint64_t events) {
      const bool is_middle = events == middle;
      WriteArtifact(is_middle ? MiddlePath() : dir_ + "/checkpoint.bin", blob);
      middle_written = middle_written || is_middle;
      ++checkpointed.saves;
      checkpointed.bytes += static_cast<std::int64_t>(blob.size());
    };
    checkpointed.run.result = core::RunAddc(scenario, options);
    checkpointed.run.trace_digest = sinks.audit.trace_digest;
    checkpointed.run.metrics_digest = sinks.metrics.Digest();
    if (!middle_written) {
      throw std::runtime_error("no checkpoint at event " + std::to_string(middle));
    }
    return checkpointed;
  }

  Run RunRestored(const core::Scenario& scenario) const {
    std::ifstream in(MiddlePath(), std::ios::binary);
    if (!in.is_open()) throw std::runtime_error("cannot read " + MiddlePath());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string blob = buffer.str();
    Sinks sinks;
    core::RunOptions options = sinks.Checkpointable();
    options.restore_blob = &blob;
    Run run;
    run.result = core::RunAddc(scenario, options);
    run.trace_digest = sinks.audit.trace_digest;
    run.metrics_digest = sinks.metrics.Digest();
    return run;
  }

  core::ScenarioConfig config_;
  std::int64_t checkpoint_every_;
  std::string dir_;
  core::ScenarioPrefabCache prefabs_;
  std::vector<core::Scenario> scenarios_;
};

// The four workloads (bench/suite/README.md says why each was chosen).
// --quick shrinks each to a few hundred milliseconds for the smoke test.
std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  core::ScenarioConfig base = core::ScenarioConfig::ScaledDefaults(0.25);
  base.seed = options.seed;
  const bool quick = options.quick;
  if (options.workload == "fig6c") {
    // bench_fig6c_delay_vs_pu_activity at --reps=1 --jobs=1.
    harness::SweepSpec spec;
    spec.title = "Fig. 6(c): delay vs p_t";
    spec.parameter_name = "p_t";
    spec.repetitions = 1;
    spec.jobs = 1;
    const core::ScenarioConfig sized = quick ? ScaledBy(base, 0.2) : base;
    for (const double p_t : {0.1, 0.2, 0.3, 0.4, 0.45}) {
      core::ScenarioConfig config = sized;
      config.pu_activity = p_t;
      if (quick) config.max_sim_time = 20 * sim::kSecond;
      spec.points.push_back({harness::FormatDouble(p_t, 2), config});
    }
    return std::make_unique<SweepWorkload>(std::move(spec), true);
  }
  if (options.workload == "horizon_n10k") {
    // bench_sim_throughput's horizon-capped n = 10,000 rung.
    core::ScenarioConfig config = ScaledBy(base, quick ? 0.4 : 20.0);
    config.max_sim_time = quick ? sim::kSecond / 2 : 10 * sim::kSecond;
    config.audit_stride = 0;
    harness::SweepSpec spec;
    spec.title = "horizon-capped n=" + std::to_string(config.num_sus);
    spec.parameter_name = "n";
    spec.repetitions = 2;
    spec.jobs = 1;
    spec.addc_only = true;
    spec.points.push_back({std::to_string(config.num_sus), config});
    // At n = 10,000 the auditor's pairwise checks cost 12x the run itself,
    // so this traced pass carries no trace digests.
    return std::make_unique<SweepWorkload>(std::move(spec), false);
  }
  if (options.workload == "sweep_n2000") {
    // bench_sweep_scaling's delay sweep under the work-stealing engine.
    const core::ScenarioConfig sized = ScaledBy(base, quick ? 0.4 : 4.0);
    harness::SweepSpec spec;
    spec.title = "delay sweep n=" + std::to_string(sized.num_sus);
    spec.parameter_name = "p_t";
    spec.repetitions = quick ? 2 : 16;
    spec.jobs = std::min(quick ? 2 : 4, harness::ResolveJobs(0));
    spec.addc_only = true;
    for (const double p_t : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}) {
      core::ScenarioConfig config = sized;
      config.pu_activity = p_t;
      config.max_sim_time = 5 * sim::kMillisecond;
      config.audit_stride = 0;
      spec.points.push_back({harness::FormatDouble(p_t, 1), config});
    }
    return std::make_unique<SweepWorkload>(std::move(spec), true);
  }
  if (options.workload == "observed_n1600") {
    // A full n = 1600 collection takes 150 to 1100 simulated seconds
    // depending on the deployment, so each run is capped at 15 s and the
    // workload covers four deployments: every seed then simulates the same
    // 60 s of contention-heavy opening phases.
    core::ScenarioConfig config = ScaledBy(base, quick ? 0.2 : 3.2);
    if (!quick) config.max_sim_time = 15 * sim::kSecond;
    return std::make_unique<ObservedWorkload>(config, quick ? 2 : 4,
                                              quick ? 2000 : 50000,
                                              options.out_dir);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------

constexpr const char* kUsage =
    R"(usage: crn_bench --workload=fig6c|horizon_n10k|sweep_n2000|observed_n1600
                 [--seed=S] [--seconds=T] [--trace] [--quick] [--out-dir=DIR]
)";

int Main(const Options& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << options.workload << "'\n" << kUsage;
    return 2;
  }
  RunRecord record;
  std::cout << "workload " << options.workload << " seed " << options.seed
            << (options.trace ? " traced" : " untraced")
            << (options.quick ? " quick" : "") << "\n";

  const SetupTimes setup =
      MeasureSetup(workload->Scenarios(), options.quick);

  // The timed section, repeated until the budget is spent. A traced run
  // spends half the budget here: the untraced reference for obs.sinks_s.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const std::size_t min_repeats = options.quick ? 1 : 2;
  std::vector<double> walls;
  Repeat reference;
  const harness::WallTimer budget_timer;
  while (walls.size() < min_repeats || budget_timer.Seconds() < budget) {
    try {
      const Repeat repeat = workload->RunRepeat(record);
      if (walls.empty()) {
        reference = repeat;
      } else {
        record.checks.Expect(repeat.fold == reference.fold,
                             "every repeat folds like the first",
                             harness::DigestHex(repeat.fold) + " vs " +
                                 harness::DigestHex(reference.fold));
      }
      walls.push_back(repeat.wall_s);
    } catch (const std::exception& error) {
      ++record.exceptions;
      std::cerr << "repeat failed: " << error.what() << "\n";
      break;
    }
  }
  const double peak_rss_mib = PeakRssMiB();
  if (walls.empty()) return 1;
  const Quartiles wall = QuartilesOf(walls);

  MetricSet end_to_end;
  MetricSet per_layer;
  try {
    workload->Verify(reference, record);
    if (options.trace) {
      Ledger ledger;
      ledger.prefab_build_s = Median(setup.build_s);
      ledger.run_setup_s = MeasureRunSetup(workload->Scenarios().front());
      ledger.geometry = ReplayGeometries(workload->Scenarios());
      record.checks.Expect(ledger.geometry.digests_match,
                           "replayed geometry digests == ScenarioPrefab::Build");
      ledger.coolest_s = ReplayCoolestRouting(workload->CoolestInputs());
      workload->Trace(reference, wall.median, record, ledger);
      std::ostringstream chrome;
      record.profiler.WriteChromeTrace(chrome);
      const harness::WallTimer write_timer;
      WriteArtifact(options.out_dir + "/" + options.workload + ".trace.json",
                    chrome.str());
      ledger.write_s += write_timer.Seconds();
      ledger.write_bytes += static_cast<std::int64_t>(chrome.str().size());
      EmitLedger(ledger, record.checks, per_layer);
    }
  } catch (const std::exception& error) {
    ++record.exceptions;
    std::cerr << "operation failed: " << error.what() << "\n";
  }

  end_to_end.Add("wall_ms_per_sim_s", wall.median / reference.sim_s * 1e3, "ms/s");
  end_to_end.Add("setup_s", Median(setup.total_s), "s");
  end_to_end.Add("peak_rss_mb", peak_rss_mib, "MiB");

  record.digests["result_fold"] = reference.fold;
  for (const auto& [name, digest] : reference.digests) record.digests[name] = digest;
  const std::int64_t failed = record.exceptions + record.checks.failed();

  Json timing = Json::Object();
  timing["wall_s_median"] = wall.median;
  timing["wall_s_q1"] = wall.q1;
  timing["wall_s_q3"] = wall.q3;
  timing["repeats"] = static_cast<std::int64_t>(walls.size());
  timing["sim_s"] = reference.sim_s;
  timing["setup_build_s"] = Median(setup.build_s);
  timing["setup_samples"] = static_cast<std::int64_t>(setup.total_s.size());
  Json out = Json::Object();
  out["workload"] = options.workload;
  out["seed"] = options.seed;
  out["trace"] = options.trace;
  out["quick"] = options.quick;
  out["correct"] = failed == 0;
  out["attempted"] = record.attempted;
  out["failed"] = failed;
  out["failed_frac"] = static_cast<double>(failed) /
                       static_cast<double>(std::max<std::int64_t>(1, record.attempted));
  out["end_to_end"] = end_to_end.ToJson();
  if (options.trace) out["per_layer"] = per_layer.ToJson();
  out["timing"] = std::move(timing);
  Json digests = Json::Object();
  for (const auto& [name, digest] : record.digests) {
    digests[name] = harness::DigestHex(digest);
  }
  out["digests"] = std::move(digests);
  out["checks"] = record.checks.ToJson();
  out["detail"] = std::move(record.detail);

  std::cout << "end-to-end (wall " << std::setprecision(4) << wall.median
            << " s median of " << walls.size() << ", quartiles " << wall.q1
            << " .. " << wall.q3 << "; " << reference.sim_s
            << " simulated s per repeat):\n";
  end_to_end.Print(std::cout);
  if (options.trace) {
    std::cout << "per layer (SIR evaluation runs inside the mac.* event kinds; "
                 "from outside the program it is not separable):\n";
    per_layer.Print(std::cout);
  }
  std::cout << "attempted " << record.attempted << ", failed " << failed << "\n";
  const std::string path = options.out_dir + "/" + options.workload +
                           (options.trace ? ".traced.json" : ".untraced.json");
  WriteArtifact(path, out.ToString());
  std::cout << "result: " << path << "\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  harness::FlagParser flags(argc, argv);
  Options options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", static_cast<std::int64_t>(kDefaultSeed)));
  options.seconds = flags.GetDouble("seconds", options.seconds);
  options.trace = flags.GetBool("trace", false);
  options.quick = flags.GetBool("quick", false);
  options.out_dir = flags.GetString("out-dir", options.out_dir);
  if (!flags.errors().empty() || !flags.UnconsumedFlags().empty() ||
      options.workload.empty() || !(options.seconds > 0.0)) {
    for (const std::string& error : flags.errors()) std::cerr << error << "\n";
    for (const std::string& flag : flags.UnconsumedFlags()) {
      std::cerr << "unknown flag " << flag << "\n";
    }
    std::cerr << kUsage;
    return 2;
  }
  std::filesystem::create_directories(options.out_dir);
  return Main(options);
}
