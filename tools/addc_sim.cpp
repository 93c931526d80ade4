// addc_sim — command-line driver for the full simulator.
//
// Runs ADDC and/or the Coolest baseline on an arbitrary configuration and
// prints a result summary (and optionally a per-transmission CSV trace).
//
//   addc_sim --help
//   addc_sim --n=500 --pt=0.2 --reps=3
//   addc_sim --algorithm=both --n=300 --num-pus=60 --area=100
//   addc_sim --algorithm=addc --trace=/tmp/run.csv --seed=7
//   addc_sim --continuous-interval-ms=5000 --snapshots=6
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/collection.h"
#include "core/scenario.h"
#include "faults/fault_plan.h"
#include "graph/cds_tree.h"
#include "harness/atomic_file.h"
#include "harness/flags.h"
#include "harness/obs_export.h"
#include "harness/parallel_runner.h"
#include "harness/profiler.h"
#include "harness/svg_export.h"
#include "harness/sweep.h"
#include "harness/sweep_journal.h"
#include "harness/table.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"

namespace {

using namespace crn;

constexpr const char* kHelp = R"(addc_sim — ADDC / Coolest CRN data-collection simulator

Each value is checked before any run; one out of range (INT counts stop at
2^31 - 1), or a malformed CRN_GRAIN, exits 2 with an `error:` line.

Scenario (defaults: the paper's Fig. 6 configuration scaled by --scale):
  --scale=F               density-preserving scale factor in (0, 1]
                          (default 0.25)
  --n=INT --num-pus=INT   numbers of SUs (>= 1) and PUs (>= 0); with --area=F
                          (area side in m, finite and > 0, area finite and
                          > 0) they override scale
  --pt=F                  PU per-slot activity p_t in [0, 1] (default 0.3)
  --pu-burst=F            Markov mean burst slots, finite and >= 1, p_t at
                          most F / (F + 1) or 1 (0 = i.i.d., default 0)
  --alpha=F               path-loss exponent, finite and > 2, and below
                          about 4.20 under --c2=paper (default 4.0)
  --pu-power=F --su-power=F --pu-radius=F --su-radius=F   finite and > 0
  --eta-p-db=F --eta-s-db=F   dB, linear value finite and > 0; all must give
                          a finite PCR
  --c2=paper|corrected    PCR constant variant (default paper; see DESIGN.md)
  --fairness=BOOL         Algorithm 1 line-12 wait (default true)
  --seed=INT --reps=INT   reproducibility (defaults 0x5EEDADDC, 1; reps >= 1)

Execution:
  --algorithm=addc|coolest|both   (default both)
  --metric=accumulated|highest|mixed   Coolest metric (default accumulated)
  --jobs=INT              run repetitions in parallel, >= 0 (default 1 =
                          serial; 0 = hardware concurrency), in every mode.
                          Output is bit-identical to serial.
  --grain=INT             repetitions per work-stealing chunk, >= 0 (default
                          0 = auto, reps / (4 * jobs) floored at 1). Any
                          value produces identical output — grain only trades
                          scheduling overhead against steal balance. Env
                          fallback: CRN_GRAIN.
  --continuous-interval-ms=F      run continuous collection (ADDC only; takes
                                  --audit/--faults/--metrics-out/--trace/--jobs
                                  like a snapshot run); F finite, > 0 and
                                  below 2^63 ns (9223372036854.775 ms)
  --snapshots=INT                 rounds for continuous mode, >= 1 (default 6)
  --faults=FILE           inject the fault plan in FILE into every ADDC run
                          (crashes + self-healing repair, sensing bursts, PU
                          perturbation — format in DESIGN.md §9); a script
                          that contradicts the deployment, or a generator's
                          draws in any repetition, exits 2 first.
                          Reproducible from --seed; per-rep summaries print
                          when faults fired. With --audit, routing acyclicity
                          is re-verified after every repair.
  --audit                         attach the runtime invariant auditor to every
                                  ADDC run (prints the report; also dual-runs
                                  rep 0 to verify trace-digest determinism);
                                  exits nonzero on any violation
  --trace=FILE                    write per-transmission CSV (rep 0, ADDC; the
                                  same run as without the flag)
  --trace-out=FILE                write packet-lifecycle spans (rep 0, ADDC) as
                                  Chrome trace-event JSON — load the file in
                                  Perfetto / chrome://tracing
  --metrics-out=FILE              write the metrics registry (ADDC runs, merged
                                  over reps in rep order) as JSON
  --flight-recorder-out=FILE      record every scheduler action of rep 0's ADDC
                                  run (arm/reschedule/disarm/fire with causal
                                  parent links) into a binary flight dump —
                                  decode with crn_trace
  --flight-recorder-depth=INT     flight-recorder ring capacity in records,
                                  >= 1 (default 65536; older ones overwritten)
  --metrics-stride=INT            slots between series snapshots in the metrics
                                  JSON, >= 0 (default 1024; 0 = final state only)
  --svg=FILE                      render the deployment + CDS tree as SVG
  --csv                           machine-readable result rows

Checkpoint / restore (DESIGN.md §14; single ADDC rep only):
  --checkpoint-out=FILE   serialize the full run state to FILE at every
                          checkpoint boundary (atomic write-temp-then-rename,
                          CRNCKPT1 format); requires --algorithm=addc and
                          --reps=1, and no --trace/--trace-out/
                          --continuous-interval-ms/--journal
  --checkpoint-every-events=INT   events between checkpoints (default 100000);
                          INT >= 1, needs --checkpoint-out
  --restore=FILE          resume from a checkpoint written by
                          --checkpoint-out. Pass the same scenario flags and
                          attachment set as the checkpointed run — mismatches
                          are rejected with an error. Checkpoint/restore runs
                          print `digest: trace=<hex> metrics=<hex>`; a
                          resumed run's digests are bit-identical to the
                          uninterrupted run's
  --crash-after-events=INT  test hook for the crash-recovery soak: SIGKILL
                          this process at the first checkpoint boundary at or
                          after INT events, *before* that checkpoint is
                          written (the on-disk file stays the previous one);
                          INT >= 0, needs --checkpoint-out

Sweep journal (crash-safe repetition fan-out):
  --journal=DIR           record one atomic completion record per repetition
                          into DIR (any --jobs value; incompatible with
                          --metrics-out/--trace/--trace-out/
                          --flight-recorder-out/--continuous-interval-ms)
  --resume                with --journal: skip repetitions whose records
                          validate, replaying their stored output instead of
                          re-running them
)";

void PrintResultRow(const core::CollectionResult& r, bool csv,
                    std::ostream& out = std::cout) {
  if (csv) {
    out << r.algorithm << "," << (r.completed ? 1 : 0) << "," << r.delay_ms
        << "," << r.capacity_fraction << "," << r.avg_hops << ","
        << r.jain_delivery_fairness << "," << r.mac.attempts << ","
        << r.mac.su_caused_violations << "\n";
    return;
  }
  out << r.algorithm << ": " << (r.completed ? "completed" : "TIMED OUT")
      << " in " << r.delay_ms << " ms, capacity "
      << harness::FormatDouble(r.capacity_fraction, 4) << "·W, avg hops "
      << harness::FormatDouble(r.avg_hops, 2) << ", Jain "
      << harness::FormatDouble(r.jain_delivery_fairness, 3) << ", "
      << r.mac.attempts << " attempts, " << r.mac.su_caused_violations
      << " PU violations\n";
}

// Atomic artifact write with the CLI's error convention (message + exit 2).
bool WriteArtifactOrComplain(const std::string& path, std::string_view bytes) {
  std::string error;
  if (!crn::harness::WriteFileAtomic(path, bytes, &error)) {
    std::cerr << "error: " << error << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  harness::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::cout << kHelp;
    // Consume everything so --help never reports unknown flags.
    return 0;
  }

  // A value a getter rejects reads as its (valid) fallback until the errors
  // are reported; ScenarioConfig::Validate then checks the scenario.
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(
      flags.GetDouble("scale", 0.25, harness::kScaleRange));
  config.num_sus =
      static_cast<std::int32_t>(flags.GetInt("n", config.num_sus, {.min = 1}));
  config.area_side = flags.GetDouble("area", config.area_side);
  config.num_pus =
      static_cast<std::int32_t>(flags.GetInt("num-pus", config.num_pus, {.min = 0}));
  config.pu_activity = flags.GetDouble("pt", config.pu_activity);
  config.alpha = flags.GetDouble("alpha", config.alpha);
  config.pu_power = flags.GetDouble("pu-power", config.pu_power);
  config.su_power = flags.GetDouble("su-power", config.su_power);
  config.pu_radius = flags.GetDouble("pu-radius", config.pu_radius);
  config.su_radius = flags.GetDouble("su-radius", config.su_radius);
  config.eta_p_db = flags.GetDouble("eta-p-db", config.eta_p_db);
  config.eta_s_db = flags.GetDouble("eta-s-db", config.eta_s_db);
  config.fairness_wait = flags.GetBool("fairness", config.fairness_wait);
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 0x5EEDADDCLL));
  const double burst = flags.GetDouble("pu-burst", 0.0, {.min = 0.0});
  if (burst > 0.0) {
    config.pu_activity_process = pu::ActivityProcess::kMarkov;
    config.pu_mean_burst_slots = burst;
  }
  const std::string c2 = flags.GetChoice("c2", "paper", {"paper", "corrected"});
  config.c2_variant =
      c2 == "corrected" ? core::C2Variant::kCorrected : core::C2Variant::kPaper;

  const std::string algorithm =
      flags.GetChoice("algorithm", "both", {"addc", "coolest", "both"});
  const std::string metric_name = flags.GetChoice(
      "metric", "accumulated", {"accumulated", "highest", "mixed"});
  routing::TemperatureMetric metric = routing::TemperatureMetric::kAccumulated;
  if (metric_name == "highest") metric = routing::TemperatureMetric::kHighest;
  if (metric_name == "mixed") metric = routing::TemperatureMetric::kMixed;

  const auto reps = static_cast<std::int32_t>(flags.GetInt("reps", 1, {.min = 1}));
  const auto jobs = static_cast<std::int32_t>(flags.GetInt("jobs", 1, {.min = 0}));
  const std::int64_t grain = flags.GetInt("grain", 0, {.min = 0}, "CRN_GRAIN");
  const bool csv = flags.GetBool("csv", false);
  const bool audit = flags.GetBool("audit", false);
  const std::string trace_path = flags.GetString("trace", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string flight_out = flags.GetString("flight-recorder-out", "");
  const std::int64_t flight_depth =
      flags.GetInt("flight-recorder-depth", 1 << 16, {.min = 1});
  const auto metrics_stride =
      static_cast<std::int32_t>(flags.GetInt("metrics-stride", 1024, {.min = 0}));
  const std::string svg_path = flags.GetString("svg", "");
  const double continuous_ms =
      flags.GetDouble("continuous-interval-ms", 0.0,
                      {.min = 0.0, .max = sim::kMillisecondsPastClock, .min_open = true,
                       .max_open = true});
  const auto snapshots =
      static_cast<std::int32_t>(flags.GetInt("snapshots", 6, {.min = 1}));
  const std::string faults_path = flags.GetString("faults", "");
  const std::string checkpoint_out = flags.GetString("checkpoint-out", "");
  const std::string restore_path = flags.GetString("restore", "");
  const std::int64_t checkpoint_every = flags.GetInt(
      "checkpoint-every-events", 100000, {.min = 1, .max = harness::kAnyInt64.max});
  const std::int64_t crash_after = flags.GetInt(
      "crash-after-events", 0, {.min = 0, .max = harness::kAnyInt64.max});
  const std::string journal_dir = flags.GetString("journal", "");
  const bool resume = flags.GetBool("resume", false);

  if (flags.ReportErrors(std::cerr)) {
    std::cerr << "run with --help for usage\n";
    return 2;
  }
  if (const std::string error = config.Validate(); !error.empty()) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  // The crash hook and the cadence apply only to checkpoints that are written.
  for (const char* flag : {"crash-after-events", "checkpoint-every-events"}) {
    if (flags.Has(flag) && checkpoint_out.empty()) {
      std::cerr << "error: --" << flag << " needs --checkpoint-out\n";
      return 2;
    }
  }

  faults::FaultPlan fault_plan;
  if (std::string error;
      !faults_path.empty() && !faults::LoadPlanFile(faults_path, fault_plan, error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }

  // Plan errors that depend on the deployment (n SUs plus the base station,
  // node 0) or on a repetition's draws (a scripted event racing a crash
  // generator) are input errors too: check every repetition before any run.
  for (std::int64_t rep = 0; !faults_path.empty() && rep < reps; ++rep) {
    if (const std::string error =
            core::CheckFaultPlan(fault_plan, config, static_cast<std::uint64_t>(rep));
        !error.empty()) {
      std::cerr << "error: repetition " << rep << ": " << error << "\n";
      return 2;
    }
  }

  // A deployment that stays disconnected for every attempt (a sub-critical
  // density) is an input error too: deploy every repetition before any run,
  // and hand each run its geometry.
  std::vector<std::shared_ptr<const core::ScenarioPrefab>> prefabs(
      static_cast<std::size_t>(reps));
  for (std::int64_t rep = 0; rep < reps; ++rep) {
    std::string error;
    prefabs[static_cast<std::size_t>(rep)] =
        core::ScenarioPrefab::TryBuild(config, static_cast<std::uint64_t>(rep), error);
    if (prefabs[static_cast<std::size_t>(rep)] == nullptr) {
      std::cerr << "error: repetition " << rep << ": " << error << "\n";
      return 2;
    }
  }

  const bool continuous = continuous_ms > 0.0;
  const bool checkpointing = !checkpoint_out.empty() || !restore_path.empty();
  if (checkpointing) {
    if (algorithm != "addc" || reps != 1 || continuous || !trace_path.empty() ||
        !trace_out.empty() || !journal_dir.empty()) {
      std::cerr << "error: --checkpoint-out/--restore support exactly one ADDC "
                   "repetition (--algorithm=addc --reps=1) without --trace/"
                   "--trace-out/--continuous-interval-ms/--journal\n";
      return 2;
    }
  }
  if (!journal_dir.empty()) {
    if (!metrics_out.empty() || continuous || !trace_path.empty() ||
        !trace_out.empty() || !flight_out.empty()) {
      std::cerr << "error: --journal is incompatible with --metrics-out/"
                   "--trace/--trace-out/--flight-recorder-out/"
                   "--continuous-interval-ms\n";
      return 2;
    }
  } else if (resume) {
    std::cerr << "error: --resume requires --journal\n";
    return 2;
  }
  std::string restore_blob;
  if (!restore_path.empty()) {
    std::ifstream in(restore_path, std::ios::binary);
    if (!in) {
      std::cerr << "error: cannot read checkpoint " << restore_path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    restore_blob = buffer.str();
  }

  if (csv) {
    std::cout << "algorithm,completed,delay_ms,capacity_fraction,avg_hops,jain,"
                 "attempts,pu_violations\n";
  }
  if (!svg_path.empty()) {
    const core::Scenario scenario(config, 0, prefabs.front());
    const graph::CdsTree& tree = scenario.collection_tree();
    std::ostringstream out;
    harness::SvgOptions svg_options;
    svg_options.pcr_m = scenario.pcr();
    harness::WriteSvg(out, scenario.secondary_graph(), &tree,
                      scenario.pu_positions(), svg_options);
    if (!WriteArtifactOrComplain(svg_path, out.str())) return 2;
    std::cout << "topology rendered to " << svg_path << "\n";
  }

  // Rep 0's ADDC run feeds the span tracer and the flight recorder; the
  // profiler supplies the recorder's wall probe for the per-kind summary.
  obs::PacketSpanTracer span_tracer;
  sim::FlightRecorder flight_recorder(static_cast<std::size_t>(flight_depth));
  harness::RunProfiler flight_profiler;
  if (!flight_out.empty()) {
    harness::AttachFlightRecorderProbe(flight_profiler, flight_recorder);
  }

  // Every repetition is an independent cell (the Scenario is a pure function
  // of (config, rep)): cells write only their own outcome, and everything
  // that crosses cells is reduced in rep order, so the output is
  // bit-identical at every --jobs.
  struct RepOutcome {
    double pcr = 0.0;
    core::ContinuousResult addc;  // a snapshot run fills only `aggregate`
    core::CollectionResult coolest;
    core::AuditReport audit_report;
    core::DeterminismReport determinism;
    faults::FaultReport fault_report;
    obs::MetricsRegistry metrics;
  };
  std::vector<RepOutcome> outcomes(static_cast<std::size_t>(reps));
  const bool run_addc = continuous || algorithm == "addc" || algorithm == "both";
  const bool run_coolest =
      !continuous && (algorithm == "coolest" || algorithm == "both");
  const sim::TimeNs interval = sim::FromMilliseconds(continuous_ms);
  const auto run_rep = [&](std::int64_t rep) {
    RepOutcome& outcome = outcomes[static_cast<std::size_t>(rep)];
    const core::Scenario scenario(config, static_cast<std::uint64_t>(rep),
                                  std::move(prefabs[static_cast<std::size_t>(rep)]));
    outcome.pcr = scenario.pcr();
    if (run_addc) {
      core::RunOptions options;
      // A checkpointed run always carries the auditor and a registry: its
      // digest line is the restore contract, and both are part of the
      // checkpoint's fingerprint.
      if (audit || checkpointing) options.audit_report = &outcome.audit_report;
      if (!faults_path.empty()) {
        options.faults = &fault_plan;
        options.fault_report = &outcome.fault_report;
      }
      if (!metrics_out.empty() || checkpointing) {
        options.metrics = &outcome.metrics;
        // Counters fold across every rep, but the series is one run's
        // timeline: only rep 0 records points, so the merged document's
        // series stays monotone in sim-time.
        options.metrics_series_stride = rep == 0 ? metrics_stride : 0;
      }
      if (continuous) {
        options.snapshot_interval = interval;
        options.snapshot_count = snapshots;
      }
      // The determinism dual run attaches no sink (a second copy of rep 0
      // would fold into the registry, tracer or recorder) and neither
      // checkpoints nor restores.
      core::RunOptions recheck = options;
      recheck.metrics = nullptr;
      if (rep == 0 && (!trace_path.empty() || !trace_out.empty())) {
        options.spans = &span_tracer;
      }
      if (rep == 0 && !flight_out.empty()) {
        options.flight_recorder = &flight_recorder;
      }
      if (!checkpoint_out.empty()) {
        options.checkpoint_every_events = checkpoint_every;
        options.checkpoint_sink = [&](const std::string& blob,
                                      std::uint64_t events) {
          if (crash_after > 0 &&
              events >= static_cast<std::uint64_t>(crash_after)) {
            // Crash-soak hook: die *before* persisting, so recovery resumes
            // from the previous on-disk checkpoint — the worst honest crash.
            std::raise(SIGKILL);
          }
          if (!WriteArtifactOrComplain(checkpoint_out, blob)) std::exit(2);
          if (!csv) {
            std::cout << "checkpoint: " << checkpoint_out << " at event "
                      << events << " (" << blob.size() << " bytes)\n";
          }
        };
      }
      if (!restore_path.empty()) options.restore_blob = &restore_blob;
      core::CollectionResult result = core::RunAddc(scenario, options);
      outcome.addc = continuous ? core::SummarizeContinuous(std::move(result),
                                                            interval, snapshots)
                                : core::ContinuousResult{std::move(result)};
      if (audit && rep == 0) {
        outcome.determinism = core::CheckAddcDeterminism(scenario, recheck);
      }
    }
    if (run_coolest) outcome.coolest = core::RunCoolest(scenario, metric);
  };

  // One repetition's output block plus the bits that feed the exit code.
  // The same renderer serves direct printing and the journal payload, so
  // a replayed repetition prints byte-identically to a fresh one.
  struct RepBlock {
    std::string text;
    bool completed = true;
    bool audit_ok = true;
  };
  const auto render_block = [&](std::int64_t rep) {
    const RepOutcome& outcome = outcomes[static_cast<std::size_t>(rep)];
    RepBlock block;
    std::ostringstream out;
    if (!csv && !checkpointing) {
      out << "== rep " << rep << " (n=" << config.num_sus
          << ", N=" << config.num_pus << ", p_t=" << config.pu_activity
          << ", PCR=" << harness::FormatDouble(outcome.pcr, 2) << " m) ==\n";
    }
    if (run_addc) {
      const core::CollectionResult& addc = outcome.addc.aggregate;
      block.completed &= addc.completed;
      PrintResultRow(addc, csv, out);
      if (!csv && continuous) {
        out << "  snapshot delays (ms):";
        for (double d : addc.snapshot_delay_ms) {
          out << " " << harness::FormatDouble(d, 0);
        }
        out << "\n  drift "
            << harness::FormatDouble(outcome.addc.delay_drift_ms_per_round, 1)
            << " ms/round — "
            << (outcome.addc.sustainable ? "sustainable" : "NOT sustainable")
            << "\n";
      }
      // Plans whose compiled timeline is empty leave stdout untouched —
      // part of the empty-plan byte-identity contract.
      if (!csv && outcome.fault_report.injected_total() > 0) {
        out << "  faults: " << outcome.fault_report.Summary() << "; delivery "
            << harness::FormatDouble(addc.delivery_ratio, 4) << "\n";
      }
      if (audit) {
        const core::AuditReport& report = outcome.audit_report;
        block.audit_ok &= report.ok();
        if (!csv) {
          out << "  audit: " << report.Summary() << "\n";
          for (const std::string& violation : report.first_violations) {
            out << "    violation: " << violation << "\n";
          }
          // Violation forensics: the causal event history leading into the
          // first violation, captured from the flight recorder.
          if (!report.flight_trail.empty()) out << "  " << report.flight_trail;
        }
        if (rep == 0) {
          const core::DeterminismReport& determinism = outcome.determinism;
          block.audit_ok &= determinism.identical;
          if (!csv) {
            out << "  determinism: dual-run digests "
                << (determinism.identical ? "identical" : "DIVERGED") << " ("
                << std::hex << determinism.first_digest << " vs "
                << determinism.second_digest << std::dec << ")\n";
          }
        }
      }
      if (checkpointing) {
        // The bit-identity witness: CI diffs this line between an
        // uninterrupted run and a kill+resume chain.
        out << "digest: trace=" << std::hex << outcome.audit_report.trace_digest
            << " metrics=" << outcome.metrics.Digest() << std::dec << "\n";
      }
    }
    if (run_coolest) {
      block.completed &= outcome.coolest.completed;
      PrintResultRow(outcome.coolest, csv, out);
    }
    block.text = out.str();
    return block;
  };

  // Blocks print in rep order as soon as every earlier rep has finished, so
  // at --jobs=1 each prints when its rep ends.
  std::vector<std::optional<RepBlock>> blocks(static_cast<std::size_t>(reps));
  std::int64_t printed = 0;
  bool all_completed = true;
  bool audit_clean = true;
  std::mutex print_mutex;
  const auto finish = [&](std::int64_t rep, RepBlock block) {
    const std::lock_guard<std::mutex> lock(print_mutex);
    blocks[static_cast<std::size_t>(rep)] = std::move(block);
    for (; printed < reps && blocks[static_cast<std::size_t>(printed)]; ++printed) {
      const RepBlock& next = *blocks[static_cast<std::size_t>(printed)];
      std::cout << next.text;
      all_completed &= next.completed;
      audit_clean &= next.audit_ok;
    }
  };

  const harness::ParallelRunner runner(jobs, grain);
  try {
    if (journal_dir.empty()) {
      runner.ForEachIndex(reps, [&](std::int64_t rep) {
        run_rep(rep);
        finish(rep, render_block(rep));
      });
    } else {
      // The fingerprint pins every knob that shapes a cell's output: a
      // journal from a different experiment reads as empty, never as
      // replayable results.
      std::ostringstream fp;
      fp << "addc_sim v1 seed=" << config.seed << " n=" << config.num_sus
         << " N=" << config.num_pus << " area=" << config.area_side
         << " pt=" << config.pu_activity
         << " burst=" << config.pu_mean_burst_slots
         << " alpha=" << config.alpha << " c2=" << c2
         // The calendar queue is the only scheduler; the field stays so
         // journals written while it was selectable still replay.
         << " scheduler=calendar"
         << " fairness=" << config.fairness_wait
         << " algorithm=" << algorithm << " metric=" << metric_name
         << " reps=" << reps << " csv=" << csv << " audit=" << audit
         << " faults=" << faults_path;
      if (!resume) {
        // A fresh (non-resume) journaled run starts from a clean slate so
        // stale completions cannot mask cells that should re-run.
        for (std::int32_t rep = 0; rep < reps; ++rep) {
          std::remove((journal_dir + "/cell_" + std::to_string(rep) + ".rec")
                          .c_str());
        }
      }
      const harness::SweepJournal journal(journal_dir, fp.str());
      std::int32_t replayable = 0;
      for (std::int32_t rep = 0; rep < reps; ++rep) {
        if (journal.Payload(rep) != nullptr) ++replayable;
      }
      if (!csv && replayable > 0) {
        std::cout << "journal: replayed " << replayable << " of " << reps
                  << " repetitions from " << journal_dir << "\n";
      }
      harness::RunJournaled(
          runner, journal, reps,
          [&](std::int64_t rep) {
            run_rep(rep);
            RepBlock block = render_block(rep);
            std::string payload = std::string(block.completed ? "1" : "0") +
                                  (block.audit_ok ? "1" : "0") + "\n" +
                                  block.text;
            finish(rep, std::move(block));
            return payload;
          },
          [&](std::int64_t rep, const std::string& payload) {
            RepBlock block;
            if (payload.size() >= 3) {
              block.completed = payload[0] == '1';
              block.audit_ok = payload[1] == '1';
              block.text = payload.substr(3);
            }
            finish(rep, std::move(block));
          });
    }
  } catch (const ContractViolation& error) {
    // A blob that fails restore validation (wrong scenario or attachments,
    // a removed scheduler) is bad input, not a crash.
    if (restore_path.empty()) throw;
    std::cerr << "error: cannot restore " << restore_path << ": "
              << error.what() << "\n";
    return 2;
  }

  if (!trace_path.empty()) {
    std::ostringstream out;
    span_tracer.WriteAttemptCsv(out);
    if (!WriteArtifactOrComplain(trace_path, out.str())) return 2;
    const auto summary = span_tracer.SummarizeAttempts();
    std::cout << "ADDC trace: " << summary.attempts << " attempts, useful airtime "
              << harness::FormatDouble(summary.useful_airtime_fraction, 3)
              << ", written to " << trace_path << "\n";
  }
  if (!trace_out.empty()) {
    std::ostringstream out;
    span_tracer.WriteChromeTrace(out);
    if (!WriteArtifactOrComplain(trace_out, out.str())) return 2;
    std::cout << "lifecycle trace: " << trace_out << " ("
              << span_tracer.packets().size() << " packets, "
              << span_tracer.attempts().size() << " attempts)\n";
  }
  if (!metrics_out.empty()) {
    obs::MetricsRegistry merged;
    double final_ms = 0.0;
    for (const RepOutcome& outcome : outcomes) {
      merged.Merge(outcome.metrics);
      final_ms = std::max(final_ms, outcome.addc.aggregate.delay_ms);
    }
    if (!harness::WriteMetricsJson(merged, sim::FromMilliseconds(final_ms),
                                   metrics_out, std::cout)) {
      return 2;
    }
  }
  if (!flight_out.empty()) {
    std::ostringstream out;
    flight_recorder.WriteDump(out);
    if (!WriteArtifactOrComplain(flight_out, out.str())) return 2;
    std::cout << "flight recorder: " << flight_recorder.size() << " of "
              << flight_recorder.total_recorded()
              << " recorded actions retained -> " << flight_out << "\n";
    const std::vector<std::string>& kind_names = flight_recorder.kind_names();
    const std::vector<sim::KindCounters>& counters = flight_recorder.counters();
    for (std::size_t k = 0; k < counters.size(); ++k) {
      if (counters[k].fires == 0) continue;
      std::cout << "  " << kind_names[k] << ": " << counters[k].fires
                << " fires, "
                << harness::FormatDouble(
                       flight_recorder.fire_wall_seconds(
                           static_cast<std::uint16_t>(k)) * 1e3, 3)
                << " ms wall\n";
    }
  }
  if (audit && !audit_clean) {
    std::cerr << "audit: invariant violations or digest divergence detected\n";
    return 1;
  }
  return all_completed ? 0 : 1;
}
