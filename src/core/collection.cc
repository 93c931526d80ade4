#include "core/collection.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"
#include "core/invariant_auditor.h"
#include "core/metrics.h"
#include "obs/mac_metrics.h"
#include "core/theory.h"
#include "graph/cds_tree.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"

namespace crn::core {

namespace {

mac::MacConfig MakeMacConfig(const ScenarioConfig& config, double sensing_range,
                             const RunOptions& options) {
  mac::MacConfig mac_config;
  mac_config.su_power = config.su_power;
  mac_config.eta_s = SirThreshold::FromDb(config.eta_s_db);
  mac_config.eta_p = SirThreshold::FromDb(config.eta_p_db);
  mac_config.pcr = sensing_range;
  mac_config.alpha = config.alpha;
  mac_config.slot = config.slot;
  mac_config.contention_window = config.contention_window;
  mac_config.tx_duration = config.slot - config.contention_window;
  mac_config.fairness_wait = config.fairness_wait;
  mac_config.audit_stride = config.audit_stride;
  mac_config.max_sim_time = config.max_sim_time;
  mac_config.backoff_granularity = options.backoff_granularity;
  mac_config.sensing_latency = options.sensing_latency;
  mac_config.slot_aware_defer = options.slot_aware_defer;
  mac_config.sensing_false_alarm = options.sensing_false_alarm;
  mac_config.sensing_missed_detection = options.sensing_missed_detection;
  if (options.faults != nullptr) {
    mac_config.dead_hop_retx_budget = options.faults->retx_budget;
  }
  return mac_config;
}

// Binds a checkpoint blob to the run that produced it. Restore reconstructs
// the run from scratch, so the caller must hand back the same scenario,
// next-hop label, and attachment set — this section is how a mismatch fails
// with a message instead of a silent digest fork (or a CRN_CHECK deep in
// some component's LoadState).
void WriteRunSection(sim::StateWriter& writer, const Scenario& scenario,
                     const std::string& label, const RunOptions& options) {
  writer.BeginSection("run");
  writer.WriteString(label);
  writer.WriteU64(scenario.config().seed);
  writer.WriteU64(scenario.repetition());
  writer.WriteI32(scenario.config().num_sus);
  writer.WriteI32(scenario.config().num_pus);
  writer.WriteBool(options.audit_report != nullptr);
  writer.WriteBool(options.metrics != nullptr);
  writer.WriteBool(options.faults != nullptr);
  writer.WriteBool(options.flight_recorder != nullptr);
  writer.EndSection();
}

void CheckRunSection(sim::StateReader& reader, const Scenario& scenario,
                     const std::string& label, const RunOptions& options) {
  if (!reader.BeginSection("run")) return;
  const std::string saved_label = reader.ReadString();
  const std::uint64_t saved_seed = reader.ReadU64();
  const std::uint64_t saved_rep = reader.ReadU64();
  const std::int32_t saved_sus = reader.ReadI32();
  const std::int32_t saved_pus = reader.ReadI32();
  const bool saved_audit = reader.ReadBool();
  const bool saved_metrics = reader.ReadBool();
  const bool saved_faults = reader.ReadBool();
  const bool saved_flight = reader.ReadBool();
  reader.EndSection();
  if (!reader.ok()) return;
  CRN_CHECK(saved_label == label)
      << "checkpoint was taken from a '" << saved_label
      << "' run but restore was asked to resume '" << label << "'";
  CRN_CHECK(saved_seed == scenario.config().seed &&
            saved_rep == scenario.repetition() &&
            saved_sus == scenario.config().num_sus &&
            saved_pus == scenario.config().num_pus)
      << "checkpoint scenario (seed " << saved_seed << ", repetition "
      << saved_rep << ", " << saved_sus << " SUs, " << saved_pus
      << " PUs) does not match the scenario handed to restore (seed "
      << scenario.config().seed << ", repetition " << scenario.repetition()
      << ", " << scenario.config().num_sus << " SUs, "
      << scenario.config().num_pus << " PUs)";
  CRN_CHECK(saved_audit == (options.audit_report != nullptr) &&
            saved_metrics == (options.metrics != nullptr) &&
            saved_faults == (options.faults != nullptr) &&
            saved_flight == (options.flight_recorder != nullptr))
      << "checkpoint attachment set (audit=" << saved_audit
      << ", metrics=" << saved_metrics << ", faults=" << saved_faults
      << ", flight=" << saved_flight
      << ") does not match the restore options — attach the same sinks the "
         "checkpointed run had";
}

// The fault injector's stream for one repetition.
Rng FaultRng(const ScenarioConfig& config, std::uint64_t repetition) {
  return Scenario::RunRngFor(config, repetition).Stream("faults");
}

}  // namespace

std::string CheckFaultPlan(const faults::FaultPlan& plan, const ScenarioConfig& config,
                           std::uint64_t repetition) {
  std::vector<faults::FaultEvent> timeline;
  return faults::CompileFaultTimeline(plan, FaultRng(config, repetition),
                                      config.num_sus + 1, /*sink=*/0, timeline);
}

CollectionResult RunWithNextHops(const Scenario& scenario,
                                 std::vector<graph::NodeId> next_hop,
                                 const std::string& algorithm_label,
                                 const RunOptions& options) {
  const ScenarioConfig& config = scenario.config();
  const double sensing_range =
      options.sensing_range > 0.0 ? options.sensing_range : scenario.pcr();

  const bool checkpointing = options.checkpoint_every_events > 0;
  const bool restoring = options.restore_blob != nullptr;
  if (checkpointing) {
    CRN_CHECK(options.checkpoint_sink)
        << "checkpoint_every_events is set but checkpoint_sink is empty";
  }
  if (checkpointing || restoring) {
    CRN_CHECK(options.spans == nullptr)
        << "packet-span tracing is not checkpointable — detach the span "
           "tracer from checkpointed or restored runs";
  }

  sim::Simulator simulator;
  // Restore phase 1 (sim/simulator.h): validate the blob, bind it to this
  // run, and pre-populate the kind registry so components re-binding in the
  // original construction order get their original kind ids back.
  std::optional<sim::StateReader> reader;
  if (restoring) {
    reader.emplace(*options.restore_blob);
    CRN_CHECK(reader->ok()) << "cannot restore: " << reader->error();
    CheckRunSection(*reader, scenario, algorithm_label, options);
    CRN_CHECK(reader->ok()) << "cannot restore: " << reader->error();
    simulator.LoadRegistry(*reader);
    CRN_CHECK(reader->ok()) << "cannot restore: " << reader->error();
  }
  // Attach the recorder before the MAC binds its timers so every registered
  // event kind is mirrored into the recorder's name table (on restore,
  // attaching after LoadRegistry syncs the pre-populated names; the
  // recorder's own ring/counters are restored last, after FinishRestore).
  if (options.flight_recorder != nullptr) {
    simulator.AttachFlightRecorder(options.flight_recorder);
  }
  // Restore phase 2: load the clock/counters/calendar geometry and stage the
  // saved queue. Components constructed below re-bind their timers and their
  // LoadStates re-claim every pending event under its original seq.
  if (restoring) {
    simulator.BeginRestore(*reader);
    CRN_CHECK(reader->ok()) << "cannot restore: " << reader->error();
    if (options.metrics != nullptr) {
      // Restore the registry before any component creates instruments so
      // the instrument creation order (= export order) matches the saved
      // run's, not the attach order of this process.
      options.metrics->LoadState(*reader);
    }
  }
  pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
  const mac::MacConfig mac_config = MakeMacConfig(config, sensing_range, options);

  mac::CollectionMac mac(simulator, primary, scenario.su_positions(),
                         scenario.area(), scenario.sink(), std::move(next_hop),
                         mac_config, scenario.MakeRunRng().Stream("mac"),
                         scenario.prefab()->SensingTable(mac_config.pcr));
  std::optional<InvariantAuditor> auditor;
  if (options.audit_report != nullptr) {
    AuditConfig audit_config = options.audit;
    // Conventional-MAC emulation collides same-slot winners on purpose; the
    // R-set separation property only holds for Algorithm 1's regime.
    if (mac_config.backoff_granularity > 0 || mac_config.sensing_latency > 0) {
      audit_config.check_min_separation = false;
    }
    auditor.emplace(audit_config);
    auditor->Attach(simulator, mac, &primary);
    if (options.metrics != nullptr) auditor->BindMetrics(*options.metrics);
    if (options.flight_recorder != nullptr) {
      auditor->BindFlightRecorder(options.flight_recorder);
    }
  }
  // Observability sinks: attaching is opt-in and passive — with no sink the
  // MAC's lifecycle emits early-out and the run is byte-identical.
  std::optional<obs::MacMetricsCollector> metrics_collector;
  if (options.metrics != nullptr) {
    metrics_collector.emplace(*options.metrics, options.metrics_series_stride);
    metrics_collector->Attach(mac);
  }
  if (options.spans != nullptr) {
    options.spans->Attach(mac);
  }
  // Fault injection: seeded from the run rng so one scenario seed fixes the
  // whole faulted run. An empty compiled timeline attaches nothing and the
  // run is byte-identical to an uninjected one.
  std::optional<faults::FaultInjector> injector;
  if (options.faults != nullptr) {
    injector.emplace(*options.faults,
                     FaultRng(scenario.config(), scenario.repetition()));
    injector->Attach(simulator, mac, scenario.secondary_graph(), &primary,
                     options.metrics);
    if (auditor.has_value() && injector->armed()) {
      // Re-audit routing acyclicity after every self-healing pass, not just
      // at the end — a transiently cyclic table would go unseen otherwise.
      injector->AddRepairObserver([&auditor] { auditor->VerifyRouting(); });
    }
  }
  if (restoring) {
    // Restore phase 3: component LoadStates re-claim pending events between
    // BeginRestore and FinishRestore. Order mirrors the save order below;
    // the collector and auditor load after their Attach/Bind calls above.
    primary.LoadState(*reader);
    mac.LoadState(*reader);  // chains the interference field's section
    if (metrics_collector.has_value()) metrics_collector->LoadState(*reader);
    if (auditor.has_value()) auditor->LoadState(*reader);
    if (injector.has_value() && injector->armed()) injector->LoadState(*reader);
    // A corrupt section stops here, before FinishRestore finds the events
    // that section never re-claimed.
    CRN_CHECK(reader->ok()) << "cannot restore: " << reader->error();
    // Restore phase 4: push the staged queue against the re-claimed slots.
    simulator.FinishRestore();
    if (options.flight_recorder != nullptr) {
      options.flight_recorder->LoadState(*reader);
    }
    CRN_CHECK(reader->ok()) << "cannot restore: " << reader->error();
  } else {
    // A checkpoint records exact SIR floors, which lane mode does not keep.
    if (checkpointing) mac.KeepSirFloors();
    // A restored run resumes mid-collection; LoadState replaced this.
    mac.StartSnapshotCollection(options.snapshot_interval, options.snapshot_count);
  }

  // Serializes the full run — every section a restored run reads above, in
  // the same order. SaveState is only legal between events; the run loop
  // below pauses there before calling this.
  const auto save_checkpoint = [&] {
    sim::StateWriter writer;
    WriteRunSection(writer, scenario, algorithm_label, options);
    simulator.SaveState(writer);  // "sim.registry" + "sim.core"
    primary.SaveState(writer);
    mac.SaveState(writer);
    if (options.metrics != nullptr) options.metrics->SaveState(writer);
    if (metrics_collector.has_value()) metrics_collector->SaveState(writer);
    if (auditor.has_value()) auditor->SaveState(writer);
    if (injector.has_value() && injector->armed()) injector->SaveState(writer);
    if (options.flight_recorder != nullptr) {
      options.flight_recorder->SaveState(writer);
    }
    options.checkpoint_sink(writer.Finish(), simulator.events_executed());
  };
  const auto run_event_loop = [&] {
    if (!checkpointing) {
      simulator.Run();
      return;
    }
    // Segment the run at event-count boundaries. Pausing is pure
    // observation (RunUntilEvents decides paused-vs-drained without
    // touching the queue), so a checkpointed run's digests match an
    // uninterrupted one's.
    sim::RunStatus status = sim::RunStatus::kPaused;
    while (status == sim::RunStatus::kPaused) {
      status = simulator.RunUntilEvents(
          simulator.events_executed() +
          static_cast<std::uint64_t>(options.checkpoint_every_events));
      if (status == sim::RunStatus::kPaused) save_checkpoint();
    }
  };
  if (options.flight_recorder != nullptr) {
    // An exception escaping the event loop (e.g. the runaway-loop guard)
    // leaves no usable state behind; rethrow it with the decoded causal
    // trail appended so the failure arrives with its event history. The
    // rethrow happens in the run orchestrator, after the callback stack has
    // fully unwound — no MAC state is left half-applied by *this* frame.
    try {
      run_event_loop();
    } catch (const std::exception& e) {
      throw ContractViolation(  // crn-lint-ok: run-loop forensics rethrow,
                                // outside any event callback
          std::string(e.what()) + "\n" +
          options.flight_recorder->FormatTrail(32));
    }
  } else {
    run_event_loop();
  }
  if (auditor.has_value()) {
    *options.audit_report = auditor->Finalize();
  }
  if (options.metrics != nullptr) {
    // Exact SIR work accounting (DESIGN.md §10): seed-stable operation
    // counts. The label is a constant — the interference field has one
    // engine — kept because metrics digests, bench/suite/pins.json,
    // crn_bench and tools/bench_delta.py all key on "{engine=cached}".
    const spectrum::FieldWork& work = mac.sir_work();
    const obs::Labels engine{{"engine", "cached"}};
    options.metrics->GetCounter("perf.sir_evaluations", engine)
        .Add(work.sir_evaluations);
    options.metrics->GetCounter("perf.sir_terms_evaluated", engine)
        .Add(work.sir_terms_evaluated);
    options.metrics->GetCounter("perf.gain_cache_hits", engine)
        .Add(work.gain_cache_hits);
    options.metrics->GetCounter("perf.gain_cache_misses", engine)
        .Add(work.gain_cache_misses);
    options.metrics->GetCounter("perf.reeval_skipped", engine)
        .Add(work.reeval_skipped);
    options.metrics->GetCounter("perf.pu_partials_reused", engine)
        .Add(work.pu_partials_reused);
    options.metrics->GetCounter("perf.su_resumes", engine).Add(work.su_resumes);
    options.metrics->GetCounter("perf.bound_skips", engine).Add(work.bound_skips);
    // Scheduler work accounting (sim/simulator.h): exact, seed-stable queue
    // operation counts. The label is a constant — the calendar queue is the
    // only backend — kept because metrics digests, bench/suite/pins.json and
    // crn_bench's counter lookups all key on "{scheduler=calendar}".
    const sim::SchedStats& sched_stats = simulator.sched_stats();
    const obs::Labels sched{{"scheduler", "calendar"}};
    options.metrics->GetCounter("perf.sched_pushes", sched).Add(sched_stats.pushes);
    options.metrics->GetCounter("perf.sched_pops", sched).Add(sched_stats.pops);
    options.metrics->GetCounter("perf.sched_cancels", sched)
        .Add(sched_stats.cancels);
    options.metrics->GetCounter("perf.sched_stale_skips", sched)
        .Add(sched_stats.stale_skips);
    options.metrics->GetCounter("perf.sched_bucket_resizes", sched)
        .Add(sched_stats.bucket_resizes);
    // Per-event-kind scheduler counters (flight recorder attached only):
    // exact, seed-stable action counts per registered kind. Kinds with no
    // activity are skipped so the registry carries signal, not schema.
    if (options.flight_recorder != nullptr) {
      const sim::FlightRecorder& recorder = *options.flight_recorder;
      const std::vector<std::string>& kind_names = recorder.kind_names();
      const std::vector<sim::KindCounters>& kind_counts = recorder.counters();
      for (std::size_t k = 0; k < kind_counts.size(); ++k) {
        const sim::KindCounters& counts = kind_counts[k];
        if (counts.arms == 0 && counts.reschedules == 0 &&
            counts.disarms == 0 && counts.fires == 0) {
          continue;
        }
        const std::string& name = k < kind_names.size() && !kind_names[k].empty()
                                      ? kind_names[k]
                                      : kind_names[0];
        const obs::Labels kind{{"kind", name}};
        options.metrics->GetCounter("sched.arms", kind).Add(counts.arms);
        options.metrics->GetCounter("sched.reschedules", kind)
            .Add(counts.reschedules);
        options.metrics->GetCounter("sched.disarms", kind).Add(counts.disarms);
        options.metrics->GetCounter("sched.fires", kind).Add(counts.fires);
      }
    }
  }
  if (injector.has_value()) {
    if (options.fault_report != nullptr) *options.fault_report = injector->report();
    if (options.metrics != nullptr && injector->armed()) {
      options.metrics->GetGauge("mac.delivery_ratio_ppm")
          .Set(static_cast<std::int64_t>(mac.stats().delivery_ratio() * 1e6 + 0.5));
    }
  }

  CollectionResult result;
  result.algorithm = algorithm_label;
  result.mac = mac.stats();
  result.completed = mac.finished();
  result.delay_ms = sim::ToMilliseconds(result.mac.finish_time);
  if (result.mac.finish_time > 0) {
    result.capacity_fraction = static_cast<double>(result.mac.delivered) *
                               static_cast<double>(config.slot) /
                               static_cast<double>(result.mac.finish_time);
  }
  if (result.mac.delivered > 0) {
    result.avg_hops = static_cast<double>(result.mac.delivered_hops_total) /
                      static_cast<double>(result.mac.delivered);
  }
  result.delivery_ratio = result.mac.delivery_ratio();

  std::vector<double> delivery_ms;
  delivery_ms.reserve(mac.delivery_time().size());
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(mac.delivery_time().size()); ++v) {
    if (v == scenario.sink()) continue;
    const sim::TimeNs t = mac.delivery_time()[v];
    if (t >= 0) delivery_ms.push_back(sim::ToMilliseconds(t));
  }
  result.jain_delivery_fairness = JainIndex(delivery_ms);
  for (const mac::CollectionMac::SnapshotTally& tally : mac.snapshots()) {
    if (tally.finish >= 0 && tally.created >= 0) {
      result.snapshot_delay_ms.push_back(sim::ToMilliseconds(tally.finish - tally.created));
    }
  }

  result.pcr = sensing_range;
  result.kappa = scenario.kappa();
  result.theory_po = SpectrumOpportunityProbability(
      sensing_range, config.num_pus, config.area(), config.pu_activity);
  result.measured_po = result.mac.measured_spectrum_opportunity();
  const std::vector<std::int32_t>& depths = mac.route_depths();
  result.max_route_depth = *std::max_element(depths.begin(), depths.end());
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(depths.size()); ++v) {
    if (v != scenario.sink() && depths[v] == 1) ++result.sink_degree;
  }
  return result;
}

CollectionResult RunAddc(const Scenario& scenario, const RunOptions& options) {
  // The CDS tree ships with the scenario's prefab: runs on a shared prefab
  // (sweep cells differing only in MAC/spectrum parameters) reuse one build.
  const graph::CdsTree& tree = scenario.collection_tree();
  const auto n = tree.node_count();
  std::vector<graph::NodeId> next_hop(n, scenario.sink());
  for (graph::NodeId v = 0; v < n; ++v) {
    next_hop[v] = v == scenario.sink() ? scenario.sink() : tree.parent(v);
  }
  CollectionResult result =
      RunWithNextHops(scenario, std::move(next_hop), "ADDC", options);
  result.dominators = tree.dominator_count();
  result.connectors = tree.connector_count();

  // Paper bounds for this instance. Δ is the maximum tree degree (children
  // plus the parent edge); Δ_b the base station's degree.
  const ScenarioConfig& config = scenario.config();
  const double delta = std::max(1, tree.max_children() + 1);
  const auto sink_degree =
      static_cast<std::int64_t>(tree.children(scenario.sink()).size());
  const double p_o = result.theory_po;
  if (p_o > 0.0) {
    result.theorem1_service_bound_ms = sim::ToMilliseconds(
        Theorem1ServiceBound(delta, scenario.kappa(), config.slot, p_o));
    result.theorem2_delay_bound_ms = sim::ToMilliseconds(
        Theorem2DelayBound(config.num_sus, delta, sink_degree, scenario.kappa(),
                           config.slot, p_o));
    result.theorem2_capacity_fraction =
        Theorem2CapacityFraction(scenario.kappa(), p_o);
  }
  return result;
}

double CoolestSensingRange(const ScenarioConfig& config) {
  // PU protection is mandatory; lacking Lemma 2/3's tight packing bound the
  // baseline budgets a safety margin on aggregate interference when sizing
  // its sensing range (see ScenarioConfig). The ablation knob can override
  // it to a bare factor·r instead.
  return config.coolest_sensing_factor > 0.0
             ? config.coolest_sensing_factor * config.su_radius
             : ProperCarrierSensingRange(config.MakePcrParams(), config.c2_variant,
                                         config.baseline_interference_margin);
}

std::vector<double> CoolestTemperatures(const Scenario& scenario) {
  const std::shared_ptr<const mac::PuSensingTable> table =
      scenario.prefab()->SensingTable(CoolestSensingRange(scenario.config()));
  const double activity = scenario.config().pu_activity;
  std::vector<double> temperatures(static_cast<std::size_t>(table->node_count()));
  for (std::int32_t v = 0; v < table->node_count(); ++v) {
    temperatures[static_cast<std::size_t>(v)] = routing::NodeTemperature(
        static_cast<std::int32_t>(table->PusOf(v).size()), activity);
  }
  return temperatures;
}

CollectionResult RunCoolest(const Scenario& scenario,
                            routing::TemperatureMetric metric, RunOptions options) {
  const ScenarioConfig& config = scenario.config();
  const RunOptions defaults;
  CRN_CHECK(options.sensing_range == defaults.sensing_range &&
            options.backoff_granularity == defaults.backoff_granularity &&
            options.sensing_latency == defaults.sensing_latency &&
            options.slot_aware_defer == defaults.slot_aware_defer)
      << "RunCoolest sets the conventional MAC's sensing range, backoff "
         "granularity, sensing latency and slot awareness itself";
  options.sensing_range = CoolestSensingRange(config);
  // Its conventional MAC contends in discrete slots with a carrier-detection
  // lag and no PU-slot awareness.
  options.backoff_granularity = config.baseline_backoff_granularity;
  options.sensing_latency = config.baseline_sensing_latency;
  // A conventional MAC is oblivious to the primary network's slot phase.
  options.slot_aware_defer = false;

  std::vector<graph::NodeId> next_hop = routing::CoolestNextHops(
      scenario.secondary_graph(), CoolestTemperatures(scenario), scenario.sink(),
      metric);
  std::string label = std::string("Coolest/") + routing::ToString(metric);
  return RunWithNextHops(scenario, std::move(next_hop), label, options);
}

DeterminismReport CheckAddcDeterminism(const Scenario& scenario,
                                       const RunOptions& options) {
  RunOptions audited = options;
  AuditReport first;
  AuditReport second;
  audited.audit_report = &first;
  RunAddc(scenario, audited);
  audited.audit_report = &second;
  RunAddc(scenario, audited);
  DeterminismReport report;
  report.first_digest = first.trace_digest;
  report.second_digest = second.trace_digest;
  report.identical = first.trace_digest == second.trace_digest;
  return report;
}

ComparisonResult RunComparison(const ScenarioConfig& config, std::uint64_t repetition,
                               routing::TemperatureMetric metric) {
  const Scenario scenario(config, repetition);
  ComparisonResult result{RunAddc(scenario), RunCoolest(scenario, metric)};
  return result;
}

ContinuousResult RunAddcContinuous(const Scenario& scenario, sim::TimeNs interval,
                                   std::int32_t snapshot_count, RunOptions options) {
  options.snapshot_interval = interval;
  options.snapshot_count = snapshot_count;
  return SummarizeContinuous(RunAddc(scenario, options), interval, snapshot_count);
}

ContinuousResult SummarizeContinuous(CollectionResult run, sim::TimeNs interval,
                                     std::int32_t snapshot_count) {
  ContinuousResult result;
  result.aggregate = std::move(run);
  result.aggregate.algorithm += "/continuous";
  const std::vector<double>& delays = result.aggregate.snapshot_delay_ms;
  if (!delays.empty()) result.mean_snapshot_delay_ms = Summarize(delays).mean;
  // Drift: compare the first and last third of completed rounds.
  const auto completed = static_cast<std::int32_t>(delays.size());
  if (completed >= 3) {
    const std::int32_t third = completed / 3;
    double head = 0.0;
    double tail = 0.0;
    for (std::int32_t i = 0; i < third; ++i) head += delays[i];
    for (std::int32_t i = completed - third; i < completed; ++i) tail += delays[i];
    head /= third;
    tail /= third;
    result.delay_drift_ms_per_round =
        (tail - head) / static_cast<double>(completed - third);
  }
  result.sustainable =
      result.aggregate.completed && completed == snapshot_count &&
      result.delay_drift_ms_per_round <
          0.1 * sim::ToMilliseconds(interval);
  return result;
}

}  // namespace crn::core
