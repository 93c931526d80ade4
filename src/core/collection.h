// Collection orchestrators — the library's top-level entry points.
//
// RunAddc() executes the paper's full pipeline on one deployed scenario:
// CDS tree construction (§IV-A), PCR configuration (§IV-B), and the
// asynchronous CSMA collection of Algorithm 1, returning the measured delay
// and capacity together with the Theorem 1/2 bounds for the same instance.
// RunCoolest() runs the baseline of §V on the identical deployment and MAC,
// differing only in the routing structure.
#ifndef CRN_CORE_COLLECTION_H_
#define CRN_CORE_COLLECTION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/invariant_auditor.h"
#include "core/scenario.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "mac/collection_mac.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "routing/coolest.h"
#include "sim/flight_recorder.h"
#include "sim/time.h"

namespace crn::core {

struct CollectionResult {
  std::string algorithm;
  bool completed = false;           // all packets reached the base station
  double delay_ms = 0.0;            // data-collection delay (§III definition)
  double capacity_fraction = 0.0;   // achieved rate / W (W = 1 packet/slot)
  double jain_delivery_fairness = 0.0;  // Jain index over delivery times
  double avg_hops = 0.0;            // mean per-packet hop count at delivery
  // delivered / seeded: 1.0 on fault-free runs, < 1 when churn partitioned
  // the network or the retransmission budget dropped packets (graceful
  // degradation — see DESIGN.md §9).
  double delivery_ratio = 1.0;

  // Spectrum-side diagnostics.
  double theory_po = 0.0;           // Lemma 7's p_o
  double measured_po = 0.0;         // slot-boundary sampling during the run
  double pcr = 0.0;                 // configured carrier-sensing range
  double kappa = 0.0;

  // Routing-structure diagnostics (tree stats are ADDC-only; Coolest
  // reports depth of its next-hop forest instead).
  std::int32_t dominators = 0;
  std::int32_t connectors = 0;
  std::int32_t max_route_depth = 0;
  std::int32_t sink_degree = 0;

  // Paper bounds for this instance (ADDC only; 0 otherwise).
  double theorem1_service_bound_ms = 0.0;
  double theorem2_delay_bound_ms = 0.0;
  double theorem2_capacity_fraction = 0.0;

  // Completion − creation of every completed snapshot, in snapshot order
  // (one entry for the paper's single snapshot).
  std::vector<double> snapshot_delay_ms;

  mac::MacStats mac;
};

// MAC-model overrides for a single run (defaults reproduce Algorithm 1).
struct RunOptions {
  double sensing_range = 0.0;               // 0 = the scenario's PCR
  sim::TimeNs backoff_granularity = 0;      // 0 = continuous backoff
  sim::TimeNs sensing_latency = 0;          // carrier-detection lag
  bool slot_aware_defer = true;             // false = fire on expiry
  double sensing_false_alarm = 0.0;         // detector error axes (A5)
  double sensing_missed_detection = 0.0;
  // Workload: `snapshot_count` snapshots, one every `snapshot_interval`
  // (0 = one slot). The default is the paper's single snapshot; more make
  // a continuous collection (RunAddcContinuous).
  sim::TimeNs snapshot_interval = 0;
  std::int32_t snapshot_count = 1;
  // When non-null, an InvariantAuditor runs alongside the collection and
  // its finalized report is written here. The pairwise-separation check is
  // auto-disabled under conventional-MAC emulation (nonzero backoff
  // granularity or sensing latency), whose same-slot collisions are
  // modelled deliberately. Attaching the auditor never changes the run's
  // behaviour or trace digest (invariant_auditor.h).
  AuditReport* audit_report = nullptr;
  AuditConfig audit;

  // --- observability sinks (DESIGN.md §"Observability") -----------------
  // All null by default: with no sink attached the MAC's emit helpers
  // early-out and the run's behaviour, digests, and stdout are byte-
  // identical to an uninstrumented build. When set, both must outlive the
  // call. `metrics` collects the MAC instrument set (and, when the auditor
  // runs, mirrors its violation counters as audit.violations_total{...});
  // `spans` records per-packet lifecycle spans for trace export.
  obs::MetricsRegistry* metrics = nullptr;
  obs::PacketSpanTracer* spans = nullptr;
  // Registry series stride in slots (metrics != nullptr only).
  std::int32_t metrics_series_stride = 64;

  // --- fault injection (DESIGN.md §9) -----------------------------------
  // When non-null, a faults::FaultInjector drives the plan through the run
  // (seeded from the scenario's run rng, stream "faults") and self-heals the
  // routing table after every crash/recovery. A plan with an empty compiled
  // timeline attaches nothing — the run stays byte-identical to one without
  // `faults` set (pinned by tests/faults/fault_injector_test.cc). The plan's
  // retx_budget is forwarded into MacConfig::dead_hop_retx_budget.
  // `fault_report` (optional) receives the injector's accounting.
  const faults::FaultPlan* faults = nullptr;
  faults::FaultReport* fault_report = nullptr;

  // --- scheduler flight recorder (DESIGN.md §13) ------------------------
  // When non-null, the recorder is attached to the run's simulator: every
  // scheduler action (arm/reschedule/disarm/fire) appends one record to its
  // ring, per-kind deterministic counters are exported into `metrics` (when
  // also set) as sched.{arms,reschedules,disarms,fires}{kind=...}, the
  // auditor (when attached) captures a decoded last-N trail into
  // AuditReport::flight_trail on its first violation, and an exception
  // unwinding out of the event loop is rethrown with the trail appended.
  // Recording is pure observation — attaching never changes the run's
  // behaviour or trace digest — and the recorder must outlive the call.
  sim::FlightRecorder* flight_recorder = nullptr;

  // --- checkpoint / restore (sim/checkpoint.h, DESIGN.md §14) -----------
  // checkpoint_every_events > 0: the run pauses between events every N
  // executed events and hands `checkpoint_sink` the serialized CRNCKPT1
  // blob plus the cumulative event count it was taken at. The sink owns
  // persistence (the harness writes it atomically); taking checkpoints
  // never changes the run's behaviour or digests — RunUntilEvents pauses
  // without touching the queue.
  //
  // restore_blob non-null: instead of starting fresh, the run resumes from
  // the blob. The caller must rebuild the *same* run — same scenario
  // (seed, repetition, sizes), same next-hop label, and the same
  // attachment set (audit/metrics/faults/flight recorder all matching the
  // checkpointed run); mismatches fail with an actionable error, never a
  // silent digest fork. `metrics` must be a fresh registry (its saved
  // contents are restored into it). A resumed run is bit-identical — trace
  // digest, metrics digest, audit report — to the uninterrupted one.
  // The workload comes from the blob: a restore does not read
  // snapshot_interval/snapshot_count. Packet-span tracing is not
  // checkpointable; `spans` must be null when either field is set.
  std::int64_t checkpoint_every_events = 0;
  std::function<void(const std::string& blob, std::uint64_t events_executed)>
      checkpoint_sink;
  const std::string* restore_blob = nullptr;
};

// The error the fault injector would fail with on repetition `repetition`
// of `config` (num_sus SUs plus the base station, node 0), naming the first
// offending event; empty when the plan compiles. Cheap: it builds no
// deployment, so a CLI can check every repetition before running any.
std::string CheckFaultPlan(const faults::FaultPlan& plan, const ScenarioConfig& config,
                           std::uint64_t repetition);

// Runs ADDC on the given deployed scenario. `options` passes MAC-model
// overrides and (via audit_report) attaches the runtime invariant auditor.
CollectionResult RunAddc(const Scenario& scenario, const RunOptions& options = {});

// The Coolest baseline's carrier-sensing range for `config` (see
// ScenarioConfig's baseline fields), which is also its temperature range.
double CoolestSensingRange(const ScenarioConfig& config);

// Every node's spectrum temperature at the Coolest sensing range, from the
// row sizes of the prefab's sensing table for that range — the table the
// Coolest run's MAC reads. Equal to routing::NodeTemperatures at that range.
std::vector<double> CoolestTemperatures(const Scenario& scenario);

// Runs the Coolest-path baseline on the same deployment/MAC.
CollectionResult RunCoolest(const Scenario& scenario,
                            routing::TemperatureMetric metric =
                                routing::TemperatureMetric::kAccumulated);

// Shared plumbing: run a CSMA collection over an arbitrary next-hop table.
// Exposed for tests and custom examples (e.g. hand-crafted routes).
CollectionResult RunWithNextHops(const Scenario& scenario,
                                 std::vector<graph::NodeId> next_hop,
                                 const std::string& algorithm_label,
                                 const RunOptions& options = {});

// Convenience: build the scenario for (config, repetition) and run both
// algorithms on the identical deployment.
struct ComparisonResult {
  CollectionResult addc;
  CollectionResult coolest;
};
ComparisonResult RunComparison(const ScenarioConfig& config, std::uint64_t repetition,
                               routing::TemperatureMetric metric =
                                   routing::TemperatureMetric::kAccumulated);

// --- continuous data collection ---------------------------------------
// Repeats the snapshot workload every `interval` for `snapshot_count`
// rounds over the ADDC tree. The offered load is sustainable iff
// per-snapshot completion delays stabilize instead of growing round over
// round — the operational meaning of Theorem 2's capacity bound. The
// smallest sustainable interval ≈ n·B/capacity.
struct ContinuousResult {
  // The whole run, labelled "ADDC/continuous"; its snapshot_delay_ms holds
  // the per-round delays.
  CollectionResult aggregate;
  double mean_snapshot_delay_ms = 0.0;
  // Linear-drift estimate: (mean delay of last third − first third) per
  // round; ≈ 0 when the load is inside capacity, strongly positive when the
  // backlog diverges.
  double delay_drift_ms_per_round = 0.0;
  bool sustainable = false;  // completed and drift below 10% of the interval
};
// RunAddc with `options`' workload set to (interval, snapshot_count),
// summarized by SummarizeContinuous. Every other option applies as in
// RunAddc.
ContinuousResult RunAddcContinuous(const Scenario& scenario, sim::TimeNs interval,
                                   std::int32_t snapshot_count,
                                   RunOptions options = {});
// The drift and sustainability of `run`, a RunAddc result whose workload
// was (interval, snapshot_count).
ContinuousResult SummarizeContinuous(CollectionResult run, sim::TimeNs interval,
                                     std::int32_t snapshot_count);

// --- determinism verification -----------------------------------------
// Dual-run trace-digest check: executes the identical ADDC run twice and
// compares the auditor's FNV digests. `identical` is the machine-checked
// form of the repo's "same seed ⇒ bit-identical behaviour" claim, which
// every figure-regeneration bench relies on. Used by the integration tests
// and `addc_sim --audit`.
struct DeterminismReport {
  std::uint64_t first_digest = 0;
  std::uint64_t second_digest = 0;
  bool identical = false;
};
DeterminismReport CheckAddcDeterminism(const Scenario& scenario,
                                       const RunOptions& options = {});

}  // namespace crn::core

#endif  // CRN_CORE_COLLECTION_H_
