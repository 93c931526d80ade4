// FaultInjector — drives a compiled fault timeline through a running
// collection and heals what it breaks (DESIGN.md §9).
//
// Attach() compiles the plan against the run's topology and schedules one
// simulator event per fault at kDefault priority. Crashes call
// CollectionMac::FailNode and, `repair_delay` later, a self-healing pass:
// graph::PlanLocalRepair for a single standing failure, escalating to
// graph::PlanCascadeRepair (multi-hop re-rooting) whenever local repair
// leaves orphans or several failures/recoveries overlap. Repairs are applied
// through UpdateNextHop in plan order, so the routing table is acyclic at
// every step. Sensing bursts swap the MAC's detector error rates; PU
// perturbations override the primary duty cycle. Everything is accounted in
// a FaultReport and (optionally) an obs::MetricsRegistry.
//
// Contract: an empty plan compiles to an empty timeline and Attach() becomes
// a no-op — a run with such an injector is byte-identical to a run without
// one (pinned by tests/faults/fault_injector_test.cc).
#ifndef CRN_FAULTS_FAULT_INJECTOR_H_
#define CRN_FAULTS_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "faults/fault_plan.h"
#include "graph/unit_disk_graph.h"
#include "mac/collection_mac.h"
#include "obs/metrics.h"
#include "pu/primary_network.h"
#include "sim/simulator.h"

namespace crn::faults {

// What the injector did to one run. All counters are totals over the run.
struct FaultReport {
  std::array<std::int64_t, kFaultKindCount> injected{};  // by FaultKind
  std::int64_t repairs_attempted = 0;    // self-healing passes run
  std::int64_t reattached_total = 0;     // next-hop updates applied
  std::int64_t cascade_escalations = 0;  // passes that needed cascade repair
  std::int64_t recoveries = 0;           // nodes brought back
  std::int64_t orphaned_now = 0;         // partition size after the last pass

  [[nodiscard]] std::int64_t injected_total() const;
  // One-line human summary ("injected 12 faults (8 crash, ...), ...").
  [[nodiscard]] std::string Summary() const;
};

class FaultInjector {
 public:
  // Compiles nothing yet; the plan is captured by value so callers may
  // discard theirs. `rng` seeds the generator streams (pass the run rng's
  // "faults" stream for reproducibility from the scenario seed).
  FaultInjector(FaultPlan plan, Rng rng);

  // Compiles the timeline against the attached topology and schedules every
  // fault. No-op (and schedules nothing) when the timeline is empty.
  // `primary` may be null iff the plan has no PU perturbations; `metrics`
  // may be null. All referenced objects must outlive the injector.
  void Attach(sim::Simulator& simulator, mac::CollectionMac& mac,
              const graph::UnitDiskGraph& graph, pu::PrimaryNetwork* primary,
              obs::MetricsRegistry* metrics);

  // Fires after every completed self-healing pass (repairs applied, report
  // updated) — the invariant auditor hooks VerifyRouting() here.
  void AddRepairObserver(std::function<void()> observer);

  // True when Attach() scheduled at least one fault.
  [[nodiscard]] bool armed() const { return !timeline_.empty(); }
  [[nodiscard]] const std::vector<FaultEvent>& timeline() const { return timeline_; }
  [[nodiscard]] const FaultReport& report() const { return report_; }

  // Checkpoint protocol (sim/checkpoint.h, section "faults"): the report,
  // per-node outage windows, burst/perturbation nesting depths, the
  // generator stream, and every pending timeline/repair event. Call Attach
  // first on the restored run — under Simulator::restoring() it compiles
  // the timeline but leaves scheduling to LoadState's re-claims.
  void SaveState(sim::StateWriter& writer) const;
  void LoadState(sim::StateReader& reader);

 private:
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar);

  void Apply(const FaultEvent& event);
  void OnTimelineFire(std::size_t index);
  void OnRepairFire(graph::NodeId trigger);
  void RunRepairPass(graph::NodeId trigger);

  FaultPlan plan_;
  Rng rng_;
  std::vector<FaultEvent> timeline_;
  FaultReport report_;

  sim::Simulator* simulator_ = nullptr;
  mac::CollectionMac* mac_ = nullptr;
  const graph::UnitDiskGraph* graph_ = nullptr;
  pu::PrimaryNetwork* primary_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;

  graph::BfsLayering bfs_;  // static hop levels for local repair
  std::vector<sim::TimeNs> broken_since_;  // -1 = not currently broken
  double base_false_alarm_ = 0.0;
  double base_missed_detection_ = 0.0;
  double base_pu_activity_ = 0.0;
  std::int32_t active_bursts_ = 0;
  std::int32_t active_pu_perturbations_ = 0;
  std::vector<std::function<void()>> repair_observers_;
  // Checkpoint bookkeeping: each timeline event's pending sequence number
  // (0 once fired, parallel to timeline_) and the in-flight repair passes.
  std::vector<sim::EventId> timeline_seqs_;
  std::vector<std::pair<graph::NodeId, sim::EventId>> pending_repairs_;
};

}  // namespace crn::faults

#endif  // CRN_FAULTS_FAULT_INJECTOR_H_
