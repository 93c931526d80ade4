#include "faults/fault_injector.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "graph/repair.h"
#include "sim/checkpoint.h"

namespace crn::faults {

std::int64_t FaultReport::injected_total() const {
  std::int64_t total = 0;
  for (const std::int64_t count : injected) total += count;
  return total;
}

std::string FaultReport::Summary() const {
  std::ostringstream out;
  out << "injected " << injected_total() << " fault events (";
  bool first = true;
  for (int k = 0; k < kFaultKindCount; ++k) {
    if (injected[k] == 0) continue;
    if (!first) out << ", ";
    out << ToString(static_cast<FaultKind>(k)) << " " << injected[k];
    first = false;
  }
  if (first) out << "none";
  out << "); " << repairs_attempted << " repair passes, " << reattached_total
      << " reattached, " << cascade_escalations << " cascade escalations, "
      << orphaned_now << " orphaned";
  return out.str();
}

FaultInjector::FaultInjector(FaultPlan plan, Rng rng)
    : plan_(std::move(plan)), rng_(rng) {}

void FaultInjector::AddRepairObserver(std::function<void()> observer) {
  CRN_CHECK(observer != nullptr);
  repair_observers_.push_back(std::move(observer));
}

void FaultInjector::Attach(sim::Simulator& simulator, mac::CollectionMac& mac,
                           const graph::UnitDiskGraph& graph,
                           pu::PrimaryNetwork* primary, obs::MetricsRegistry* metrics) {
  CRN_CHECK(simulator_ == nullptr) << "FaultInjector attached twice";
  CRN_CHECK(graph.node_count() == mac.node_count())
      << "graph has " << graph.node_count() << " nodes, mac has "
      << mac.node_count();
  timeline_ = CompileFaultTimeline(plan_, rng_, graph.node_count(), mac.sink());
  if (timeline_.empty()) return;  // contract: empty plan == injector absent

  simulator_ = &simulator;
  mac_ = &mac;
  graph_ = &graph;
  primary_ = primary;
  metrics_ = metrics;

  bfs_ = graph::BreadthFirstLayering(graph, mac.sink());
  broken_since_.assign(static_cast<std::size_t>(graph.node_count()), -1);
  base_false_alarm_ = mac.config().sensing_false_alarm;
  base_missed_detection_ = mac.config().sensing_missed_detection;
  if (primary_ != nullptr) base_pu_activity_ = primary_->config().activity;

  for (const FaultEvent& event : timeline_) {
    if (event.kind == FaultKind::kPuActivityStart ||
        event.kind == FaultKind::kPuActivityEnd) {
      CRN_CHECK(primary_ != nullptr)
          << "fault plan perturbs PU activity but no primary network attached";
    }
  }
  timeline_seqs_.assign(timeline_.size(), 0);
  // Under restore the same timeline recompiles from the same stream; the
  // still-pending events are re-claimed by LoadState instead of scheduled.
  if (simulator.restoring()) return;
  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    const FaultEvent& event = timeline_[i];
    timeline_seqs_[i] = simulator.ScheduleOnce(
        event.time, sim::EventPriority::kDefault, "faults.timeline", event.node,
        [this, i] { OnTimelineFire(i); });
  }
}

void FaultInjector::OnTimelineFire(std::size_t index) {
  timeline_seqs_[index] = 0;
  Apply(timeline_[index]);
}

void FaultInjector::OnRepairFire(graph::NodeId trigger) {
  // FIFO per node: every repair uses the same delay, so the first matching
  // entry is always the earliest-scheduled pass.
  const auto it = std::find_if(
      pending_repairs_.begin(), pending_repairs_.end(),
      [trigger](const auto& p) { return p.first == trigger; });
  CRN_DCHECK(it != pending_repairs_.end());
  pending_repairs_.erase(it);
  RunRepairPass(trigger);
}

void FaultInjector::Apply(const FaultEvent& event) {
  ++report_.injected[static_cast<int>(event.kind)];
  if (metrics_ != nullptr) {
    metrics_->GetCounter("faults.injected_total", {{"kind", ToString(event.kind)}})
        .Add(1);
  }
  switch (event.kind) {
    case FaultKind::kCrash: {
      const graph::NodeId node = event.node;
      mac_->FailNode(node);
      broken_since_[node] = simulator_->now();
      // The whole subtree below the crash loses its route at this instant;
      // stamp it so time-to-repair is measured from the break, not from the
      // repair pass that heals it.
      const graph::NodeId n = graph_->node_count();
      for (graph::NodeId v = 0; v < n; ++v) {
        if (mac_->IsFailed(v) || broken_since_[v] >= 0 || v == mac_->sink()) continue;
        graph::NodeId cursor = v;
        std::int32_t steps = 0;
        while (cursor != mac_->sink()) {
          if (mac_->IsFailed(cursor) || ++steps > n) {
            broken_since_[v] = simulator_->now();
            break;
          }
          cursor = mac_->next_hop(cursor);
        }
      }
      pending_repairs_.emplace_back(
          node, simulator_->ScheduleOnceAfter(
                    plan_.repair_delay, sim::EventPriority::kDefault,
                    "faults.repair", node, [this, node] { OnRepairFire(node); }));
      break;
    }
    case FaultKind::kRecover:
      mac_->RecoverNode(event.node);
      ++report_.recoveries;
      // The rejoined node's stored next hop may be stale, and orphans may
      // now have a path through it — reconcile the whole table.
      RunRepairPass(graph::kInvalidNode);
      break;
    case FaultKind::kSensingBurstStart:
      ++active_bursts_;
      mac_->SetSensingErrorRates(event.false_alarm, event.missed_detection);
      break;
    case FaultKind::kSensingBurstEnd:
      CRN_DCHECK(active_bursts_ > 0);
      if (--active_bursts_ == 0) {
        mac_->SetSensingErrorRates(base_false_alarm_, base_missed_detection_);
      }
      break;
    case FaultKind::kPuActivityStart:
      ++active_pu_perturbations_;
      primary_->OverrideActivity(event.pu_activity);
      break;
    case FaultKind::kPuActivityEnd:
      CRN_DCHECK(active_pu_perturbations_ > 0);
      if (--active_pu_perturbations_ == 0) {
        primary_->OverrideActivity(base_pu_activity_);
      }
      break;
  }
}

void FaultInjector::RunRepairPass(graph::NodeId trigger) {
  ++report_.repairs_attempted;
  const graph::NodeId n = graph_->node_count();
  std::vector<char> alive(static_cast<std::size_t>(n), 1);
  std::vector<graph::NodeId> next_hop(static_cast<std::size_t>(n));
  std::int32_t failed_count = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    alive[v] = mac_->IsFailed(v) ? 0 : 1;
    next_hop[v] = mac_->next_hop(v);
    if (!alive[v]) ++failed_count;
  }

  // Local repair handles the common case — one standing failure — with
  // one-hop knowledge; anything harder (orphans left behind, simultaneous
  // failures, post-recovery reconciliation) escalates to the cascade.
  graph::RepairPlan plan;
  bool escalated = false;
  if (trigger != graph::kInvalidNode && failed_count == 1 && mac_->IsFailed(trigger)) {
    plan = graph::PlanLocalRepair(*graph_, bfs_, next_hop, alive, trigger);
    if (!plan.complete()) {
      escalated = true;
      plan = graph::PlanCascadeRepair(*graph_, next_hop, alive, mac_->sink());
    }
  } else {
    escalated = failed_count > 0;  // reconciliation after a recovery is not one
    plan = graph::PlanCascadeRepair(*graph_, next_hop, alive, mac_->sink());
  }
  if (escalated) ++report_.cascade_escalations;

  for (const auto& [node, new_hop] : plan.repaired) {
    mac_->UpdateNextHop(node, new_hop);
  }
  report_.reattached_total += static_cast<std::int64_t>(plan.repaired.size());
  report_.orphaned_now = static_cast<std::int64_t>(plan.orphaned.size());

  // Every marked node whose route is clean again (reattached by this pass,
  // or healed by an earlier recovery) closes its outage window now.
  std::vector<char> orphaned(static_cast<std::size_t>(n), 0);
  for (const graph::NodeId v : plan.orphaned) orphaned[v] = 1;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (broken_since_[v] < 0 || orphaned[v] || !alive[v]) continue;
    if (metrics_ != nullptr) {
      metrics_->GetHistogram("repair.time_to_repair_ns")
          .Record(simulator_->now() - broken_since_[v]);
    }
    broken_since_[v] = -1;
  }

  if (metrics_ != nullptr) {
    metrics_->GetCounter("repair.passes_total").Add(1);
    metrics_->GetCounter("repair.reattached_total")
        .Add(static_cast<std::int64_t>(plan.repaired.size()));
    metrics_->GetCounter("repair.escalations_total").Add(escalated ? 1 : 0);
    metrics_->GetGauge("repair.orphaned_now")
        .Set(static_cast<std::int64_t>(plan.orphaned.size()));
  }
  for (const auto& observer : repair_observers_) observer();
}

void FaultInjector::SaveState(sim::StateWriter& writer) const {
  Transfer(*this, writer);
}

void FaultInjector::LoadState(sim::StateReader& reader) {
  Transfer(*this, reader);
}

template <class Self, class Ar>
void FaultInjector::Transfer(Self& self, Ar& ar) {
  if (!ar.BeginSection("faults")) return;
  ar.Io(self.rng_);
  auto& report = self.report_;
  for (auto& count : report.injected) ar.Io(count);
  ar.Io(report.repairs_attempted);
  ar.Io(report.reattached_total);
  ar.Io(report.cascade_escalations);
  ar.Io(report.recoveries);
  ar.Io(report.orphaned_now);
  ar.Io(self.base_false_alarm_);
  ar.Io(self.base_missed_detection_);
  ar.Io(self.base_pu_activity_);
  ar.Io(self.active_bursts_);
  ar.Io(self.active_pu_perturbations_);
  ar.FixedCount(self.broken_since_.size());
  for (auto& since : self.broken_since_) ar.Io(since);
  // Only the still-pending timeline events, as (timeline index, seq) pairs.
  std::vector<std::pair<std::uint32_t, sim::EventId>> timeline_pending;
  for (std::size_t i = 0; i < self.timeline_seqs_.size(); ++i) {
    if (self.timeline_seqs_[i] != 0) {
      timeline_pending.emplace_back(static_cast<std::uint32_t>(i), self.timeline_seqs_[i]);
    }
  }
  ar.Seq(timeline_pending, [](auto& io, auto& event) {
    io.Io(event.first);
    io.Io(event.second);
  });
  ar.Seq(self.pending_repairs_, [n = self.graph_->node_count()](auto& io, auto& repair) {
    io.Id(repair.first, n);
    io.Io(repair.second);
  });
  ar.EndSection();
  if constexpr (Ar::kLoading) {
    if (!ar.ok()) return;
    FaultInjector* injector = &self;
    for (const auto& [index, seq] : timeline_pending) {
      CRN_CHECK(index < injector->timeline_.size())
          << "checkpoint references fault-timeline event " << index
          << " but the recompiled timeline has " << injector->timeline_.size()
          << " — the restored run used a different fault plan or seed";
      injector->timeline_seqs_[index] = seq;
      const std::size_t i = index;
      injector->simulator_->RestoreOnce(
          seq, sim::EventPriority::kDefault, "faults.timeline",
          injector->timeline_[i].node,
          sim::EventFn([injector, i] { injector->OnTimelineFire(i); }));
    }
    for (const auto& [node, seq] : injector->pending_repairs_) {
      const graph::NodeId trigger = node;
      injector->simulator_->RestoreOnce(
          seq, sim::EventPriority::kDefault, "faults.repair", trigger,
          sim::EventFn([injector, trigger] { injector->OnRepairFire(trigger); }));
    }
  }
}

}  // namespace crn::faults
