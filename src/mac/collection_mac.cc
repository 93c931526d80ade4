#include "mac/collection_mac.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/simd_width.h"
#include "sim/checkpoint.h"
#include "spectrum/lane_sum.h"

namespace crn::mac {

namespace {

// Grid cell size for the sensing grid: the PCR is the only query radius.
double SensingCellSize(double pcr) { return std::max(pcr, 1.0); }

}  // namespace

std::vector<std::int32_t> RouteDepths(const std::vector<NodeId>& next_hop,
                                      NodeId sink) {
  const auto n = static_cast<std::int32_t>(next_hop.size());
  constexpr std::int32_t kUnseen = -1;
  constexpr std::int32_t kOnPath = -2;
  std::vector<std::int32_t> depth(n, kUnseen);
  depth[sink] = 0;
  // Walk up from each node until a node of known depth, then unwind the
  // path. Every node is walked once, so the whole table costs O(n).
  std::vector<NodeId> path;
  for (NodeId v = 0; v < n; ++v) {
    NodeId cursor = v;
    while (depth[cursor] == kUnseen) {
      const NodeId next = next_hop[cursor];
      CRN_CHECK(next != cursor && next >= 0 && next < n)
          << "bad next hop " << next << " at node " << cursor;
      depth[cursor] = kOnPath;
      path.push_back(cursor);
      cursor = next;
    }
    CRN_CHECK(depth[cursor] != kOnPath) << "next-hop cycle involving node " << v;
    std::int32_t d = depth[cursor];
    while (!path.empty()) {
      depth[path.back()] = ++d;
      path.pop_back();
    }
  }
  return depth;
}

const MacConfig& CollectionMac::ValidatedConfig(const MacConfig& config) {
  CRN_CHECK(config.pcr > 0.0)
      << "pcr=" << config.pcr
      << ": the carrier-sensing range must be positive — configure it from "
      << "ProperCarrierSensingRange() or set it explicitly";
  CRN_CHECK(config.su_power > 0.0)
      << "su_power=" << config.su_power << ": transmit power must be positive";
  CRN_CHECK(config.alpha > 0.0)
      << "alpha=" << config.alpha << ": the path-loss exponent must be positive";
  CRN_CHECK(config.slot > 0) << "slot=" << config.slot
                             << " ns: the PU slot duration must be positive";
  CRN_CHECK(config.contention_window > 0 && config.contention_window <= config.slot)
      << "contention_window=" << config.contention_window << " ns must be in (0, slot="
      << config.slot << " ns]";
  CRN_CHECK(config.tx_duration > 0)
      << "tx_duration=" << config.tx_duration
      << " ns: the packet airtime must be positive (typically slot - "
      << "contention_window)";
  CRN_CHECK(config.sensing_false_alarm >= 0.0 && config.sensing_false_alarm <= 1.0)
      << "sensing_false_alarm=" << config.sensing_false_alarm
      << " is a probability; pass a value in [0, 1]";
  CRN_CHECK(config.sensing_missed_detection >= 0.0 &&
            config.sensing_missed_detection <= 1.0)
      << "sensing_missed_detection=" << config.sensing_missed_detection
      << " is a probability; pass a value in [0, 1]";
  CRN_CHECK(config.sensing_latency >= 0)
      << "sensing_latency=" << config.sensing_latency
      << " ns: a detection lag cannot be negative (0 = instantaneous sensing)";
  CRN_CHECK(config.backoff_granularity >= 0)
      << "backoff_granularity=" << config.backoff_granularity
      << " ns: pass 0 for Algorithm 1's continuous backoff or a positive "
      << "contention-slot width for the conventional-MAC emulation";
  CRN_CHECK(config.dead_hop_retx_budget >= 0)
      << "dead_hop_retx_budget=" << config.dead_hop_retx_budget
      << ": pass 0 for unbounded retries or a positive per-packet budget";
  return config;
}

CollectionMac::CollectionMac(sim::Simulator& simulator, pu::PrimaryNetwork& primary,
                             std::vector<geom::Vec2> positions, geom::Aabb area,
                             NodeId sink, std::vector<NodeId> next_hop,
                             const MacConfig& config, Rng rng,
                             std::shared_ptr<const PuSensingTable> pu_table)
    : simulator_(simulator),
      primary_(primary),
      positions_(std::move(positions)),
      area_(area),
      sink_(sink),
      next_hop_(std::move(next_hop)),
      config_(ValidatedConfig(config)),
      backoff_rng_(rng.Stream("backoff")),
      activity_(rng.Stream("pu-activity")),
      audit_rng_(rng.Stream("pu-audit")),
      sensing_rng_(rng.Stream("sensing")),
      path_loss_(config.alpha),
      field_(path_loss_, positions_, config.su_power, primary.positions(),
             primary.config().power),
      pu_table_(pu_table != nullptr
                    ? std::move(pu_table)
                    : BuildPuSensingTable(positions_, primary.positions(), area,
                                          config_.pcr)),
      sensing_grid_(positions_, area, SensingCellSize(config.pcr)),
      carrier_grid_(sensing_grid_) {  // same layout, still empty
  const auto n = node_count();
  CRN_CHECK(n > 0);
  CRN_CHECK(sink_ >= 0 && sink_ < n);
  CRN_CHECK(static_cast<std::int32_t>(next_hop_.size()) == n);
  CRN_CHECK(pu_table_->node_count() == n && pu_table_->pu_count == primary_.count() &&
            pu_table_->pcr == config_.pcr)
      << "the PU sensing table was built for " << pu_table_->node_count()
      << " nodes, " << pu_table_->pu_count << " PUs and pcr=" << pu_table_->pcr
      << ", not this run's " << n << ", " << primary_.count() << " and "
      << config_.pcr;

  route_depths_ = RouteDepths(next_hop_, sink_);

  agents_.resize(n);
  agent_phase_.assign(n, Phase::kIdle);
  agent_frozen_.assign(n, 1);
  agent_pu_busy_.assign(n, 0);
  agent_su_busy_.assign(n, 0);
  failed_.assign(n, 0);
  carrier_count_.assign(n, 0);
  contending_slot_.assign(n, -1);
  active_tx_slot_.assign(n, -1);
  delivery_time_.assign(n, -1);
  expected_per_origin_.assign(n, 0);
  delivered_per_origin_.assign(n, 0);
  success_tx_count_.assign(n, 0);

  // Bind each agent's two timers once — arming/cancelling them later is
  // O(1) and allocation-free. Both kinds register before the loop, expiry
  // first: kind ids follow registration order, which flight-recorder dumps
  // and the CRNCKPT1 registry pin.
  pu_sense_.assign(n, PuSense{});
  const sim::EventKind expiry_kind = simulator_.RegisterEventKind("mac.backoff_expiry");
  const sim::EventKind wait_kind = simulator_.RegisterEventKind("mac.post_tx_wait");
  for (NodeId v = 0; v < n; ++v) {
    agents_[v].expiry_timer.Bind(simulator_, sim::EventPriority::kTimerExpiry,
                                 expiry_kind, v, [this, v] { OnBackoffExpired(v); });
    agents_[v].wait_timer.Bind(simulator_, sim::EventPriority::kDefault, wait_kind,
                               v, [this, v] { OnPostTxWaitDone(v); });
  }
}

void CollectionMac::StartCollection(const std::vector<NodeId>& producers) {
  StartContinuousCollection(producers, config_.slot, /*snapshot_count=*/1);
}

void CollectionMac::StartSnapshotCollection(sim::TimeNs interval,
                                            std::int32_t snapshot_count) {
  std::vector<NodeId> producers;
  producers.reserve(node_count() - 1);
  for (NodeId v = 0; v < node_count(); ++v) {
    if (v != sink_) producers.push_back(v);
  }
  StartContinuousCollection(producers, interval > 0 ? interval : config_.slot,
                            snapshot_count);
}

void CollectionMac::StartContinuousCollection(const std::vector<NodeId>& producers,
                                              sim::TimeNs interval,
                                              std::int32_t snapshot_count) {
  CRN_CHECK(!running_) << "collection already started";
  CRN_CHECK(snapshot_count >= 1);
  CRN_CHECK(interval > 0);
  CRN_CHECK(!producers.empty());
  for (NodeId v : producers) {
    CRN_CHECK(v != sink_) << "the base station does not produce packets";
    CRN_CHECK(v >= 0 && v < node_count()) << "producer " << v << " out of range";
  }
  running_ = true;
  expected_packets_ =
      static_cast<std::int64_t>(producers.size()) * snapshot_count;
  snapshots_.assign(snapshot_count,
                    {-1, -1, static_cast<std::int64_t>(producers.size())});
  const sim::TimeNs now = simulator_.now();
  // Slot boundary first (samples the initial PU state); snapshot seeding
  // events run at default priority, so producers always see a sampled slot.
  slot_timer_.Bind(simulator_, sim::EventPriority::kSlotBoundary,
                   "mac.slot_boundary", sink_, [this] { OnSlotBoundary(); });
  slot_timer_.Start(now, config_.slot);
  audit_timer_.Bind(simulator_, sim::EventPriority::kDefault, "mac.pu_audit",
                    sink_, [this] { AuditPrimaryReceptions(); });
  seed_producers_ = producers;
  for (std::int32_t k = 0; k < snapshot_count; ++k) {
    const sim::EventId seq =
        simulator_.ScheduleOnce(  // crn-lint-ok: one-time cold-path seeding
                                  // burst; each one-shot carries a distinct
                                  // snapshot payload, which a bind-once
                                  // Timer cannot.
            now + k * interval, sim::EventPriority::kDefault,
            "mac.seed_snapshot", sink_, [this, k] { OnSeedSnapshot(k); });
    pending_seeds_.push_back({k, seq});
  }
}

void CollectionMac::OnSeedSnapshot(std::int32_t snapshot) {
  const auto it = std::find_if(
      pending_seeds_.begin(), pending_seeds_.end(),
      [snapshot](const PendingSeed& p) { return p.snapshot == snapshot; });
  CRN_DCHECK(it != pending_seeds_.end());
  pending_seeds_.erase(it);
  SeedSnapshot(seed_producers_, snapshot);
}

void CollectionMac::SeedSnapshot(const std::vector<NodeId>& producers,
                                 std::int32_t snapshot) {
  const sim::TimeNs now = simulator_.now();
  snapshots_[snapshot].created = now;
  for (NodeId v : producers) {
    ++stats_.packets_seeded;
    ++expected_per_origin_[v];
    if (failed_[v]) {
      // A producer that is down when its snapshot fires loses that reading
      // on the spot — otherwise the run would wait forever for a packet no
      // one holds (continuous collection under churn).
      const Packet packet{v, now, 0, snapshot};
      Emit(MacEvent::Kind::kPacketCreated, v, &packet, 0);
      LosePacket(v, packet, 0);
      continue;
    }
    agents_[v].queue.push_back(Packet{v, now, 0, snapshot});
    Emit(MacEvent::Kind::kPacketCreated, v, &agents_[v].queue.back(),
         static_cast<std::int64_t>(agents_[v].queue.size()));
  }
  for (NodeId v : producers) {
    if (!failed_[v]) ActivateIfIdle(v);
  }
  CheckTermination();
}

// --- agent lifecycle ------------------------------------------------------

void CollectionMac::ChooseSirMode() {
  sir_mode_chosen_ = true;
  if (!observers_.empty() || keep_sir_floors_) return;
  sir_lanes_ = true;
  lane_margin_ = spectrum::lane_sum::Margin(
      positions_.size() + static_cast<std::size_t>(primary_.count()), config_.alpha);
  field_.UseLanes(simd::BestWidth());
}

void CollectionMac::ActivateIfIdle(NodeId node) {
  if (!failed_[node] && agent_phase_[node] == Phase::kIdle &&
      !agents_[node].queue.empty()) {
    BeginContention(node);
  }
}

void CollectionMac::FailNode(NodeId node) {
  CRN_CHECK(node != sink_) << "the base station cannot fail";
  CRN_CHECK(!failed_[node]) << "node " << node << " already failed";
  Agent& agent = agents_[node];
  // Cut any transmission it is sending; the packet returns to the queue
  // first and is then lost with the node below.
  if (agent_phase_[node] == Phase::kTransmitting) {
    FinishTransmission(node, /*aborted=*/true);
    // FinishTransmission put the node into PostTxWait with a pending event.
  }
  agent.wait_timer.Disarm();
  if (agent_phase_[node] == Phase::kContending) {
    LeaveContention(node);
  }
  agent_phase_[node] = Phase::kIdle;
  failed_[node] = 1;
  // In-flight transmissions toward the node lose their receiver.
  for (Transmission& tx : active_tx_) {
    if (tx.receiver == node && tx.receiver_ok) {
      tx.receiver_ok = false;
      tx.forced_outcome = TxOutcome::kReceiverBusy;
    }
  }
  // Its queue is lost with it: shrink the expectations so termination and
  // snapshot accounting stay exact.
  std::int64_t left = static_cast<std::int64_t>(agent.queue.size());
  for (const Packet& packet : agent.queue) {
    LosePacket(node, packet, --left);
  }
  agent.queue.clear();
  agent.dead_hop_failures = 0;
  CheckTermination();
}

void CollectionMac::RecoverNode(NodeId node) {
  CRN_CHECK(failed_[node]) << "node " << node << " is not failed";
  Agent& agent = agents_[node];
  CRN_DCHECK(agent_phase_[node] == Phase::kIdle && agent.queue.empty());
  failed_[node] = 0;
  agent.dead_hop_failures = 0;
  // Nothing to activate: the node rejoins empty-handed and wakes up on its
  // next received packet or seeded snapshot.
}

void CollectionMac::UpdateNextHop(NodeId node, NodeId next_hop) {
  CRN_CHECK(node != sink_ && !failed_[node]) << "node " << node;
  CRN_CHECK(next_hop != node) << "self-loop at " << node;
  CRN_CHECK(!failed_[next_hop]) << "next hop " << next_hop << " has failed";
  next_hop_[node] = next_hop;
  agents_[node].dead_hop_failures = 0;  // the repaired route gets a fresh budget
  // The re-route must still reach the base station acyclically.
  NodeId cursor = node;
  std::int32_t steps = 0;
  while (cursor != sink_) {
    cursor = next_hop_[cursor];
    CRN_CHECK(++steps < node_count()) << "re-route created a cycle at " << node;
  }
}

void CollectionMac::SetSensingErrorRates(double false_alarm,
                                         double missed_detection) {
  CRN_CHECK(false_alarm >= 0.0 && false_alarm <= 1.0)
      << "false_alarm=" << false_alarm << " is a probability; pass [0, 1]";
  CRN_CHECK(missed_detection >= 0.0 && missed_detection <= 1.0)
      << "missed_detection=" << missed_detection << " is a probability; pass [0, 1]";
  config_.sensing_false_alarm = false_alarm;
  config_.sensing_missed_detection = missed_detection;
}

void CollectionMac::BeginContention(NodeId node) {
  Agent& agent = agents_[node];
  CRN_DCHECK(agent_phase_[node] == Phase::kIdle ||
             agent_phase_[node] == Phase::kPostTxWait);
  CRN_DCHECK(!agent.queue.empty());
  agent_phase_[node] = Phase::kContending;
  if (config_.backoff_granularity <= 0) {
    // Algorithm 1: t_i uniform over (0, τ_c] at nanosecond granularity —
    // simultaneous expiries among neighbors have probability ~0.
    agent.backoff_drawn =
        1 + static_cast<sim::TimeNs>(
                backoff_rng_.UniformInt(static_cast<std::uint64_t>(config_.contention_window)));
  } else {
    // Conventional MAC: pick one of the few discrete contention slots. The
    // small backward jitter keeps event timestamps distinct while leaving
    // same-slot picks inside each other's sensing-latency blind window, so
    // they genuinely collide.
    const auto slots = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(config_.contention_window / config_.backoff_granularity));
    const sim::TimeNs pick =
        config_.backoff_granularity *
        static_cast<sim::TimeNs>(1 + backoff_rng_.UniformInt(slots));
    const sim::TimeNs jitter_range = std::max<sim::TimeNs>(
        2, std::min<sim::TimeNs>(sim::kMicrosecond, config_.backoff_granularity / 4));
    agent.backoff_drawn =
        pick - static_cast<sim::TimeNs>(backoff_rng_.UniformInt(
                   static_cast<std::uint64_t>(jitter_range)));
  }
  agent.remaining = agent.backoff_drawn;
  agent_frozen_[node] = 1;
  // Emitted before UpdateFreezeState below so observers see
  // contention-started strictly before any same-instant resume.
  Emit(MacEvent::Kind::kContentionStarted, node, &agent.queue.front(),
       agent.backoff_drawn);

  // Join the sensing set.
  CRN_DCHECK(contending_slot_[node] < 0);
  contending_slot_[node] = static_cast<std::int32_t>(contending_list_.size());
  contending_list_.push_back(node);
  sensing_grid_.Insert(node);

  // Fresh busy snapshot: stored counts are stale after an absence.
  const bool pu_busy = SensePuBusy(node);
  agent_pu_busy_[node] = pu_busy ? 1 : 0;
  const std::uint64_t word = pu_sense_[node].word;  // this window's, just sensed
  contender_words_.push_back(word);
  sense_mismatch_ |= pu_busy ? ~word : word;
  sense_busy_ += pu_busy ? 1 : 0;
  // A sensing error leaves a flag that its word does not predict.
  if (pu_busy != (((word >> primary_.window_slot()) & 1) != 0)) sense_epoch_ = kNoEpoch;
  agent_su_busy_[node] = ComputeSuBusyCount(node);
  UpdateFreezeState(node);
}

void CollectionMac::LeaveContention(NodeId node) {
  if (agent_frozen_[node] == 0) FreezeTimer(node);
  const std::int32_t pos = contending_slot_[node];
  CRN_DCHECK(pos >= 0);
  const NodeId moved = contending_list_.back();
  contending_list_[pos] = moved;
  contending_slot_[moved] = pos;
  contending_list_.pop_back();
  contender_words_[pos] = contender_words_.back();
  contender_words_.pop_back();
  contending_slot_[node] = -1;
  sensing_grid_.Erase(node);
  sense_busy_ -= agent_pu_busy_[node];
}

void CollectionMac::FreezeTimer(NodeId node) {
  Agent& agent = agents_[node];
  CRN_DCHECK(agent_frozen_[node] == 0);
  agent.remaining -= simulator_.now() - agent.resume_time;
  CRN_DCHECK(agent.remaining >= 0);
  agent_frozen_[node] = 1;
  agent.expiry_timer.Disarm();
  Emit(MacEvent::Kind::kFrozen, node, nullptr, agent.remaining);
}

void CollectionMac::ResumeTimer(NodeId node) {
  Agent& agent = agents_[node];
  CRN_DCHECK(agent_frozen_[node] != 0);
  agent_frozen_[node] = 0;
  agent.resume_time = simulator_.now();
  agent.expiry_timer.ArmAfter(agent.remaining);
  Emit(MacEvent::Kind::kResumed, node, nullptr, agent.remaining);
}

void CollectionMac::UpdateFreezeState(NodeId node) {
  if (agent_phase_[node] != Phase::kContending) return;
  const bool busy = agent_pu_busy_[node] != 0 || agent_su_busy_[node] > 0;
  if (busy && agent_frozen_[node] == 0) {
    FreezeTimer(node);
  } else if (!busy && agent_frozen_[node] != 0) {
    ResumeTimer(node);
  }
}

bool CollectionMac::ComputePuBusy(NodeId node) {
  PuSense& sense = pu_sense_[node];
  if (sense.epoch != primary_.window_epoch()) {
    std::uint64_t word = 0;
    for (const pu::PuId p : pu_table_->PusOf(node)) {
      word |= primary_.window_word(p);
    }
    sense = {word, primary_.window_epoch()};
  }
  return ((sense.word >> primary_.window_slot()) & 1) != 0;
}

bool CollectionMac::SensePuBusy(NodeId node) {
  const bool truth = ComputePuBusy(node);
  if (truth) {
    if (config_.sensing_missed_detection > 0.0 &&
        sensing_rng_.Bernoulli(config_.sensing_missed_detection)) {
      return false;
    }
    return true;
  }
  return config_.sensing_false_alarm > 0.0 &&
         sensing_rng_.Bernoulli(config_.sensing_false_alarm);
}

std::int32_t CollectionMac::ComputeSuBusyCount(NodeId node) const {
  // Counts carriers this node can currently *sense*: announced active
  // transmissions plus ended-but-not-yet-faded ones, mirroring exactly the
  // increments/decrements the notification events will deliver later. The
  // carrier grid holds every node with carrier_count_ > 0, maintained by
  // NotifySensorsTxStart/End; summing the integer counts over the PCR disk
  // is order-independent, so the result is bit-identical to a linear scan
  // over active_tx_ and fading_. With no carrier on the air (every
  // contention a snapshot's seeding starts) there is nothing to scan.
  if (carrier_grid_.member_count() == 0) return 0;
  std::int32_t count = 0;
  carrier_grid_.ForEachMemberInDisk(positions_[node], config_.pcr,
                                    [&](NodeId carrier) {
                                      count += carrier_count_[carrier];
                                    });
  return count;
}

void CollectionMac::OnBackoffExpired(NodeId node) {
  Agent& agent = agents_[node];
  CRN_DCHECK(agent_phase_[node] == Phase::kContending);
  // Defensive re-check: a same-instant busy transition processed earlier in
  // the event order freezes the timer and cancels this event, but if the
  // spectrum turned busy through a path that did not touch this agent the
  // conservative move is to wait for the next free period.
  if (agent_pu_busy_[node] != 0 || agent_su_busy_[node] > 0) {
    agent_frozen_[node] = 1;
    agent.remaining = 0;
    return;
  }
  // Line 11 of Algorithm 1: transmit when a spectrum opportunity appears.
  // A packet that cannot finish before the next slot boundary would ride
  // through a PU re-sample; instead the SU holds until the boundary and
  // senses again. All deferred SUs re-fire at exactly the boundary: the
  // event queue's deterministic sequence order preserves their expiry order
  // (Theorem 1's fairness property rides on that order), the first to fire
  // freezes the rest through carrier sensing before their events pop, and a
  // fresh backoff drawn after the boundary (≥ 1 ns) can never leapfrog a
  // deferred winner. Conventional MACs (slot_aware_defer = false) just fire.
  const sim::TimeNs slot_end = slot_start_time_ + config_.slot;
  if (config_.slot_aware_defer &&
      simulator_.now() + config_.tx_duration > slot_end) {
    agent_frozen_[node] = 0;
    agent.resume_time = simulator_.now();
    agent.remaining = slot_end - simulator_.now();
    agent.expiry_timer.ArmAfter(agent.remaining);
    Emit(MacEvent::Kind::kDeferred, node, nullptr, agent.remaining);
    return;
  }
  // The timer is fully consumed: record it as frozen-at-zero so
  // LeaveContention does not re-freeze and subtract the elapsed wait again
  // (which would drive `remaining` negative).
  agent.remaining = 0;
  agent_frozen_[node] = 1;
  LeaveContention(node);
  StartTransmission(node);
}

void CollectionMac::OnPostTxWaitDone(NodeId node) {
  CRN_DCHECK(agent_phase_[node] == Phase::kPostTxWait);
  if (agents_[node].queue.empty()) {
    agent_phase_[node] = Phase::kIdle;
  } else {
    BeginContention(node);
  }
}

// --- transmissions ----------------------------------------------------------

void CollectionMac::StartTransmission(NodeId node) {
  CRN_DCHECK(!agents_[node].queue.empty());
  agent_phase_[node] = Phase::kTransmitting;

  const NodeId receiver = next_hop_[node];
  Transmission tx;
  tx.transmitter = node;
  tx.receiver = receiver;
  tx.start = simulator_.now();
  tx.end = tx.start + config_.tx_duration;
  tx.signal_power = field_.SuGain(node, receiver);

  // Half-duplex: a receiver that is itself on the air cannot receive; a
  // failed receiver is simply gone.
  if (active_tx_slot_[receiver] >= 0 || failed_[receiver]) {
    tx.receiver_ok = false;
    tx.forced_outcome = TxOutcome::kReceiverBusy;
  } else {
    // RS (Re-Start) mode: if the receiver is already locked onto another
    // transmission, the stronger signal wins the radio.
    for (Transmission& other : active_tx_) {
      if (other.receiver != receiver || !other.receiver_ok) continue;
      if (tx.signal_power > other.signal_power) {
        other.receiver_ok = false;
        other.forced_outcome = TxOutcome::kCaptureLost;
      } else {
        tx.receiver_ok = false;
        tx.forced_outcome = TxOutcome::kReceiverBusy;
      }
      break;
    }
  }

  // Both kinds register at the first transmission, not in the
  // constructor: kind ids follow registration order, which dumps and
  // checkpoints pin.
  if (tx_end_kind_.id == 0) tx_end_kind_ = simulator_.RegisterEventKind("mac.tx_end");
  tx.end_timer.Bind(simulator_, sim::EventPriority::kTransmissionEnd, tx_end_kind_,
                    node, [this, node] { FinishTransmission(node, /*aborted=*/false); });
  tx.end_timer.ArmAfter(config_.tx_duration);
  if (config_.sensing_latency <= 0) {
    tx.announced = true;
  } else {
    if (tx_announce_kind_.id == 0) {
      tx_announce_kind_ = simulator_.RegisterEventKind("mac.tx_announce");
    }
    tx.announce_timer.Bind(simulator_, sim::EventPriority::kDefault,
                           tx_announce_kind_, node,
                           [this, node] { AnnounceTxStart(node); });
    tx.announce_timer.ArmAfter(config_.sensing_latency);
  }

  const bool announced_now = tx.announced;
  active_tx_slot_[node] = static_cast<std::int32_t>(active_tx_.size());
  active_tx_.push_back(std::move(tx));
  ++stats_.attempts;
  Emit(MacEvent::Kind::kTxStart, node, nullptr, 0, &active_tx_.back());

  if (announced_now) NotifySensorsTxStart(node);
  // A new interferer appeared: refresh the SIR floor of every ongoing
  // reception, including the new one.
  field_.NoteSuInterfererAdded();
  ReevaluateOngoingSirs();
}

void CollectionMac::AnnounceTxStart(NodeId transmitter) {
  const std::int32_t pos = active_tx_slot_[transmitter];
  CRN_DCHECK(pos >= 0) << "announce for a vanished transmission";
  Transmission& tx = active_tx_[pos];
  tx.announced = true;
  NotifySensorsTxStart(transmitter);
}

void CollectionMac::FinishTransmission(NodeId node, bool aborted) {
  const std::int32_t pos = active_tx_slot_[node];
  CRN_DCHECK(pos >= 0);
  // Move the transmission out: its timers ride along, and the local's
  // destructor cancels whatever is still pending (the end event on an
  // abort, the announcement on an early end) — including when this call
  // *is* the end timer's own fire, where the slot release is deferred
  // until the callback returns.
  Transmission tx = std::move(active_tx_[pos]);
  // Remove from the active set first so our own signal is not counted as
  // interference in any further evaluation.
  const NodeId moved = active_tx_.back().transmitter;
  active_tx_[pos] = std::move(active_tx_.back());
  active_tx_slot_[moved] = pos;
  active_tx_.pop_back();
  active_tx_slot_[node] = -1;
  field_.NoteSuInterfererRemoved();
  if (tx.announced) {
    if (config_.sensing_latency <= 0) {
      NotifySensorsTxEnd(node);
    } else {
      // End of carrier is sensed sensing_latency later; until then new
      // contenders must still count it (fading_).
      if (carrier_fade_kind_.id == 0) {
        carrier_fade_kind_ = simulator_.RegisterEventKind("mac.carrier_fade");
      }
      const sim::EventId seq =
          simulator_.ScheduleOnceAfter(  // crn-lint-ok: per-transmission node
                                         // payload with dynamic multiplicity;
                                         // a bind-once Timer would drop a fade
                                         // re-armed while one is pending.
              config_.sensing_latency, sim::EventPriority::kDefault,
              carrier_fade_kind_, node, [this, node] { OnCarrierFade(node); });
      fading_.push_back({node, seq});
    }
  }
  // else: the carrier vanished before anyone could sense it; the pending
  // announcement dies with `tx`, so increments and decrements stay paired.

  Agent& agent = agents_[node];
  TxOutcome outcome = TxOutcome::kSuccess;
  if (aborted) {
    outcome = TxOutcome::kAbortedPuReturn;
  } else if (!tx.receiver_ok) {
    outcome = tx.forced_outcome;
  } else if (tx.min_sir < config_.eta_s.linear()) {
    outcome = TxOutcome::kSirFailure;
  }
  ++stats_.outcomes[static_cast<std::int32_t>(outcome)];

  CRN_DCHECK(!agent.queue.empty());
  const Packet attempted = agent.queue.front();
  if (outcome == TxOutcome::kSuccess) {
    Packet packet = attempted;
    agent.queue.pop_front();
    ++packet.hops;
    ++success_tx_count_[node];
    agent.dead_hop_failures = 0;
    DeliverOrEnqueue(tx.receiver, packet);
  } else if (config_.dead_hop_retx_budget > 0 && failed_[next_hop_[node]] &&
             ++agent.dead_hop_failures >= config_.dead_hop_retx_budget) {
    // The next hop is gone and no repair has re-pointed the route within
    // the retransmission budget: drop the head packet instead of burning
    // airtime into the void forever (graceful degradation — the loss shows
    // up as delivery ratio < 1, not as a hung run).
    agent.queue.pop_front();
    agent.dead_hop_failures = 0;
    LosePacket(node, attempted, static_cast<std::int64_t>(agent.queue.size()));
    CheckTermination();
  }
  tx.end = simulator_.now();
  Emit(MacEvent::Kind::kTxEnd, node, &attempted, 0, &tx, outcome);

  // Fairness rule (Algorithm 1, line 12): wait out the remainder of the
  // contention window before the next attempt.
  agent_phase_[node] = Phase::kPostTxWait;
  const sim::TimeNs wait =
      config_.fairness_wait
          ? std::max<sim::TimeNs>(0, config_.contention_window - agent.backoff_drawn)
          : 0;
  agent.wait_timer.ArmAfter(wait);
}

void CollectionMac::OnCarrierFade(NodeId node) {
  // FIFO per node: equal fade delays mean the first occurrence is always the
  // earliest-scheduled fade.
  const auto it = std::find_if(fading_.begin(), fading_.end(),
                               [node](const Fade& fade) { return fade.node == node; });
  CRN_DCHECK(it != fading_.end());
  fading_.erase(it);
  NotifySensorsTxEnd(node);
}

void CollectionMac::AbortOnPuReturn(NodeId node) {
  CRN_DCHECK(active_tx_slot_[node] >= 0);
  FinishTransmission(node, /*aborted=*/true);
}

void CollectionMac::NotifySensorsTxStart(NodeId transmitter) {
  if (carrier_count_[transmitter]++ == 0) carrier_grid_.Insert(transmitter);
  // Hot loop: touches only the SoA flag arrays, never the Agent structs.
  sensing_grid_.ForEachMemberInDisk(
      positions_[transmitter], config_.pcr, [&](NodeId sensor) {
        ++agent_su_busy_[sensor];
        UpdateFreezeState(sensor);
      });
}

void CollectionMac::NotifySensorsTxEnd(NodeId transmitter) {
  CRN_DCHECK(carrier_count_[transmitter] > 0);
  if (--carrier_count_[transmitter] == 0) carrier_grid_.Erase(transmitter);
  sensing_grid_.ForEachMemberInDisk(
      positions_[transmitter], config_.pcr, [&](NodeId sensor) {
        CRN_DCHECK(agent_su_busy_[sensor] > 0);
        --agent_su_busy_[sensor];
        UpdateFreezeState(sensor);
      });
}

double CollectionMac::EvaluateSir(Transmission& tx) {
  // Fixed summation order — PU terms (ascending PU id, the active-list
  // order) first, then SU terms in active_tx_ order — so the field's
  // per-receiver PU memo and the resumed sum below continue into the exact
  // operation sequence a from-scratch recomputation would run.
  spectrum::FieldWork& work = field_.work();
  ++work.sir_evaluations;
  const NodeId rx = tx.receiver;
  double interference = 0.0;
  std::size_t from = 0;
  if (tx.itf_count >= 0 &&
      tx.itf_shrink_epoch == field_.shrink_epoch() &&
      tx.itf_pu_epoch == field_.pu_epoch()) {
    // Entries [0, itf_count) are the same transmissions in the same order
    // as when the memo was stored (no removal reordered the list, PU set
    // unchanged), so resuming from the stored sum and appending the new
    // tail reproduces a from-scratch re-sum bit for bit.
    interference = tx.itf_sum;
    from = static_cast<std::size_t>(tx.itf_count);
    ++work.su_resumes;
  } else {
    interference = field_.PuInterference(rx, primary_.active_transmitters(),
                                         primary_.activity_mask());
  }
  for (std::size_t i = from; i < active_tx_.size(); ++i) {
    const Transmission& other = active_tx_[i];
    if (other.transmitter == tx.transmitter) continue;
    interference += field_.SuGain(other.transmitter, rx);
  }
  tx.itf_sum = interference;
  tx.itf_count = static_cast<std::int32_t>(active_tx_.size());
  tx.itf_pu_epoch = field_.pu_epoch();
  tx.itf_shrink_epoch = field_.shrink_epoch();
  tx.itf_ub = interference;  // exact again: the bound's slack resets
  tx.itf_ub_pu_epoch = field_.pu_epoch();
  if (interference <= 0.0) return std::numeric_limits<double>::infinity();
  return tx.signal_power / interference;
}

bool CollectionMac::LaneSirFails(Transmission& tx) {
  // The PU terms summed in lanes, then the SU terms in active_tx_ order:
  // the in-order sum's terms in another order, so the in-order sum lies in
  // the window around this one (DESIGN.md §10). No read is recorded.
  tx.itf_ub_pu_epoch = field_.pu_epoch();
  // No PU on the air and no other SU: both sums are exactly 0, SIR +inf.
  if (active_tx_.size() == 1 && primary_.active_count() == 0) {
    tx.itf_ub = 0.0;
    return false;
  }
  const NodeId rx = tx.receiver;
  double approx = field_.LanePuInterference(rx, primary_.active_transmitters());
  for (const Transmission& other : active_tx_) {
    if (other.transmitter == tx.transmitter) continue;
    approx += field_.SuGainUnrecorded(other.transmitter, rx);
  }
  const double eta = config_.eta_s.linear();
  // fl(signal / x) falls as x grows, so a comparison that holds at the
  // window's far end holds at the in-order sum inside it.
  const std::optional<spectrum::lane_sum::Window> window =
      spectrum::lane_sum::Enclose(approx, lane_margin_);
  if (window.has_value()) {
    tx.itf_ub = window->high;
    if (tx.signal_power / window->high >= eta) return false;
    if (tx.signal_power / window->low < eta) return true;
  }
  ++sir_fallbacks_;
  const double exact = InOrderInterference(tx);
  tx.itf_ub = exact;
  return exact > 0.0 && tx.signal_power / exact < eta;
}

double CollectionMac::InOrderInterference(const Transmission& tx) const {
  double interference =
      field_.InOrderPuInterference(tx.receiver, primary_.active_transmitters());
  for (const Transmission& other : active_tx_) {
    if (other.transmitter == tx.transmitter) continue;
    interference += field_.SuGainUnrecorded(other.transmitter, tx.receiver);
  }
  return interference;
}

void CollectionMac::ReevaluateOngoingSirs() {
  const double eta = config_.eta_s.linear();
  for (Transmission& tx : active_tx_) {
    if (!tx.receiver_ok) continue;  // verdict already sealed
    if (sir_lanes_ && tx.min_sir < eta) continue;  // kSirFailure sealed
    if (tx.last_eval_epoch == field_.change_epoch()) {
      // No SIR-lowering event since this floor was set: interferers have
      // only dropped out, the SIR only rose, and min() would return the
      // stored floor unchanged — skipping is bit-exact.
      ++field_.work().reeval_skipped;
      continue;
    }
    if (TrySirBoundSkip(tx)) {
      tx.last_eval_epoch = field_.change_epoch();
      continue;
    }
    if (sir_lanes_) {
      if (LaneSirFails(tx)) tx.min_sir = kSirSealed;
    } else {
      tx.min_sir = std::min(tx.min_sir, EvaluateSir(tx));
    }
    tx.last_eval_epoch = field_.change_epoch();
  }
}

bool CollectionMac::TrySirBoundSkip(Transmission& tx) {
  // Sound only when the single SIR-lowering event since this floor's last
  // visit is one SU start (the blanket refloor visits every unsealed
  // transmission at every change_epoch bump, so the gap is at most one
  // event): fold the newcomer's gain into the interference upper bound and
  // test the implied SIR lower bound against the stored floor.
  if (tx.itf_ub_pu_epoch != field_.pu_epoch() ||
      tx.last_eval_epoch + 1 != field_.change_epoch()) {
    return false;
  }
  const Transmission& newest = active_tx_.back();
  CRN_DCHECK(newest.transmitter != tx.transmitter);
  spectrum::FieldWork& work = field_.work();
  tx.itf_ub += sir_lanes_ ? field_.SuGainUnrecorded(newest.transmitter, tx.receiver)
                          : field_.SuGain(newest.transmitter, tx.receiver);
  // itf_ub ≥ the true interference (removals since the last full evaluation
  // only widen the slack), so signal/itf_ub is a SIR lower bound. The
  // margin absorbs FP reordering error — the bound and a from-scratch
  // canonical-order sum may round differently, by at most ~k·2^-53
  // relatively for k summed terms — so clearing it proves the exact
  // refloor would leave min() returning the stored floor unchanged:
  // skipping is bit-exact, never approximate.
  // In lane mode the floor is unknown but the verdict is open, so the
  // bound is tested against η_s itself: clearing it proves this
  // evaluation would pass.
  constexpr double kSirSkipMargin = 1.0 + 1e-9;
  const double floor = sir_lanes_ ? config_.eta_s.linear() : tx.min_sir;
  if (tx.signal_power / tx.itf_ub >= floor * kSirSkipMargin) {
    ++work.bound_skips;
    return true;
  }
  return false;
}

// --- slot machinery ---------------------------------------------------------

void CollectionMac::OnSlotBoundary() {
  // The run's first event, before any transmission can start.
  if (!sir_mode_chosen_) ChooseSirMode();
  const sim::TimeNs now = simulator_.now();
  if (now >= config_.max_sim_time) {
    stats_.timed_out = true;
    stats_.finish_time = now;
    slot_timer_.Stop();  // suppress the re-arm: no sequence number consumed
    simulator_.Stop();
    return;
  }
  // The window draws no slot past the horizon: boundaries at or past
  // max_sim_time stop the run above. Far from it, skip the division.
  const sim::TimeNs left = config_.max_sim_time - now;
  primary_.ResampleSlot(activity_,
                        left / pu::PrimaryNetwork::kWindowSlots >= config_.slot
                            ? pu::PrimaryNetwork::kWindowSlots
                            : (left - 1) / config_.slot + 1);
  field_.NotePuSample(primary_.activity_mask());
  ++slot_index_;
  slot_start_time_ = now;
  Emit(MacEvent::Kind::kSlotBoundary, graph::kInvalidNode, nullptr,
       primary_.active_count());

  // Spectrum handoff: transmitters sense the PU comeback and abort at once
  // (a missed detection lets the transmission ride on, harming the PU —
  // which the audit then observes).
  if (!active_tx_.empty()) {
    to_abort_.clear();
    for (const Transmission& tx : active_tx_) {
      if (SensePuBusy(tx.transmitter)) to_abort_.push_back(tx.transmitter);
    }
    for (NodeId node : to_abort_) AbortOnPuReturn(node);
  }

  RefreshContenderPuBusy();

  // The interference field changed wholesale; refresh reception SIR floors.
  if (!active_tx_.empty()) ReevaluateOngoingSirs();

  // The audit snapshots the air mid-slot: deferred SUs transmit right after
  // the boundary and direct expiries within the first τ − tx_duration, so
  // 40% into the slot intersects most on-air intervals; at the boundary
  // itself the secondary network is always silent.
  if (config_.audit_stride > 0 && slot_index_ % config_.audit_stride == 0) {
    audit_timer_.ArmAfter(config_.slot * 2 / 5);
  }
  // slot_timer_ re-arms the next boundary after this body returns, taking
  // the same sequence number the explicit self-reschedule used to.
}

void CollectionMac::RefreshContenderPuBusy() {
  // Refresh every contending SU's PU-side busy flag; each check doubles as
  // one spectrum-opportunity observation (Lemma 7 validation). With exact
  // sensing, a slot the summary clears changes no flag: book the
  // observations and skip the loop, and a slot it does not clear reads the
  // flags off the contenders' words. Sensing errors draw per contender, in
  // list order, and a window's first slot needs its new words, so then the
  // loop runs.
  const std::uint64_t epoch = primary_.window_epoch();
  const std::int32_t slot = primary_.window_slot();
  const bool exact =
      config_.sensing_false_alarm <= 0.0 && config_.sensing_missed_detection <= 0.0;
  const auto contenders = static_cast<std::int64_t>(contending_list_.size());
  if (exact && sense_epoch_ == epoch && ((sense_mismatch_ >> slot) & 1) == 0) {
    CRN_DCHECK(SenseSummaryHolds());
    stats_.slot_checks_total += contenders;
    stats_.slot_checks_free += contenders - sense_busy_;
    return;
  }
  std::uint64_t mismatch = 0;
  std::int64_t busy = 0;
  if (exact && sense_epoch_ == epoch && word_scan_) {
    // Later in a window the loop's flags are the words' bits at this slot:
    // a flag flips where the bit differs from the previous slot's.
    CRN_DCHECK(slot > 0 && ContenderWordsHold());
    for (std::size_t i = 0; i < contending_list_.size(); ++i) {
      const std::uint64_t word = contender_words_[i];
      const std::uint64_t bit = (word >> slot) & 1;
      if (bit != ((word >> (slot - 1)) & 1)) {
        const NodeId node = contending_list_[i];
        agent_pu_busy_[node] = static_cast<std::uint8_t>(bit);
        UpdateFreezeState(node);
      }
      mismatch |= word ^ (0 - bit);  // bit set: ~word
      busy += static_cast<std::int64_t>(bit);
    }
    stats_.slot_checks_total += contenders;
    stats_.slot_checks_free += contenders - busy;
  } else {
    for (std::size_t i = 0; i < contending_list_.size(); ++i) {
      const NodeId node = contending_list_[i];
      const bool pu_busy = SensePuBusy(node);
      ++stats_.slot_checks_total;
      if (!pu_busy) ++stats_.slot_checks_free;
      if (pu_busy != (agent_pu_busy_[node] != 0)) {
        agent_pu_busy_[node] = pu_busy ? 1 : 0;
        UpdateFreezeState(node);
      }
      const std::uint64_t word = pu_sense_[node].word;
      contender_words_[i] = word;
      mismatch |= pu_busy ? ~word : word;
      busy += pu_busy ? 1 : 0;
    }
  }
  sense_mismatch_ = mismatch;
  sense_busy_ = busy;
  // Flags drawn with sensing errors do not follow the words.
  sense_epoch_ = exact ? epoch : kNoEpoch;
  CRN_DCHECK(!exact || SenseSummaryHolds());
}

bool CollectionMac::SenseSummaryHolds() {
  std::int64_t busy = 0;
  for (NodeId node : contending_list_) {
    if (ComputePuBusy(node) != (agent_pu_busy_[node] != 0)) return false;
    busy += agent_pu_busy_[node];
  }
  return busy == sense_busy_;
}

bool CollectionMac::ContenderWordsHold() {
  if (contender_words_.size() != contending_list_.size()) return false;
  const std::int32_t previous = primary_.window_slot() - 1;
  for (std::size_t i = 0; i < contending_list_.size(); ++i) {
    const NodeId node = contending_list_[i];
    static_cast<void>(ComputePuBusy(node));  // refreshes the node's word
    const std::uint64_t word = contender_words_[i];
    if (word != pu_sense_[node].word ||
        ((word >> previous) & 1) != agent_pu_busy_[node]) {
      return false;
    }
  }
  return true;
}

void CollectionMac::AuditPrimaryReceptions() {
  if (active_tx_.empty()) return;  // SUs silent: nothing to audit
  primary_.SampleReceiverPositions(audit_rng_);
  const spectrum::PathLoss& loss = path_loss_;
  const double audit_radius = config_.audit_proximity_factor * config_.pcr;
  const double audit_radius2 = audit_radius * audit_radius;
  const double pu_power = primary_.config().power;
  const auto& active_pus = primary_.active_transmitters();
  for (pu::PuId p : active_pus) {
    const geom::Vec2 rx = primary_.receiver_position(p);
    // Only PU receptions with secondary activity nearby can possibly be
    // harmed by SUs; skip the rest to keep the audit cheap.
    bool su_nearby = false;
    for (const Transmission& tx : active_tx_) {
      if (geom::DistanceSquared(positions_[tx.transmitter], rx) <= audit_radius2) {
        su_nearby = true;
        break;
      }
    }
    if (!su_nearby) continue;

    const double signal = loss.ReceivedPowerSquared(
        pu_power, geom::DistanceSquared(primary_.position(p), rx));
    double interference_pu = 0.0;
    for (pu::PuId q : active_pus) {
      if (q == p) continue;
      interference_pu += loss.ReceivedPowerSquared(
          pu_power, geom::DistanceSquared(primary_.position(q), rx));
    }
    double interference_su = 0.0;
    for (const Transmission& tx : active_tx_) {
      interference_su += loss.ReceivedPowerSquared(
          config_.su_power, geom::DistanceSquared(positions_[tx.transmitter], rx));
    }
    ++stats_.audited_pu_receptions;
    const double eta = config_.eta_p.linear();
    const bool ok_without_su =
        interference_pu <= 0.0 || signal / interference_pu >= eta;
    const bool ok_with_su = signal / (interference_pu + interference_su) >= eta;
    if (!ok_without_su) {
      ++stats_.pu_only_failures;
    } else if (!ok_with_su) {
      ++stats_.su_caused_violations;
    }
  }
}

void CollectionMac::LosePacket(NodeId node, const Packet& packet,
                               std::int64_t queue_left) {
  --expected_per_origin_[packet.origin];
  SnapshotTally& tally = snapshots_[packet.snapshot];
  if (--tally.remaining == 0 && tally.finish < 0) tally.finish = simulator_.now();
  --expected_packets_;
  ++stats_.packets_lost;
  Emit(MacEvent::Kind::kPacketDropped, node, &packet, queue_left);
}

void CollectionMac::DeliverOrEnqueue(NodeId receiver, const Packet& packet) {
  if (receiver == sink_) {
    ++stats_.delivered;
    stats_.delivered_hops_total += packet.hops;
    ++delivered_per_origin_[packet.origin];
    CRN_CHECK(delivered_per_origin_[packet.origin] <= expected_per_origin_[packet.origin])
        << "origin " << packet.origin << " over-delivered: packets must reach "
        << "the base station exactly once";
    if (delivery_time_[packet.origin] < 0) {
      delivery_time_[packet.origin] = simulator_.now();
    }
    SnapshotTally& tally = snapshots_[packet.snapshot];
    if (--tally.remaining == 0) tally.finish = simulator_.now();
    Emit(MacEvent::Kind::kPacketDelivered, receiver, &packet, packet.hops);
    CheckTermination();
    return;
  }
  agents_[receiver].queue.push_back(packet);
  Emit(MacEvent::Kind::kPacketEnqueued, receiver, &packet,
       static_cast<std::int64_t>(agents_[receiver].queue.size()));
  ActivateIfIdle(receiver);
}

void CollectionMac::Emit(MacEvent::Kind kind, NodeId node, const Packet* packet,
                         std::int64_t value, const Transmission* tx,
                         TxOutcome outcome) {
  if (observers_.empty()) return;
  MacEvent event;
  event.kind = kind;
  event.node = node;
  event.time = simulator_.now();
  if (packet != nullptr) event.packet = *packet;
  event.value = value;
  if (tx != nullptr) {
    event.peer = tx->receiver;
    event.start = tx->start;
    event.end = tx->end;
    event.outcome = outcome;
    event.min_sir = tx->min_sir;
  }
  for (const auto& observer : observers_) observer(event);
}

void CollectionMac::CheckTermination() {
  if (stats_.delivered == expected_packets_) {
    stats_.finish_time = simulator_.now();
    simulator_.Stop();
  }
}

// --- checkpointing ----------------------------------------------------------

void CollectionMac::SaveState(sim::StateWriter& writer) const {
  CRN_CHECK(!sir_lanes_) << "SaveState on a run in lane SIR mode, which keeps no SIR "
                            "floors: call KeepSirFloors() before the run starts";
  Transfer(*this, writer);
}

void CollectionMac::LoadState(sim::StateReader& reader) {
  sir_mode_chosen_ = true;  // a restored run keeps exact floors
  Transfer(*this, reader);
  sense_epoch_ = kNoEpoch;  // the loaded flags and contenders are new
  contender_words_.assign(contending_list_.size(), 0);
}

template <class Self, class Ar>
void CollectionMac::Transfer(Self& self, Ar& ar) {
  if (!ar.BeginSection("mac")) return;
  const std::int32_t n = self.node_count();
  ar.Io(self.backoff_rng_);
  // The serial generator after the current slot, not the lookahead: the
  // blob must not depend on how far the window and the stream drew ahead.
  Rng activity = self.primary_.ConsumedState(self.activity_);
  ar.Io(activity);
  ar.Io(self.audit_rng_);
  ar.Io(self.sensing_rng_);
  // The only config fields mutable mid-run (SetSensingErrorRates); the rest
  // is rebuilt from the scenario before LoadState.
  ar.Io(self.config_.sensing_false_alarm);
  ar.Io(self.config_.sensing_missed_detection);
  ar.Io(self.running_);
  ar.Io(self.expected_packets_);
  ar.Io(self.slot_index_);
  ar.Io(self.slot_start_time_);

  auto& stats = self.stats_;
  ar.Io(stats.attempts);
  for (auto& outcome_count : stats.outcomes) ar.Io(outcome_count);
  ar.Io(stats.delivered);
  ar.Io(stats.finish_time);
  ar.Io(stats.timed_out);
  ar.Io(stats.slot_checks_total);
  ar.Io(stats.slot_checks_free);
  ar.Io(stats.audited_pu_receptions);
  ar.Io(stats.pu_only_failures);
  ar.Io(stats.su_caused_violations);
  ar.Io(stats.delivered_hops_total);
  ar.Io(stats.packets_seeded);
  ar.Io(stats.packets_lost);

  // Each timer travels as its pending fire's sequence number (0 = unarmed);
  // a fresh MAC's timers read 0 here before the load overwrites them.
  using TimerSeqs = std::array<sim::EventId, 2>;
  ar.FixedCount(static_cast<std::size_t>(n));
  std::vector<TimerSeqs> agent_timers(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < agent_timers.size(); ++v) {
    auto& agent = self.agents_[v];
    ar.Id(self.next_hop_[v], n, graph::kInvalidNode);
    ar.Io(self.failed_[v]);
    ar.Io(self.agent_phase_[v]);
    ar.Io(self.agent_frozen_[v]);
    ar.Io(self.agent_pu_busy_[v]);
    ar.Io(self.agent_su_busy_[v]);
    ar.Io(self.carrier_count_[v]);
    ar.Io(self.delivery_time_[v]);
    ar.Io(self.expected_per_origin_[v]);
    ar.Io(self.delivered_per_origin_[v]);
    ar.Io(self.success_tx_count_[v]);
    ar.Io(agent.backoff_drawn);
    ar.Io(agent.remaining);
    ar.Io(agent.resume_time);
    ar.Io(agent.dead_hop_failures);
    TimerSeqs& timers = agent_timers[v];
    timers = {agent.expiry_timer.pending_seq(), agent.wait_timer.pending_seq()};
    ar.Io(timers[0]);
    ar.Io(timers[1]);
    ar.Seq(agent.queue, [n](auto& io, auto& packet) {
      io.Id(packet.origin, n);
      io.Io(packet.created);
      io.Io(packet.hops);
      io.Io(packet.snapshot);
    });
  }

  const auto node_ids = [n](auto& io, auto& v) { io.Id(v, n); };
  ar.Seq(self.contending_list_, node_ids);
  // Both dynamic grids in their exact iteration order: in-cell member order
  // decides the visit order of the sensing-notification loops, which decides
  // the sequence numbers their freeze/resume re-arms draw. Re-inserting in
  // this order reproduces the layout bit for bit (Insert appends).
  std::vector<std::int32_t> sensing_members =
      self.sensing_grid_.MembersInIterationOrder();
  ar.Seq(sensing_members, node_ids);
  std::vector<std::int32_t> carrier_members =
      self.carrier_grid_.MembersInIterationOrder();
  ar.Seq(carrier_members, node_ids);

  // Active transmissions in active_tx_ order — the append-incremental SIR
  // memos are defined relative to this exact order.
  std::vector<TimerSeqs> tx_timers;
  ar.Seq(self.active_tx_, [n, &tx_timers](auto& io, auto& tx) {
    io.Id(tx.transmitter, n);
    io.Id(tx.receiver, n);
    io.Io(tx.start);
    io.Io(tx.end);
    io.Io(tx.signal_power);
    io.Io(tx.min_sir);
    io.Io(tx.receiver_ok);
    io.Io(tx.announced);
    io.Io(tx.forced_outcome);
    io.Io(tx.last_eval_epoch);
    io.Io(tx.itf_sum);
    io.Io(tx.itf_count);
    io.Io(tx.itf_pu_epoch);
    io.Io(tx.itf_shrink_epoch);
    io.Io(tx.itf_ub);
    io.Io(tx.itf_ub_pu_epoch);
    TimerSeqs timers{tx.end_timer.pending_seq(), tx.announce_timer.pending_seq()};
    io.Io(timers[0]);
    io.Io(timers[1]);
    // Kept for the re-arm below; Seq also sizes this list once with a
    // non-loading probe, which must not add an entry.
    if constexpr (std::remove_cvref_t<decltype(io)>::kLoading) {
      tx_timers.push_back(timers);
    }
  });

  ar.Seq(self.fading_, [n](auto& io, auto& fade) {
    io.Id(fade.node, n);
    io.Io(fade.seq);
  });
  ar.Seq(self.seed_producers_, node_ids);
  ar.Seq(self.pending_seeds_, [](auto& io, auto& seed) {
    io.Io(seed.snapshot);
    io.Io(seed.seq);
  });
  ar.Seq(self.snapshots_, [](auto& io, auto& tally) {
    io.Io(tally.created);
    io.Io(tally.finish);
    io.Io(tally.remaining);
  });

  bool slot_running = self.slot_timer_.running();
  sim::TimeNs slot_period = self.slot_timer_.period();
  TimerSeqs slot_timers{self.slot_timer_.pending_seq(), self.audit_timer_.pending_seq()};
  ar.Io(slot_running);
  ar.Io(slot_period);
  ar.Io(slot_timers[0]);
  ar.Io(slot_timers[1]);
  ar.EndSection();

  if constexpr (Ar::kLoading) {
    // Rebuild what the section stores only as data — the activity stream,
    // the index maps, both grids — and re-claim every pending event under
    // its saved sequence number.
    if (!ar.ok()) return;
    CollectionMac* mac = &self;
    mac->activity_.Restore(activity);
    for (std::size_t v = 0; v < agent_timers.size(); ++v) {
      Agent& agent = mac->agents_[v];
      if (agent_timers[v][0] != 0) agent.expiry_timer.RestoreArm(agent_timers[v][0]);
      if (agent_timers[v][1] != 0) agent.wait_timer.RestoreArm(agent_timers[v][1]);
    }
    for (std::size_t i = 0; i < mac->contending_list_.size(); ++i) {
      mac->contending_slot_[static_cast<std::size_t>(mac->contending_list_[i])] =
          static_cast<std::int32_t>(i);
    }
    for (const std::int32_t v : sensing_members) mac->sensing_grid_.Insert(v);
    for (const std::int32_t v : carrier_members) mac->carrier_grid_.Insert(v);
    for (std::size_t i = 0; i < mac->active_tx_.size(); ++i) {
      Transmission& tx = mac->active_tx_[i];
      const NodeId node = tx.transmitter;
      tx.end_timer.Bind(mac->simulator_, sim::EventPriority::kTransmissionEnd,
                        "mac.tx_end", node,
                        [mac, node] { mac->FinishTransmission(node, false); });
      tx.end_timer.RestoreArm(tx_timers[i][0]);
      if (tx_timers[i][1] != 0) {
        tx.announce_timer.Bind(mac->simulator_, sim::EventPriority::kDefault,
                               "mac.tx_announce", node,
                               [mac, node] { mac->AnnounceTxStart(node); });
        tx.announce_timer.RestoreArm(tx_timers[i][1]);
      }
      mac->active_tx_slot_[static_cast<std::size_t>(node)] = static_cast<std::int32_t>(i);
    }
    for (const Fade& fade : mac->fading_) {
      const NodeId node = fade.node;
      mac->simulator_.RestoreOnce(fade.seq, sim::EventPriority::kDefault,
                                  "mac.carrier_fade", node,
                                  sim::EventFn([mac, node] { mac->OnCarrierFade(node); }));
    }
    for (const PendingSeed& seed : mac->pending_seeds_) {
      const std::int32_t k = seed.snapshot;
      mac->simulator_.RestoreOnce(seed.seq, sim::EventPriority::kDefault,
                                  "mac.seed_snapshot", mac->sink_,
                                  sim::EventFn([mac, k] { mac->OnSeedSnapshot(k); }));
    }
    if (mac->running_) {
      mac->slot_timer_.Bind(mac->simulator_, sim::EventPriority::kSlotBoundary,
                            "mac.slot_boundary", mac->sink_,
                            [mac] { mac->OnSlotBoundary(); });
      if (slot_running) mac->slot_timer_.RestoreRunning(slot_period, slot_timers[0]);
      mac->audit_timer_.Bind(mac->simulator_, sim::EventPriority::kDefault,
                             "mac.pu_audit", mac->sink_,
                             [mac] { mac->AuditPrimaryReceptions(); });
      if (slot_timers[1] != 0) mac->audit_timer_.RestoreArm(slot_timers[1]);
    }
  }
  spectrum::InterferenceField::Transfer(self.field_, ar);
}

}  // namespace crn::mac
