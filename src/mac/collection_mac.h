// CollectionMac — the asynchronous CSMA medium-access layer of Algorithm 1,
// shared by ADDC and the Coolest baseline (they differ only in the next-hop
// table handed to the constructor).
//
// Per-SU behaviour (paper §IV-C):
//   * with data queued, draw a backoff t_i uniformly from (0, τ_c];
//   * carrier-sense with range R_pcr: the countdown runs only while no PU
//     and no SU transmitter is active within R_pcr, freezing otherwise;
//   * on expiry, transmit one packet (duration τ = B/W) to the next hop;
//   * if a PU becomes active within R_pcr mid-transmission, hand off the
//     spectrum immediately (abort, retry later);
//   * after any attempt, wait the remaining τ_c − t_i before re-contending
//     (the paper's fairness rule; disable via config for ablation A1).
//
// Receptions follow the physical interference model with the RS
// (Re-Start) receiver mode [22]: the receiver locks onto the strongest
// signal, and a reception succeeds iff its SIR stays ≥ η_s at every
// interference-change instant and the receiver was never captured away.
//
// The class also runs the PU-protection audit described in DESIGN.md §5:
// sampled primary receptions are SIR-checked with and without the secondary
// network's interference; a violation is counted only when SU interference
// flips a PU reception from success to failure.
#ifndef CRN_MAC_COLLECTION_MAC_H_
#define CRN_MAC_COLLECTION_MAC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "geom/spatial_grid.h"
#include "geom/vec2.h"
#include "mac/fifo.h"
#include "mac/packet.h"
#include "mac/pu_sensing_table.h"
#include "pu/activity_stream.h"
#include "pu/primary_network.h"
#include "sim/simulator.h"
#include "spectrum/interference.h"
#include "spectrum/interference_field.h"

namespace crn::mac {

struct MacConfig {
  double su_power = 10.0;                           // P_s
  SirThreshold eta_s = SirThreshold::FromDb(8.0);   // η_s
  SirThreshold eta_p = SirThreshold::FromDb(8.0);   // η_p (audit only)
  double pcr = 0.0;                                 // carrier-sensing range R_pcr
  double alpha = 4.0;                               // path-loss exponent
  sim::TimeNs slot = sim::kMillisecond;             // τ
  sim::TimeNs contention_window = sim::kMillisecond / 2;  // τ_c
  // Packet airtime. §V: "the propagation time of a data packet ... is less
  // than 1 ms" — a packet fits inside one slot, so a transmission never
  // straddles a PU re-sample boundary. The default τ − τ_c realizes
  // Algorithm 1's within-slot contend-then-transmit cycle.
  sim::TimeNs tx_duration = sim::kMillisecond / 2;
  bool fairness_wait = true;                        // Algorithm 1 line 12

  // --- conventional-MAC emulation (the Coolest baseline) ---------------
  // ADDC draws backoffs at nanosecond granularity, so two neighbors never
  // expire together (the paper's standing assumption). A commodity CSMA MAC
  // draws from a small number of discrete contention slots instead; set
  // backoff_granularity > 0 to emulate it. Combined with a non-zero
  // carrier-sensing latency (detection lag), same-slot winners cannot hear
  // each other, transmit concurrently, and collide — the "many data
  // collisions ... and retransmissions" of §I that Algorithm 1 is designed
  // to avoid. Collisions are not special-cased: the colliding transmissions
  // simply fail the physical SIR check at their receivers.
  sim::TimeNs backoff_granularity = 0;  // 0 = continuous (Algorithm 1)
  sim::TimeNs sensing_latency = 0;      // busy/idle detection lag

  // --- imperfect spectrum sensing ---------------------------------------
  // Real detectors miss active PUs and fire on noise (the sensing
  // literature of §II); applied independently to every PU-sensing decision
  // (slot-boundary checks, contention entry, and the transmitter's handoff
  // check). Missed detections surface as PU-protection violations and SIR
  // failures; false alarms as lost spectrum opportunities. 0/0 reproduces
  // the paper's perfect-sensing assumption.
  double sensing_false_alarm = 0.0;       // P(busy reading | spectrum free)
  double sensing_missed_detection = 0.0;  // P(free reading | PU active in PCR)
  // Algorithm 1 waits for a *spectrum opportunity* (line 11): it knows the
  // primary network is slotted (Lemma 7) and never launches a packet that
  // would ride through the next PU re-sample. A conventional asynchronous
  // MAC has no notion of the PU slot phase: it transmits the moment its
  // backoff expires, and a boundary-crossing packet is killed by returning
  // PUs with probability ≈ 1 − p_o — the §I "retransmissions" failure mode.
  bool slot_aware_defer = true;
  std::int32_t audit_stride = 16;                   // 0 disables the PU audit
  double audit_proximity_factor = 4.0;  // audit PUs with an SU tx within factor·pcr
  sim::TimeNs max_sim_time = 3'600 * sim::kSecond;  // hard timeout

  // --- churn degradation (DESIGN.md §9) ---------------------------------
  // How many consecutive failed attempts toward a *failed* next hop a node
  // tolerates before dropping the head packet (graceful degradation:
  // delivery ratio < 1 instead of burning airtime into the void forever).
  // 0 keeps retrying indefinitely — the fault-free default, where a repair
  // is expected to re-point the route.
  std::int32_t dead_hop_retx_budget = 0;
};

// Aggregate counters for one collection run.
struct MacStats {
  std::int64_t attempts = 0;
  std::array<std::int64_t, kTxOutcomeCount> outcomes{};  // indexed by TxOutcome
  std::int64_t delivered = 0;
  sim::TimeNs finish_time = 0;
  bool timed_out = false;

  // Spectrum-opportunity sampling: at each slot boundary, every contending
  // SU contributes one observation of "is my PCR free of active PUs".
  std::int64_t slot_checks_total = 0;
  std::int64_t slot_checks_free = 0;

  // PU-protection audit.
  std::int64_t audited_pu_receptions = 0;
  std::int64_t pu_only_failures = 0;       // failed even without SUs
  std::int64_t su_caused_violations = 0;   // SU interference flipped the verdict

  // Sum of per-packet hop counts at delivery (for mean path length).
  std::int64_t delivered_hops_total = 0;

  // Degradation accounting under churn: packets seeded over the whole run
  // and packets lost (queued aboard a failed node, seeded at a node that
  // was down, or dropped after exhausting dead_hop_retx_budget).
  std::int64_t packets_seeded = 0;
  std::int64_t packets_lost = 0;

  // Delivered fraction of everything seeded — 1.0 on a fault-free run, < 1
  // under unrepaired churn (the graceful-degradation contract: a
  // partitioned network reports the loss instead of aborting).
  [[nodiscard]] double delivery_ratio() const {
    return packets_seeded == 0
               ? 1.0
               : static_cast<double>(delivered) / static_cast<double>(packets_seeded);
  }

  [[nodiscard]] double measured_spectrum_opportunity() const {
    return slot_checks_total == 0
               ? 1.0
               : static_cast<double>(slot_checks_free) / slot_checks_total;
  }
};

// Hops from every node to `sink` along `next_hop` (the sink's own entry is
// never read). CRN_CHECKs that every node reaches the sink: a hop outside
// [0, n) or to the node itself is a "bad next hop", a loop a "next-hop
// cycle". One memoized walk, O(n).
[[nodiscard]] std::vector<std::int32_t> RouteDepths(const std::vector<NodeId>& next_hop,
                                                    NodeId sink);

class CollectionMac {
 public:
  // `positions[sink]` is the base station; `next_hop[v]` must eventually
  // lead every packet-producing node to `sink` (validated). The MAC keeps
  // references to `simulator` and `primary` — both must outlive it.
  // `pu_table` lists the PUs within config.pcr of each node (shared by every
  // run on the same geometry and PCR); without one the MAC builds its own
  // with the same BuildPuSensingTable.
  CollectionMac(sim::Simulator& simulator, pu::PrimaryNetwork& primary,
                std::vector<geom::Vec2> positions, geom::Aabb area, NodeId sink,
                std::vector<NodeId> next_hop, const MacConfig& config, Rng rng,
                std::shared_ptr<const PuSensingTable> pu_table = nullptr);

  // Seeds one packet per entry of `producers` (created at current sim
  // time) and schedules the network to run; a node listed k times produces
  // k packets (multi-packet workloads in tests and examples). Call before
  // Simulator::Run().
  void StartCollection(const std::vector<NodeId>& producers);

  // Convenience: every node except the sink produces one packet per
  // snapshot (the paper's snapshot model); `snapshot_count` snapshots, one
  // every `interval` (0 = one slot), as in StartContinuousCollection.
  void StartSnapshotCollection(sim::TimeNs interval = 0,
                               std::int32_t snapshot_count = 1);

  // Continuous data collection: `snapshot_count` snapshots are produced,
  // one every `interval` (the first at the current time); each snapshot
  // seeds one packet per entry of `producers`. The run finishes when every
  // packet of every snapshot has reached the base station. Per-snapshot
  // completion times are exposed below — their growth across snapshots
  // tells whether the offered rate is inside the network's collection
  // capacity (Theorem 2).
  void StartContinuousCollection(const std::vector<NodeId>& producers,
                                 sim::TimeNs interval, std::int32_t snapshot_count);

  // Per-snapshot accounting, indexed by snapshot (single-snapshot runs use
  // index 0).
  struct SnapshotTally {
    sim::TimeNs created = -1;  // -1 until the snapshot is seeded
    sim::TimeNs finish = -1;   // -1 while incomplete
    std::int64_t remaining = 0;  // packets not yet delivered or lost
  };
  [[nodiscard]] const std::vector<SnapshotTally>& snapshots() const {
    return snapshots_;
  }

  [[nodiscard]] const MacStats& stats() const { return stats_; }
  [[nodiscard]] std::int64_t expected_packets() const { return expected_packets_; }
  [[nodiscard]] bool finished() const { return stats_.delivered == expected_packets_; }

  // Delivery time per origin node (-1 while undelivered).
  [[nodiscard]] const std::vector<sim::TimeNs>& delivery_time() const {
    return delivery_time_;
  }
  // Successful transmissions per node (fairness analyses).
  [[nodiscard]] const std::vector<std::int64_t>& success_tx_count() const {
    return success_tx_count_;
  }

  // Observers receive every MacEvent (packet.h) in emission order — the
  // auditor, the metrics collector, the span tracer and the fairness tests
  // all watch the MAC through this one feed. Zero-cost when none is
  // attached: Emit returns before building the event.
  void AddObserver(std::function<void(const MacEvent&)> observer) {
    observers_.push_back(std::move(observer));
  }

  // --- network dynamics (§I: SUs may leave at any time) -----------------
  // Permanently removes an SU at the current simulation time: any in-flight
  // transmission is cut, its queued packets are lost with it (the expected
  // total shrinks accordingly), and transmissions toward it fail. Re-route
  // its former children via UpdateNextHop; until then their retries burn
  // airtime into the void.
  void FailNode(NodeId node);

  // Brings a failed SU back at the current simulation time: it rejoins with
  // an empty queue and resumes relaying/producing. Its routing-table entry
  // is whatever it held at failure — the caller (normally the fault
  // injector's cascade repair) must re-validate routes before counting on
  // it as a relay.
  void RecoverNode(NodeId node);

  // Re-points a live node's next hop (distributed route repair). The new
  // hop must be live and must not create a routing cycle.
  void UpdateNextHop(NodeId node, NodeId next_hop);

  // Ground truth: whether any PU inside the node's PCR transmits in the
  // current slot. One shift of the OR of its nearby PUs' activity-window
  // words (pu/primary_network.h), which it caches for the window.
  [[nodiscard]] bool ComputePuBusy(NodeId node);

  // Swaps the detector error rates mid-run (sensing-error burst faults).
  // Takes effect from the next sensing decision; both must be in [0, 1].
  void SetSensingErrorRates(double false_alarm, double missed_detection);

  [[nodiscard]] bool IsFailed(NodeId node) const { return failed_[node] != 0; }

  // Current routing table entry (audit layers verify reachability/acyclicity
  // through these after churn).
  [[nodiscard]] NodeId next_hop(NodeId node) const { return next_hop_[node]; }
  // RouteDepths of the table the MAC was constructed with (UpdateNextHop
  // does not change it).
  [[nodiscard]] const std::vector<std::int32_t>& route_depths() const {
    return route_depths_;
  }
  [[nodiscard]] NodeId sink() const { return sink_; }

  // Exact SIR work tally (interference_field.h): pure function of the
  // (scenario, seed) pair, exported as perf.* counters by RunWithNextHops.
  [[nodiscard]] const spectrum::FieldWork& sir_work() const { return field_.work(); }

  [[nodiscard]] const MacConfig& config() const { return config_; }
  [[nodiscard]] geom::Vec2 position(NodeId node) const { return positions_[node]; }
  [[nodiscard]] std::int32_t node_count() const {
    return static_cast<std::int32_t>(positions_.size());
  }

  // Checkpoint protocol (sim/checkpoint.h, section "mac" plus the
  // interference field's "field"): all dynamic MAC state — agent queues and
  // contention timers, the active/fading transmission sets with their SIR
  // memos, both dynamic grids in exact iteration order, the four RNG
  // streams, and the not-yet-fired seed-snapshot one-shots. Construct the
  // fresh MAC from the same scenario first; LoadState must run between
  // Simulator::BeginRestore and FinishRestore (it re-claims saved sequence
  // numbers) and replaces Start*Collection on the restored run.
  void SaveState(sim::StateWriter& writer) const;
  void LoadState(sim::StateReader& reader);

 private:
  // The "mac" section's one field list (sim/checkpoint.h), then the field's.
  template <class Self, class Ar>
  static void Transfer(Self& self, Ar& ar);

  enum class Phase : std::uint8_t { kIdle, kContending, kTransmitting, kPostTxWait };

  // Rejects out-of-domain MacConfig values with a CRN_CHECK naming the field
  // and the offending value. Runs in the initializer list (config_) so it
  // fires before any member (path-loss model, sensing grid) consumes a bad
  // parameter with a less actionable message.
  static const MacConfig& ValidatedConfig(const MacConfig& config);

  // Cold per-agent state. The hot flags the sensing-notification storms
  // touch (phase / frozen / pu_busy / su_busy_count) live in the packed SoA
  // arrays below instead, so those loops never drag a whole Agent — queue,
  // timers, PU list — through the cache.
  struct Agent {
    Fifo<Packet> queue;
    // Contention state (valid in kContending).
    sim::TimeNs backoff_drawn = 0;  // t_i of the current attempt
    sim::TimeNs remaining = 0;
    sim::TimeNs resume_time = 0;
    sim::Timer expiry_timer;  // fires OnBackoffExpired(node)
    sim::Timer wait_timer;    // fires OnPostTxWaitDone(node)
    // Consecutive failed attempts while the next hop was failed; reset by
    // any success or route repair (dead_hop_retx_budget).
    std::int32_t dead_hop_failures = 0;
  };

  struct Transmission {
    NodeId transmitter = graph::kInvalidNode;
    NodeId receiver = graph::kInvalidNode;
    sim::TimeNs start = 0;
    sim::TimeNs end = 0;
    sim::Timer end_timer;  // fires FinishTransmission(tx, /*aborted=*/false)
    double signal_power = 0.0;  // received power at the receiver
    double min_sir = std::numeric_limits<double>::infinity();
    bool receiver_ok = true;    // false on half-duplex clash / capture loss
    bool announced = false;     // sensing notification delivered (latency)
    sim::Timer announce_timer;  // fires AnnounceTxStart after sensing_latency
    TxOutcome forced_outcome = TxOutcome::kSuccess;  // when !receiver_ok
    // Dirty-set reevaluation state (interference_field.h): the change epoch
    // at the last min-SIR floor update.
    std::int64_t last_eval_epoch = -1;
    // Append-incremental interference memo: the full
    // interference sum — PU terms plus the SU terms of active_tx_[0,
    // itf_count) — valid while no swap-and-pop reordered the list
    // (itf_shrink_epoch) and the active-PU set is unchanged (itf_pu_epoch).
    // New interferers only ever append, so extending the stored double by
    // the tail [itf_count, size) runs the exact operation sequence a
    // from-scratch re-sum would.
    double itf_sum = 0.0;
    std::int32_t itf_count = -1;
    std::int64_t itf_pu_epoch = -1;
    std::int64_t itf_shrink_epoch = -1;
    // Interference upper bound: exact at the last full
    // evaluation, then grown by each new interferer's gain while the PU set
    // is unchanged. Removals only widen the slack, so signal/itf_ub is a
    // SIR lower bound — when it clears min_sir (with an FP-safety margin)
    // the refloor provably cannot move the floor and is skipped.
    double itf_ub = 0.0;
    std::int64_t itf_ub_pu_epoch = -1;
  };

  // --- agent lifecycle -------------------------------------------------
  void SeedSnapshot(const std::vector<NodeId>& producers, std::int32_t snapshot);
  // One-shot entry points that also maintain the checkpoint bookkeeping
  // (pending_seeds_ / fading_) before running the original handler.
  void OnSeedSnapshot(std::int32_t snapshot);
  void OnCarrierFade(NodeId node);
  void ActivateIfIdle(NodeId node);           // node gained a packet
  void BeginContention(NodeId node);          // draw backoff, start sensing
  void LeaveContention(NodeId node);          // out of the sensing set
  void FreezeTimer(NodeId node);
  void ResumeTimer(NodeId node);
  void UpdateFreezeState(NodeId node);        // after busy flags changed
  void OnBackoffExpired(NodeId node);
  void OnPostTxWaitDone(NodeId node);
  // What the detector reports: ground truth filtered through the
  // false-alarm / missed-detection probabilities.
  [[nodiscard]] bool SensePuBusy(NodeId node);
  [[nodiscard]] std::int32_t ComputeSuBusyCount(NodeId node) const;

  // --- transmissions ----------------------------------------------------
  void StartTransmission(NodeId node);
  void FinishTransmission(NodeId node, bool aborted);
  void AbortOnPuReturn(NodeId node);
  void AnnounceTxStart(NodeId transmitter);  // after sensing_latency
  void NotifySensorsTxStart(NodeId transmitter);
  void NotifySensorsTxEnd(NodeId transmitter);
  void ReevaluateOngoingSirs();
  bool TrySirBoundSkip(Transmission& tx);
  double EvaluateSir(Transmission& tx);

  // --- slot machinery ----------------------------------------------------
  void OnSlotBoundary();
  void AuditPrimaryReceptions();

  void DeliverOrEnqueue(NodeId receiver, const Packet& packet);
  // Central loss accounting: shrinks the expected totals (termination and
  // snapshot bookkeeping stay exact), counts the loss, and emits
  // kPacketDropped with `queue_left` as the event value. Callers follow up
  // with CheckTermination().
  void LosePacket(NodeId node, const Packet& packet, std::int64_t queue_left);
  // `packet` may be null for non-packet kinds (frozen/resumed/defer/slot);
  // `tx` supplies peer, airtime and SIR floor for the two tx kinds.
  void Emit(MacEvent::Kind kind, NodeId node, const Packet* packet,
            std::int64_t value, const Transmission* tx = nullptr,
            TxOutcome outcome = TxOutcome::kSuccess);
  void CheckTermination();

  sim::Simulator& simulator_;
  pu::PrimaryNetwork& primary_;
  std::vector<geom::Vec2> positions_;
  geom::Aabb area_;
  NodeId sink_;
  std::vector<NodeId> next_hop_;
  std::vector<std::int32_t> route_depths_;
  MacConfig config_;
  // Separate streams so the PU activity sequence is identical across
  // algorithms fed the same root rng (paired comparisons), regardless of
  // how many backoff draws each algorithm makes. The audit stream isolates
  // receiver-position draws the same way.
  Rng backoff_rng_;
  pu::ActivityStream activity_;  // the "pu-activity" stream, drawn ahead
  Rng audit_rng_;
  Rng sensing_rng_;
  spectrum::PathLoss path_loss_;  // the PU-protection audit's gains
  spectrum::InterferenceField field_;

  std::vector<Agent> agents_;
  // Hot per-agent MAC state, split out of Agent into packed parallel arrays
  // (SoA). The sensing-notification storms — NotifySensorsTxStart/End and the
  // slot-boundary PU refresh — read and write only these four arrays, so a
  // cache line holds 64 nodes' flags instead of one node's whole Agent.
  std::vector<Phase> agent_phase_;
  std::vector<std::uint8_t> agent_frozen_;
  std::vector<std::uint8_t> agent_pu_busy_;
  std::vector<std::int32_t> agent_su_busy_;
  // The PUs within each agent's PCR (static, shared across runs), and the
  // OR of their activity-window words, cached for the window it was built in.
  std::shared_ptr<const PuSensingTable> pu_table_;
  struct PuSense {
    std::uint64_t word = 0;
    std::uint64_t epoch = ~std::uint64_t{0};  // PrimaryNetwork::window_epoch()
  };
  std::vector<PuSense> pu_sense_;
  std::vector<char> failed_;
  // Sensing set: nodes currently in kContending, as both an iterable list
  // (slot-boundary PU refresh) and a spatial grid (tx start/stop
  // notifications).
  std::vector<NodeId> contending_list_;
  std::vector<std::int32_t> contending_slot_;  // node -> index in list, -1 absent
  geom::DynamicSpatialGrid sensing_grid_;

  // Active transmissions, indexed by transmitter.
  std::vector<Transmission> active_tx_;
  // Slot-boundary scratch: transmitters that sensed a returning PU. A member
  // so the boundary does not allocate while transmissions are on the air.
  std::vector<NodeId> to_abort_;
  std::vector<std::int32_t> active_tx_slot_;  // node -> index in active_tx_, -1
  // Announced transmissions that ended but whose end-of-carrier has not yet
  // been sensed (sensing_latency > 0). Counted as busy by new contenders so
  // the deferred decrement never underflows. Each entry keeps its fade
  // event's sequence number so a checkpoint can re-claim the pending fades.
  struct Fade {
    NodeId node = graph::kInvalidNode;
    sim::EventId seq = 0;
  };
  std::vector<Fade> fading_;
  // Sensable carriers (announced active + fading), as a spatial grid for
  // O(disk) ComputeSuBusyCount queries. A node can carry more than one
  // sensable emission at once (a fresh announced transmission while an old
  // one is still fading), so membership is by carrier_count_ > 0 and
  // queries sum the counts — integer sums, visit order irrelevant.
  geom::DynamicSpatialGrid carrier_grid_;
  std::vector<std::int32_t> carrier_count_;

  std::vector<sim::TimeNs> delivery_time_;
  std::vector<std::int64_t> expected_per_origin_;
  std::vector<std::int64_t> delivered_per_origin_;
  std::vector<std::int64_t> success_tx_count_;
  std::vector<SnapshotTally> snapshots_;
  // Seed-snapshot bookkeeping for checkpointing: the producers list the
  // one-shots read and each not-yet-fired seeding event's sequence number.
  struct PendingSeed {
    std::int32_t snapshot = 0;
    sim::EventId seq = 0;
  };
  std::vector<NodeId> seed_producers_;
  std::vector<PendingSeed> pending_seeds_;
  std::vector<std::function<void(const MacEvent&)>> observers_;

  MacStats stats_;
  std::int64_t expected_packets_ = 0;
  std::int64_t slot_index_ = 0;
  sim::TimeNs slot_start_time_ = 0;  // start of the current slot
  bool running_ = false;
  // Drives OnSlotBoundary every τ; re-arms after the handler body so events
  // scheduled inside a slot keep their pre-refactor sequence numbers.
  sim::PeriodicTimer slot_timer_;
  // Mid-slot PU-protection audit (at most one pending: armed from the slot
  // boundary, fires at 0.4τ into the same slot).
  sim::Timer audit_timer_;
};

}  // namespace crn::mac

#endif  // CRN_MAC_COLLECTION_MAC_H_
