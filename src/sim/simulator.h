// Deterministic discrete-event simulator with a typed timer API.
//
// Events fire in (time, priority, sequence) order — sim/event_key.h is the
// single definition of that order; priority breaks same-instant ties between
// event *kinds* (e.g. a transmission that ends exactly at a slot boundary
// completes before the new slot's primary-user state applies), and the
// monotone sequence number makes everything else deterministic.
//
// Scheduling surface:
//   * Timer — a move-only handle over an arena slot. Bind() once with a
//     priority and callback, then ArmAt()/ArmAfter()/Disarm() freely:
//     cancel and reschedule are O(1) generation bumps, no hash lookups, and
//     the bound callback is allocated exactly once for the timer's lifetime.
//   * PeriodicTimer — a self-re-arming Timer for slot boundaries. The next
//     occurrence is scheduled after the callback returns (so events the
//     callback schedules take earlier sequence numbers), and Stop() from
//     inside the callback suppresses the re-arm without consuming a
//     sequence number.
//   * ScheduleOnce()/ScheduleOnceAfter() — fire-and-forget one-shots for
//     cold paths (fault timelines, audit strides, snapshot seeds).
//
// Engine: an arena-backed event store (slot + generation liveness, so a
// cancelled or re-armed event is a stale queue entry skipped on pop) under a
// bucketed calendar queue: O(1) amortized push/pop under the backoff-freeze
// timer churn CollectionMac generates, with a global-min cursor jump as the
// sparse-horizon fallback. tests/sim/scheduler_fuzz_test.cc checks every pop
// against a binary-heap model of the same (time, priority, seq) order.
#ifndef CRN_SIM_SIMULATOR_H_
#define CRN_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "sim/callback.h"
#include "sim/event_key.h"
#include "sim/time.h"

namespace crn::sim {

// Same-instant ordering between event kinds; lower fires first.
enum class EventPriority : std::int8_t {
  kTransmissionEnd = 0,  // receptions complete before the slot flips
  kSlotBoundary = 1,     // primary-user state changes
  kTimerExpiry = 2,      // SU backoff expirations observe the new slot state
  kDefault = 3,
};

// Strictly increasing per-schedule sequence number (the EventKey tie-break).
using EventId = std::uint64_t;

// Deterministic scheduler work counters — exact functions of (scenario,
// seed), exported as perf.sched_* metrics and budget-gated in CI.
struct SchedStats {
  std::int64_t pushes = 0;          // queue entries enqueued
  std::int64_t pops = 0;            // live entries dequeued (events fired)
  std::int64_t cancels = 0;         // disarms/releases of a pending event
  std::int64_t stale_skips = 0;     // dead entries discarded on pop
  std::int64_t bucket_resizes = 0;  // calendar-queue reorganizations
};

// How a bounded run segment ended (RunUntilEvents): the queue drained, a
// callback called Stop(), or the event budget was reached with live events
// still pending — the checkpoint boundary.
enum class RunStatus : std::uint8_t { kDrained, kStopped, kPaused };

class Timer;
class PeriodicTimer;
class FlightRecorder;
class StateReader;
class StateWriter;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimeNs now() const { return now_; }
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }
  // Exact count of live pending events (armed timers + unfired one-shots);
  // maintained directly, so cancel-after-pop interleavings cannot skew it.
  [[nodiscard]] std::size_t pending_count() const { return pending_; }
  [[nodiscard]] const SchedStats& sched_stats() const { return stats_; }

  // Schedules a fire-and-forget `fn` at absolute time `when` (≥ now).
  // Returns the event's sequence number so owners that must survive a
  // checkpoint can re-register the pending one-shot under the same id.
  EventId ScheduleOnce(TimeNs when, EventPriority priority, EventFn fn);

  // Kind/owner-tagged one-shot: identical scheduling semantics, but the
  // event carries a registered kind name and owner node for the flight
  // recorder (src/mac must use this form — `unnamed-timer-kind` rule).
  EventId ScheduleOnce(TimeNs when, EventPriority priority,
                       std::string_view kind, std::int32_t owner, EventFn fn);

  // Schedules a fire-and-forget `fn` after `delay` (≥ 0) from now.
  EventId ScheduleOnceAfter(TimeNs delay, EventPriority priority, EventFn fn) {
    CRN_CHECK(delay >= 0) << "delay=" << delay;
    return ScheduleOnce(now_ + delay, priority, std::move(fn));
  }

  EventId ScheduleOnceAfter(TimeNs delay, EventPriority priority,
                            std::string_view kind, std::int32_t owner,
                            EventFn fn) {
    CRN_CHECK(delay >= 0) << "delay=" << delay;
    return ScheduleOnce(now_ + delay, priority, kind, owner, std::move(fn));
  }

  // Interns `name` (non-empty) into the event-kind registry and returns its
  // stable id. Id 0 is pre-registered as "unnamed" for untagged events.
  // Registration is bind-time (cold-path) work; ids are dense and
  // deterministic — they follow registration order, which follows
  // construction order.
  std::uint16_t RegisterEventKind(std::string_view name);
  [[nodiscard]] const std::vector<std::string>& kind_names() const {
    return kind_names_;
  }

  // Attaches (or detaches, with nullptr) a flight recorder. Every scheduler
  // action hook is gated on this pointer, so a detached run pays one
  // branch per action and records nothing. Attaching mirrors the kind
  // registry into the recorder so dumps outlive the simulator.
  void AttachFlightRecorder(FlightRecorder* recorder);
  [[nodiscard]] FlightRecorder* flight_recorder() const { return recorder_; }

  // Runs until the queue drains or `Stop()` is called. Returns the final
  // simulation time.
  TimeNs Run();

  // Runs until simulated time would exceed `deadline`; events at exactly
  // `deadline` still fire. Returns current time.
  TimeNs RunUntil(TimeNs deadline);

  // Runs until events_executed() reaches `event_target` (a cumulative
  // count), the queue drains, or Stop() is called. Pausing happens strictly
  // between events — current_fire_seq_ is 0 and no callback is mid-flight —
  // so a checkpoint taken at the pause captures a consistent state.
  RunStatus RunUntilEvents(std::uint64_t event_target);

  // --- checkpoint/restore (sim/checkpoint.h, DESIGN.md §14) -------------
  // Writes the event-kind registry ("sim.registry") and the full scheduler
  // state ("sim.core"): clock, sequence counter, executed-event count, work
  // counters, calendar geometry, and every queue entry — live entries keyed
  // by the sequence number their component will re-claim on restore, stale
  // entries kept so post-restore stale-skip counts stay exact. Callable
  // only between events (never from inside a callback).
  void SaveState(StateWriter& writer) const;

  // Restore happens in four phases, in this order:
  //   1. LoadRegistry() — pre-populates the kind registry so components
  //      re-Binding in construction order get their original kind ids;
  //   2. BeginRestore() — loads clock/counters/geometry and stages the
  //      saved queue entries;
  //   3. components re-register every pending event under its original
  //      sequence number (Timer::RestoreArm / RestoreOnce);
  //   4. FinishRestore() — pushes the staged entries against the claimed
  //      slots (CRN_CHECK: every live entry must have been claimed) and
  //      reinstates the saved work counters.
  void LoadRegistry(StateReader& reader);
  void BeginRestore(StateReader& reader);
  // Re-registers a pending one-shot under its saved sequence number. The
  // fire time lives in the staged queue entry; only the callback and its
  // tagging are supplied fresh.
  void RestoreOnce(EventId seq, EventPriority priority, std::string_view kind,
                   std::int32_t owner, EventFn fn);
  void FinishRestore();
  [[nodiscard]] bool restoring() const { return restoring_; }

  // Stops Run()/RunUntil() after the current event completes.
  void Stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  // Hard safety limit on total executed events; a run exceeding it throws
  // (catches accidental infinite event loops in tests). 0 = unlimited.
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  // Registers an observer fired once per executed event, after the clock
  // advances and before the callback runs. Observers must not schedule or
  // cancel events (enforced with CRN_CHECK); they exist for audit layers
  // (sim/audit.h) that verify clock monotonicity or fingerprint the event
  // stream.
  void AddEventObserver(std::function<void(TimeNs)> observer) {
    CRN_CHECK(observer != nullptr);
    event_observers_.push_back(std::move(observer));
  }

 private:
  friend class Timer;
  friend class PeriodicTimer;

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFU;
  static constexpr std::size_t kMinCalendarBuckets = 16;
  static constexpr int kInitialCalendarShift = 20;  // ~1 ms buckets
  static constexpr int kMaxCalendarShift = 40;

  enum SlotFlags : std::uint8_t {
    kInUse = 1U << 0U,
    kArmed = 1U << 1U,
    kOneShot = 1U << 2U,
    kExecuting = 1U << 3U,
    kReleaseDeferred = 1U << 4U,
  };

  // Arena slot: callback + priority bound once, generation bumped on every
  // cancel/re-arm/fire so stale queue entries die by comparison, never by
  // lookup. Slots are recycled through a free list; generations survive
  // recycling so entries from a previous tenant can never fire.
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    // Flight-recorder bookkeeping: the seq of the currently armed entry and
    // the seq of the event whose callback armed it (the causal parent).
    EventId pending_seq = 0;
    EventId armed_parent = 0;
    std::int32_t owner = -1;
    std::uint16_t kind = 0;
    EventPriority priority = EventPriority::kDefault;
    std::uint8_t flags = 0;
  };

  // Queue entry (POD, ~32 B): everything pop needs to order and to check
  // liveness against the arena.
  struct QEntry {
    TimeNs time;
    EventId seq;
    std::uint32_t slot;
    std::uint32_t gen;
    EventPriority priority;

    [[nodiscard]] EventKey key() const {
      return EventKey{time, static_cast<std::int32_t>(priority), seq};
    }
  };

  [[nodiscard]] bool EntryLive(const QEntry& e) const {
    return slots_[e.slot].generation == e.gen;
  }

  std::uint32_t AllocSlot();
  void FreeSlotNow(std::uint32_t slot);
  // Timer-facing: bind/arm/disarm/release one slot.
  std::uint32_t BindSlot(EventPriority priority, EventFn fn,
                         std::uint16_t kind = 0, std::int32_t owner = -1);
  void ArmSlot(std::uint32_t slot, TimeNs when);
  bool DisarmSlot(std::uint32_t slot);
  void ReleaseSlot(std::uint32_t slot);
  [[nodiscard]] bool SlotArmed(std::uint32_t slot) const {
    return (slots_[slot].flags & kArmed) != 0;
  }
  [[nodiscard]] EventId SlotPendingSeq(std::uint32_t slot) const {
    return SlotArmed(slot) ? slots_[slot].pending_seq : 0;
  }
  // Restore-path arming: marks the slot armed under the saved sequence
  // number without consuming next_seq_, pushing, or recording — the queue
  // entry is pushed by FinishRestore once every claim is in.
  void RestoreArmSlot(std::uint32_t slot, EventId seq);

  void Push(const QEntry& entry);
  bool PopLive(QEntry* out);
  bool PeekLive(QEntry* out);
  void Fire(const QEntry& entry);
  bool ExecuteNext();
  void RunObservers();

  // Calendar queue.
  void CalInsert(const QEntry& entry);
  std::vector<QEntry>* CalMinBucket();
  void CalResize(std::size_t min_buckets);
  void CalMaybeShrink();

  TimeNs now_ = 0;
  EventId next_seq_ = 1;
  // Seq of the event whose callback is executing (0 outside callbacks) —
  // the causal parent stamped into every arm the callback performs.
  EventId current_fire_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::uint64_t event_limit_ = 0;
  std::size_t pending_ = 0;
  bool stopped_ = false;
  bool in_observer_ = false;
  SchedStats stats_;

  // Arena. A deque so slots never relocate: the engine invokes a repeating
  // timer's callback in place, and the callback may allocate new slots.
  std::deque<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;

  // Calendar queue: power-of-two bucket ring, bucket width 1<<cal_shift_ ns,
  // each bucket sorted descending by EventKey so back() is its minimum.
  // cal_tick_ is the cursor (time >> cal_shift_); inserts clamp it back so
  // an event can never land behind the cursor and be missed.
  std::vector<std::vector<QEntry>> cal_buckets_ =
      std::vector<std::vector<QEntry>>(kMinCalendarBuckets);
  std::uint64_t cal_tick_ = 0;
  std::uint64_t cal_mask_ = kMinCalendarBuckets - 1;
  int cal_shift_ = kInitialCalendarShift;
  std::size_t cal_size_ = 0;

  std::vector<std::function<void(TimeNs)>> event_observers_;

  // Event-kind registry (id 0 = "unnamed") + optional flight recorder.
  std::vector<std::string> kind_names_{"unnamed"};
  std::map<std::string, std::uint16_t, std::less<>> kind_ids_{{"unnamed", 0}};
  FlightRecorder* recorder_ = nullptr;

  // --- restore staging (BeginRestore .. FinishRestore) ------------------
  // A saved queue entry. Live entries are matched to the slot that claimed
  // their seq; stale entries are re-pushed against the dead sentinel slot so
  // post-restore pops skip them exactly as the uninterrupted run would.
  struct SavedEntry {
    TimeNs time = 0;
    EventId seq = 0;
    EventId armed_parent = 0;
    EventPriority priority = EventPriority::kDefault;
    bool live = false;
  };
  bool restoring_ = false;
  std::vector<SavedEntry> staged_entries_;
  std::map<EventId, std::uint32_t> restore_claims_;  // seq -> armed slot
  std::uint32_t sentinel_slot_ = kNoSlot;
  SchedStats saved_stats_;
  std::uint64_t saved_cal_tick_ = 0;
  std::size_t saved_cal_size_ = 0;
};

// Move-only handle to one arena slot. Bind() allocates the slot and stores
// the callback + priority once; ArmAt()/ArmAfter() (re)schedule it, Disarm()
// cancels, and destruction releases the slot (cancelling any pending fire).
// Destroying a Timer from inside its own callback is safe: the release is
// deferred until the callback returns.
class Timer {
 public:
  Timer() = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  Timer(Timer&& other) noexcept : sim_(other.sim_), slot_(other.slot_) {
    other.sim_ = nullptr;
    other.slot_ = Simulator::kNoSlot;
  }
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      Release();
      sim_ = other.sim_;
      slot_ = other.slot_;
      other.sim_ = nullptr;
      other.slot_ = Simulator::kNoSlot;
    }
    return *this;
  }
  ~Timer() { Release(); }

  // Allocates the slot and stores `fn` + `priority` for the timer's
  // lifetime. A Timer is bound at most once.
  void Bind(Simulator& sim, EventPriority priority, EventFn fn) {
    CRN_CHECK(sim_ == nullptr) << "Timer is already bound";
    sim_ = &sim;
    slot_ = sim.BindSlot(priority, std::move(fn));
  }

  // Kind/owner-tagged bind: registers `kind` (non-empty) and stamps it plus
  // the owning node id into every record this timer produces. The flight
  // recorder's causality threading needs no further cooperation from the
  // call site — parent links come from the arming context automatically.
  void Bind(Simulator& sim, EventPriority priority, std::string_view kind,
            std::int32_t owner, EventFn fn) {
    CRN_CHECK(sim_ == nullptr) << "Timer is already bound";
    sim_ = &sim;
    slot_ =
        sim.BindSlot(priority, std::move(fn), sim.RegisterEventKind(kind), owner);
  }

  [[nodiscard]] bool bound() const { return sim_ != nullptr; }
  [[nodiscard]] bool armed() const {
    return sim_ != nullptr && sim_->SlotArmed(slot_);
  }

  // Sequence number of the pending fire (0 when unarmed) — what a component
  // saves so the restore path can re-claim the exact queue entry.
  [[nodiscard]] EventId pending_seq() const {
    return sim_ == nullptr ? 0 : sim_->SlotPendingSeq(slot_);
  }

  // Restore-path arm: re-claims the saved sequence number. Valid only
  // between Simulator::BeginRestore and FinishRestore.
  void RestoreArm(EventId seq) {
    CRN_CHECK(sim_ != nullptr) << "RestoreArm on an unbound Timer";
    sim_->RestoreArmSlot(slot_, seq);
  }

  // Schedules the bound callback at absolute time `when` (≥ now). If the
  // timer is already armed this is an O(1) reschedule.
  void ArmAt(TimeNs when) {
    CRN_CHECK(sim_ != nullptr) << "ArmAt on an unbound Timer";
    sim_->ArmSlot(slot_, when);
  }

  // Schedules the bound callback after `delay` (≥ 0) from now.
  void ArmAfter(TimeNs delay) {
    CRN_CHECK(delay >= 0) << "delay=" << delay;
    CRN_CHECK(sim_ != nullptr) << "ArmAfter on an unbound Timer";
    sim_->ArmSlot(slot_, sim_->now() + delay);
  }

  // Cancels the pending fire, if any. Returns whether the timer was armed.
  bool Disarm() {
    CRN_CHECK(sim_ != nullptr) << "Disarm on an unbound Timer";
    return sim_->DisarmSlot(slot_);
  }

  // Returns the timer to the unbound state, cancelling any pending fire and
  // releasing the arena slot. Equivalent to destruction; idempotent.
  void Release() {
    if (sim_ != nullptr) {
      sim_->ReleaseSlot(slot_);
      sim_ = nullptr;
      slot_ = Simulator::kNoSlot;
    }
  }

 private:
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = Simulator::kNoSlot;
};

// A Timer that re-arms itself every `period` after the callback returns —
// the re-arm consumes the next sequence number *after* any events the
// callback scheduled, which is what slot-boundary determinism requires.
// Stop() from inside the callback suppresses the re-arm. Non-movable: the
// internal trampoline captures `this`.
class PeriodicTimer {
 public:
  PeriodicTimer() = default;
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  PeriodicTimer(PeriodicTimer&&) = delete;
  PeriodicTimer& operator=(PeriodicTimer&&) = delete;

  void Bind(Simulator& sim, EventPriority priority, EventFn fn) {
    CRN_CHECK(static_cast<bool>(fn));
    fn_ = std::move(fn);
    timer_.Bind(sim, priority, EventFn([this] { OnFire(); }));
  }

  void Bind(Simulator& sim, EventPriority priority, std::string_view kind,
            std::int32_t owner, EventFn fn) {
    CRN_CHECK(static_cast<bool>(fn));
    fn_ = std::move(fn);
    timer_.Bind(sim, priority, kind, owner, EventFn([this] { OnFire(); }));
  }

  [[nodiscard]] bool bound() const { return timer_.bound(); }

  // Fires first at absolute time `first`, then every `period` until Stop().
  void Start(TimeNs first, TimeNs period) {
    CRN_CHECK(period > 0) << "period=" << period;
    period_ = period;
    running_ = true;
    timer_.ArmAt(first);
  }

  void Stop() {
    running_ = false;
    timer_.Disarm();
  }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] TimeNs period() const { return period_; }
  [[nodiscard]] EventId pending_seq() const { return timer_.pending_seq(); }

  // Restore-path start: resumes the period and re-claims the pending fire's
  // saved sequence number. A running PeriodicTimer is always armed between
  // events, so a checkpointed one always has a pending seq to re-claim.
  void RestoreRunning(TimeNs period, EventId seq) {
    CRN_CHECK(period > 0) << "period=" << period;
    period_ = period;
    running_ = true;
    timer_.RestoreArm(seq);
  }

 private:
  void OnFire() {
    fn_();
    if (running_) timer_.ArmAfter(period_);
  }

  Timer timer_;
  EventFn fn_;
  TimeNs period_ = 0;
  bool running_ = false;
};

}  // namespace crn::sim

#endif  // CRN_SIM_SIMULATOR_H_
