#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "sim/checkpoint.h"
#include "sim/flight_recorder.h"

namespace crn::sim {

std::uint32_t Simulator::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    Slot& s = SlotAt(slot);
    free_head_ = s.next_free;
    s.next_free = kNoSlot;
    s.flags = kInUse;
    return slot;
  }
  CRN_CHECK(slot_count_ < kNoSlot - kPageSize) << "timer arena full";
  if (slot_count_ == pages_.size() * kPageSize) {
    pages_.push_back(std::make_unique<Slot[]>(kPageSize));
  }
  const std::uint32_t slot = slot_count_++;
  SlotAt(slot).flags = kInUse;
  return slot;
}

void Simulator::FreeSlotNow(std::uint32_t slot) {
  Slot& s = SlotAt(slot);
  s.fn.Reset();
  ++s.generation;  // any entry still in a queue is now stale
  s.flags = 0;
  s.next_free = free_head_;
  free_head_ = slot;
}

std::uint32_t Simulator::BindSlot(EventPriority priority, EventFn fn,
                                  std::uint16_t kind, std::int32_t owner) {
  CRN_CHECK(static_cast<bool>(fn));
  CRN_DCHECK(kind < kind_names_.size()) << "unregistered event kind " << kind;
  const std::uint32_t slot = AllocSlot();
  Slot& s = SlotAt(slot);
  s.fn = std::move(fn);
  s.priority = priority;
  s.kind = kind;
  s.owner = owner;
  return slot;
}

void Simulator::ArmSlot(std::uint32_t slot, TimeNs when) {
  CRN_CHECK(!in_observer_) << "event observers must not schedule or cancel";
  CRN_CHECK(!restoring_) << "ArmAt during restore — use RestoreArm";
  CRN_CHECK(when >= now_) << "cannot schedule in the past: when=" << when
                          << " now=" << now_;
  Slot& s = SlotAt(slot);
  const bool rearmed = (s.flags & kArmed) != 0;
  if (rearmed) {
    // Implicit reschedule: the old entry dies by generation bump.
    ++s.generation;
    --pending_;
    ++stats_.cancels;
  }
  s.flags |= kArmed;
  const EventId seq = next_seq_++;
  // Causal bookkeeping is unconditional (two stores); only the ring write
  // is gated, so a recorder attached mid-run still sees correct parents.
  s.pending_seq = seq;
  s.armed_parent = current_fire_seq_;
  Push(QEntry{when, seq, slot, s.generation, s.priority});
  ++pending_;
  if (recorder_ != nullptr) {
    recorder_->Record(rearmed ? SchedAction::kReschedule : SchedAction::kArm,
                      seq, now_, s.kind, s.owner, current_fire_seq_);
  }
}

bool Simulator::DisarmSlot(std::uint32_t slot) {
  CRN_CHECK(!in_observer_) << "event observers must not schedule or cancel";
  Slot& s = SlotAt(slot);
  if ((s.flags & kArmed) == 0) return false;
  s.flags &= static_cast<std::uint8_t>(~kArmed);
  ++s.generation;
  --pending_;
  ++stats_.cancels;
  if (recorder_ != nullptr) {
    recorder_->Record(SchedAction::kDisarm, s.pending_seq, now_, s.kind,
                      s.owner, current_fire_seq_);
  }
  return true;
}

void Simulator::ReleaseSlot(std::uint32_t slot) {
  Slot& s = SlotAt(slot);
  if ((s.flags & kArmed) != 0) {
    s.flags &= static_cast<std::uint8_t>(~kArmed);
    ++s.generation;
    --pending_;
    ++stats_.cancels;
    if (recorder_ != nullptr) {
      recorder_->Record(SchedAction::kDisarm, s.pending_seq, now_, s.kind,
                        s.owner, current_fire_seq_);
    }
  }
  if ((s.flags & kExecuting) != 0) {
    // Timer destroyed from inside its own callback (e.g. a transmission
    // torn down by its own end event): free after the callback returns.
    s.flags |= kReleaseDeferred;
    return;
  }
  FreeSlotNow(slot);
}

EventId Simulator::ScheduleOnce(TimeNs when, EventPriority priority,
                                EventFn fn) {
  return ScheduleOnce(when, priority, "unnamed", -1, std::move(fn));
}

EventId Simulator::ScheduleOnce(TimeNs when, EventPriority priority,
                                std::string_view kind, std::int32_t owner,
                                EventFn fn) {
  return ScheduleOnce(when, priority, RegisterEventKind(kind), owner,
                      std::move(fn));
}

EventId Simulator::ScheduleOnce(TimeNs when, EventPriority priority,
                                EventKind kind, std::int32_t owner, EventFn fn) {
  CRN_CHECK(!in_observer_) << "event observers must not schedule or cancel";
  CRN_CHECK(!restoring_) << "ScheduleOnce during restore — use RestoreOnce";
  CRN_CHECK(when >= now_) << "cannot schedule in the past: when=" << when
                          << " now=" << now_;
  const std::uint32_t slot = BindSlot(priority, std::move(fn), kind.id, owner);
  Slot& s = SlotAt(slot);
  s.flags |= static_cast<std::uint8_t>(kArmed | kOneShot);
  const EventId seq = next_seq_++;
  s.pending_seq = seq;
  s.armed_parent = current_fire_seq_;
  Push(QEntry{when, seq, slot, s.generation, priority});
  ++pending_;
  if (recorder_ != nullptr) {
    recorder_->Record(SchedAction::kArm, seq, now_, s.kind, s.owner,
                      current_fire_seq_);
  }
  return seq;
}

EventKind Simulator::RegisterEventKind(std::string_view name) {
  CRN_CHECK(!name.empty()) << "event kind name must be non-empty";
  const auto it = kind_ids_.find(name);
  if (it != kind_ids_.end()) return EventKind{it->second};
  CRN_CHECK(kind_names_.size() < 0xFFFFU) << "event-kind registry full";
  const auto id = static_cast<std::uint16_t>(kind_names_.size());
  kind_names_.emplace_back(name);
  kind_ids_.emplace(kind_names_.back(), id);
  if (recorder_ != nullptr) recorder_->OnKindRegistered(id, name);
  return EventKind{id};
}

void Simulator::AttachFlightRecorder(FlightRecorder* recorder) {
  recorder_ = recorder;
  if (recorder_ != nullptr) recorder_->SetKindNames(kind_names_);
}

void Simulator::Push(const QEntry& entry) {
  ++stats_.pushes;
  if (cal_size_ + 1 > 2 * cal_buckets_.size()) CalResize(cal_size_ + 1);
  CalInsert(entry);
}

bool Simulator::PopLive(QEntry* out) {
  while (cal_size_ > 0) {
    std::vector<QEntry>* bucket = CalMinBucket();
    const QEntry entry = bucket->back();
    bucket->pop_back();
    --cal_size_;
    CalMaybeShrink();
    if (!EntryLive(entry)) {
      ++stats_.stale_skips;
      continue;
    }
    ++stats_.pops;
    *out = entry;
    return true;
  }
  return false;
}

bool Simulator::PeekLive(QEntry* out) {
  while (cal_size_ > 0) {
    std::vector<QEntry>* bucket = CalMinBucket();
    const QEntry entry = bucket->back();
    if (!EntryLive(entry)) {
      bucket->pop_back();
      --cal_size_;
      ++stats_.stale_skips;
      continue;
    }
    *out = entry;
    return true;
  }
  return false;
}

void Simulator::RunObservers() {
  in_observer_ = true;
  for (const auto& observer : event_observers_) observer(now_);
  in_observer_ = false;
}

void Simulator::Fire(const QEntry& entry) {
  Slot& s = SlotAt(entry.slot);
  now_ = entry.time;
  --pending_;
  // Capture recorder fields before the one-shot branch frees the slot.
  const std::uint16_t fired_kind = s.kind;
  double fire_wall_begin = 0.0;
  if (recorder_ != nullptr) {
    recorder_->Record(SchedAction::kFire, entry.seq, entry.time, fired_kind,
                      s.owner, s.armed_parent);
    fire_wall_begin = recorder_->WallNow();
  }
  current_fire_seq_ = entry.seq;
  if ((s.flags & kOneShot) != 0) {
    // Move the callback out and free the slot first so the callback may
    // freely schedule (and even land in this same slot) without aliasing.
    EventFn fn = std::move(s.fn);
    FreeSlotNow(entry.slot);
    RunObservers();
    fn();
  } else {
    // Mark unarmed and bump the generation *before* invoking so the
    // callback can re-arm its own timer.
    s.flags &= static_cast<std::uint8_t>(~kArmed);
    ++s.generation;
    s.flags |= kExecuting;
    RunObservers();
    s.fn();
    // Arena pages never move, so `s` is still valid even if the callback
    // bound new pages; it may also have requested this slot's release
    // (Timer destroyed from inside).
    s.flags &= static_cast<std::uint8_t>(~kExecuting);
    if ((s.flags & kReleaseDeferred) != 0) FreeSlotNow(entry.slot);
  }
  current_fire_seq_ = 0;
  if (recorder_ != nullptr && recorder_->has_wall_probe()) {
    recorder_->AddFireWall(fired_kind, recorder_->WallNow() - fire_wall_begin);
  }
  ++events_executed_;
  if (event_limit_ != 0 && events_executed_ > event_limit_) {
    // Thrown from the event *loop*, after the callback returned — never
    // from inside a callback, so no MAC state is left half-applied.
    throw ContractViolation(  // crn-lint-ok: loop guard, not callback code
        "simulator event limit exceeded — runaway event loop?");
  }
}

bool Simulator::ExecuteNext() {
  QEntry entry;
  if (!PopLive(&entry)) return false;
  Fire(entry);
  return true;
}

TimeNs Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && ExecuteNext()) {
  }
  return now_;
}

TimeNs Simulator::RunUntil(TimeNs deadline) {
  stopped_ = false;
  QEntry entry;
  while (!stopped_ && PeekLive(&entry)) {
    if (entry.time > deadline) break;
    ExecuteNext();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

RunStatus Simulator::RunUntilEvents(std::uint64_t event_target) {
  stopped_ = false;
  while (!stopped_) {
    if (events_executed_ >= event_target) {
      // Decide paused-vs-drained from the live count, never by peeking:
      // PeekLive discards stale entries without the shrink check, which
      // would fork the calendar resize schedule (and sched_stats) from the
      // uninterrupted run's.
      return pending_ > 0 ? RunStatus::kPaused : RunStatus::kDrained;
    }
    if (!ExecuteNext()) return RunStatus::kDrained;
  }
  return RunStatus::kStopped;
}

template <class Names, class Ar>
void Simulator::TransferRegistry(Names& kind_names, Ar& ar) {
  if (!ar.BeginSection("sim.registry")) return;
  ar.Seq(kind_names);
  ar.EndSection();
}

template <class Self, class Ar, class Entries>
void Simulator::TransferCore(Self& self, Ar& ar, Entries& entries) {
  if (!ar.BeginSection("sim.core")) return;
  // Queue-backend byte, kept so the CRNCKPT1 layout is unchanged: always 0
  // (the calendar queue). A load rejects anything else.
  std::uint8_t backend = 0;
  ar.Io(backend);
  ar.Io(self.now_);
  ar.Io(self.next_seq_);
  ar.Io(self.events_executed_);
  ar.Io(self.stats_.pushes);
  ar.Io(self.stats_.pops);
  ar.Io(self.stats_.cancels);
  ar.Io(self.stats_.stale_skips);
  ar.Io(self.stats_.bucket_resizes);
  ar.Io(self.cal_shift_);
  // Reinstated by FinishRestore after the staged entries are re-inserted.
  ar.Io(self.cal_tick_);
  std::uint64_t bucket_count = self.cal_buckets_.size();
  ar.Io(bucket_count);
  ar.template Seq<std::uint64_t>(entries, [](auto& io, auto& entry) {
    io.Io(entry.time);
    io.Io(entry.seq);
    io.Io(entry.armed_parent);
    io.Io(entry.priority);
    io.Io(entry.live);
  });
  ar.EndSection();
  if constexpr (Ar::kLoading) {
    if (!ar.ok()) return;  // caller surfaces the reader's error
    CRN_CHECK(backend == 0)
        << "checkpoint was written by the removed reference-heap scheduler; "
           "re-run it without --scheduler";
    CRN_CHECK(bucket_count >= kMinCalendarBuckets &&
              (bucket_count & (bucket_count - 1)) == 0)
        << "checkpoint calendar geometry is invalid (" << bucket_count
        << " buckets)";
    // Geometry must be restored exactly: the resize schedule (a CI-gated
    // work counter) depends on the (size, bucket-count) trajectory.
    self.cal_buckets_.assign(static_cast<std::size_t>(bucket_count), {});
    self.cal_mask_ = bucket_count - 1;
    self.cal_size_ = 0;
    // The sentinel slot stale entries are re-pushed against: bound (kind 0,
    // never armed, never fired) so its generation stays fixed and any entry
    // carrying generation+1 is permanently stale.
    self.sentinel_slot_ = self.BindSlot(EventPriority::kDefault, EventFn([] {}));
    self.restoring_ = true;
  }
}

void Simulator::SaveState(StateWriter& writer) const {
  CRN_CHECK(current_fire_seq_ == 0)
      << "SaveState from inside an event callback";
  TransferRegistry(kind_names_, writer);

  // Every queue entry — live and stale — in seq order (the save-side mirror
  // of FinishRestore). Stale entries ride along so the resumed run's
  // stale-skip count and calendar occupancy match the uninterrupted run.
  std::vector<SavedEntry> entries;
  entries.reserve(cal_size_);
  std::size_t live = 0;
  for (const std::vector<QEntry>& bucket : cal_buckets_) {
    for (const QEntry& entry : bucket) {
      const bool is_live = EntryLive(entry);
      if (is_live) ++live;
      entries.push_back({entry.time, entry.seq,
                         is_live ? SlotAt(entry.slot).armed_parent : 0,
                         entry.priority, is_live});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const SavedEntry& a, const SavedEntry& b) { return a.seq < b.seq; });
  CRN_CHECK(live == pending_)
      << "live queue entries (" << live << ") disagree with pending ("
      << pending_ << ") at checkpoint";
  TransferCore(*this, writer, entries);
}

void Simulator::LoadRegistry(StateReader& reader) {
  CRN_CHECK(kind_names_.size() == 1 && next_seq_ == 1)
      << "LoadRegistry requires a fresh simulator";
  std::vector<std::string> names;
  TransferRegistry(names, reader);
  if (!reader.ok()) return;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i == 0) {
      CRN_CHECK(names[0] == "unnamed") << "corrupt kind registry";
      continue;
    }
    // Pre-populating in saved order means components re-binding in the
    // original construction order get their original kind ids back.
    const std::uint16_t id = RegisterEventKind(names[i]).id;
    CRN_CHECK(id == i) << "kind registry restore produced id " << id
                       << " for '" << names[i] << "' (expected " << i << ")";
  }
}

void Simulator::BeginRestore(StateReader& reader) {
  CRN_CHECK(!restoring_) << "BeginRestore called twice";
  CRN_CHECK(events_executed_ == 0 && pending_ == 0 && next_seq_ == 1)
      << "BeginRestore requires a fresh simulator";
  TransferCore(*this, reader, staged_entries_);
}

void Simulator::RestoreArmSlot(std::uint32_t slot, EventId seq) {
  CRN_CHECK(restoring_)
      << "RestoreArm outside BeginRestore..FinishRestore";
  CRN_CHECK(seq != 0 && seq < next_seq_)
      << "RestoreArm seq " << seq << " out of checkpoint range";
  Slot& s = SlotAt(slot);
  CRN_CHECK((s.flags & kArmed) == 0) << "RestoreArm on an armed timer";
  s.flags |= kArmed;
  s.pending_seq = seq;
  const bool inserted = restore_claims_.emplace(seq, slot).second;
  CRN_CHECK(inserted) << "two timers claimed checkpoint seq " << seq;
}

void Simulator::RestoreOnce(EventId seq, EventPriority priority,
                            std::string_view kind, std::int32_t owner,
                            EventFn fn) {
  CRN_CHECK(restoring_)
      << "RestoreOnce outside BeginRestore..FinishRestore";
  const std::uint32_t slot =
      BindSlot(priority, std::move(fn), RegisterEventKind(kind).id, owner);
  SlotAt(slot).flags |= kOneShot;
  RestoreArmSlot(slot, seq);
}

void Simulator::FinishRestore() {
  CRN_CHECK(restoring_) << "FinishRestore without BeginRestore";
  const std::uint64_t saved_tick = cal_tick_;
  const std::uint32_t stale_gen = SlotAt(sentinel_slot_).generation + 1;
  std::size_t live_count = 0;
  for (const SavedEntry& saved : staged_entries_) {
    QEntry entry{saved.time, saved.seq, sentinel_slot_, stale_gen,
                 saved.priority};
    if (saved.live) {
      const auto it = restore_claims_.find(saved.seq);
      CRN_CHECK(it != restore_claims_.end())
          << "checkpoint queue entry seq " << saved.seq
          << " was never re-claimed — a component failed to restore its "
             "pending timer";
      Slot& s = SlotAt(it->second);
      CRN_CHECK(s.priority == saved.priority)
          << "timer claiming seq " << saved.seq
          << " re-bound with a different priority than the checkpoint";
      s.armed_parent = saved.armed_parent;
      entry.slot = it->second;
      entry.gen = s.generation;
      restore_claims_.erase(it);
      ++live_count;
    }
    // Bypass Push(): these re-pushes already happened in the original run
    // (the saved work counters cover them), and the calendar geometry is
    // already exact so no resize may trigger.
    CalInsert(entry);
  }
  CRN_CHECK(restore_claims_.empty())
      << restore_claims_.size()
      << " RestoreArm claims matched no checkpoint queue entry";
  CRN_CHECK(cal_size_ == staged_entries_.size());
  cal_tick_ = saved_tick;
  pending_ = live_count;
  staged_entries_.clear();
  restoring_ = false;
}

void Simulator::CalInsert(const QEntry& entry) {
  const auto tick = static_cast<std::uint64_t>(entry.time) >> cal_shift_;
  // An insert at or behind the cursor (possible after RunUntil advanced the
  // clock through an idle stretch) clamps the cursor back so the entry can
  // never be stranded behind it.
  if (cal_size_ == 0 || tick < cal_tick_) cal_tick_ = tick;
  std::vector<QEntry>& bucket = cal_buckets_[tick & cal_mask_];
  // Keep the bucket sorted descending by key: back() is the bucket minimum.
  const auto pos = std::upper_bound(
      bucket.begin(), bucket.end(), entry,
      [](const QEntry& a, const QEntry& b) { return b.key() < a.key(); });
  bucket.insert(pos, entry);
  ++cal_size_;
}

auto Simulator::CalMinBucket() -> std::vector<QEntry>* {
  // Dense path: walk the bucket ring one tick at a time. Each tick maps to
  // exactly one bucket, and a bucket's back() is its minimum, so the first
  // back() matching the cursor tick is the global minimum.
  for (std::size_t i = 0; i < cal_buckets_.size(); ++i) {
    std::vector<QEntry>& bucket = cal_buckets_[cal_tick_ & cal_mask_];
    if (!bucket.empty() &&
        (static_cast<std::uint64_t>(bucket.back().time) >> cal_shift_) ==
            cal_tick_) {
      return &bucket;
    }
    ++cal_tick_;
  }
  // Sparse horizon: no event within one full ring rotation of the cursor.
  // Jump the cursor straight to the global minimum (this direct scan is the
  // engine's sparse-queue fallback — O(buckets), amortized by the jump).
  std::vector<QEntry>* best = nullptr;
  for (std::vector<QEntry>& bucket : cal_buckets_) {
    if (bucket.empty()) continue;
    if (best == nullptr || bucket.back().key() < best->back().key()) {
      best = &bucket;
    }
  }
  CRN_CHECK(best != nullptr) << "CalMinBucket on an empty calendar";
  cal_tick_ = static_cast<std::uint64_t>(best->back().time) >> cal_shift_;
  return best;
}

void Simulator::CalMaybeShrink() {
  if (cal_buckets_.size() > kMinCalendarBuckets &&
      cal_size_ < cal_buckets_.size() / 8) {
    CalResize(std::max(kMinCalendarBuckets, 2 * cal_size_));
  }
}

void Simulator::CalResize(std::size_t min_buckets) {
  ++stats_.bucket_resizes;
  std::vector<QEntry> all;
  all.reserve(cal_size_);
  for (std::vector<QEntry>& bucket : cal_buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  std::size_t nbuckets = kMinCalendarBuckets;
  while (nbuckets < min_buckets) nbuckets <<= 1U;
  if (nbuckets != cal_buckets_.size()) {
    cal_buckets_.assign(nbuckets, {});
    cal_mask_ = nbuckets - 1;
  }
  if (all.size() >= 2) {
    TimeNs min_time = all.front().time;
    TimeNs max_time = all.front().time;
    for (const QEntry& entry : all) {
      min_time = std::min(min_time, entry.time);
      max_time = std::max(max_time, entry.time);
    }
    // Bucket width ≈ the mean inter-event gap (rounded up to a power of
    // two), so the dense-path cursor sees about one event per tick. All
    // inputs are deterministic, so the resize schedule is too.
    const std::uint64_t gap =
        static_cast<std::uint64_t>(max_time - min_time) / (all.size() - 1);
    int shift = 0;
    while (shift < kMaxCalendarShift && (1ULL << shift) < gap) ++shift;
    cal_shift_ = shift;
    cal_tick_ = static_cast<std::uint64_t>(min_time) >> cal_shift_;
  } else if (!all.empty()) {
    cal_tick_ = static_cast<std::uint64_t>(all.front().time) >> cal_shift_;
  }
  cal_size_ = 0;
  for (const QEntry& entry : all) CalInsert(entry);
}

}  // namespace crn::sim
