// Randomized fuzz of the calendar-queue scheduler against a reference model:
// a rig drives one Simulator with a stream of arm/re-arm/disarm/release/
// one-shot operations generated from inside the simulation, and mirrors every
// operation into a small binary-heap queue ordered by (time, priority, issue
// order) — the order the Simulator promises. Every fire must be that model's
// minimum live entry. The op stream depends on what fired when, so any
// ordering divergence immediately desynchronizes the rig from the model:
// there is no way for a bug in EventKey ordering, generation liveness, or
// bucket-cursor handling to stay hidden behind a coarse summary statistic.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace crn::sim {
namespace {

constexpr int kTimers = 64;
constexpr int kDriverTag = kTimers;          // the periodic op-stream driver
constexpr int kOneShotTagBase = kTimers + 1;  // one-shots: base + timer index
constexpr int kTicks = 1000;
constexpr int kOpsPerTick = 100;  // 100,000 ops per seed
constexpr TimeNs kTickPeriod = kMillisecond;
constexpr TimeNs kMaxDelay = 8 * kMillisecond;

EventPriority PriorityFor(int index) {
  switch (index % 3) {
    case 0:
      return EventPriority::kSlotBoundary;
    case 1:
      return EventPriority::kDefault;
    default:
      return EventPriority::kTimerExpiry;
  }
}

// The reference queue: a binary min-heap over (time, priority, issue). A
// re-armable tag (a timer or the driver) has at most one live entry; a
// cancel or re-arm kills the old one lazily by issue-number mismatch. One-shot
// entries are always live.
struct ReferenceQueue {
  struct Entry {
    TimeNs time = 0;
    int priority = 0;
    std::uint64_t issue = 0;
    int tag = 0;

    bool operator>(const Entry& other) const {
      return std::tie(time, priority, issue) >
             std::tie(other.time, other.priority, other.issue);
    }
  };

  std::uint64_t Push(int tag, TimeNs when, EventPriority priority) {
    heap.push(Entry{when, static_cast<int>(priority), ++issued, tag});
    ++pending;
    ++pushes;
    return issued;
  }

  void Arm(int tag, TimeNs when, EventPriority priority) {
    Cancel(tag);
    live_issue[tag] = Push(tag, when, priority);
  }

  void Cancel(int tag) {
    if (live_issue[tag] == 0) return;
    live_issue[tag] = 0;
    --pending;
    ++cancels;
  }

  // Discards dead entries above the minimum; null when nothing is live.
  const Entry* PeekLive() {
    while (!heap.empty()) {
      const Entry& top = heap.top();
      if (top.tag >= kOneShotTagBase || live_issue[top.tag] == top.issue) {
        return &top;
      }
      heap.pop();
      ++stale_skips;
    }
    return nullptr;
  }

  void PopLive() {
    if (heap.top().tag < kOneShotTagBase) live_issue[heap.top().tag] = 0;
    heap.pop();
    --pending;
    ++pops;
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::vector<std::uint64_t> live_issue =
      std::vector<std::uint64_t>(kOneShotTagBase, 0);  // 0 = not armed
  std::uint64_t issued = 0;
  std::size_t pending = 0;
  std::int64_t pushes = 0;
  std::int64_t pops = 0;
  std::int64_t cancels = 0;
  std::int64_t stale_skips = 0;
};

// One simulator, its op-stream generator, and the reference queue every
// operation is mirrored into. The first fire that is not the model's minimum
// is recorded and stops the run.
class FuzzRig {
 public:
  explicit FuzzRig(std::uint64_t seed) : rng_(seed) {
    timers_.resize(kTimers);
    for (int i = 0; i < kTimers; ++i) BindTimer(i);
    driver_.Bind(sim_, EventPriority::kDefault, EventFn([this] { Tick(); }));
    driver_.Start(0, kTickPeriod);
    model_.Arm(kDriverTag, 0, EventPriority::kDefault);
  }

  void Run() {
    sim_.RunUntil((kTicks + 16) * kTickPeriod);
    // Mirror the simulator's final peek past the deadline, which discards
    // the dead entries sitting above the first live one.
    model_.PeekLive();
  }

  [[nodiscard]] const std::string& divergence() const { return divergence_; }
  [[nodiscard]] std::int64_t fires() const { return fires_; }
  [[nodiscard]] const Simulator& sim() const { return sim_; }
  [[nodiscard]] const ReferenceQueue& model() const { return model_; }

 private:
  void BindTimer(int i) {
    timers_[i].Bind(sim_, PriorityFor(i), EventFn([this, i] { Fired(i); }));
  }

  void Fired(int tag) {
    ++fires_;
    const ReferenceQueue::Entry* expected = model_.PeekLive();
    if (expected == nullptr) {
      Diverge(tag, "the reference queue is empty");
      return;
    }
    if (expected->tag != tag || expected->time != sim_.now()) {
      std::ostringstream why;
      why << "the reference minimum is tag " << expected->tag << " at t="
          << expected->time;
      Diverge(tag, why.str());
      return;
    }
    model_.PopLive();
  }

  void Diverge(int tag, const std::string& why) {
    if (!divergence_.empty()) return;
    std::ostringstream out;
    out << "fire " << fires_ << ": tag " << tag << " at t=" << sim_.now()
        << ", but " << why;
    divergence_ = out.str();
    sim_.Stop();
  }

  void Tick() {
    Fired(kDriverTag);
    if (++ticks_ > kTicks) {
      driver_.Stop();
      return;
    }
    for (int k = 0; k < kOpsPerTick; ++k) {
      const int i = static_cast<int>(rng_.UniformInt(kTimers));
      const TimeNs delay = static_cast<TimeNs>(rng_.UniformInt(kMaxDelay + 1));
      switch (rng_.UniformInt(8)) {
        case 0:
        case 1:
        case 2:  // arm (or O(1) reschedule if already pending)
          timers_[i].ArmAfter(delay);
          model_.Arm(i, sim_.now() + delay, PriorityFor(i));
          break;
        case 3:  // rescheduling twice in one op stresses generation bumps
          timers_[i].ArmAfter(delay);
          model_.Arm(i, sim_.now() + delay, PriorityFor(i));
          timers_[i].ArmAfter(delay / 2);
          model_.Arm(i, sim_.now() + delay / 2, PriorityFor(i));
          break;
        case 4:
          timers_[i].Disarm();
          model_.Cancel(i);
          break;
        case 5:  // release + rebind recycles the arena slot mid-run
          timers_[i].Release();
          model_.Cancel(i);
          BindTimer(i);
          break;
        default:  // fire-and-forget one-shot, tagged apart from the timer
          sim_.ScheduleOnceAfter(delay, PriorityFor(i), EventFn([this, i] {
                                   Fired(kOneShotTagBase + i);
                                 }));
          model_.Push(kOneShotTagBase + i, sim_.now() + delay,
                      PriorityFor(i));
          break;
      }
    }
    // PeriodicTimer re-arms after the callback body returns, so its next
    // occurrence is issued after every op above.
    model_.Arm(kDriverTag, sim_.now() + kTickPeriod, EventPriority::kDefault);
  }

  Simulator sim_;
  Rng rng_;
  ReferenceQueue model_;
  std::vector<Timer> timers_;
  PeriodicTimer driver_;
  std::int64_t fires_ = 0;
  int ticks_ = 0;
  std::string divergence_;
};

TEST(SchedulerFuzzTest, CalendarMatchesReferencePopOrder) {
  for (const std::uint64_t seed : {0x5EEDADDCULL, 7ULL, 20260808ULL}) {
    FuzzRig rig(seed);
    rig.Run();

    ASSERT_TRUE(rig.divergence().empty())
        << "seed " << seed << ": " << rig.divergence();
    ASSERT_GT(rig.fires(), 10'000) << "seed " << seed;

    // The simulator's queue statistics must match the model's exactly;
    // only bucket_resizes is calendar-internal.
    const SchedStats& stats = rig.sim().sched_stats();
    const ReferenceQueue& model = rig.model();
    EXPECT_EQ(rig.sim().pending_count(), model.pending) << "seed " << seed;
    EXPECT_EQ(rig.sim().events_executed(),
              static_cast<std::uint64_t>(model.pops))
        << "seed " << seed;
    EXPECT_EQ(stats.pushes, model.pushes) << "seed " << seed;
    EXPECT_EQ(stats.pops, model.pops) << "seed " << seed;
    EXPECT_EQ(stats.cancels, model.cancels) << "seed " << seed;
    EXPECT_EQ(stats.stale_skips, model.stale_skips) << "seed " << seed;
  }
}

}  // namespace
}  // namespace crn::sim
