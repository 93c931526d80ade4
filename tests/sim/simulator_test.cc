#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace crn::sim {
namespace {

// The suite stays value-parameterized over the queue backend so its test
// ids (AllBackends/SimulatorTest.*/calendar) are stable; the calendar queue
// is the only backend. Pop order is checked against a binary-heap model in
// scheduler_fuzz_test.cc.
enum class Backend : std::uint8_t { kCalendar = 0 };

class SimulatorTest : public ::testing::TestWithParam<Backend> {
 protected:
  Simulator simulator;
};

INSTANTIATE_TEST_SUITE_P(AllBackends, SimulatorTest,
                         ::testing::Values(Backend::kCalendar),
                         [](const ::testing::TestParamInfo<Backend>&) {
                           return std::string("calendar");
                         });

TEST_P(SimulatorTest, FiresInTimeOrder) {
  std::vector<int> fired;
  simulator.ScheduleOnce(30, EventPriority::kDefault, [&] { fired.push_back(3); });
  simulator.ScheduleOnce(10, EventPriority::kDefault, [&] { fired.push_back(1); });
  simulator.ScheduleOnce(20, EventPriority::kDefault, [&] { fired.push_back(2); });
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 30);
  EXPECT_EQ(simulator.events_executed(), 3u);
}

TEST_P(SimulatorTest, PriorityBreaksTimeTies) {
  std::vector<int> fired;
  simulator.ScheduleOnce(10, EventPriority::kTimerExpiry, [&] { fired.push_back(2); });
  simulator.ScheduleOnce(10, EventPriority::kTransmissionEnd, [&] { fired.push_back(0); });
  simulator.ScheduleOnce(10, EventPriority::kSlotBoundary, [&] { fired.push_back(1); });
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST_P(SimulatorTest, SequenceBreaksFullTies) {
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    simulator.ScheduleOnce(7, EventPriority::kDefault, [&fired, i] { fired.push_back(i); });
  }
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_P(SimulatorTest, DisarmPreventsExecution) {
  int fired = 0;
  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault, [&] { ++fired; });
  timer.ArmAt(10);
  simulator.ScheduleOnce(5, EventPriority::kDefault, [&] { ++fired; });
  EXPECT_TRUE(timer.Disarm());
  EXPECT_FALSE(timer.Disarm());  // second disarm is a no-op
  simulator.Run();
  EXPECT_EQ(fired, 1);
}

TEST_P(SimulatorTest, DisarmFromInsideEvent) {
  int fired = 0;
  Timer victim;
  victim.Bind(simulator, EventPriority::kDefault, [&] { ++fired; });
  victim.ArmAt(10);
  simulator.ScheduleOnce(10, EventPriority::kSlotBoundary, [&] { victim.Disarm(); });
  simulator.Run();
  EXPECT_EQ(fired, 0);
}

TEST_P(SimulatorTest, EventsCanScheduleEvents) {
  std::vector<TimeNs> times;
  simulator.ScheduleOnce(0, EventPriority::kDefault, [&] {
    times.push_back(simulator.now());
    // One-shot callbacks may schedule further one-shots.
    simulator.ScheduleOnceAfter(10, EventPriority::kDefault, [&] {
      times.push_back(simulator.now());
    });
  });
  simulator.Run();
  EXPECT_EQ(times, (std::vector<TimeNs>{0, 10}));
}

TEST_P(SimulatorTest, TimerCallbackCanRearmItself) {
  std::vector<TimeNs> times;
  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault, [&] {
    times.push_back(simulator.now());
    if (times.size() < 4) timer.ArmAfter(10);
  });
  timer.ArmAt(0);
  simulator.Run();
  EXPECT_EQ(times, (std::vector<TimeNs>{0, 10, 20, 30}));
}

TEST_P(SimulatorTest, RearmReplacesPendingFire) {
  std::vector<TimeNs> times;
  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault,
             [&] { times.push_back(simulator.now()); });
  timer.ArmAt(10);
  timer.ArmAt(25);  // implicit disarm of the t=10 fire
  simulator.Run();
  EXPECT_EQ(times, (std::vector<TimeNs>{25}));
  EXPECT_EQ(simulator.events_executed(), 1u);
  EXPECT_EQ(simulator.sched_stats().cancels, 1);
}

TEST_P(SimulatorTest, TimerDestructionCancelsPendingFire) {
  int fired = 0;
  {
    Timer timer;
    timer.Bind(simulator, EventPriority::kDefault, [&] { ++fired; });
    timer.ArmAt(10);
    EXPECT_EQ(simulator.pending_count(), 1u);
  }
  EXPECT_EQ(simulator.pending_count(), 0u);
  simulator.Run();
  EXPECT_EQ(fired, 0);
}

TEST_P(SimulatorTest, TimerMoveTransfersOwnership) {
  std::vector<int> fired;
  std::vector<Timer> timers;
  for (int i = 0; i < 3; ++i) {
    Timer timer;
    timer.Bind(simulator, EventPriority::kDefault, [&fired, i] { fired.push_back(i); });
    timer.ArmAt(10 * (i + 1));
    timers.push_back(std::move(timer));  // move must keep the arm alive
  }
  // Swap-remove the middle timer (the active_tx_ idiom): its fire cancels.
  timers[1] = std::move(timers.back());
  timers.pop_back();
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<int>{0, 2}));
}

// A timer destroyed from inside its own callback (the transmission-teardown
// pattern: FinishTransmission destroys the Transmission holding the very
// end-timer that fired) must defer the slot release until the callback
// returns, and the slot must be cleanly reusable afterwards.
TEST_P(SimulatorTest, TimerDestroyedInsideOwnCallbackIsSafe) {
  struct Holder {
    Timer timer;
  };
  int fired = 0;
  auto holder = std::make_unique<Holder>();
  holder->timer.Bind(simulator, EventPriority::kDefault, [&] {
    ++fired;
    holder.reset();  // destroys the executing timer
  });
  holder->timer.ArmAt(5);
  simulator.Run();
  EXPECT_EQ(fired, 1);
  // The freed slot is recyclable.
  simulator.ScheduleOnce(10, EventPriority::kDefault, [&] { ++fired; });
  simulator.Run();
  EXPECT_EQ(fired, 2);
}

TEST_P(SimulatorTest, StopHaltsRun) {
  int fired = 0;
  simulator.ScheduleOnce(1, EventPriority::kDefault, [&] {
    ++fired;
    simulator.Stop();
  });
  simulator.ScheduleOnce(2, EventPriority::kDefault, [&] { ++fired; });
  simulator.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), 1);
}

TEST_P(SimulatorTest, RunUntilStopsAtDeadline) {
  std::vector<TimeNs> times;
  for (TimeNs t : {5, 10, 15, 20}) {
    simulator.ScheduleOnce(t, EventPriority::kDefault, [&, t] { times.push_back(t); });
  }
  simulator.RunUntil(15);
  EXPECT_EQ(times, (std::vector<TimeNs>{5, 10, 15}));  // deadline inclusive
  EXPECT_EQ(simulator.now(), 15);
  simulator.Run();
  EXPECT_EQ(times.back(), 20);
}

TEST_P(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  simulator.RunUntil(100);
  EXPECT_EQ(simulator.now(), 100);
  // Scheduling resumes cleanly after the idle advance (the calendar cursor
  // must clamp back to the new event).
  std::vector<TimeNs> times;
  simulator.ScheduleOnce(150, EventPriority::kDefault,
                         [&] { times.push_back(simulator.now()); });
  simulator.Run();
  EXPECT_EQ(times, (std::vector<TimeNs>{150}));
}

TEST_P(SimulatorTest, SchedulingInPastThrows) {
  simulator.ScheduleOnce(10, EventPriority::kDefault, [] {});
  simulator.Run();
  EXPECT_THROW(simulator.ScheduleOnce(5, EventPriority::kDefault, [] {}),
               ContractViolation);
  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault, [] {});
  EXPECT_THROW(timer.ArmAt(5), ContractViolation);
}

TEST_P(SimulatorTest, EventLimitCatchesRunaway) {
  simulator.set_event_limit(100);
  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault, [&] { timer.ArmAfter(1); });
  timer.ArmAt(0);
  EXPECT_THROW(simulator.Run(), ContractViolation);
}

TEST_P(SimulatorTest, PendingCountTracksCancellations) {
  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault, [] {});
  timer.ArmAt(1);
  simulator.ScheduleOnce(2, EventPriority::kDefault, [] {});
  EXPECT_EQ(simulator.pending_count(), 2u);
  timer.Disarm();
  EXPECT_EQ(simulator.pending_count(), 1u);
}

TEST_P(SimulatorTest, PendingCountExactUnderCancelAfterPopInterleavings) {
  // Disarm an already-popped-but-stale sibling entry mid-run: the count
  // must stay exact (this was the old core's queue-minus-cancelled skew).
  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault, [] {});
  std::vector<std::size_t> pending_seen;
  timer.ArmAt(10);
  timer.ArmAt(20);  // the t=10 entry is now stale but still queued
  simulator.ScheduleOnce(15, EventPriority::kDefault, [&] {
    // The stale t=10 entry has already been popped and skipped here.
    pending_seen.push_back(simulator.pending_count());
    timer.Disarm();
    pending_seen.push_back(simulator.pending_count());
  });
  simulator.Run();
  EXPECT_EQ(pending_seen, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(simulator.pending_count(), 0u);
  EXPECT_EQ(simulator.events_executed(), 1u);
}

TEST_P(SimulatorTest, RunUntilLazilySkipsCancelledEntries) {
  int fired = 0;
  Timer cancelled;
  cancelled.Bind(simulator, EventPriority::kDefault, [&] { ++fired; });
  cancelled.ArmAt(10);
  simulator.ScheduleOnce(20, EventPriority::kDefault, [&] { ++fired; });
  cancelled.Disarm();
  EXPECT_EQ(simulator.pending_count(), 1u);
  // The deadline crosses the cancelled entry: it must be consumed silently
  // (no callback, no events_executed tick) while bookkeeping stays exact.
  simulator.RunUntil(15);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(simulator.events_executed(), 0u);
  EXPECT_EQ(simulator.pending_count(), 1u);
  EXPECT_EQ(simulator.now(), 15);
  simulator.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.pending_count(), 0u);
}

TEST_P(SimulatorTest, DisarmAfterFireIsNoOp) {
  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault, [] {});
  timer.ArmAt(1);
  simulator.Run();
  EXPECT_FALSE(timer.Disarm());
  EXPECT_EQ(simulator.pending_count(), 0u);
  EXPECT_EQ(simulator.sched_stats().cancels, 0);
}

TEST_P(SimulatorTest, EventObserversSeeEveryExecutedEventInOrder) {
  std::vector<TimeNs> observed;
  std::vector<TimeNs> fired;
  simulator.AddEventObserver([&](TimeNs now) { observed.push_back(now); });
  Timer cancelled;
  cancelled.Bind(simulator, EventPriority::kDefault, [] {});
  cancelled.ArmAt(5);
  for (TimeNs t : {10, 20, 30}) {
    simulator.ScheduleOnce(t, EventPriority::kDefault, [&, t] { fired.push_back(t); });
  }
  cancelled.Disarm();  // skipped entries must not reach observers
  simulator.Run();
  EXPECT_EQ(observed, (std::vector<TimeNs>{10, 20, 30}));
  EXPECT_EQ(observed, fired);
}

TEST_P(SimulatorTest, ObserversMustNotScheduleOrCancel) {
  simulator.AddEventObserver([&](TimeNs) {
    simulator.ScheduleOnce(50, EventPriority::kDefault, [] {});
  });
  simulator.ScheduleOnce(1, EventPriority::kDefault, [] {});
  EXPECT_THROW(simulator.Run(), ContractViolation);
}

TEST_P(SimulatorTest, PeriodicTimerFiresEveryPeriod) {
  std::vector<TimeNs> times;
  PeriodicTimer periodic;
  periodic.Bind(simulator, EventPriority::kSlotBoundary, [&] {
    times.push_back(simulator.now());
    if (times.size() == 4) periodic.Stop();
  });
  periodic.Start(5, 10);
  simulator.Run();
  EXPECT_EQ(times, (std::vector<TimeNs>{5, 15, 25, 35}));
  EXPECT_FALSE(periodic.running());
  // Stop() from inside the callback consumed no sequence number: nothing
  // is pending and the queue drained.
  EXPECT_EQ(simulator.pending_count(), 0u);
}

TEST_P(SimulatorTest, PeriodicTimerRearmsAfterCallbackBody) {
  // An event the callback schedules for the *next* boundary instant (same
  // time, same priority) must fire before the next periodic occurrence:
  // the re-arm happens after the callback body, so it draws a later
  // sequence number.
  std::vector<std::string> order;
  PeriodicTimer periodic;
  periodic.Bind(simulator, EventPriority::kDefault, [&] {
    order.push_back("tick@" + std::to_string(simulator.now()));
    if (simulator.now() == 0) {
      simulator.ScheduleOnceAfter(10, EventPriority::kDefault, [&] {
        order.push_back("oneshot@" + std::to_string(simulator.now()));
      });
    }
    if (simulator.now() >= 10) periodic.Stop();
  });
  periodic.Start(0, 10);
  simulator.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"tick@0", "oneshot@10", "tick@10"}));
}

TEST_P(SimulatorTest, SchedStatsBalance) {
  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault, [] {});
  timer.ArmAt(10);
  timer.ArmAt(20);  // one implicit cancel
  simulator.ScheduleOnce(30, EventPriority::kDefault, [] {});
  simulator.Run();
  const SchedStats& stats = simulator.sched_stats();
  EXPECT_EQ(stats.pushes, 3);
  EXPECT_EQ(stats.pops, 2);
  EXPECT_EQ(stats.cancels, 1);
  // At drain every push was either fired or skipped as stale.
  EXPECT_EQ(stats.pushes, stats.pops + stats.stale_skips);
  EXPECT_EQ(stats.cancels, stats.stale_skips);
}

TEST_P(SimulatorTest, HighChurnKeepsExactOrderAcrossResizes) {
  // Enough spread-out events to force calendar-bucket growth and shrink;
  // order must stay exact throughout.
  std::vector<TimeNs> fired;
  std::vector<TimeNs> expected;
  for (int i = 0; i < 1000; ++i) {
    const TimeNs t = (i * 7919) % 10000;
    expected.push_back(t);
    simulator.ScheduleOnce(t, EventPriority::kDefault,
                           [&fired, this] { fired.push_back(simulator.now()); });
  }
  std::sort(expected.begin(), expected.end());
  simulator.Run();
  EXPECT_EQ(fired, expected);
  EXPECT_GT(simulator.sched_stats().bucket_resizes, 0);
}

TEST_P(SimulatorTest, SparseHorizonsStayOrdered) {
  // Events separated by ~hours of simulated time exercise the calendar's
  // sparse-horizon cursor jump.
  std::vector<TimeNs> fired;
  for (TimeNs t : {TimeNs{7'200'000'000'000}, TimeNs{1'000}, TimeNs{3'600'000'000'000}, TimeNs{0}}) {
    simulator.ScheduleOnce(t, EventPriority::kDefault,
                           [&fired, this] { fired.push_back(simulator.now()); });
  }
  simulator.Run();
  EXPECT_EQ(fired, (std::vector<TimeNs>{0, 1'000, 3'600'000'000'000,
                                        7'200'000'000'000}));
}

TEST(EventFnTest, InlineAndHeapCapturesBothInvoke) {
  int calls = 0;
  EventFn small([&calls] { ++calls; });
  small();
  EXPECT_EQ(calls, 1);

  // A capture far beyond the inline buffer takes the heap path.
  std::array<std::uint64_t, 32> big_state{};
  big_state[31] = 42;
  int observed = 0;
  EventFn big([big_state, &observed] {
    observed = static_cast<int>(big_state[31]);
  });
  static_assert(sizeof(big_state) > EventFn::kInlineSize);
  big();
  EXPECT_EQ(observed, 42);
}

TEST(EventFnTest, MovePreservesStateAndEmptiesSource) {
  auto state = std::make_unique<int>(7);
  int observed = 0;
  EventFn fn([state = std::move(state), &observed] { observed = *state; });
  EventFn moved(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(observed, 7);
}

}  // namespace
}  // namespace crn::sim
