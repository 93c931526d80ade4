#include "sim/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace crn::sim {
namespace {

TEST(FlightRecorderTest, RingOverwritesOldestAndCountsTotal) {
  FlightRecorder recorder(4);
  for (std::uint64_t seq = 1; seq <= 7; ++seq) {
    recorder.Record(SchedAction::kArm, seq, static_cast<TimeNs>(seq * 10),
                    /*kind=*/0, /*owner=*/-1, /*parent_seq=*/0);
  }
  EXPECT_EQ(recorder.depth(), 4u);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 7u);
  // Oldest-first view: seqs 4..7 survive.
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    EXPECT_EQ(recorder.At(i).seq, 4u + i);
  }
}

TEST(FlightRecorderTest, CountersCoverWholeRunNotJustTheRing) {
  FlightRecorder recorder(2);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    recorder.Record(SchedAction::kArm, seq, 0, /*kind=*/1, 0, 0);
    recorder.Record(SchedAction::kFire, seq, 0, /*kind=*/1, 0, 0);
  }
  recorder.Record(SchedAction::kDisarm, 9, 0, /*kind=*/2, 0, 0);
  ASSERT_GE(recorder.counters().size(), 3u);
  EXPECT_EQ(recorder.counters()[1].arms, 5);
  EXPECT_EQ(recorder.counters()[1].fires, 5);
  EXPECT_EQ(recorder.counters()[2].disarms, 1);
  EXPECT_EQ(recorder.size(), 2u);
}

TEST(FlightRecorderTest, SimulatorMirrorsKindNamesOnAttachAndRegister) {
  Simulator simulator;
  const std::uint16_t early = simulator.RegisterEventKind("test.early").id;
  FlightRecorder recorder(16);
  simulator.AttachFlightRecorder(&recorder);
  const std::uint16_t late = simulator.RegisterEventKind("test.late").id;
  ASSERT_GT(recorder.kind_names().size(), late);
  EXPECT_EQ(recorder.KindName(0), "unnamed");
  EXPECT_EQ(recorder.KindName(early), "test.early");
  EXPECT_EQ(recorder.KindName(late), "test.late");
  // Re-registering the same name returns the same id.
  EXPECT_EQ(simulator.RegisterEventKind("test.early").id, early);
}

TEST(FlightRecorderTest, RecordsCausalParentAcrossTimerChain) {
  Simulator simulator;
  FlightRecorder recorder(64);
  simulator.AttachFlightRecorder(&recorder);

  Timer leaf;
  leaf.Bind(simulator, EventPriority::kDefault, "test.leaf", /*owner=*/7,
            [] {});
  simulator.ScheduleOnce(10, EventPriority::kDefault, "test.root", 3,
                         [&] { leaf.ArmAfter(5); });
  simulator.Run();

  // Expected sequence: arm(root) pre-run with parent 0, fire(root),
  // arm(leaf) with parent = root's seq, fire(leaf) with the same parent.
  ASSERT_EQ(recorder.size(), 4u);
  const FlightRecord& arm_root = recorder.At(0);
  const FlightRecord& fire_root = recorder.At(1);
  const FlightRecord& arm_leaf = recorder.At(2);
  const FlightRecord& fire_leaf = recorder.At(3);
  EXPECT_EQ(arm_root.action, SchedAction::kArm);
  EXPECT_EQ(arm_root.parent_seq, 0u);
  EXPECT_EQ(recorder.KindName(arm_root.kind), "test.root");
  EXPECT_EQ(arm_root.owner, 3);
  EXPECT_EQ(fire_root.action, SchedAction::kFire);
  EXPECT_EQ(fire_root.seq, arm_root.seq);
  EXPECT_EQ(arm_leaf.action, SchedAction::kArm);
  EXPECT_EQ(arm_leaf.parent_seq, fire_root.seq);
  EXPECT_EQ(recorder.KindName(arm_leaf.kind), "test.leaf");
  EXPECT_EQ(arm_leaf.owner, 7);
  EXPECT_EQ(fire_leaf.action, SchedAction::kFire);
  EXPECT_EQ(fire_leaf.seq, arm_leaf.seq);
  EXPECT_EQ(fire_leaf.parent_seq, fire_root.seq);
  EXPECT_EQ(fire_leaf.time, 15);
}

TEST(FlightRecorderTest, DisarmRecordsCancelledSeqWithCancellerAsParent) {
  Simulator simulator;
  FlightRecorder recorder(64);
  simulator.AttachFlightRecorder(&recorder);

  Timer victim;
  victim.Bind(simulator, EventPriority::kDefault, "test.victim", 1,
              [] { FAIL() << "disarmed timer fired"; });
  victim.ArmAt(100);
  simulator.ScheduleOnce(10, EventPriority::kDefault, "test.canceller", 2,
                         [&] { victim.Disarm(); });
  simulator.Run();

  ASSERT_EQ(recorder.size(), 4u);  // arm victim, arm canceller, fire, disarm
  const FlightRecord& arm_victim = recorder.At(0);
  const FlightRecord& fire_canceller = recorder.At(2);
  const FlightRecord& disarm = recorder.At(3);
  EXPECT_EQ(disarm.action, SchedAction::kDisarm);
  EXPECT_EQ(disarm.seq, arm_victim.seq);
  EXPECT_EQ(disarm.parent_seq, fire_canceller.seq);
  EXPECT_EQ(recorder.KindName(disarm.kind), "test.victim");
  EXPECT_EQ(recorder.counters()[disarm.kind].fires, 0);
}

TEST(FlightRecorderTest, RescheduleOfPendingTimerRecordsAsReschedule) {
  Simulator simulator;
  FlightRecorder recorder(64);
  simulator.AttachFlightRecorder(&recorder);

  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault, "test.moved", 0, [] {});
  timer.ArmAt(100);
  timer.ArmAt(200);  // still pending: a reschedule, not a fresh arm
  simulator.Run();

  ASSERT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.At(0).action, SchedAction::kArm);
  EXPECT_EQ(recorder.At(1).action, SchedAction::kReschedule);
  EXPECT_EQ(recorder.At(2).action, SchedAction::kFire);
  EXPECT_EQ(recorder.At(2).time, 200);
  const std::uint16_t kind = recorder.At(0).kind;
  EXPECT_EQ(recorder.counters()[kind].arms, 1);
  EXPECT_EQ(recorder.counters()[kind].reschedules, 1);
  EXPECT_EQ(recorder.counters()[kind].fires, 1);
}

TEST(FlightRecorderTest, DumpRoundTripsThroughWriteAndRead) {
  Simulator simulator;
  FlightRecorder recorder(8);
  simulator.AttachFlightRecorder(&recorder);
  Timer timer;
  timer.Bind(simulator, EventPriority::kDefault, "test.roundtrip", 5, [] {});
  for (int i = 1; i <= 6; ++i) {
    simulator.ScheduleOnce(i * 10, EventPriority::kDefault, "test.tick", 1,
                           [] {});
  }
  timer.ArmAt(100);
  simulator.Run();

  std::stringstream stream;
  recorder.WriteDump(stream);

  FlightRecorder::Dump dump;
  std::string error;
  ASSERT_TRUE(FlightRecorder::ReadDump(stream, &dump, &error)) << error;
  EXPECT_EQ(dump.depth, recorder.depth());
  EXPECT_EQ(dump.total_recorded, recorder.total_recorded());
  EXPECT_EQ(dump.kind_names, recorder.kind_names());
  ASSERT_EQ(dump.records.size(), recorder.size());
  for (std::size_t i = 0; i < dump.records.size(); ++i) {
    EXPECT_EQ(dump.records[i].seq, recorder.At(i).seq);
    EXPECT_EQ(dump.records[i].time, recorder.At(i).time);
    EXPECT_EQ(dump.records[i].parent_seq, recorder.At(i).parent_seq);
    EXPECT_EQ(dump.records[i].owner, recorder.At(i).owner);
    EXPECT_EQ(dump.records[i].kind, recorder.At(i).kind);
    EXPECT_EQ(dump.records[i].action, recorder.At(i).action);
  }
  ASSERT_EQ(dump.counters.size(), recorder.counters().size());
  for (std::size_t k = 0; k < dump.counters.size(); ++k) {
    EXPECT_EQ(dump.counters[k].arms, recorder.counters()[k].arms);
    EXPECT_EQ(dump.counters[k].fires, recorder.counters()[k].fires);
  }
}

TEST(FlightRecorderTest, ReadDumpRejectsBadMagicAndTruncation) {
  FlightRecorder::Dump dump;
  std::string error;
  std::stringstream bad_magic("NOTADUMP........");
  EXPECT_FALSE(FlightRecorder::ReadDump(bad_magic, &dump, &error));
  EXPECT_FALSE(error.empty());

  FlightRecorder recorder(4);
  recorder.Record(SchedAction::kArm, 1, 0, 0, 0, 0);
  std::stringstream stream;
  recorder.WriteDump(stream);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() - 5));
  error.clear();
  EXPECT_FALSE(FlightRecorder::ReadDump(truncated, &dump, &error));
  EXPECT_FALSE(error.empty());
}

// A header whose counts promise more entries than the stream holds — the
// counts of a 36-byte dump must not size an allocation.
std::string CorruptHeader(std::uint64_t depth, std::uint32_t kind_count,
                          std::uint64_t record_count) {
  std::string bytes = "CRNFREC1";
  const auto put = [&bytes](std::uint64_t value, int width) {
    for (int i = 0; i < width; ++i) {
      bytes.push_back(static_cast<char>((value >> (8 * i)) & 0xFFU));
    }
  };
  put(depth, 8);
  put(depth, 8);  // total recorded
  put(kind_count, 4);
  if (kind_count == 0) put(record_count, 8);
  return bytes;
}

TEST(FlightRecorderTest, ReadDumpRejectsCountsTheStreamCannotHold) {
  struct Case {
    std::string bytes;
    const char* error;
  };
  const Case cases[] = {
      {CorruptHeader(1ULL << 40, 0, 1ULL << 40), "truncated record stream"},
      {CorruptHeader(1ULL << 62, 0, 1ULL << 62), "truncated record stream"},
      {CorruptHeader(4, 0xFFFFFFFFU, 0), "truncated or oversized kind name"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.error);
    std::stringstream stream(c.bytes);
    FlightRecorder::Dump dump;
    std::string error;
    EXPECT_FALSE(FlightRecorder::ReadDump(stream, &dump, &error));
    EXPECT_EQ(error, c.error);
  }
}

TEST(FlightRecorderTest, WallProbeAttributesFireTimePerKind) {
  Simulator simulator;
  FlightRecorder recorder(16);
  double fake_wall = 0.0;
  recorder.set_wall_probe([&fake_wall] { return fake_wall += 0.25; });
  simulator.AttachFlightRecorder(&recorder);
  simulator.ScheduleOnce(10, EventPriority::kDefault, "test.timed", 0, [] {});
  simulator.Run();
  const std::uint16_t kind = recorder.At(recorder.size() - 1).kind;
  // Each fire takes two probe readings 0.25 apart.
  EXPECT_DOUBLE_EQ(recorder.fire_wall_seconds(kind), 0.25);
  EXPECT_DOUBLE_EQ(recorder.fire_wall_seconds(0), 0.0);
}

TEST(FlightRecorderTest, FormatTrailDecodesNewestRecords) {
  Simulator simulator;
  FlightRecorder recorder(16);
  simulator.AttachFlightRecorder(&recorder);
  simulator.ScheduleOnce(10, EventPriority::kDefault, "test.trail", 4, [] {});
  simulator.Run();
  const std::string trail = recorder.FormatTrail(2);
  EXPECT_NE(trail.find("flight recorder trail (last 2 of 2 recorded):"),
            std::string::npos);
  EXPECT_NE(trail.find("test.trail"), std::string::npos);
  EXPECT_NE(trail.find("fire"), std::string::npos);
  EXPECT_NE(trail.find("node=4"), std::string::npos);
}

TEST(FlightRecorderTest, ClearResetsRingButKeepsKindNames) {
  FlightRecorder recorder(4);
  recorder.SetKindNames({"unnamed", "test.kept"});
  recorder.Record(SchedAction::kArm, 1, 0, 1, 0, 0);
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(recorder.KindName(1), "test.kept");
}

}  // namespace
}  // namespace crn::sim
