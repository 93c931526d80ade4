// Tests for the per-attempt transmission trace the span tracer records:
// one Attempt per kTxEnd event, its CSV export (`addc_sim --trace`) and its
// in-process summary, on a driven MAC and on synthetic event streams.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "mac/collection_mac.h"
#include "obs/span_tracer.h"
#include "sim/simulator.h"

namespace crn::obs {
namespace {

using geom::Aabb;
using geom::Vec2;

struct Rig {
  Rig()
      : area(Aabb::Square(100.0)),
        primary(PuConfig(), area, std::vector<Vec2>{}),
        mac(simulator, primary, {{10, 50}, {18, 50}, {26, 50}}, area, 0, {0, 0, 1},
            Config(), Rng(17)) {}

  static mac::MacConfig Config() {
    mac::MacConfig config;
    config.pcr = 30.0;
    config.audit_stride = 0;
    return config;
  }
  static pu::PrimaryConfig PuConfig() {
    pu::PrimaryConfig config;
    config.count = 0;
    config.activity = 0.0;
    return config;
  }

  Aabb area;
  sim::Simulator simulator;
  pu::PrimaryNetwork primary;
  mac::CollectionMac mac;
};

// A synthetic attempt: the kTxEnd event the MAC would emit for it.
mac::MacEvent TxEnd(sim::TimeNs start, sim::TimeNs end, mac::TxOutcome outcome) {
  mac::MacEvent event;
  event.kind = mac::MacEvent::Kind::kTxEnd;
  event.time = end;
  event.start = start;
  event.end = end;
  event.outcome = outcome;
  return event;
}

TEST(TraceRecorderTest, RecordsEveryAttempt) {
  Rig rig;
  PacketSpanTracer tracer;
  tracer.Attach(rig.mac);
  rig.mac.StartSnapshotCollection();
  rig.simulator.Run();
  ASSERT_TRUE(rig.mac.finished());
  EXPECT_EQ(static_cast<std::int64_t>(tracer.attempts().size()),
            rig.mac.stats().attempts);
  // Chain 0 <- 1 <- 2: three successful hops expected, no failures (quiet
  // spectrum).
  EXPECT_EQ(tracer.attempts().size(), 3u);
}

TEST(TraceRecorderTest, CsvHasHeaderAndOneRowPerEvent) {
  Rig rig;
  PacketSpanTracer tracer;
  tracer.Attach(rig.mac);
  rig.mac.StartSnapshotCollection();
  rig.simulator.Run();
  std::ostringstream out;
  tracer.WriteAttemptCsv(out);
  const std::string text = out.str();
  std::size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, tracer.attempts().size() + 1);
  EXPECT_EQ(text.rfind("start_ms,end_ms,transmitter,receiver,outcome,origin,"
                       "snapshot,hops,min_sir\n", 0), 0u);
  EXPECT_NE(text.find("success"), std::string::npos);
  EXPECT_NE(text.find("inf"), std::string::npos);  // unopposed receptions
}

TEST(TraceRecorderTest, SummaryCountsAndAirtime) {
  Rig rig;
  PacketSpanTracer tracer;
  tracer.Attach(rig.mac);
  rig.mac.StartSnapshotCollection();
  rig.simulator.Run();
  const PacketSpanTracer::AttemptSummary summary = tracer.SummarizeAttempts();
  EXPECT_EQ(summary.attempts, 3);
  EXPECT_EQ(summary.per_outcome[static_cast<int>(mac::TxOutcome::kSuccess)], 3);
  EXPECT_DOUBLE_EQ(
      summary.per_outcome_fraction[static_cast<int>(mac::TxOutcome::kSuccess)], 1.0);
  EXPECT_DOUBLE_EQ(summary.useful_airtime_fraction, 1.0);
  EXPECT_GT(summary.last_end, summary.first_start);
}

TEST(TraceRecorderTest, SummaryOutcomeFractionsSumToOne) {
  PacketSpanTracer tracer;
  tracer.Record(TxEnd(100, 200, mac::TxOutcome::kSuccess));
  tracer.Record(TxEnd(100, 200, mac::TxOutcome::kReceiverBusy));
  tracer.Record(TxEnd(100, 200, mac::TxOutcome::kSirFailure));
  tracer.Record(TxEnd(100, 200, mac::TxOutcome::kSuccess));
  const PacketSpanTracer::AttemptSummary summary = tracer.SummarizeAttempts();
  EXPECT_EQ(summary.attempts, 4);
  EXPECT_DOUBLE_EQ(
      summary.per_outcome_fraction[static_cast<int>(mac::TxOutcome::kSuccess)], 0.5);
  double total = 0.0;
  for (double fraction : summary.per_outcome_fraction) total += fraction;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(TraceRecorderTest, SummaryDegenerateSingleTimestampIsFinite) {
  // Every attempt shares one instant: timestamps must still be reported and
  // the airtime fraction must be 0, not NaN (total airtime is zero).
  PacketSpanTracer tracer;
  tracer.Record(TxEnd(7'000, 7'000, mac::TxOutcome::kSuccess));
  tracer.Record(TxEnd(7'000, 7'000, mac::TxOutcome::kReceiverBusy));
  const PacketSpanTracer::AttemptSummary summary = tracer.SummarizeAttempts();
  EXPECT_EQ(summary.attempts, 2);
  EXPECT_EQ(summary.first_start, 7'000);
  EXPECT_EQ(summary.last_end, 7'000);
  EXPECT_FALSE(std::isnan(summary.useful_airtime_fraction));
  EXPECT_DOUBLE_EQ(summary.useful_airtime_fraction, 0.0);
  EXPECT_DOUBLE_EQ(
      summary.per_outcome_fraction[static_cast<int>(mac::TxOutcome::kSuccess)], 0.5);
}

TEST(TraceRecorderTest, EmptyTrace) {
  PacketSpanTracer tracer;
  const PacketSpanTracer::AttemptSummary summary = tracer.SummarizeAttempts();
  EXPECT_EQ(summary.attempts, 0);
  EXPECT_DOUBLE_EQ(summary.useful_airtime_fraction, 0.0);
  std::ostringstream out;
  tracer.WriteAttemptCsv(out);
  EXPECT_EQ(out.str(),
            "start_ms,end_ms,transmitter,receiver,outcome,origin,snapshot,hops,"
            "min_sir\n");
}

}  // namespace
}  // namespace crn::obs
