// Packet-lifecycle span tracer tests on a driven CollectionMac: exact
// delivery-delay reconstruction against the MAC's own delivery times, span
// well-formedness, digest determinism, and the Chrome trace export.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mac/collection_mac.h"
#include "obs/span_tracer.h"
#include "sim/simulator.h"

namespace crn::obs {
namespace {

using geom::Aabb;
using geom::Vec2;

// Three SUs in a chain delivering to sink 0 over a quiet spectrum — the
// same rig attempt_trace_test.cc uses.
struct Rig {
  Rig()
      : area(Aabb::Square(100.0)),
        primary(PuConfig(), area, std::vector<Vec2>{}),
        mac(simulator, primary, {{10, 50}, {18, 50}, {26, 50}}, area, 0,
            {0, 0, 1}, Config(), Rng(17)) {}

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

TEST(PacketSpanTracerTest, SpansReconstructExactDeliveryDelay) {
  Rig rig;
  PacketSpanTracer tracer;
  tracer.Attach(rig.mac);
  rig.mac.StartSnapshotCollection();
  rig.simulator.Run();
  ASSERT_TRUE(rig.mac.finished());

  // One span per packet (nodes 1 and 2 produce; 0 is the sink).
  ASSERT_EQ(tracer.packets().size(), 2u);
  const std::vector<sim::TimeNs>& delivery = rig.mac.delivery_time();
  for (const auto& [id, span] : tracer.packets()) {
    EXPECT_EQ(id, PacketSpanTracer::PacketId(span.origin, span.snapshot));
    EXPECT_TRUE(span.terminal());
    EXPECT_EQ(span.created, 0);
    // The tracer's view must agree with the MAC's ground truth to the
    // nanosecond — this is the exact-delay reconstruction contract.
    EXPECT_EQ(span.delivered, delivery[static_cast<std::size_t>(span.origin)]);
    EXPECT_EQ(span.delivery_delay(),
              delivery[static_cast<std::size_t>(span.origin)] - span.created);
  }

  // Packet 2 relays through node 1: exactly one relay enqueue, and it
  // happens at a strictly earlier time than delivery.
  const PacketSpanTracer::PacketSpan& via_relay =
      tracer.packets().at(PacketSpanTracer::PacketId(2, 0));
  ASSERT_EQ(via_relay.enqueues.size(), 1u);
  EXPECT_EQ(via_relay.enqueues[0].node, 1);
  EXPECT_LT(via_relay.enqueues[0].at, via_relay.delivered);
  EXPECT_EQ(via_relay.hops, 2);

  EXPECT_EQ(static_cast<std::int64_t>(tracer.attempts().size()),
            rig.mac.stats().attempts);
}

TEST(PacketSpanTracerTest, SpansAreWellFormed) {
  Rig rig;
  PacketSpanTracer tracer;
  tracer.Attach(rig.mac);
  rig.mac.StartSnapshotCollection();
  rig.simulator.Run();
  for (const PacketSpanTracer::Attempt& attempt : tracer.attempts()) {
    EXPECT_LE(attempt.start, attempt.end);
  }
  // Zero-length freeze intervals (contention started and resumed in the
  // same instant) are dropped, so every exported freeze has extent.
  for (const PacketSpanTracer::FreezeSpan& freeze : tracer.freezes()) {
    EXPECT_LT(freeze.begin, freeze.end);
  }
}

TEST(PacketSpanTracerTest, DigestIsDeterministicAcrossRuns) {
  auto run = [] {
    Rig rig;
    PacketSpanTracer tracer;
    tracer.Attach(rig.mac);
    rig.mac.StartSnapshotCollection();
    rig.simulator.Run();
    return tracer.Digest();
  };
  const std::uint64_t first = run();
  const std::uint64_t second = run();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(first, second);
}

TEST(PacketSpanTracerTest, ChromeTraceExportIsWellFormed) {
  Rig rig;
  PacketSpanTracer tracer;
  tracer.Attach(rig.mac);
  rig.mac.StartSnapshotCollection();
  rig.simulator.Run();

  const std::vector<ChromeTraceEvent> events = tracer.ToChromeEvents();
  // Every packet contributes an async begin/end pair.
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const ChromeTraceEvent& event : events) {
    if (event.phase == ChromeTraceEvent::Phase::kAsyncBegin) ++begins;
    if (event.phase == ChromeTraceEvent::Phase::kAsyncEnd) ++ends;
    EXPECT_GE(event.ts_us, 0.0);
  }
  EXPECT_EQ(begins, tracer.packets().size());
  EXPECT_EQ(ends, tracer.packets().size());

  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

}  // namespace
}  // namespace crn::obs
