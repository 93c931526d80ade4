// Every SIMD width end to end: the same audited run, with every sink
// attached, at each kernel width this host supports (simd::SupportedWidths,
// forced through simd::internal::SetWidthCapForTesting). The PU activity
// stream's lane kernel and the auditor's PU-protection sum both read the
// width, and neither may change a digest, a verdict or a CRNCKPT1 byte. A
// blob written at the widest width must also resume at the baseline width.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/simd_width.h"
#include "core/collection.h"
#include "core/invariant_auditor.h"
#include "core/scenario.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "sim/flight_recorder.h"

namespace crn::core {
namespace {

// Lifts the width cap when a test ends, whatever its outcome.
struct WidthCap {
  explicit WidthCap(int width) { simd::internal::SetWidthCapForTesting(width); }
  ~WidthCap() { simd::internal::SetWidthCapForTesting(0); }
  WidthCap(const WidthCap&) = delete;
  WidthCap& operator=(const WidthCap&) = delete;
};

struct Outcome {
  AuditReport audit;
  std::uint64_t metrics_digest = 0;
  std::uint64_t spans_digest = 0;
  CollectionResult result;
  std::vector<std::string> blobs;
};

// n = 200 SUs, N = 40 PUs at p_t = 0.3 with sensing errors: PU checks at
// every fourth transmission start, a few activity blocks drawn. With the
// auditor, metrics and flight recorder attached; with the span tracer too
// when the run neither checkpoints nor restores (span tracing is not
// checkpointable).
Outcome RunAudited(std::int64_t checkpoint_every, const std::string* restore_blob) {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.1);
  config.seed = 41;
  config.pu_activity = 0.3;
  const Scenario scenario(config, 0);
  Outcome out;
  obs::MetricsRegistry metrics;
  obs::PacketSpanTracer spans;
  sim::FlightRecorder recorder;
  RunOptions options;
  options.sensing_false_alarm = 0.05;
  options.sensing_missed_detection = 0.02;
  options.audit_report = &out.audit;
  options.metrics = &metrics;
  options.flight_recorder = &recorder;
  const bool traced = checkpoint_every == 0 && restore_blob == nullptr;
  if (traced) options.spans = &spans;
  if (checkpoint_every > 0) {
    options.checkpoint_every_events = checkpoint_every;
    options.checkpoint_sink = [&out](const std::string& blob, std::uint64_t) {
      out.blobs.push_back(blob);
    };
  }
  options.restore_blob = restore_blob;
  out.result = RunAddc(scenario, options);
  out.metrics_digest = metrics.Digest();
  if (traced) out.spans_digest = spans.Digest();
  return out;
}

void ExpectSameRun(const Outcome& base, const Outcome& other) {
  EXPECT_EQ(base.audit.trace_digest, other.audit.trace_digest);
  EXPECT_EQ(base.audit.pu_checks, other.audit.pu_checks);
  EXPECT_EQ(base.audit.pu_protection_violations, other.audit.pu_protection_violations);
  EXPECT_EQ(base.audit.total_violations(), other.audit.total_violations());
  EXPECT_EQ(base.metrics_digest, other.metrics_digest);
  EXPECT_EQ(base.result.delay_ms, other.result.delay_ms);
  EXPECT_EQ(base.result.mac.slot_checks_total, other.result.mac.slot_checks_total);
  EXPECT_EQ(base.result.mac.slot_checks_free, other.result.mac.slot_checks_free);
}

TEST(SimdWidthTest, EveryWidthRunsTheSameSimulation) {
  const std::vector<int> widths = simd::SupportedWidths();
  ASSERT_FALSE(widths.empty());
  std::vector<Outcome> traced;
  std::vector<Outcome> checkpointed;
  for (const int width : widths) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    const WidthCap cap(width);
    ASSERT_EQ(simd::BestWidth(), width);
    traced.push_back(RunAudited(0, nullptr));
    checkpointed.push_back(RunAudited(2000, nullptr));
  }
  const Outcome& best = traced.front();
  ASSERT_TRUE(best.result.completed);
  EXPECT_GT(best.audit.pu_checks, 0);
  EXPECT_NE(best.spans_digest, 0U);
  ASSERT_GE(checkpointed.front().blobs.size(), 2U);
  for (std::size_t i = 0; i < widths.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "width " << widths[i]);
    ExpectSameRun(best, traced[i]);
    EXPECT_EQ(best.spans_digest, traced[i].spans_digest);
    ExpectSameRun(best, checkpointed[i]);
    EXPECT_TRUE(checkpointed[i].blobs == checkpointed.front().blobs)
        << "CRNCKPT1 bytes differ from width " << widths.front() << "'s";
  }

  // A blob written at the widest width resumes at the baseline width.
  const std::vector<std::string>& blobs = checkpointed.front().blobs;
  const WidthCap baseline(2);
  const Outcome resumed = RunAudited(0, &blobs[blobs.size() / 2]);
  ExpectSameRun(best, resumed);
}

TEST(SimdWidthTest, TheCapSelectsEachSupportedWidth) {
  for (const int width : simd::SupportedWidths()) {
    const WidthCap cap(width);
    EXPECT_EQ(simd::BestWidth(), width);
  }
  EXPECT_EQ(simd::BestWidth(), simd::SupportedWidths().front());
  EXPECT_THROW(simd::internal::SetWidthCapForTesting(3), ContractViolation);
  EXPECT_THROW(simd::internal::SetWidthCapForTesting(16), ContractViolation);
  EXPECT_EQ(simd::BestWidth(), simd::SupportedWidths().front());
}

}  // namespace
}  // namespace crn::core
