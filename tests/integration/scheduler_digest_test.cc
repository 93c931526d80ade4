// The scheduler's bit-identity contract at full-stack scale: an ADDC
// collection run on the calendar queue must reproduce, exactly, the results
// the pre-calendar binary-heap scheduler produced for the same scenario —
// the auditor trace digest, the executed-event count and every scalar
// result below were recorded from a heap-backed run. This is the
// integration-level counterpart of tests/sim/scheduler_fuzz_test.cc: the
// fuzz test proves pop order against a heap model on synthetic op streams,
// this one proves it on the real MAC/routing event mix (slot boundaries,
// backoff expiries, audit one-shots, snapshot seeding) where a divergence
// would also shift RNG stream consumption and corrupt every downstream
// statistic.
#include <gtest/gtest.h>

#include "core/collection.h"
#include "core/invariant_auditor.h"
#include "core/scenario.h"

namespace crn::core {
namespace {

TEST(SchedulerDigestTest, CalendarAndReferenceRunsAreBitIdentical) {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.1);  // n = 200
  config.seed = 41;
  AuditReport report;
  RunOptions options;
  options.audit_report = &report;
  const CollectionResult result = RunAddc(Scenario(config, 0), options);

  ASSERT_TRUE(result.completed);
  EXPECT_EQ(report.trace_digest, 0x15e77b663606aaddULL);
  EXPECT_EQ(report.events_observed, 23807U);

  // Exact, not approximate: the same deterministic computation behind a
  // different queue layout. Hex-float literals pin every bit.
  EXPECT_EQ(result.delay_ms, 0x1.20f20350d2807p+14);  // 18492.503238 ms
  EXPECT_EQ(result.capacity_fraction, 0x1.62646b189ed46p-7);
  EXPECT_EQ(result.avg_hops, 5.25);
  EXPECT_EQ(result.mac.delivered, 200);
}

}  // namespace
}  // namespace crn::core
