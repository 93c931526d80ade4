// Shared machinery for the checkpoint/restore contract tests: one scenario
// shape, one fault-churn plan, one "run this variant" entry point, and one
// bit-identity assertion — so the in-process resume matrix
// (checkpoint_resume_test.cc) and the SIGKILL crash soak
// (crash_recovery_test.cc) pin exactly the same observable state and can
// never drift apart on what "identical" means.
#ifndef CRN_TESTS_INTEGRATION_CHECKPOINT_HARNESS_H_
#define CRN_TESTS_INTEGRATION_CHECKPOINT_HARNESS_H_

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/collection.h"
#include "core/invariant_auditor.h"
#include "core/scenario.h"
#include "faults/fault_plan.h"
#include "obs/metrics.h"
#include "sim/flight_recorder.h"

namespace crn::core {

struct Variant {
  bool faults = false;
  bool flight = false;
};

// Everything a run leaves behind that the contract pins bit-exactly, plus
// the checkpoints captured along the way (empty on non-checkpointing runs).
struct Captured {
  std::vector<std::pair<std::uint64_t, std::string>> checkpoints;
  AuditReport audit;
  std::uint64_t metrics_digest = 0;
  faults::FaultReport fault_report;
  CollectionResult result;
};

// Crash churn plus sensing bursts, dense enough that checkpoints land with
// pending repair passes and un-fired timeline events in flight.
inline faults::FaultPlan SoakPlan() {
  faults::FaultPlan plan;
  std::string error;
  const bool ok = faults::ParsePlanText(
      "gen crash 25 40\n"
      "gen sensing_burst 10 0.3 0.3 30\n"
      "option horizon_ms 3000\n"
      "option repair_delay_ms 2\n"
      "option retx_budget 6\n",
      plan, error);
  CRN_CHECK(ok) << error;
  return plan;
}

// The scenario every variant runs: n = 200 SUs, N = 40 PUs.
inline Scenario HarnessScenario(std::uint64_t seed) {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.1);
  config.seed = seed;
  return Scenario(config, 0);
}

inline Captured RunVariant(std::uint64_t seed, const Variant& variant,
                           std::int64_t checkpoint_every,
                           const std::string* restore_blob) {
  const Scenario scenario = HarnessScenario(seed);

  Captured out;
  obs::MetricsRegistry metrics;
  sim::FlightRecorder recorder;
  const faults::FaultPlan plan = SoakPlan();

  RunOptions options;
  options.audit_report = &out.audit;
  options.metrics = &metrics;
  if (variant.faults) {
    options.faults = &plan;
    options.fault_report = &out.fault_report;
  }
  if (variant.flight) options.flight_recorder = &recorder;
  if (checkpoint_every > 0) {
    options.checkpoint_every_events = checkpoint_every;
    options.checkpoint_sink = [&out](const std::string& blob,
                                     std::uint64_t events) {
      out.checkpoints.emplace_back(events, blob);
    };
  }
  options.restore_blob = restore_blob;
  out.result = RunAddc(scenario, options);
  out.metrics_digest = metrics.Digest();
  return out;
}

// Where one section's CRC and payload sit in a CRNCKPT1 blob: magic (8),
// version (4), section count (4), then per section name length (4), name,
// payload length (8), CRC (4), payload.
struct SectionAt {
  std::size_t crc = 0;
  std::size_t payload = 0;
  std::size_t size = 0;
};

inline std::uint64_t LoadLe(const std::string& blob, std::size_t at, int bytes) {
  std::uint64_t value = 0;
  for (int i = bytes - 1; i >= 0; --i) {
    value = (value << 8U) |
            static_cast<std::uint8_t>(blob.at(at + static_cast<std::size_t>(i)));
  }
  return value;
}

inline SectionAt FindSection(const std::string& blob, std::string_view name) {
  std::size_t pos = 12;
  const std::uint64_t count = LoadLe(blob, pos, 4);
  pos += 4;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::size_t name_length = LoadLe(blob, pos, 4);
    const std::string_view section(blob.data() + pos + 4, name_length);
    pos += 4 + name_length;
    SectionAt at{pos + 8, pos + 12, LoadLe(blob, pos, 8)};
    if (section == name) return at;
    pos = at.payload + at.size;
  }
  ADD_FAILURE() << "no section '" << name << "'";
  return {};
}

// Exact equality everywhere — both runs are the same deterministic
// computation, interrupted or not.
inline void ExpectBitIdentical(const Captured& base, const Captured& other) {
  EXPECT_NE(base.audit.trace_digest, 0U);
  EXPECT_EQ(base.audit.trace_digest, other.audit.trace_digest);
  EXPECT_EQ(base.audit.events_observed, other.audit.events_observed);
  EXPECT_EQ(base.audit.tx_starts, other.audit.tx_starts);
  EXPECT_EQ(base.audit.receptions_checked, other.audit.receptions_checked);
  EXPECT_EQ(base.audit.pu_checks, other.audit.pu_checks);
  EXPECT_EQ(base.audit.total_violations(), other.audit.total_violations());

  EXPECT_NE(base.metrics_digest, 0U);
  EXPECT_EQ(base.metrics_digest, other.metrics_digest);

  EXPECT_EQ(base.result.completed, other.result.completed);
  EXPECT_EQ(base.result.delay_ms, other.result.delay_ms);
  EXPECT_EQ(base.result.capacity_fraction, other.result.capacity_fraction);
  EXPECT_EQ(base.result.avg_hops, other.result.avg_hops);
  EXPECT_EQ(base.result.delivery_ratio, other.result.delivery_ratio);
  EXPECT_EQ(base.result.mac.delivered, other.result.mac.delivered);
  EXPECT_EQ(base.result.mac.attempts, other.result.mac.attempts);
  EXPECT_EQ(base.result.mac.finish_time, other.result.mac.finish_time);

  EXPECT_EQ(base.fault_report.injected_total(),
            other.fault_report.injected_total());
  EXPECT_EQ(base.fault_report.repairs_attempted,
            other.fault_report.repairs_attempted);
  EXPECT_EQ(base.fault_report.reattached_total,
            other.fault_report.reattached_total);
  EXPECT_EQ(base.fault_report.recoveries, other.fault_report.recoveries);
}

}  // namespace crn::core

#endif  // CRN_TESTS_INTEGRATION_CHECKPOINT_HARNESS_H_
