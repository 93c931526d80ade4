// Pins what PU activity sampling and carrier sensing decide, end to end,
// over a grid of runs: both PU-population regimes (N = 100 and N = 1,100
// with a small n), i.i.d. and Markov activity (mean bursts 4 and 1),
// imperfect sensing, a fault-plan PU-activity override, the degenerate duty
// cycles p_t = 0 and p_t = 1, and a checkpoint resumed from the middle of
// a 64-slot run. Further cells cover the regimes in which most slot
// boundaries change no busy flag: a long p_t = 0.45 run over hundreds of
// windows, a sensing-error burst that starts and ends inside one window,
// the fairness wait switched off, continuous collection, and a Coolest run
// at p_t = 0.45. Every value below is exact: a change to how or when PU
// activity is drawn or sensed moves at least one of them.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/collection.h"
#include "core/invariant_auditor.h"
#include "core/scenario.h"
#include "faults/fault_plan.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "sim/checkpoint.h"
#include "sim/flight_recorder.h"

namespace crn::core {
namespace {

struct Cell {
  const char* name;
  std::int32_t num_sus;
  std::int32_t num_pus;
  double area_side;
  double activity;
  pu::ActivityProcess process;
  double burst;
  double false_alarm;
  double missed_detection;
  const char* plan;  // fault-plan text, or nullptr
  sim::TimeNs max_sim_time;
  std::int64_t checkpoint_every;  // events between checkpoints
  bool fairness_wait = true;
  std::int32_t snapshots = 1;  // > 1: continuous collection, one per interval
  sim::TimeNs snapshot_interval = 0;
};

struct Pins {
  std::uint64_t trace_digest;
  std::uint64_t metrics_digest;
  std::uint64_t spans_digest;
  double delay_ms;
  std::int64_t slot_checks_total;
  std::int64_t slot_checks_free;
  std::size_t blobs;
  std::uint64_t blobs_hash;  // FNV-1a over every checkpoint's bytes, in order
};

constexpr auto kIid = pu::ActivityProcess::kIid;
constexpr auto kMarkov = pu::ActivityProcess::kMarkov;

// Overrides starting at 75 ms and ending at 115 ms: both land inside the
// 64-slot run that starts at slot 64, at offsets 11 and 51.
constexpr const char* kIidOverride = "at 75 pu_activity 0.8 40\n";
constexpr const char* kMarkovOverride = "at 75 pu_activity 0.15 40\n";
constexpr const char* kSparseOverride = "at 75 pu_activity 0.02 40\n";

ScenarioConfig Config(const Cell& cell) {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.25);
  config.seed = 41;
  config.num_sus = cell.num_sus;
  config.num_pus = cell.num_pus;
  config.area_side = cell.area_side;
  config.pu_activity = cell.activity;
  config.pu_activity_process = cell.process;
  config.pu_mean_burst_slots = cell.burst;
  config.max_sim_time = cell.max_sim_time;
  config.fairness_wait = cell.fairness_wait;
  return config;
}

std::uint64_t Fnv(std::uint64_t hash, const std::string& bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

struct Outcome {
  AuditReport audit;
  std::uint64_t metrics_digest = 0;
  std::uint64_t spans_digest = 0;
  CollectionResult result;
  std::vector<std::string> blobs;
};

// One run of `cell` with the auditor, metrics and flight recorder attached;
// with the span tracer too when it neither checkpoints nor restores (span
// tracing is not checkpointable).
Outcome Run(const Cell& cell, std::int64_t checkpoint_every,
            const std::string* restore_blob) {
  const Scenario scenario(Config(cell), 0);
  faults::FaultPlan plan;
  if (cell.plan != nullptr) {
    std::string error;
    CRN_CHECK(faults::ParsePlanText(cell.plan, plan, error)) << error;
  }
  Outcome out;
  obs::MetricsRegistry metrics;
  obs::PacketSpanTracer spans;
  sim::FlightRecorder recorder;
  RunOptions options;
  options.sensing_false_alarm = cell.false_alarm;
  options.sensing_missed_detection = cell.missed_detection;
  options.snapshot_interval = cell.snapshot_interval;
  options.snapshot_count = cell.snapshots;
  options.audit_report = &out.audit;
  options.metrics = &metrics;
  options.flight_recorder = &recorder;
  if (cell.plan != nullptr) options.faults = &plan;
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

// The PU slots a checkpoint had sampled.
std::int64_t SlotsSampled(const std::string& blob) {
  sim::StateReader reader(blob);
  reader.BeginSection("pu");
  (void)reader.ReadDouble();  // p_t
  const std::int64_t slots = reader.ReadI64();
  EXPECT_TRUE(reader.ok());
  return slots;
}

void ExpectPinned(const Cell& cell, const Pins& pins) {
  const Outcome traced = Run(cell, 0, nullptr);
  const Outcome checkpointed = Run(cell, cell.checkpoint_every, nullptr);
  std::uint64_t blobs_hash = 0xCBF29CE484222325ULL;
  for (const std::string& blob : checkpointed.blobs) blobs_hash = Fnv(blobs_hash, blob);

  const auto& mac = traced.result.mac;
  std::printf("[ pins     ] %s: {0x%016llxULL, 0x%016llxULL, 0x%016llxULL, %a, %lld, "
              "%lld, %zu, 0x%016llxULL}\n",
              cell.name, static_cast<unsigned long long>(traced.audit.trace_digest),
              static_cast<unsigned long long>(traced.metrics_digest),
              static_cast<unsigned long long>(traced.spans_digest),
              traced.result.delay_ms, static_cast<long long>(mac.slot_checks_total),
              static_cast<long long>(mac.slot_checks_free), checkpointed.blobs.size(),
              static_cast<unsigned long long>(blobs_hash));
  EXPECT_EQ(traced.audit.trace_digest, pins.trace_digest);
  EXPECT_EQ(traced.metrics_digest, pins.metrics_digest);
  EXPECT_EQ(traced.spans_digest, pins.spans_digest);
  EXPECT_EQ(traced.result.delay_ms, pins.delay_ms);
  EXPECT_EQ(mac.slot_checks_total, pins.slot_checks_total);
  EXPECT_EQ(mac.slot_checks_free, pins.slot_checks_free);
  EXPECT_EQ(checkpointed.blobs.size(), pins.blobs);
  EXPECT_EQ(blobs_hash, pins.blobs_hash);

  // Checkpointing is pure observation.
  EXPECT_EQ(checkpointed.audit.trace_digest, traced.audit.trace_digest);
  EXPECT_EQ(checkpointed.metrics_digest, traced.metrics_digest);

  // Resume from the middle checkpoint, which sits inside a 64-slot run.
  ASSERT_GE(checkpointed.blobs.size(), 2U);
  const std::string& blob = checkpointed.blobs[checkpointed.blobs.size() / 2];
  EXPECT_NE(SlotsSampled(blob) % 64, 0) << "the resume point is not mid-window";
  const Outcome resumed = Run(cell, 0, &blob);
  EXPECT_EQ(resumed.audit.trace_digest, traced.audit.trace_digest);
  EXPECT_EQ(resumed.metrics_digest, traced.metrics_digest);
  EXPECT_EQ(resumed.result.delay_ms, traced.result.delay_ms);
  EXPECT_EQ(resumed.result.mac.slot_checks_total, mac.slot_checks_total);
  EXPECT_EQ(resumed.result.mac.slot_checks_free, mac.slot_checks_free);
}

// N = 100 PUs (two 64-bit words of PU ids) among n = 500 SUs, and N = 1,100
// (eighteen words) among n = 200 in a smaller area, at a duty cycle low
// enough that collections finish.
constexpr double kSide = 125.0;
constexpr double kLargeSide = 80.0;
constexpr sim::TimeNs kHorizon = 2 * sim::kSecond;

TEST(PuSensingPinTest, SmallPopulationIidWithSensingErrorsAndOverride) {
  ExpectPinned({"small-iid", 500, 100, kSide, 0.1, kIid, 4.0, 0.05, 0.02,
                kIidOverride, kHorizon, 4000},
               {0xd810c85c2ea96b6fULL, 0x1e9546f1d9c72294ULL,
                0x784b55359cfce9fdULL, 0x1.a270d31fcd24ep+10,
                53586, 14009, 4, 0x6ddbab6d439b5642ULL});
}

TEST(PuSensingPinTest, SmallPopulationMarkovBurst4) {
  ExpectPinned({"small-markov4", 500, 100, kSide, 0.1, kMarkov, 4.0, 0.0, 0.0,
                kMarkovOverride, kHorizon, 4000},
               {0x00437586370d1369ULL, 0x3e8899d8b1079870ULL,
                0xbd25ba3dd865b8ccULL, 0x1.abadb86b15f89p+10,
                53268, 13490, 4, 0x7a1f9db2562300a1ULL});
}

TEST(PuSensingPinTest, SmallPopulationMarkovBurst1) {
  ExpectPinned({"small-markov1", 500, 100, kSide, 0.1, kMarkov, 1.0, 0.05, 0.02,
                nullptr, kHorizon, 4000},
               {0xfb06d99f9f3ab9c8ULL, 0x432394aefc37fe43ULL,
                0x8858722a821dce73ULL, 0x1.a0f0abe6a337bp+10,
                49929, 13591, 4, 0x6ce050a3c46b816fULL});
}

TEST(PuSensingPinTest, SmallPopulationNeverActive) {
  ExpectPinned({"small-pt0", 500, 100, kSide, 0.0, kIid, 4.0, 0.05, 0.0, nullptr,
                kHorizon, 4000},
               {0xb85242602ae4d800ULL, 0x9ffa63d5bca2df17ULL,
                0x3b8dde8a203014aeULL, 0x1.47c2406c00da2p+9,
                19388, 18428, 4, 0xfb34f89d25b96ccfULL});
}

TEST(PuSensingPinTest, SmallPopulationAlwaysActive) {
  ExpectPinned({"small-pt1", 500, 100, kSide, 1.0, kIid, 4.0, 0.0, 0.05, nullptr,
                200 * sim::kMillisecond, 1000},
               {0xf94273b17d249488ULL, 0xf2c55f0958949cf5ULL,
                0x091b89626fd0e144ULL, 0x1.9p+7,
                88269, 4419, 8, 0x477f67420f91c658ULL});
}

TEST(PuSensingPinTest, LargePopulationIidWithSensingErrorsAndOverride) {
  ExpectPinned({"large-iid", 200, 1100, kLargeSide, 0.005, kIid, 4.0, 0.05, 0.02,
                kSparseOverride, kHorizon, 2000},
               {0x044ca2235d43d20aULL, 0x5b59c9e482645ddcULL,
                0xc0f1180bda357099ULL, 0x1.c9d2a0c282c6fp+9,
                16448, 3682, 2, 0x33d2d4d9614f6cbfULL});
}

TEST(PuSensingPinTest, LargePopulationMarkovBurst4) {
  ExpectPinned({"large-markov4", 200, 1100, kLargeSide, 0.005, kMarkov, 4.0, 0.0, 0.0,
                kSparseOverride, kHorizon, 2000},
               {0x5e3a11b5dab3d382ULL, 0xc90243526d2a6280ULL,
                0x2bc57d393fca9bccULL, 0x1.1c60350d2806bp+10,
                19986, 3381, 2, 0x4603c78c3422e06bULL});
}

TEST(PuSensingPinTest, LargePopulationMarkovBurst1) {
  ExpectPinned({"large-markov1", 200, 1100, kLargeSide, 0.005, kMarkov, 1.0, 0.05, 0.02,
                nullptr, kHorizon, 2000},
               {0xd004b56048e276c8ULL, 0xe531ea7cb9c55603ULL,
                0x64215ab2887c2fedULL, 0x1.7df8e4a7b4e55p+9,
                14436, 3508, 2, 0x82a547eafb30c993ULL});
}

// p_t = 0.45 without sensing errors, Fig. 6(c)'s slot-bound point at the
// scaled defaults: nearly every boundary leaves every busy flag as it was.
// The collection cannot finish, so the run goes to its 14 s horizon, 218
// windows of 64 slots.
TEST(PuSensingPinTest, LongIidHighDutyCycle) {
  ExpectPinned({"long-iid-pt45", 500, 100, kSide, 0.45, kIid, 4.0, 0.0, 0.0,
                nullptr, 14 * sim::kSecond, 5000},
               {0x2e01e56886a94ba9ULL, 0x1004ca43498f69d7ULL,
                0x6985fcbb4daa99a3ULL, 0x1.b58p+13,
                2492047, 3260, 4, 0xfe021f6c8736a4beULL});
}

// Sensing errors switch on at 70 ms and off at 90 ms, both inside the
// window of slots 64..127.
TEST(PuSensingPinTest, SensingBurstInsideOneWindow) {
  ExpectPinned({"burst-in-window", 500, 100, kSide, 0.1, kIid, 4.0, 0.0, 0.0,
                "at 70 sensing_burst 0.2 0.1 20\n", kHorizon, 4000},
               {0x5896c0896b049c0eULL, 0x594325dd5c255a1dULL,
                0xe7c13ff9fb5abecfULL, 0x1.a9fe9dd3bafd9p+10,
                50186, 14152, 4, 0xa389a8a026dc6eb3ULL});
}

TEST(PuSensingPinTest, WithoutFairnessWait) {
  ExpectPinned({"no-fairness", 500, 100, kSide, 0.1, kIid, 4.0, 0.0, 0.0, nullptr,
                kHorizon, 4000, /*fairness_wait=*/false},
               {0x36d943a34f61c852ULL, 0xf7a3458c48397c73ULL,
                0x4b799d7c8bca1badULL, 0x1.9d2p+10,
                49796, 14073, 4, 0x1203549dabaa3f87ULL});
}

// Three snapshots, 200 ms apart.
TEST(PuSensingPinTest, ContinuousCollection) {
  ExpectPinned({"continuous", 200, 100, kLargeSide, 0.1, kIid, 4.0, 0.0, 0.0, nullptr,
                kHorizon, 4000, true, 3, 200 * sim::kMillisecond},
               {0xdac153757841cc2eULL, 0xfd34a9490813f6adULL,
                0x631ac1ec9bed7f60ULL, 0x1.f4p+10,
                94566, 6396, 2, 0xbdf470897f6fcd6cULL});
}

// Coolest routing at p_t = 0.45 (RunCoolest takes no options, so no sinks).
TEST(PuSensingPinTest, CoolestHighDutyCycle) {
  const Cell cell{"coolest-pt45", 500, 100, kSide, 0.45, kIid, 4.0, 0.0, 0.0,
                  nullptr, 6 * sim::kSecond, 0};
  const CollectionResult result = RunCoolest(Scenario(Config(cell), 0));
  const auto& mac = result.mac;
  std::printf("[ pins     ] %s: {%a, %lld, %lld, %lld}\n", cell.name, result.delay_ms,
              static_cast<long long>(mac.attempts),
              static_cast<long long>(mac.slot_checks_total),
              static_cast<long long>(mac.slot_checks_free));
  EXPECT_EQ(result.delay_ms, 0x1.77p+12);
  EXPECT_EQ(mac.attempts, 1077);
  EXPECT_EQ(mac.slot_checks_total, 1906170);
  EXPECT_EQ(mac.slot_checks_free, 1751);
}

}  // namespace
}  // namespace crn::core
