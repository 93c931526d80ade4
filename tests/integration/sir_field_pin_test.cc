// Pins what the interference field computes and accounts, end to end, over
// a grid of runs: path-loss exponents α = 4 (the division form) and α = 3.5
// (the pow form), both PU-population regimes (N = 100, two 64-bit words of
// PU ids, and N = 1,100, eighteen words; neither a multiple of 64), and PU
// duty cycles p_t = 0 and 0.3. Missed detections are on,
// so transmissions ride through slot boundaries and PU sums are redone with
// SUs on the air. Each run is checkpointed and resumed from the middle.
//
// Pinned per run: the eight FieldWork counters (exported as perf.*), the
// auditor's trace digest (it folds every reception's min SIR), the metrics
// digest, and the bytes of every checkpoint's "field" section. Every value
// is exact: a change to how a gain is computed, summed, or accounted moves
// at least one of them.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/collection.h"
#include "core/invariant_auditor.h"
#include "core/scenario.h"
#include "obs/metrics.h"
#include "sim/time.h"

#include "checkpoint_harness.h"

namespace crn::core {
namespace {

struct Cell {
  const char* name;
  std::int32_t num_sus;
  std::int32_t num_pus;
  double area_side;
  double alpha;
  double activity;
  sim::TimeNs max_sim_time;
  std::int64_t checkpoint_every;  // events between checkpoints
};

// The FieldWork counters in declaration order.
constexpr std::array<const char*, 8> kWorkCounters = {
    "perf.sir_evaluations", "perf.sir_terms_evaluated", "perf.gain_cache_hits",
    "perf.gain_cache_misses", "perf.reeval_skipped", "perf.pu_partials_reused",
    "perf.su_resumes", "perf.bound_skips"};

struct EnginePins {
  std::array<std::int64_t, 8> work;
  std::uint64_t metrics_digest;
  std::size_t blobs;
  std::uint64_t field_hash;  // FNV-1a over every checkpoint's "field" payload
};

struct Pins {
  std::uint64_t trace_digest;
  EnginePins cached;
};

constexpr double kMissedDetection = 0.05;

ScenarioConfig Config(const Cell& cell) {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.25);
  config.seed = 43;
  config.num_sus = cell.num_sus;
  config.num_pus = cell.num_pus;
  config.area_side = cell.area_side;
  config.alpha = cell.alpha;
  config.pu_activity = cell.activity;
  config.max_sim_time = cell.max_sim_time;
  return config;
}

std::uint64_t Fnv(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

struct Outcome {
  AuditReport audit;
  std::uint64_t metrics_digest = 0;
  std::array<std::int64_t, 8> work{};
  CollectionResult result;
  std::vector<std::string> blobs;
};

Outcome Run(const Cell& cell, std::int64_t checkpoint_every,
            const std::string* restore_blob) {
  const Scenario scenario(Config(cell), 0);
  Outcome out;
  obs::MetricsRegistry metrics;
  RunOptions options;
  options.sensing_missed_detection = kMissedDetection;
  options.audit_report = &out.audit;
  options.metrics = &metrics;
  if (checkpoint_every > 0) {
    options.checkpoint_every_events = checkpoint_every;
    options.checkpoint_sink = [&out](const std::string& blob, std::uint64_t) {
      out.blobs.push_back(blob);
    };
  }
  options.restore_blob = restore_blob;
  out.result = RunAddc(scenario, options);
  out.metrics_digest = metrics.Digest();
  const obs::Labels engine{{"engine", "cached"}};
  for (std::size_t i = 0; i < kWorkCounters.size(); ++i) {
    out.work[i] = metrics.GetCounter(kWorkCounters[i], engine).value();
  }
  return out;
}

void PrintPins(const Outcome& run, std::uint64_t field_hash) {
  std::printf("[ pins     ]   cached: {{");
  for (std::size_t i = 0; i < run.work.size(); ++i) {
    std::printf(i == 0 ? "%lld" : ", %lld", static_cast<long long>(run.work[i]));
  }
  std::printf("}, 0x%016llxULL, %zu, 0x%016llxULL}\n",
              static_cast<unsigned long long>(run.metrics_digest), run.blobs.size(),
              static_cast<unsigned long long>(field_hash));
}

// Runs `cell` with checkpoints, resumes from the middle checkpoint, and
// checks both against `pins`. Returns the trace digest.
std::uint64_t ExpectRunPinned(const Cell& cell, const EnginePins& pins) {
  const Outcome run = Run(cell, cell.checkpoint_every, nullptr);
  std::uint64_t field_hash = 0xCBF29CE484222325ULL;
  for (const std::string& blob : run.blobs) {
    const SectionAt field = FindSection(blob, "field");
    field_hash =
        Fnv(field_hash, std::string_view(blob).substr(field.payload, field.size));
  }
  PrintPins(run, field_hash);
  EXPECT_EQ(run.work, pins.work);
  EXPECT_EQ(run.metrics_digest, pins.metrics_digest);
  EXPECT_EQ(run.blobs.size(), pins.blobs);
  EXPECT_EQ(field_hash, pins.field_hash);

  // The checkpoint restores the field's counters, epochs, memos and read
  // records: the resumed run ends exactly where the uninterrupted one did.
  EXPECT_GE(run.blobs.size(), 2U);
  if (run.blobs.size() < 2) return run.audit.trace_digest;
  const Outcome resumed = Run(cell, 0, &run.blobs[run.blobs.size() / 2]);
  EXPECT_EQ(resumed.audit.trace_digest, run.audit.trace_digest);
  EXPECT_EQ(resumed.metrics_digest, run.metrics_digest);
  EXPECT_EQ(resumed.work, run.work);
  EXPECT_EQ(resumed.result.delay_ms, run.result.delay_ms);
  return run.audit.trace_digest;
}

void ExpectPinned(const Cell& cell, const Pins& pins) {
  std::printf("[ pins     ] %s\n", cell.name);
  const std::uint64_t trace = ExpectRunPinned(cell, pins.cached);
  std::printf("[ pins     ] %s: trace 0x%016llxULL\n", cell.name,
              static_cast<unsigned long long>(trace));
  EXPECT_EQ(trace, pins.trace_digest);
}

// N = 100 PUs among n = 500 SUs at the paper's densities, and N = 1,100
// among n = 300 in a denser field, over a shorter horizon.
constexpr double kSide = 125.0;
constexpr double kLargeSide = 100.0;
constexpr sim::TimeNs kHorizon = 2 * sim::kSecond;
constexpr sim::TimeNs kLargeHorizon = 250 * sim::kMillisecond;

TEST(SirFieldPinTest, SmallPopulationAlpha4Idle) {
  ExpectPinned({"small-a4-pt0", 500, 100, kSide, 4.0, 0.0, kHorizon, 4000},
               {0xe2df9cfb35de7387ULL,
                {{18818, 17988, 33510, 17988, 0, 4565, 14077, 1365},
                 0x60472d70f3dfa908ULL, 4, 0xd2609d9a3d664638ULL}});
}

TEST(SirFieldPinTest, SmallPopulationAlpha4Busy) {
  ExpectPinned({"small-a4-pt03", 500, 100, kSide, 4.0, 0.3, kHorizon, 4000},
               {0xedeaedf7793e91dbULL,
                {{23522, 33751, 253950, 33751, 0, 1107, 14683, 409},
                 0x6983b4941320fa28ULL, 7, 0xc9a4e4a91e724d6bULL}});
}

TEST(SirFieldPinTest, SmallPopulationAlpha35Idle) {
  ExpectPinned({"small-a35-pt0", 500, 100, kSide, 3.5, 0.0, kHorizon, 4000},
               {0x12f075849943460eULL,
                {{12896, 12123, 19866, 12123, 0, 4415, 8305, 665},
                 0x21bfb7a9065a19e8ULL, 4, 0xe75b81a1724f476aULL}});
}

TEST(SirFieldPinTest, SmallPopulationAlpha35Busy) {
  ExpectPinned({"small-a35-pt03", 500, 100, kSide, 3.5, 0.3, kHorizon, 4000},
               {0x0b81ba05bcec6593ULL,
                {{23697, 33723, 274884, 33723, 0, 1135, 14093, 248},
                 0xb2c616d0533445e2ULL, 8, 0x92a1fd6fe2b36f12ULL}});
}

TEST(SirFieldPinTest, LargePopulationAlpha4Idle) {
  ExpectPinned({"large-a4-pt0", 300, 1100, kLargeSide, 4.0, 0.0, kLargeHorizon, 2000},
               {0xc7f43194de3d0519ULL,
                {{6799, 6476, 11441, 6476, 0, 1892, 4806, 396},
                 0xcd756026aad4cc94ULL, 3, 0x39b65582c73ecb99ULL}});
}

TEST(SirFieldPinTest, LargePopulationAlpha4Busy) {
  ExpectPinned({"large-a4-pt03", 300, 1100, kLargeSide, 4.0, 0.3, kLargeHorizon, 2000},
               {0x43ab898349c4b4d9ULL,
                {{8103, 113587, 551027, 113587, 0, 487, 5663, 136},
                 0xbadcbb1c76a9267eULL, 3, 0x3a00cbed779dd0dcULL}});
}

TEST(SirFieldPinTest, LargePopulationAlpha35Idle) {
  ExpectPinned({"large-a35-pt0", 300, 1100, kLargeSide, 3.5, 0.0, kLargeHorizon, 2000},
               {0x13cbbe5ad6b68b60ULL,
                {{4519, 4395, 6533, 4395, 0, 1601, 2817, 194},
                 0x213b9d03ddde3b34ULL, 3, 0x626e46e737d0b7b0ULL}});
}

TEST(SirFieldPinTest, LargePopulationAlpha35Busy) {
  ExpectPinned({"large-a35-pt03", 300, 1100, kLargeSide, 3.5, 0.3, kLargeHorizon, 2000},
               {0x482bcb6c997f1714ULL,
                {{4998, 106544, 423684, 106544, 0, 360, 3065, 109},
                 0x9f142c899c8effd7ULL, 3, 0x320ebf34693d5000ULL}});
}

}  // namespace
}  // namespace crn::core
