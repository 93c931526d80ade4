// The checkpoint/restore bit-identity contract at full-stack scale
// (DESIGN.md §14): a collection run checkpointed at event k and resumed
// from the blob must finish with the same trace digest, the same metrics
// digest, and the same audit report as the uninterrupted run — across
// seeds, across checkpoint points, with and without fault injection and
// the flight recorder attached. This is the library-level half of the
// recovery story; tests/integration/crash_recovery_test.cc adds the
// SIGKILL-under-fire half on top of the same machinery
// (checkpoint_harness.h).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>

#include "common/rng.h"
#include "core/invariant_auditor.h"
#include "core/scenario.h"
#include "pu/activity_stream.h"
#include "pu/primary_network.h"
#include "sim/checkpoint.h"

#include "checkpoint_harness.h"

namespace crn::core {
namespace {

TEST(CheckpointResumeTest, TakingCheckpointsDoesNotPerturbTheRun) {
  const Captured pure = RunVariant(41, {}, 0, nullptr);
  const Captured checkpointed = RunVariant(41, {}, 2000, nullptr);
  EXPECT_GE(checkpointed.checkpoints.size(), 2U);
  ExpectBitIdentical(pure, checkpointed);
}

TEST(CheckpointResumeTest, ResumeIsBitIdenticalAcrossSeedsAndPoints) {
  for (const std::uint64_t seed : {41ULL, 42ULL, 43ULL}) {
    const Captured base = RunVariant(seed, {}, 2000, nullptr);
    ASSERT_GE(base.checkpoints.size(), 2U) << "seed " << seed;
    // An early and a mid-run point: pending one-shots and queue content
    // differ materially between the two.
    for (const std::size_t point : {std::size_t{0}, base.checkpoints.size() / 2}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " resumed from event "
                   << base.checkpoints[point].first);
      const Captured resumed =
          RunVariant(seed, {}, 0, &base.checkpoints[point].second);
      ExpectBitIdentical(base, resumed);
    }
  }
}

TEST(CheckpointResumeTest, ResumeUnderFaultChurnIsBitIdentical) {
  const Variant faulted{/*faults=*/true, /*flight=*/false};
  for (const std::uint64_t seed : {41ULL, 42ULL, 43ULL}) {
    const Captured base = RunVariant(seed, faulted, 2000, nullptr);
    ASSERT_GE(base.checkpoints.size(), 2U) << "seed " << seed;
    EXPECT_GT(base.fault_report.injected_total(), 0) << "seed " << seed;
    for (const std::size_t point : {std::size_t{0}, base.checkpoints.size() / 2}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " resumed from event "
                   << base.checkpoints[point].first);
      const Captured resumed =
          RunVariant(seed, faulted, 0, &base.checkpoints[point].second);
      ExpectBitIdentical(base, resumed);
    }
  }
}

TEST(CheckpointResumeTest, ResumeWithFlightRecorderIsBitIdentical) {
  // Faults + recorder together: the per-kind scheduler counters feed the
  // metrics digest, so a recorder restore gap would surface here.
  const Variant instrumented{/*faults=*/true, /*flight=*/true};
  const Captured base = RunVariant(41, instrumented, 2000, nullptr);
  ASSERT_GE(base.checkpoints.size(), 2U);
  for (const std::size_t point : {std::size_t{0}, base.checkpoints.size() / 2}) {
    SCOPED_TRACE(::testing::Message() << "resumed from event "
                                      << base.checkpoints[point].first);
    const Captured resumed =
        RunVariant(41, instrumented, 0, &base.checkpoints[point].second);
    ExpectBitIdentical(base, resumed);
  }
}

TEST(CheckpointResumeTest, ResumedRunCanItselfCheckpoint) {
  // A resumed run that keeps checkpointing — the crash soak's steady state:
  // kill, resume, kill again. Its later checkpoints must be usable too.
  const Captured base = RunVariant(42, {}, 2000, nullptr);
  ASSERT_GE(base.checkpoints.size(), 2U);
  const Captured resumed =
      RunVariant(42, {}, 2000, &base.checkpoints[0].second);
  ExpectBitIdentical(base, resumed);
  ASSERT_FALSE(resumed.checkpoints.empty());
  const Captured resumed_again =
      RunVariant(42, {}, 0, &resumed.checkpoints.back().second);
  ExpectBitIdentical(base, resumed_again);
}

std::uint64_t BlobHash(const std::string& blob) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a
  for (const char c : blob) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// The checkpoints RunVariant(41, {}, 2000) wrote while the MAC drew PU
// activity one serial generator step at a time, before the lookahead
// stream (pu/activity_stream.h) replaced it. The stream must not move a
// byte of CRNCKPT1; since the blobs are identical, every restore test here
// also restores a blob of the serial-path format.
struct PinnedBlob {
  std::uint64_t events;
  std::size_t size;
  std::uint64_t hash;
};
constexpr PinnedBlob kSerialPathBlobs[] = {
    {2000, 180294, 0x2a8a20e754fe87f2ULL},   {4000, 440870, 0x50a0e687918da4ebULL},
    {6000, 805971, 0x7d9dac1397d32e5bULL},   {8000, 1205789, 0x6596a0f94a60693dULL},
    {10000, 1658653, 0xb2761a2adf88b3d2ULL}, {12000, 2112217, 0xbd7b2b8fa8e3226cULL},
    {14000, 2601549, 0xdbb4eba3834c4acaULL}, {16000, 3108715, 0xbc77b24ddb4dcd22ULL},
    {18000, 3615813, 0x58348786c2a880d6ULL}, {20000, 4122927, 0x33009d3c34272a7fULL},
    {22000, 4630019, 0x81d4c2dd6dd0cf71ULL},
};

TEST(CheckpointResumeTest, BlobsAreByteIdenticalToTheSerialActivityPath) {
  const Captured base = RunVariant(41, {}, 2000, nullptr);
  ASSERT_EQ(base.checkpoints.size(), std::size(kSerialPathBlobs));
  for (std::size_t i = 0; i < base.checkpoints.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "checkpoint " << i);
    EXPECT_EQ(base.checkpoints[i].first, kSerialPathBlobs[i].events);
    EXPECT_EQ(base.checkpoints[i].second.size(), kSerialPathBlobs[i].size);
    EXPECT_EQ(BlobHash(base.checkpoints[i].second), kSerialPathBlobs[i].hash);
  }
}

// The slots a checkpoint's PU section has sampled, and the activity
// generator its MAC section holds.
struct ActivityAt {
  std::int64_t slots = 0;
  std::uint32_t pus = 0;
  Rng generator;
};

ActivityAt ReadActivity(const std::string& blob) {
  ActivityAt at;
  sim::StateReader pu(blob);
  pu.OpenSection("pu");
  (void)pu.ReadDouble();  // p_t
  at.slots = pu.ReadI64();
  (void)pu.ReadI64();  // activations
  at.pus = pu.ReadU32();
  sim::StateReader mac(blob);
  mac.OpenSection("mac");
  Rng backoff;
  sim::ReadRng(mac, backoff);
  sim::ReadRng(mac, at.generator);
  EXPECT_TRUE(pu.ok() && mac.ok());
  return at;
}

TEST(CheckpointResumeTest, MidBlockCheckpointRestoresBitIdentically) {
  const Captured base = RunVariant(41, {}, 2000, nullptr);
  // The first checkpoint taken past a block's first lane and off every lane
  // boundary: the stream had drawn ahead of the state the blob records, and
  // State() has to jump to reach it.
  const std::string* blob = nullptr;
  ActivityAt at;
  for (const auto& [events, candidate] : base.checkpoints) {
    at = ReadActivity(candidate);
    const std::int64_t draws = at.slots * at.pus;
    if (draws % pu::ActivityStream::kBlockDraws > pu::ActivityStream::kLaneDraws &&
        draws % pu::ActivityStream::kLaneDraws != 0) {
      blob = &candidate;
      break;
    }
  }
  ASSERT_NE(blob, nullptr);

  // The blob holds the serial generator: replaying ResampleSlot(Rng&) on
  // the run's own stream for the checkpoint's slots lands on it exactly.
  const Scenario scenario = HarnessScenario(41);
  pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
  Rng serial = scenario.MakeRunRng().Stream("mac").Stream("pu-activity");
  for (std::int64_t slot = 0; slot < at.slots; ++slot) primary.ResampleSlot(serial);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(serial.state_word(i), at.generator.state_word(i)) << "word " << i;
  }

  ExpectBitIdentical(base, RunVariant(41, {}, 0, blob));
}

TEST(CheckpointResumeTest, RestoreRejectsMismatchedScenario) {
  const Captured base = RunVariant(41, {}, 2000, nullptr);
  ASSERT_FALSE(base.checkpoints.empty());
  EXPECT_THROW(RunVariant(42, {}, 0, &base.checkpoints[0].second),
               ContractViolation);
}

TEST(CheckpointResumeTest, RestoreRejectsMismatchedAttachments) {
  const Captured base = RunVariant(41, {}, 2000, nullptr);
  ASSERT_FALSE(base.checkpoints.empty());
  const Variant faulted{/*faults=*/true, /*flight=*/false};
  EXPECT_THROW(RunVariant(41, faulted, 0, &base.checkpoints[0].second),
               ContractViolation);
}

}  // namespace
}  // namespace crn::core
