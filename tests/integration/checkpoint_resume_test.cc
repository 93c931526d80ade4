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
#include <string_view>

#include "common/rng.h"
#include "core/invariant_auditor.h"
#include "core/scenario.h"
#include "mac/packet.h"
#include "pu/activity_stream.h"
#include "pu/primary_network.h"
#include "sim/checkpoint.h"
#include "sim/flight_recorder.h"

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

// The checkpoints RunVariant(41, {.faults = true, .flight = true}, 2000)
// wrote before the save/load bodies became one Transfer field list per
// component: they pin the "faults" and "flight" sections, which the
// attachment-free run above never writes.
constexpr PinnedBlob kFaultsFlightBlobs[] = {
    {2000, 414636, 0x853f7bec1983230bULL},   {4000, 711189, 0xc122b008594fe50bULL},
    {6000, 1037833, 0x27804a0ce9bc241cULL},  {8000, 1344999, 0x750d505a69033936ULL},
    {10000, 1728608, 0xe03a593a6c2476d5ULL}, {12000, 2174967, 0x084d0d1ab6aa57a9ULL},
    {14000, 2760325, 0x12c71440bdf9c7abULL},
};

template <std::size_t N>
void ExpectPinnedBlobs(const Variant& variant, const PinnedBlob (&pins)[N]) {
  const Captured base = RunVariant(41, variant, 2000, nullptr);
  ASSERT_EQ(base.checkpoints.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    SCOPED_TRACE(::testing::Message() << "checkpoint " << i);
    EXPECT_EQ(base.checkpoints[i].first, pins[i].events);
    EXPECT_EQ(base.checkpoints[i].second.size(), pins[i].size);
    EXPECT_EQ(BlobHash(base.checkpoints[i].second), pins[i].hash);
  }
}

TEST(CheckpointResumeTest, BlobsAreByteIdenticalToTheSerialActivityPath) {
  ExpectPinnedBlobs({}, kSerialPathBlobs);
}

TEST(CheckpointResumeTest, FaultAndFlightSectionBlobsAreByteIdentical) {
  ExpectPinnedBlobs({.faults = true, .flight = true}, kFaultsFlightBlobs);
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
  pu.BeginSection("pu");
  (void)pu.ReadDouble();  // p_t
  at.slots = pu.ReadI64();
  (void)pu.ReadI64();  // activations
  at.pus = pu.ReadU32();
  sim::StateReader mac(blob);
  mac.BeginSection("mac");
  Rng backoff;
  mac.Io(backoff);
  mac.Io(at.generator);
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

void StoreLe(std::string& blob, std::size_t at, std::uint32_t value) {
  for (std::size_t i = 0; i < 4; ++i) {
    blob[at + i] = static_cast<char>((value >> (8U * i)) & 0xFFU);
  }
}

// Overwrites the u32 at `offset` in `section`'s payload and re-seals the
// section's CRC, so the blob stays well formed and only the value is wrong.
std::string PatchU32(std::string blob, const SectionAt& section, std::size_t offset,
                     std::uint32_t value) {
  StoreLe(blob, section.payload + offset, value);
  StoreLe(blob, section.crc,
          sim::Crc32(std::string_view(blob).substr(section.payload, section.size)));
  return blob;
}

void ExpectRestoreRejected(const std::string& blob, const std::string& message,
                           const Variant& variant = {}) {
  try {
    RunVariant(41, variant, 0, &blob);
    ADD_FAILURE() << "restore accepted a blob that should fail with: " << message;
  } catch (const ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("cannot restore: " + message), std::string::npos) << what;
  }
}

TEST(CheckpointResumeTest, CorruptCountIsRejectedBeforeAllocating) {
  const Captured base = RunVariant(41, {}, 2000, nullptr);
  ASSERT_FALSE(base.checkpoints.empty());
  const std::string& blob = base.checkpoints[0].second;
  // The "field" section opens with eight work counters and three epochs
  // (i64 each), then the count of the previous slot's active PUs.
  const SectionAt field = FindSection(blob, "field");
  const std::size_t previous_count_at = 11 * 8;
  ASSERT_LT(LoadLe(blob, field.payload + previous_count_at, 4), 40U);
  // 2^32 - 1 four-byte ids would be a 16 GiB vector.
  ExpectRestoreRejected(PatchU32(blob, field, previous_count_at, 0xFFFFFFFFU),
                        "corrupt checkpoint: section 'field' declares 4294967295 "
                        "entries of at least 4 bytes");
}

TEST(CheckpointResumeTest, FlightDepthMustMatchTheAttachedRecorder) {
  const Variant flight{/*faults=*/false, /*flight=*/true};
  const Captured base = RunVariant(41, flight, 2000, nullptr);
  ASSERT_FALSE(base.checkpoints.empty());
  const std::string& blob = base.checkpoints[0].second;
  // The "flight" section opens with the saved ring depth (u64).
  const SectionAt section = FindSection(blob, "flight");
  const std::uint64_t depth = LoadLe(blob, section.payload, 8);
  ASSERT_EQ(depth, sim::FlightRecorder().depth());
  const std::string attached = " but the attached recorder has depth " +
                               std::to_string(depth);
  ExpectRestoreRejected(
      PatchU32(blob, section, 0, static_cast<std::uint32_t>(depth + 1)),
      "the checkpoint's flight recorder has depth " + std::to_string(depth + 1) +
          attached,
      flight);
  // A 32 TiB ring: restore must fail on the mismatch, not on the allocation.
  ExpectRestoreRejected(PatchU32(blob, section, 4, 0x100U),
                        "the checkpoint's flight recorder has depth " +
                            std::to_string((std::uint64_t{0x100} << 32) + depth) +
                            attached,
                        flight);
}

// A "mac" payload's node count and the offset of its contending-node list:
// the fixed header (four generators, two detector rates, running flag,
// three i64 counters, MacStats), the node count, then per node 92 fixed
// bytes and its packet queue (u32 count + 20 bytes per packet).
struct MacLayout {
  std::int32_t nodes = 0;
  std::size_t contending_at = 0;
};

MacLayout ReadMacLayout(const std::string& blob, const SectionAt& mac) {
  std::size_t at = 4 * 32 + 2 * 8 + 1 + 3 * 8;
  at += 8 + 8 * mac::kTxOutcomeCount + 8 + 8 + 1 + 8 * 8;
  MacLayout layout;
  layout.nodes = static_cast<std::int32_t>(LoadLe(blob, mac.payload + at, 4));
  at += 4;
  for (std::int32_t v = 0; v < layout.nodes; ++v) {
    at += 92;
    at += 4 + 20 * LoadLe(blob, mac.payload + at, 4);
  }
  layout.contending_at = at;
  return layout;
}

TEST(CheckpointResumeTest, OutOfRangeNodeIdIsRejected) {
  const Captured base = RunVariant(41, {}, 2000, nullptr);
  // The first checkpoint with a node in the contention set: restoring it
  // indexes contending_slot_ by that node's id.
  for (const auto& [events, blob] : base.checkpoints) {
    const SectionAt mac = FindSection(blob, "mac");
    const MacLayout layout = ReadMacLayout(blob, mac);
    if (LoadLe(blob, mac.payload + layout.contending_at, 4) == 0) continue;
    SCOPED_TRACE(::testing::Message() << "checkpoint at event " << events);
    const std::size_t first_id_at = layout.contending_at + 4;
    const auto first_id = static_cast<std::int32_t>(LoadLe(blob, mac.payload + first_id_at, 4));
    ASSERT_GE(first_id, 0);
    ASSERT_LT(first_id, layout.nodes);
    const std::int32_t n = layout.nodes;
    for (const std::int32_t id : {-1, n, n + 63}) {
      ExpectRestoreRejected(PatchU32(blob, mac, first_id_at, static_cast<std::uint32_t>(id)),
                            "checkpoint section 'mac' holds id " + std::to_string(id) +
                                " outside [0, " + std::to_string(n) + ")");
    }
    return;
  }
  FAIL() << "no checkpoint has a contending node";
}

}  // namespace
}  // namespace crn::core
