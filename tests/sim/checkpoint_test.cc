// Format hardening for the CRNCKPT1 envelope (DESIGN.md §14): adversarial
// input — truncated, bit-flipped, wrong magic, future version, trailing
// garbage — must fail with an actionable latched error, never crash or
// read out of bounds. The exhaustive flip/truncation sweeps double as the
// asan/ubsan corpus: under the sanitizer presets every byte of every
// mutated blob is parsed and fully read.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "common/check.h"
#include "common/rng.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"

namespace crn::sim {
namespace {

// One blob with two sections exercising every typed write.
std::string MakeBlob() {
  StateWriter writer;
  writer.BeginSection("test.scalars");
  writer.WriteBool(true);
  writer.WriteU8(0xAB);
  writer.WriteU16(0xBEEF);
  writer.WriteU32(0xDEADBEEFU);
  writer.WriteU64(0x0123456789ABCDEFULL);
  writer.WriteI32(-7);
  writer.WriteI64(-1234567890123LL);
  writer.WriteDouble(-0.0);
  writer.WriteDouble(std::numeric_limits<double>::denorm_min());
  writer.WriteDouble(std::numeric_limits<double>::infinity());
  writer.EndSection();
  writer.BeginSection("test.strings");
  writer.WriteString("checkpoint");
  writer.WriteString("");
  writer.EndSection();
  return writer.Finish();
}

// Drains every field of a MakeBlob()-shaped blob. Used on mutated input,
// so it must terminate cleanly whatever the reader latched.
void ReadEverything(StateReader& reader) {
  if (reader.BeginSection("test.scalars")) {
    (void)reader.ReadBool();
    (void)reader.ReadU8();
    (void)reader.ReadU16();
    (void)reader.ReadU32();
    (void)reader.ReadU64();
    (void)reader.ReadI32();
    (void)reader.ReadI64();
    (void)reader.ReadDouble();
    (void)reader.ReadDouble();
    (void)reader.ReadDouble();
    reader.EndSection();
  }
  if (reader.BeginSection("test.strings")) {
    (void)reader.ReadString();
    (void)reader.ReadString();
    reader.EndSection();
  }
}

TEST(CheckpointFormatTest, RoundTripIsBitExact) {
  const std::string blob = MakeBlob();
  StateReader reader(blob);
  ASSERT_TRUE(reader.ok()) << reader.error();

  ASSERT_TRUE(reader.BeginSection("test.scalars"));
  EXPECT_TRUE(reader.ReadBool());
  EXPECT_EQ(reader.ReadU8(), 0xAB);
  EXPECT_EQ(reader.ReadU16(), 0xBEEF);
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEFU);
  EXPECT_EQ(reader.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.ReadI32(), -7);
  EXPECT_EQ(reader.ReadI64(), -1234567890123LL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.ReadDouble()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(reader.ReadDouble(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(reader.ReadDouble(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(reader.SectionBytesLeft(), 0U);
  reader.EndSection();

  // Sections open in any order — the table is random access by name.
  EXPECT_TRUE(reader.HasSection("test.strings"));
  ASSERT_TRUE(reader.BeginSection("test.strings"));
  EXPECT_EQ(reader.ReadString(), "checkpoint");
  EXPECT_EQ(reader.ReadString(), "");
  reader.EndSection();
  EXPECT_TRUE(reader.ok()) << reader.error();
}

TEST(CheckpointFormatTest, Crc32MatchesTheIeeeCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926U);
  EXPECT_EQ(Crc32(""), 0x00000000U);
  EXPECT_EQ(Crc32Bytewise("123456789"), 0xCBF43926U);
}

TEST(CheckpointFormatTest, SlicedCrc32MatchesTheBytewiseLoop) {
  // Random bytes at every length 0..64 from every start 0..7 of one buffer,
  // so each length meets each alignment and each tail length; then one
  // long buffer.
  Rng rng(2024);
  std::string buffer(64 + 8, '\0');
  for (char& byte : buffer) byte = static_cast<char>(rng.UniformInt(std::uint64_t{256}));
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view data = std::string_view(buffer).substr(start, length);
      ASSERT_EQ(Crc32(data), Crc32Bytewise(data)) << "start " << start << ", length " << length;
    }
  }
  std::string large(100003, '\0');
  for (char& byte : large) byte = static_cast<char>(rng.UniformInt(std::uint64_t{256}));
  EXPECT_EQ(Crc32(std::string_view(large).substr(3)),
            Crc32Bytewise(std::string_view(large).substr(3)));
  EXPECT_EQ(Crc32(std::string(1000, '\xFF')), Crc32Bytewise(std::string(1000, '\xFF')));
}

TEST(CheckpointFormatTest, WrongMagicIsRejectedWithAnActionableError) {
  std::string blob = MakeBlob();
  blob[0] = 'X';
  StateReader reader(blob);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("bad magic"), std::string::npos)
      << reader.error();
}

TEST(CheckpointFormatTest, FutureVersionIsRejectedWithAnActionableError) {
  std::string blob = MakeBlob();
  blob[8] = 2;  // version field follows the 8-byte magic, little-endian
  StateReader reader(blob);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("newer than this binary"), std::string::npos)
      << reader.error();
}

TEST(CheckpointFormatTest, EveryTruncationIsRejected) {
  const std::string blob = MakeBlob();
  for (std::size_t length = 0; length < blob.size(); ++length) {
    StateReader reader(std::string_view(blob).substr(0, length));
    EXPECT_FALSE(reader.ok()) << "prefix of " << length << " bytes parsed";
    EXPECT_FALSE(reader.error().empty());
  }
}

TEST(CheckpointFormatTest, TrailingGarbageIsRejected) {
  const std::string blob = MakeBlob() + "x";
  StateReader reader(blob);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("trailing bytes"), std::string::npos)
      << reader.error();
}

TEST(CheckpointFormatTest, PayloadBitFlipsAreCaughtByTheSectionCrc) {
  const std::string pristine = MakeBlob();
  // First section payload starts after: magic(8) + version(4) + count(4) +
  // name_length(4) + name + payload_length(8) + crc(4).
  const std::string name = "test.scalars";
  const std::size_t payload_start = 8 + 4 + 4 + 4 + name.size() + 8 + 4;
  const std::size_t payload_size = 1 + 1 + 2 + 4 + 8 + 4 + 8 + 8 * 3;
  for (std::size_t i = payload_start; i < payload_start + payload_size; ++i) {
    for (const unsigned mask : {0x01U, 0x80U}) {
      std::string blob = pristine;
      blob[i] = static_cast<char>(static_cast<unsigned char>(blob[i]) ^ mask);
      StateReader reader(blob);
      EXPECT_FALSE(reader.ok()) << "flip at byte " << i << " parsed";
      EXPECT_NE(reader.error().find("CRC mismatch"), std::string::npos)
          << reader.error();
    }
  }
}

TEST(CheckpointFormatTest, EveryByteFlipFailsCleanly) {
  // The sanitizer corpus proper: whatever a single flipped byte does to the
  // envelope — bogus lengths, huge section counts, corrupt names — the
  // reader must latch an error or parse, and a full read must terminate
  // without touching memory out of bounds. (A flip in the version field can
  // legitimately downgrade to an accepted older version, so ok() readers
  // are allowed; they still must read cleanly.)
  const std::string pristine = MakeBlob();
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    std::string blob = pristine;
    blob[i] = static_cast<char>(static_cast<unsigned char>(blob[i]) ^ 0xFF);
    StateReader reader(blob);
    ReadEverything(reader);
    if (!reader.ok()) {
      EXPECT_FALSE(reader.error().empty());
    }
  }
}

TEST(CheckpointFormatTest, RandomGarbageNeverCrashesTheReader) {
  crn::Rng rng(0xC4EC4EC4E5EEDULL);
  for (int round = 0; round < 200; ++round) {
    const std::size_t size = static_cast<std::size_t>(rng.UniformInt(257));
    std::string blob(size, '\0');
    for (char& byte : blob) {
      byte = static_cast<char>(rng.UniformInt(std::uint64_t{256}));
    }
    // Seed plausible prefixes half the time so parsing gets past the magic.
    if (round % 2 == 0 && blob.size() >= sizeof kCheckpointMagic) {
      blob.replace(0, sizeof kCheckpointMagic, kCheckpointMagic,
                   sizeof kCheckpointMagic);
    }
    StateReader reader(blob);
    ReadEverything(reader);
  }
}

TEST(CheckpointFormatTest, UnreadBytesAreASaveLoadLayoutMismatch) {
  StateWriter writer;
  writer.BeginSection("test.pair");
  writer.WriteU64(1);
  writer.WriteU64(2);
  writer.EndSection();
  const std::string blob = writer.Finish();

  StateReader reader(blob);
  ASSERT_TRUE(reader.BeginSection("test.pair"));
  (void)reader.ReadU64();
  reader.EndSection();
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("unread bytes"), std::string::npos)
      << reader.error();
}

TEST(CheckpointFormatTest, ReadingPastASectionEndLatchesAnError) {
  StateWriter writer;
  writer.BeginSection("test.short");
  writer.WriteU32(7);
  writer.EndSection();
  const std::string blob = writer.Finish();

  StateReader reader(blob);
  ASSERT_TRUE(reader.BeginSection("test.short"));
  EXPECT_EQ(reader.ReadU32(), 7U);
  EXPECT_EQ(reader.ReadU64(), 0U);  // past the end: zero, error latched
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("shorter than expected"), std::string::npos)
      << reader.error();
  EXPECT_EQ(reader.ReadU32(), 0U);  // every later read stays zero
}

TEST(CheckpointFormatTest, MissingSectionNamesTheIncompatibility) {
  const std::string blob = MakeBlob();
  StateReader reader(blob);
  EXPECT_FALSE(reader.HasSection("test.absent"));
  EXPECT_FALSE(reader.BeginSection("test.absent"));
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("test.absent"), std::string::npos)
      << reader.error();
}

TEST(CheckpointFormatTest, OversizedStringLengthIsRejectedBeforeAllocating) {
  StateWriter writer;
  writer.BeginSection("test.string");
  writer.WriteU32(0x7FFFFFFFU);  // a string length field with no bytes behind
  writer.EndSection();
  const std::string blob = writer.Finish();

  StateReader reader(blob);
  ASSERT_TRUE(reader.BeginSection("test.string"));
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("oversized string"), std::string::npos)
      << reader.error();
}

TEST(CheckpointFormatTest, ReferenceSchedulerByteIsRejectedOnRestore) {
  // The sim.core section opens with a queue-backend byte that is always 0.
  // A blob whose byte is 1 (written when a binary-heap backend still
  // existed) is well formed — its CRC is valid — but cannot be restored.
  Simulator original;
  original.ScheduleOnce(10, EventPriority::kDefault, [] {});
  StateWriter writer;
  original.SaveState(writer);
  std::string blob = writer.Finish();

  // Section layout: name_length(4) + name + payload_length(8) + crc(4) +
  // payload. sim.core is the last section SaveState writes, and the backend
  // byte is its payload's first byte.
  const std::string name = "sim.core";
  const std::size_t name_at = blob.find(name);
  ASSERT_NE(name_at, std::string::npos);
  const std::size_t crc_at = name_at + name.size() + 8;
  const std::size_t payload_at = crc_at + 4;
  ASSERT_EQ(blob[payload_at], 0);
  blob[payload_at] = 1;
  const std::uint32_t crc = Crc32(std::string_view(blob).substr(payload_at));
  for (int b = 0; b < 4; ++b) {
    blob[crc_at + b] = static_cast<char>((crc >> (8U * b)) & 0xFFU);
  }

  StateReader reader(blob);
  ASSERT_TRUE(reader.ok()) << reader.error();
  Simulator restored;
  restored.LoadRegistry(reader);
  try {
    restored.BeginRestore(reader);
    FAIL() << "a reference-scheduler checkpoint was accepted";
  } catch (const ContractViolation& error) {
    EXPECT_NE(std::string(error.what())
                  .find("checkpoint was written by the removed reference-heap "
                        "scheduler; re-run it without --scheduler"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace crn::sim
