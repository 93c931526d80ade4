// The lookahead activity stream against its oracle, the serial
// PrimaryNetwork::ResampleSlot(Rng&): after every slot both networks must
// hold the same activity mask, and the stream's State() must equal the
// serial generator, across block boundaries, activity extremes, the Markov
// chain, mid-block overrides and every kernel width this host can run.
#include "pu/activity_stream.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <vector>

#include "common/rng.h"
#include "pu/primary_network.h"

namespace crn::pu {
namespace {

using geom::Aabb;

using BeforeSlot = std::function<void(std::int64_t slot, PrimaryNetwork& serial,
                                      PrimaryNetwork& streamed)>;

PrimaryConfig Config(std::int32_t count, double activity) {
  PrimaryConfig config;
  config.count = count;
  config.activity = activity;
  return config;
}

PrimaryConfig MarkovConfig(std::int32_t count, double activity, double burst) {
  PrimaryConfig config = Config(count, activity);
  config.process = ActivityProcess::kMarkov;
  config.mean_burst_slots = burst;
  return config;
}

// Enough slots at about `draws_per_slot` draws to cross three block
// boundaries, with a block to spare for estimated draw counts.
std::int64_t SlotsForThreeBlocks(double draws_per_slot) {
  return static_cast<std::int64_t>(
             std::ceil(4.0 * ActivityStream::kBlockDraws / draws_per_slot)) +
         1;
}

::testing::AssertionResult SameState(const Rng& serial, const Rng& streamed) {
  for (int i = 0; i < 4; ++i) {
    if (serial.state_word(i) != streamed.state_word(i)) {
      return ::testing::AssertionFailure()
             << "state word " << i << ": serial " << serial.state_word(i)
             << ", stream " << streamed.state_word(i);
    }
  }
  return ::testing::AssertionSuccess();
}

// Runs `slots` slots through the serial oracle and a stream of kernel width
// `width`, calling `before_slot` (if any) ahead of each, and expects equal
// masks, counts and generator states after every slot.
void ExpectMatchesSerial(const PrimaryConfig& config, std::int64_t slots,
                         int width = ActivityStream::BestWidth(),
                         const BeforeSlot& before_slot = nullptr) {
  const Aabb area = Aabb::Square(100.0);
  PrimaryNetwork serial(config, area, Rng(17));
  PrimaryNetwork streamed(config, area, Rng(17));
  Rng rng(0xAC7u);
  ActivityStream stream(rng, width);
  for (std::int64_t slot = 0; slot < slots; ++slot) {
    if (before_slot) before_slot(slot, serial, streamed);
    serial.ResampleSlot(rng);
    streamed.ResampleSlot(stream);
    ASSERT_EQ(serial.activity_mask(), streamed.activity_mask()) << "slot " << slot;
    ASSERT_EQ(serial.active_count(), streamed.active_count()) << "slot " << slot;
    ASSERT_TRUE(SameState(rng, stream.State())) << "slot " << slot;
  }
  EXPECT_EQ(serial.activations_total(), streamed.activations_total());
  EXPECT_EQ(serial.active_transmitters(), streamed.active_transmitters());
}

TEST(ActivityStreamTest, MatchesSerialAcrossPuCounts) {
  for (const std::int32_t count : {1, 63, 64, 65, 100, 2000}) {
    SCOPED_TRACE(::testing::Message() << "N=" << count);
    ExpectMatchesSerial(Config(count, 0.3), SlotsForThreeBlocks(count));
  }
}

TEST(ActivityStreamTest, MatchesSerialAcrossActivityLevels) {
  const double kJustBelowOne = 1.0 - std::ldexp(1.0, -53);
  for (const double activity : {0.0, 1e-9, 0.3, 0.45, kJustBelowOne, 1.0}) {
    SCOPED_TRACE(::testing::Message() << "p_t=" << activity);
    ExpectMatchesSerial(Config(100, activity), SlotsForThreeBlocks(100));
  }
}

TEST(ActivityStreamTest, MatchesSerialForMarkovChains) {
  // Burst 1: every active PU turns idle without a draw, so only idle PUs
  // (about 70% at p_t = 0.3) consume the stream. Burst 4 draws on both
  // planes, one threshold per PU state.
  for (const double burst : {1.0, 4.0}) {
    SCOPED_TRACE(::testing::Message() << "burst=" << burst);
    ExpectMatchesSerial(MarkovConfig(100, 0.3, burst), SlotsForThreeBlocks(70));
  }
  ExpectMatchesSerial(MarkovConfig(100, 1.0, 4.0), 50);
}

TEST(ActivityStreamTest, MatchesSerialAcrossMidBlockOverrides) {
  // N = 100 never divides a block, so every override below lands mid-block:
  // off (no draws), back on (the block's thresholds are unchanged), then a
  // different p_t (the rest of the block is recomputed) and back again.
  const std::int64_t first = SlotsForThreeBlocks(100) / 2;
  const BeforeSlot overrides = [first](std::int64_t slot, PrimaryNetwork& serial,
                                       PrimaryNetwork& streamed) {
    double activity = -1.0;
    if (slot == first) activity = 0.0;
    if (slot == first + 7) activity = 0.3;
    if (slot == first + 20) activity = 0.45;
    if (slot == first + 31) activity = 0.3;
    if (activity < 0.0) return;
    serial.OverrideActivity(activity);
    streamed.OverrideActivity(activity);
  };
  ExpectMatchesSerial(Config(100, 0.3), SlotsForThreeBlocks(100),
                      ActivityStream::BestWidth(), overrides);
  ExpectMatchesSerial(MarkovConfig(100, 0.3, 4.0), SlotsForThreeBlocks(100),
                      ActivityStream::BestWidth(), overrides);
}

TEST(ActivityStreamTest, EveryKernelWidthMatchesTheBaseline) {
  const std::vector<int> widths = ActivityStream::SupportedWidths();
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.back(), 2);
  std::cout << "[ widths   ] kernel widths run on this host:";
  for (const int width : widths) std::cout << ' ' << width;
  std::cout << " (best " << ActivityStream::BestWidth() << ")\n";

  for (const int width : widths) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    // Bit for bit against the baseline width, on two different planes.
    ActivityStream stream(Rng(99), width);
    ActivityStream baseline(Rng(99), 2);
    const std::uint64_t low = Rng::BernoulliThreshold(0.2);
    const std::uint64_t high = Rng::BernoulliThreshold(0.7);
    stream.SetThresholds(low, high);
    baseline.SetThresholds(low, high);
    for (std::int32_t draw = 0; draw < 5 * ActivityStream::kBlockDraws; ++draw) {
      const int plane = (draw / 3) & 1;
      ASSERT_EQ(stream.Next(plane), baseline.Next(plane)) << "draw " << draw;
    }
    EXPECT_TRUE(SameState(baseline.State(), stream.State()));

    // And against the serial oracle end to end.
    ExpectMatchesSerial(Config(100, 0.3), SlotsForThreeBlocks(100), width);
    ExpectMatchesSerial(MarkovConfig(100, 0.3, 4.0), SlotsForThreeBlocks(100), width);
  }
}

TEST(ActivityStreamTest, TakeMatchesNextBitForBit) {
  const std::uint64_t threshold = Rng::BernoulliThreshold(0.3);
  ActivityStream bulk(Rng(5));
  ActivityStream single(Rng(5));
  bulk.SetThresholds(threshold, threshold);
  single.SetThresholds(threshold, threshold);
  std::vector<std::uint64_t> words(4);
  for (int round = 0; round < 2000; ++round) {
    const std::int32_t count = 1 + (round * 37) % 200;  // 1..200 bits
    bulk.Take(count, words.data());
    for (std::int32_t i = 0; i < count; ++i) {
      ASSERT_EQ(((words[i >> 6] >> (i & 63)) & 1) != 0, single.Next(0))
          << "round " << round << " bit " << i;
    }
    if ((count & 63) != 0) {
      EXPECT_EQ(words[count >> 6] >> (count & 63), 0U) << "round " << round;
    }
  }
}

TEST(ActivityStreamTest, RestoreMidBlockContinuesTheSequence) {
  const std::uint64_t threshold = Rng::BernoulliThreshold(0.3);
  ActivityStream stream(Rng(8));
  stream.SetThresholds(threshold, threshold);
  std::vector<std::uint64_t> scratch(2);
  // Into the second block, off lane alignment.
  for (int i = 0; i < 300; ++i) stream.Take(100, scratch.data());

  ActivityStream resumed(Rng(1));
  resumed.Restore(stream.State());
  resumed.SetThresholds(threshold, threshold);
  Rng serial = stream.State();
  std::vector<std::uint64_t> expected(2);
  std::vector<std::uint64_t> got(2);
  for (int i = 0; i < 400; ++i) {
    stream.Take(100, expected.data());
    resumed.Take(100, got.data());
    ASSERT_EQ(expected, got) << "slot " << i;
    for (int draw = 0; draw < 100; ++draw) serial();
    ASSERT_TRUE(SameState(serial, resumed.State())) << "slot " << i;
  }
}

TEST(ActivityStreamTest, RejectsWidthsTheHostCannotRun) {
  EXPECT_THROW(ActivityStream(Rng(1), 3), ContractViolation);
}

}  // namespace
}  // namespace crn::pu
