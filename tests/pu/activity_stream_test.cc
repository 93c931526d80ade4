// The lookahead activity stream and the activity window against their
// oracle, the serial PrimaryNetwork::ResampleSlot(Rng&): after every slot
// both networks must hold the same activity mask, the window's PU-major
// words must carry the same bits, and the consumed generator state must
// equal the serial generator, across block and window boundaries, activity
// extremes, the Markov chain, overrides at every window offset, checkpoints
// at every window offset, the horizon, and every kernel width this host
// can run.
#include "pu/activity_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "pu/primary_network.h"
#include "sim/checkpoint.h"

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

constexpr std::int64_t kWindow = PrimaryNetwork::kWindowSlots;

// Enough slots at about `draws_per_slot` draws to cross three block
// boundaries, with a block to spare for estimated draw counts, and three
// window boundaries.
std::int64_t SlotsForThreeBlocks(double draws_per_slot) {
  return std::max<std::int64_t>(
      static_cast<std::int64_t>(
          std::ceil(4.0 * ActivityStream::kBlockDraws / draws_per_slot)) + 1,
      3 * kWindow + 1);
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

// The current slot as the window's PU-major words carry it, against the
// oracle's activity.
::testing::AssertionResult SameWindowBits(const PrimaryNetwork& oracle,
                                          const PrimaryNetwork& windowed) {
  const std::int32_t bit = windowed.window_slot();
  if (bit < 0 || bit >= kWindow) {
    return ::testing::AssertionFailure() << "window slot " << bit;
  }
  for (PuId id = 0; id < oracle.count(); ++id) {
    const bool active = ((windowed.window_word(id) >> bit) & 1) != 0;
    if (active != oracle.IsActive(id)) {
      return ::testing::AssertionFailure()
             << "PU " << id << " at window slot " << bit << ": word says " << active;
    }
  }
  return ::testing::AssertionSuccess();
}

// Expects `windowed` to hold the slot `serial` (drawn through `rng`) holds.
::testing::AssertionResult SameSlot(const PrimaryNetwork& serial, const Rng& rng,
                                    const PrimaryNetwork& windowed,
                                    const ActivityStream& stream) {
  if (serial.activity_mask() != windowed.activity_mask()) {
    return ::testing::AssertionFailure() << "activity masks differ";
  }
  if (serial.active_count() != windowed.active_count()) {
    return ::testing::AssertionFailure() << "active counts differ";
  }
  if (serial.slots_sampled() != windowed.slots_sampled() ||
      serial.activations_total() != windowed.activations_total()) {
    return ::testing::AssertionFailure() << "slot counters differ";
  }
  const ::testing::AssertionResult words = SameWindowBits(serial, windowed);
  if (!words) return words;
  return SameState(rng, windowed.ConsumedState(stream));
}

// Runs `slots` slots through the serial oracle and a stream of kernel width
// `width`, calling `before_slot` (if any) ahead of each, and expects equal
// masks, counts, window bits and generator states after every slot.
void ExpectMatchesSerial(const PrimaryConfig& config, std::int64_t slots,
                         int width = simd::BestWidth(),
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
    ASSERT_TRUE(SameSlot(serial, rng, streamed, stream)) << "slot " << slot;
    // Without overrides the windows tile the run.
    if (!before_slot) {
      ASSERT_EQ(streamed.window_slot(), slot % kWindow);
    }
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
                      simd::BestWidth(), overrides);
  ExpectMatchesSerial(MarkovConfig(100, 0.3, 4.0), SlotsForThreeBlocks(100),
                      simd::BestWidth(), overrides);
}

TEST(ActivityStreamTest, EveryKernelWidthMatchesTheBaseline) {
  const std::vector<int> widths = simd::SupportedWidths();
  ASSERT_FALSE(widths.empty());
  EXPECT_EQ(widths.back(), 2);
  std::cout << "[ widths   ] kernel widths run on this host:";
  for (const int width : widths) std::cout << ' ' << width;
  std::cout << " (best " << simd::BestWidth() << ")\n";

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
  // Runs that end exactly on a block's last draw (the read of the word after
  // it hits the spare word), that fill a whole block, and that cross one.
  constexpr std::int32_t kBlock = ActivityStream::kBlockDraws;
  std::vector<std::uint64_t> block(kBlock / 64);
  const auto left = static_cast<std::int32_t>(kBlock - bulk.Tell().pos);
  for (const std::int32_t count : {left, 37, kBlock - 37, kBlock, 1, kBlock, 64}) {
    bulk.Take(count, block.data());
    for (std::int32_t i = 0; i < count; ++i) {
      ASSERT_EQ(((block[i >> 6] >> (i & 63)) & 1) != 0, single.Next(0))
          << "run of " << count << ", bit " << i;
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

TEST(ActivityStreamTest, SeekReplaysTheDrawsAfterTheCursor) {
  const std::uint64_t low = Rng::BernoulliThreshold(0.3);
  const std::uint64_t high = Rng::BernoulliThreshold(0.6);
  ActivityStream stream(Rng(11));
  stream.SetThresholds(low, low);
  std::vector<std::uint64_t> first(2);
  std::vector<std::uint64_t> again(2);
  // Cursors mid-block, on a block's first draw and before the first block.
  for (const std::int32_t skip : {0, 1, 37, ActivityStream::kBlockDraws / 100}) {
    SCOPED_TRACE(::testing::Message() << "skip " << skip);
    for (std::int32_t i = 0; i < skip; ++i) stream.Take(100, first.data());
    const ActivityStream::Cursor cursor = stream.Tell();
    const Rng at = stream.State();
    EXPECT_TRUE(SameState(at, ActivityStream::StateAt(cursor)));
    std::vector<std::vector<std::uint64_t>> taken;
    for (int i = 0; i < 300; ++i) {
      stream.Take(100, first.data());
      taken.push_back(first);
    }
    stream.Seek(cursor);
    EXPECT_TRUE(SameState(at, stream.State()));
    for (int i = 0; i < 300; ++i) {
      stream.Take(100, again.data());
      ASSERT_EQ(again, taken[static_cast<std::size_t>(i)]) << "slot " << i;
    }
    // A new threshold after the seek applies to every replayed draw.
    stream.Seek(cursor);
    stream.SetThresholds(high, high);
    Rng serial = at;
    for (int i = 0; i < 300; ++i) {
      stream.Take(100, again.data());
      for (std::int32_t bit = 0; bit < 100; ++bit) {
        const bool expected = (serial() >> 11) < high;
        ASSERT_EQ(((again[bit >> 6] >> (bit & 63)) & 1) != 0, expected)
            << "slot " << i << " bit " << bit;
      }
    }
    stream.SetThresholds(low, low);
  }
}

TEST(ActivityWindowTest, LargePopulationsCrossThreeWindows) {
  // N = 1,100 and 2,000: eighteen and thirty-two transposed words per slot.
  for (const std::int32_t count : {1100, 2000}) {
    SCOPED_TRACE(::testing::Message() << "N=" << count);
    ExpectMatchesSerial(Config(count, 0.3), 3 * kWindow + 5);
    ExpectMatchesSerial(MarkovConfig(count, 0.3, 4.0), 3 * kWindow + 5);
  }
}

TEST(ActivityWindowTest, OverrideAtEveryWindowOffsetRedraws) {
  // The override lands before the slot at offset k of the third window, so
  // the 64 − k slots drawn ahead with the old target are redrawn (k = 0:
  // none are drawn yet); the second override, four slots later, lands
  // inside the window drawn after the first.
  for (std::int64_t k = 0; k < kWindow; ++k) {
    SCOPED_TRACE(::testing::Message() << "offset " << k);
    const std::int64_t at = 2 * kWindow + k;
    const BeforeSlot overrides = [at](std::int64_t slot, PrimaryNetwork& serial,
                                      PrimaryNetwork& streamed) {
      double activity = -1.0;
      if (slot == at) activity = 0.45;
      if (slot == at + 4) activity = 0.2;
      if (activity < 0.0) return;
      serial.OverrideActivity(activity);
      streamed.OverrideActivity(activity);
    };
    ExpectMatchesSerial(Config(100, 0.3), 4 * kWindow, simd::BestWidth(),
                        overrides);
    ExpectMatchesSerial(MarkovConfig(100, 0.3, 1.0), 4 * kWindow,
                        simd::BestWidth(), overrides);
  }
}

TEST(ActivityWindowTest, CheckpointAtEveryWindowOffsetResumes) {
  // At each offset of the second window: save the network, load it into a
  // fresh one, restore a stream from ConsumedState, and run both past the
  // next window boundary against the serial oracle.
  const Aabb area = Aabb::Square(100.0);
  for (const PrimaryConfig& config : {Config(100, 0.3), MarkovConfig(100, 0.3, 4.0)}) {
    SCOPED_TRACE(::testing::Message() << ToString(config.process));
    PrimaryNetwork serial(config, area, Rng(17));
    PrimaryNetwork streamed(config, area, Rng(17));
    Rng rng(0xAC7u);
    ActivityStream stream(rng);
    for (std::int64_t slot = 0; slot < 2 * kWindow; ++slot) {
      serial.ResampleSlot(rng);
      streamed.ResampleSlot(stream);
      ASSERT_TRUE(SameSlot(serial, rng, streamed, stream)) << "slot " << slot;
      if (slot < kWindow) continue;
      SCOPED_TRACE(::testing::Message() << "offset " << streamed.window_slot());

      sim::StateWriter writer;
      streamed.SaveState(writer);
      const std::string blob = writer.Finish();
      sim::StateReader reader(blob);
      PrimaryNetwork resumed(config, area, Rng(17));
      resumed.LoadState(reader);
      ASSERT_TRUE(reader.ok()) << reader.error();
      ActivityStream restored(Rng(1));
      restored.Restore(streamed.ConsumedState(stream));
      ASSERT_TRUE(SameWindowBits(serial, resumed));

      PrimaryNetwork oracle = serial;
      Rng replay = rng;
      for (std::int64_t next = 0; next < kWindow + 2; ++next) {
        oracle.ResampleSlot(replay);
        resumed.ResampleSlot(restored);
        ASSERT_TRUE(SameSlot(oracle, replay, resumed, restored)) << "slot +" << next;
      }
    }
  }
}

TEST(ActivityWindowTest, DrawsNoSlotPastTheHorizon) {
  // Every draw the stream hands out must belong to a slot the run samples:
  // after the last slot the stream stands exactly where the serial
  // generator does.
  const Aabb area = Aabb::Square(100.0);
  for (const PrimaryConfig& config : {Config(100, 0.3), MarkovConfig(100, 0.3, 4.0)}) {
    for (const std::int64_t horizon : {1, 5, 63, 64, 65, 130}) {
      SCOPED_TRACE(::testing::Message()
                   << ToString(config.process) << ", " << horizon << " slots");
      PrimaryNetwork serial(config, area, Rng(17));
      PrimaryNetwork streamed(config, area, Rng(17));
      Rng rng(0xAC7u);
      ActivityStream stream(rng);
      for (std::int64_t slot = 0; slot < horizon; ++slot) {
        serial.ResampleSlot(rng);
        streamed.ResampleSlot(stream, horizon - slot);
        ASSERT_TRUE(SameSlot(serial, rng, streamed, stream)) << "slot " << slot;
      }
      EXPECT_TRUE(SameState(rng, stream.State()));
    }
  }
}

// Positions on both sides of lane boundaries, and the last draw of a block's
// last lane: StateAt jumps whole lanes, then steps the rest.
TEST(ActivityStreamTest, StateAtMatchesSerialSteppingAtEveryWidth) {
  constexpr std::int64_t kL = ActivityStream::kLaneDraws;
  const std::uint64_t threshold = Rng::BernoulliThreshold(0.4);
  const Rng base(31337);
  for (const std::int64_t pos : {std::int64_t{0}, kL - 1, kL, 3 * kL + 17, 7 * kL + 2047}) {
    SCOPED_TRACE(::testing::Message() << "position " << pos);
    Rng serial = base;
    for (std::int64_t i = 0; i < pos; ++i) serial();
    EXPECT_TRUE(SameState(serial, ActivityStream::StateAt({base, pos})));
    for (const int width : simd::SupportedWidths()) {
      SCOPED_TRACE(::testing::Message() << "width " << width);
      ActivityStream stream(base, width);
      stream.SetThresholds(threshold, threshold);
      stream.Seek({base, pos});
      EXPECT_TRUE(SameState(serial, stream.State()));
      Rng expected = serial;
      for (std::int32_t draw = 0; draw < ActivityStream::kBlockDraws + 100; ++draw) {
        ASSERT_EQ(stream.Next(0), (expected() >> 11) < threshold) << "draw " << draw;
      }
    }
  }
}

// The lane jump against its column form: M^L applied to a state is the XOR
// of the images of its set bits, each image a basis state stepped L times.
// StateAt at one lane's offset is exactly one jump.
TEST(ActivityStreamTest, LaneJumpMatchesTheColumnForm) {
  constexpr std::int64_t kL = ActivityStream::kLaneDraws;
  const auto basis = [](int bit) {
    std::uint64_t words[4] = {0, 0, 0, 0};
    words[bit >> 6] = std::uint64_t{1} << (bit & 63);
    Rng rng;
    rng.RestoreState(words[0], words[1], words[2], words[3]);
    return rng;
  };
  std::vector<Rng> column;
  for (int bit = 0; bit < 256; ++bit) {
    Rng rng = basis(bit);
    for (std::int64_t step = 0; step < kL; ++step) rng();
    column.push_back(rng);
  }
  const auto column_jump = [&column](const Rng& from) {
    std::uint64_t acc[4] = {0, 0, 0, 0};
    for (int bit = 0; bit < 256; ++bit) {
      if (((from.state_word(bit >> 6) >> (bit & 63)) & 1) == 0) continue;
      for (int i = 0; i < 4; ++i) acc[i] ^= column[static_cast<std::size_t>(bit)].state_word(i);
    }
    Rng to;
    to.RestoreState(acc[0], acc[1], acc[2], acc[3]);
    return to;
  };
  // Every basis state, then random ones.
  Rng source(2024);
  for (int trial = 0; trial < 256 + 1000; ++trial) {
    Rng state = basis(trial % 256);
    if (trial >= 256) {
      std::uint64_t words[4];
      for (std::uint64_t& word : words) word = source();
      state.RestoreState(words[0], words[1], words[2], words[3]);
    }
    ASSERT_TRUE(SameState(column_jump(state), ActivityStream::StateAt({state, kL})))
        << "trial " << trial;
  }
}

TEST(ActivityStreamTest, RejectsWidthsTheHostCannotRun) {
  EXPECT_THROW(ActivityStream(Rng(1), 3), ContractViolation);
  EXPECT_THROW(ActivityStream(Rng(1), 16), ContractViolation);
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx512f")) {
    EXPECT_THROW(ActivityStream(Rng(1), 8), ContractViolation);
  }
#endif
  // Strictly descending, and every host runs the baseline.
  const std::vector<int> widths = simd::SupportedWidths();
  ASSERT_FALSE(widths.empty());
  for (std::size_t i = 1; i < widths.size(); ++i) {
    EXPECT_GT(widths[i - 1], widths[i]) << "position " << i;
  }
  EXPECT_EQ(widths.back(), 2);
}

}  // namespace
}  // namespace crn::pu
