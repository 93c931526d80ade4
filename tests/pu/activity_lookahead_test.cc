// The activity stream with its lookahead helper against the same stream
// drawing every block inline: equal bits and equal State() after every call,
// at every kernel width, across block boundaries, threshold changes inside a
// block, Seek into a block, Restore and two-plane reads. Also when the helper
// starts: from the kRefillsBeforeHelper-th refill when the spare-thread
// budget has a permit, never when it has none, and the permit comes back
// when the stream is destroyed.
#include "pu/activity_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd_width.h"
#include "common/spare_threads.h"

namespace crn::pu {
namespace {

constexpr std::int32_t kBlock = ActivityStream::kBlockDraws;
// The helper hands over a block only once its thread has run, which a
// loaded host may put off, so checks that it did wait on wall time rather
// than on a count of blocks.
constexpr auto kHelperDeadline = std::chrono::seconds(10);

::testing::AssertionResult SameState(const Rng& a, const Rng& b) {
  for (int i = 0; i < 4; ++i) {
    if (a.state_word(i) != b.state_word(i)) {
      return ::testing::AssertionFailure() << "state word " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// Builds a stream whose helper starts at its first refill, whatever the
// budget holds; resets the hook for streams built later.
std::unique_ptr<ActivityStream> ForcedStream(const Rng& rng, int width) {
  const internal::ScopedForceLookaheadForTesting forced;
  return std::make_unique<ActivityStream>(rng, width);
}

// Holds every free permit of the spare-thread budget, so streams built
// under it draw inline.
struct NoSpareThreads {
  spare_threads::Reservation all{std::max(0, spare_threads::internal::Available())};
};

// Drives a helper stream and an inline stream through the same calls and
// expects the same bits and states after each.
class Pair {
 public:
  Pair(const Rng& rng, int width) : ahead_(ForcedStream(rng, width)), inline_(rng, width) {}

  [[nodiscard]] ActivityStream& ahead() { return *ahead_; }

  ::testing::AssertionResult SameStates() const {
    return SameState(ahead_->State(), inline_.State());
  }

  ::testing::AssertionResult Next(int plane, std::int32_t count) {
    for (std::int32_t i = 0; i < count; ++i) {
      if (ahead_->Next(plane) != inline_.Next(plane)) {
        return ::testing::AssertionFailure() << "Next(" << plane << ") draw " << i;
      }
    }
    return SameStates();
  }

  ::testing::AssertionResult Take(std::int32_t count) {
    std::vector<std::uint64_t> a((count + 63) / 64);
    std::vector<std::uint64_t> b((count + 63) / 64);
    ahead_->Take(count, a.data());
    inline_.Take(count, b.data());
    if (a != b) return ::testing::AssertionFailure() << "Take(" << count << ") bits";
    return SameStates();
  }

  ::testing::AssertionResult SetThresholds(std::uint64_t plane0, std::uint64_t plane1) {
    ahead_->SetThresholds(plane0, plane1);
    inline_.SetThresholds(plane0, plane1);
    return SameStates();
  }

  ::testing::AssertionResult Seek(const ActivityStream::Cursor& cursor) {
    ahead_->Seek(cursor);
    inline_.Seek(cursor);
    return SameStates();
  }

  ::testing::AssertionResult Restore(const Rng& rng) {
    ahead_->Restore(rng);
    inline_.Restore(rng);
    return SameStates();
  }

  // Takes whole blocks until the helper has handed one over.
  ::testing::AssertionResult TakeUntilHelped() {
    const auto deadline = std::chrono::steady_clock::now() + kHelperDeadline;
    while (internal::HelperBlocks(*ahead_) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        return ::testing::AssertionFailure() << "the helper handed over no block";
      }
      if (::testing::AssertionResult same = Take(kBlock); !same) return same;
    }
    return ::testing::AssertionSuccess();
  }

 private:
  std::unique_ptr<ActivityStream> ahead_;
  ActivityStream inline_;
};

TEST(ActivityLookaheadTest, HelperMatchesInlineAtEveryWidth) {
  const NoSpareThreads budget;  // the inline streams stay inline
  const std::uint64_t low = Rng::BernoulliThreshold(0.2);
  const std::uint64_t mid = Rng::BernoulliThreshold(0.45);
  const std::uint64_t high = Rng::BernoulliThreshold(0.7);
  for (const int width : simd::SupportedWidths()) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    Pair pair(Rng(0xBEEF), width);
    ASSERT_TRUE(pair.SetThresholds(mid, mid));
    // Let the helper fill its ring, then take runs that straddle blocks.
    ASSERT_TRUE(pair.Take(1));
    ASSERT_TRUE(internal::DrawingAhead(pair.ahead()));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (const std::int32_t count : {kBlock - 1, 2, kBlock, 3 * kBlock + 17, 100, kBlock}) {
      ASSERT_TRUE(pair.Take(count)) << "run of " << count;
    }
    ASSERT_TRUE(pair.TakeUntilHelped());

    // Markov two-plane reads, then a threshold change in the middle of a
    // block, each across block boundaries.
    ASSERT_TRUE(pair.SetThresholds(low, high));
    for (int run = 0; run < 40; ++run) {
      ASSERT_TRUE(pair.Next(run & 1, 997)) << "run " << run;
    }
    ASSERT_TRUE(pair.SetThresholds(high, low));
    ASSERT_TRUE(pair.Next(1, kBlock + 5));
    ASSERT_TRUE(pair.SetThresholds(mid, mid));
    ASSERT_TRUE(pair.Take(2 * kBlock));

    // Seek back into the middle of an earlier block, and forward again.
    const ActivityStream::Cursor back = pair.ahead().Tell();
    ASSERT_TRUE(pair.Take(kBlock / 3));
    const ActivityStream::Cursor mid_block = pair.ahead().Tell();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(pair.Take(4 * kBlock));
    ASSERT_TRUE(pair.Seek(mid_block));
    ASSERT_TRUE(pair.Take(3 * kBlock + 1));
    ASSERT_TRUE(pair.Seek(back));
    ASSERT_TRUE(pair.Next(0, kBlock));

    // Restore at a state mid-lane, then at a block start.
    Rng serial(0x51);
    for (int i = 0; i < 1234; ++i) serial();
    ASSERT_TRUE(pair.Restore(serial));
    ASSERT_TRUE(pair.Take(2 * kBlock + 3));
    ASSERT_TRUE(pair.Restore(pair.ahead().State()));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(pair.Take(5 * kBlock));
  }
}

// A long mixed run, with the calls and their sizes drawn from a seeded
// generator.
TEST(ActivityLookaheadTest, HelperMatchesInlineOverMixedCalls) {
  const NoSpareThreads budget;
  const std::uint64_t thresholds[] = {Rng::BernoulliThreshold(0.05),
                                      Rng::BernoulliThreshold(0.3),
                                      Rng::BernoulliThreshold(0.6)};
  Pair pair(Rng(7), simd::BestWidth());
  Rng script(2024);
  std::vector<ActivityStream::Cursor> marks{pair.ahead().Tell()};
  for (int call = 0; call < 3000; ++call) {
    SCOPED_TRACE(::testing::Message() << "call " << call);
    switch (script.UniformInt(0, 9)) {
      case 0:
        ASSERT_TRUE(pair.SetThresholds(thresholds[script.UniformInt(0, 2)],
                                       thresholds[script.UniformInt(0, 2)]));
        break;
      case 1:
        if (script.UniformInt(0, 3) == 0) {
          ASSERT_TRUE(pair.Seek(marks[static_cast<std::size_t>(
              script.UniformInt(0, static_cast<std::int64_t>(marks.size()) - 1))]));
        } else {
          marks.push_back(pair.ahead().Tell());
        }
        break;
      case 2:
        ASSERT_TRUE(pair.Next(static_cast<int>(script.UniformInt(0, 1)),
                              static_cast<std::int32_t>(script.UniformInt(1, 3000))));
        break;
      default:
        ASSERT_TRUE(pair.Take(static_cast<std::int32_t>(script.UniformInt(1, kBlock))));
        break;
    }
  }
  ASSERT_TRUE(pair.TakeUntilHelped());
}

// FNV-1a over 64-bit words.
std::uint64_t Fold(std::uint64_t hash, const std::vector<std::uint64_t>& words) {
  for (const std::uint64_t word : words) hash = (hash ^ word) * 0x100000001B3;
  return hash;
}

// A consumer that takes whole blocks back to back outruns the helper. It
// then waits for the block the helper is drawing instead of drawing it
// again, so the helper still hands over blocks and the bits stay equal.
// How many it hands over depends on when the helper's thread runs, so only
// that it hands over one is checked.
TEST(ActivityLookaheadTest, DrawBoundConsumerTakesTheHelpersBlocks) {
  const NoSpareThreads budget;
  const std::uint64_t threshold = Rng::BernoulliThreshold(0.45);
  const std::unique_ptr<ActivityStream> ahead = ForcedStream(Rng(11), simd::BestWidth());
  ahead->SetThresholds(threshold, threshold);
  std::vector<std::uint64_t> words(kBlock / 64);
  std::uint64_t got = 0xCBF29CE484222325;
  std::int64_t blocks = 0;
  const auto deadline = std::chrono::steady_clock::now() + kHelperDeadline;
  while (blocks < 256 || (internal::HelperBlocks(*ahead) == 0 &&
                          std::chrono::steady_clock::now() < deadline)) {
    ahead->Take(kBlock, words.data());
    got = Fold(got, words);
    ++blocks;
  }
  EXPECT_GT(internal::HelperBlocks(*ahead), 0);
  ActivityStream serial(Rng(11));
  serial.SetThresholds(threshold, threshold);
  std::uint64_t want = 0xCBF29CE484222325;
  for (std::int64_t block = 0; block < blocks; ++block) {
    serial.Take(kBlock, words.data());
    want = Fold(want, words);
  }
  EXPECT_EQ(got, want);
  EXPECT_TRUE(SameState(ahead->State(), serial.State()));
}

TEST(ActivityLookaheadTest, StartsAtTheFourthRefillWithAPermit) {
  if (spare_threads::internal::Available() < 1) {
    GTEST_SKIP() << "no spare hardware thread on this host";
  }
  const std::int32_t before = spare_threads::internal::Available();
  const std::uint64_t threshold = Rng::BernoulliThreshold(0.3);
  {
    ActivityStream stream(Rng(3));
    stream.SetThresholds(threshold, threshold);
    std::vector<std::uint64_t> words(kBlock / 64);
    for (std::int32_t refill = 1; refill < ActivityStream::kRefillsBeforeHelper; ++refill) {
      stream.Take(kBlock, words.data());
      EXPECT_FALSE(internal::DrawingAhead(stream)) << "refill " << refill;
    }
    stream.Take(kBlock, words.data());
    EXPECT_TRUE(internal::DrawingAhead(stream));
    EXPECT_EQ(spare_threads::internal::Available(), before - 1);
  }
  EXPECT_EQ(spare_threads::internal::Available(), before);
}

TEST(ActivityLookaheadTest, NoSpareThreadNoHelper) {
  const NoSpareThreads budget;
  ASSERT_LE(spare_threads::internal::Available(), 0);
  const std::uint64_t threshold = Rng::BernoulliThreshold(0.3);
  ActivityStream stream(Rng(3));
  stream.SetThresholds(threshold, threshold);
  std::vector<std::uint64_t> words(kBlock / 64);
  for (std::int32_t refill = 0; refill < 4 * ActivityStream::kRefillsBeforeHelper; ++refill) {
    stream.Take(kBlock, words.data());
  }
  EXPECT_FALSE(internal::DrawingAhead(stream));
  EXPECT_EQ(internal::HelperBlocks(stream), 0);
}

}  // namespace
}  // namespace crn::pu
