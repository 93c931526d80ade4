#include "mac/fifo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.h"

namespace crn::mac {
namespace {

void ExpectSameContents(const Fifo<std::int64_t>& fifo,
                        const std::deque<std::int64_t>& oracle) {
  ASSERT_EQ(fifo.size(), oracle.size());
  ASSERT_EQ(fifo.empty(), oracle.empty());
  ASSERT_EQ(std::vector<std::int64_t>(fifo.begin(), fifo.end()),
            std::vector<std::int64_t>(oracle.begin(), oracle.end()));
  if (!oracle.empty()) {
    ASSERT_EQ(fifo.front(), oracle.front());
  }
}

// Random push/pop/clear sequences against a std::deque. The push bias
// drifts over the run, so queues both grow past the compaction threshold
// and drain back through it, and empty repeatedly.
TEST(FifoTest, MatchesDequeUnderRandomOperations) {
  for (std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    Rng rng(seed);
    Fifo<std::int64_t> fifo;
    std::deque<std::int64_t> oracle;
    std::int64_t next = 0;
    std::size_t peak = 0;
    for (int step = 0; step < 20000; ++step) {
      const double push_bias = (step / 1000) % 2 == 0 ? 0.6 : 0.4;
      const double roll = rng.UniformDouble(0.0, 1.0);
      if (roll < 0.001) {
        fifo.clear();
        oracle.clear();
      } else if (roll < push_bias || oracle.empty()) {
        fifo.push_back(next);
        oracle.push_back(next);
        ++next;
        ASSERT_EQ(fifo.back(), oracle.back());
      } else {
        fifo.pop_front();
        oracle.pop_front();
      }
      peak = std::max(peak, oracle.size());
      ExpectSameContents(fifo, oracle);
    }
    EXPECT_GT(peak, 4 * Fifo<std::int64_t>::kCompactAt) << "seed " << seed;
  }
}

// Pops that cross the compaction threshold in a queue that never empties.
TEST(FifoTest, CompactionKeepsOrderWhileNonEmpty) {
  Fifo<std::int64_t> fifo;
  std::deque<std::int64_t> oracle;
  for (std::int64_t i = 0; i < 3 * static_cast<std::int64_t>(Fifo<std::int64_t>::kCompactAt);
       ++i) {
    fifo.push_back(i);
    oracle.push_back(i);
  }
  for (std::int64_t i = 0; i < 1000; ++i) {
    fifo.pop_front();
    oracle.pop_front();
    fifo.push_back(1000 + i);
    oracle.push_back(1000 + i);
    ExpectSameContents(fifo, oracle);
  }
}

// The checkpoint load path: resize after pops drops the popped prefix and
// value-initialises the items.
TEST(FifoTest, ResizeReplacesTheContents) {
  Fifo<std::int64_t> fifo;
  for (std::int64_t i = 1; i <= 5; ++i) fifo.push_back(i);
  fifo.pop_front();
  fifo.resize(3);
  EXPECT_EQ(std::vector<std::int64_t>(fifo.begin(), fifo.end()),
            (std::vector<std::int64_t>{2, 3, 4}));
  fifo.clear();
  fifo.resize(2);
  EXPECT_EQ(std::vector<std::int64_t>(fifo.begin(), fifo.end()),
            (std::vector<std::int64_t>{0, 0}));
}

}  // namespace
}  // namespace crn::mac
