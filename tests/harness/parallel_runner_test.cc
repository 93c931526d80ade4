#include "harness/parallel_runner.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/spare_threads.h"

namespace crn::harness {
namespace {

TEST(ParallelRunnerTest, ResolveJobsLiteralAndAuto) {
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(5), 5);
  EXPECT_GE(ResolveJobs(0), 1);
  EXPECT_GE(ResolveJobs(-2), 1);
}

TEST(ParallelRunnerTest, ForEachIndexCoversEveryIndexExactlyOnce) {
  const ParallelRunner runner(4);
  std::vector<int> hits(37, 0);
  runner.ForEachIndex(37, [&](std::int64_t index) {
    ++hits[static_cast<std::size_t>(index)];
  });
  for (const int hit : hits) EXPECT_EQ(hit, 1);
}

TEST(ParallelRunnerTest, LowestIndexExceptionWins) {
  const ParallelRunner runner(4);
  try {
    runner.ForEachIndex(8, [](std::int64_t index) {
      if (index == 2 || index == 5) {
        throw std::runtime_error("cell " + std::to_string(index));
      }
    });
    FAIL() << "expected ForEachIndex to rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "cell 2");
  }
}

TEST(ParallelRunnerTest, SingleJobRunsInlineOnTheCallingThread) {
  const ParallelRunner runner(1);
  const std::thread::id caller = std::this_thread::get_id();
  runner.ForEachIndex(4, [&](std::int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

// A runner holds one spare thread per worker beyond the caller for its
// lifetime; one whose workers fill every core leaves none for helpers
// (pu/activity_stream.h), which then draw inline.
TEST(ParallelRunnerTest, ReservesItsWorkersInTheSpareThreadBudget) {
  const std::int32_t before = spare_threads::internal::Available();
  {
    const ParallelRunner serial(1);
    EXPECT_EQ(spare_threads::internal::Available(), before);
    const ParallelRunner runner(3);
    EXPECT_EQ(spare_threads::internal::Available(), before - 2);
  }
  EXPECT_EQ(spare_threads::internal::Available(), before);
  {
    const ParallelRunner every_core(0);
    EXPECT_LE(spare_threads::internal::Available(), 0);
    EXPECT_FALSE(spare_threads::TryAcquire());
  }
  EXPECT_EQ(spare_threads::internal::Available(), before);
}

}  // namespace
}  // namespace crn::harness
