#include "harness/parallel_runner.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace crn::harness
