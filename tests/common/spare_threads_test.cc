#include "common/spare_threads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/check.h"

namespace crn::spare_threads {
namespace {

TEST(SpareThreadsTest, StartsAtEveryCoreButOne) {
  const auto cores = static_cast<std::int32_t>(std::thread::hardware_concurrency());
  EXPECT_EQ(internal::Available(), std::max(0, cores - 1));
}

TEST(SpareThreadsTest, PermitsComeBack) {
  const std::int32_t before = internal::Available();
  if (before < 1) GTEST_SKIP() << "no spare hardware thread on this host";
  ASSERT_TRUE(TryAcquire());
  EXPECT_EQ(internal::Available(), before - 1);
  Release();
  EXPECT_EQ(internal::Available(), before);
}

TEST(SpareThreadsTest, ReservationsMayOverdrawTheBudget) {
  const std::int32_t before = internal::Available();
  {
    const Reservation all(std::max(0, before) + 2);
    EXPECT_EQ(internal::Available(), std::min(before, 0) - 2);
    EXPECT_FALSE(TryAcquire());
  }
  EXPECT_EQ(internal::Available(), before);
  EXPECT_THROW(Reservation(-1), ContractViolation);
}

}  // namespace
}  // namespace crn::spare_threads
