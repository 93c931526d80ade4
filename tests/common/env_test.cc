#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace crn {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetEnv(const char* name, const char* value) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  void TearDown() override {
    ::unsetenv("CRN_TEST_VAR");
  }
};

TEST_F(EnvTest, MissingReturnsNullopt) {
  ::unsetenv("CRN_TEST_VAR");
  EXPECT_FALSE(GetEnv("CRN_TEST_VAR").has_value());
}

TEST_F(EnvTest, EmptyTreatedAsMissing) {
  SetEnv("CRN_TEST_VAR", "");
  EXPECT_FALSE(GetEnv("CRN_TEST_VAR").has_value());
}

}  // namespace
}  // namespace crn
