#include "harness/flags.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace crn::harness {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, EqualsForm) {
  FlagParser flags = Parse({"--n=500", "--pt=0.3", "--name=abc"});
  EXPECT_EQ(flags.GetInt("n", 0), 500);
  EXPECT_DOUBLE_EQ(flags.GetDouble("pt", 0.0), 0.3);
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_TRUE(flags.errors().empty());
  EXPECT_TRUE(flags.UnconsumedFlags().empty());
}

TEST(FlagParserTest, SpaceForm) {
  FlagParser flags = Parse({"--n", "42", "--label", "hello"});
  EXPECT_EQ(flags.GetInt("n", 0), 42);
  EXPECT_EQ(flags.GetString("label", ""), "hello");
}

TEST(FlagParserTest, BareFlagIsBooleanTrue) {
  FlagParser flags = Parse({"--csv", "--verbose"});
  EXPECT_TRUE(flags.GetBool("csv", false));
  EXPECT_TRUE(flags.GetBool("verbose", false));
}

TEST(FlagParserTest, BoolValues) {
  FlagParser flags = Parse({"--a=0", "--b=yes", "--c=off"});
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_FALSE(flags.GetBool("c", true));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 1.5), 1.5);
  EXPECT_EQ(flags.GetString("s", "d"), "d");
  EXPECT_TRUE(flags.GetBool("b", true));
  EXPECT_FALSE(flags.Has("n"));
}

TEST(FlagParserTest, MalformedValuesReportErrors) {
  FlagParser flags = Parse({"--n=abc", "--x=1.2.3", "--b=maybe"});
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0.5), 0.5);
  EXPECT_TRUE(flags.GetBool("b", true));
  EXPECT_EQ(flags.errors().size(), 3u);
}

TEST(FlagParserTest, ChoicesAcceptOnlyTheirValues) {
  FlagParser flags = Parse({"--mode=fast", "--algo=ADDC"});
  EXPECT_EQ(flags.GetChoice("mode", "slow", {"slow", "fast"}), "fast");
  EXPECT_EQ(flags.GetChoice("absent", "slow", {"slow", "fast"}), "slow");
  EXPECT_TRUE(flags.errors().empty());
  // Matching is exact: no case folding, no prefixes.
  EXPECT_EQ(flags.GetChoice("algo", "both", {"addc", "coolest", "both"}), "both");
  ASSERT_EQ(flags.errors().size(), 1u);
  EXPECT_EQ(flags.errors()[0], "--algo=ADDC is not one of addc|coolest|both");
  EXPECT_TRUE(flags.UnconsumedFlags().empty());
}

TEST(FlagParserTest, ChoicesTakeANameListAndARequiredFlag) {
  const std::vector<std::string_view> names = {"fig4", "fig6a", "all"};
  FlagParser given = Parse({"--figure=fig6a"});
  EXPECT_EQ(given.GetChoice("figure", "", names), "fig6a");
  EXPECT_TRUE(given.errors().empty());
  // A fallback outside the choices makes the flag required.
  FlagParser absent = Parse({});
  EXPECT_EQ(absent.GetChoice("figure", "", names), "");
  ASSERT_EQ(absent.errors().size(), 1u);
  EXPECT_EQ(absent.errors()[0], "--figure is required, one of fig4|fig6a|all");
}

// Each accepted value, then one step past each bound.
TEST(FlagParserTest, IntRangeBoundsAndOneStepPast) {
  FlagParser flags = Parse({"--a=1", "--b=10", "--c=0", "--d=11", "--e=2147483647",
                            "--f=2147483648"});
  const IntRange range{.min = 1, .max = 10};
  EXPECT_EQ(flags.GetInt("a", 5, range), 1);
  EXPECT_EQ(flags.GetInt("b", 5, range), 10);
  EXPECT_TRUE(flags.errors().empty());
  EXPECT_EQ(flags.GetInt("c", 5, range), 5);
  EXPECT_EQ(flags.GetInt("d", 5, range), 5);
  // The default max is int32's, checked before any narrowing.
  EXPECT_EQ(flags.GetInt("e", 0, {.min = 0}), 2147483647);
  EXPECT_EQ(flags.GetInt("f", 0, {.min = 0}), 0);
  EXPECT_EQ(flags.errors(), (std::vector<std::string>{
                                "--c must be >= 1 and <= 10, got 0",
                                "--d must be >= 1 and <= 10, got 11",
                                "--f must be >= 0 and <= 2147483647, got 2147483648"}));
}

TEST(FlagParserTest, IntRangeAtTheInt64Edges) {
  FlagParser flags = Parse({"--max=9223372036854775807", "--past=9223372036854775808",
                            "--neg=-1", "--any=-9223372036854775808"});
  const IntRange non_negative{.min = 0, .max = kAnyInt64.max};
  EXPECT_EQ(flags.GetInt("max", 0, non_negative), kAnyInt64.max);
  EXPECT_EQ(flags.GetInt("any", 0, kAnyInt64), kAnyInt64.min);
  EXPECT_TRUE(flags.errors().empty());
  // 2^63 does not parse as an int64; a bound at int64's own edge is left
  // out of the message.
  EXPECT_EQ(flags.GetInt("past", 3, non_negative), 3);
  EXPECT_EQ(flags.GetInt("neg", 3, non_negative), 3);
  EXPECT_EQ(flags.errors(),
            (std::vector<std::string>{"--past=9223372036854775808 is not an integer",
                                      "--neg must be >= 0, got -1"}));
}

TEST(FlagParserTest, RealRangeBoundsAndOneStepPast) {
  FlagParser flags = Parse({"--a=0.5000000000000001", "--b=1", "--c=0.5",
                            "--d=1.0000000000000002", "--e=0.5",
                            "--f=0.49999999999999994"});
  const RealRange half_open{.min = 0.5, .max = 1.0, .min_open = true};
  const RealRange closed{.min = 0.5, .max = 1.0};
  EXPECT_EQ(flags.GetDouble("a", 0.75, half_open), std::nextafter(0.5, 1.0));
  EXPECT_EQ(flags.GetDouble("b", 0.75, half_open), 1.0);
  EXPECT_EQ(flags.GetDouble("e", 0.75, closed), 0.5);
  EXPECT_TRUE(flags.errors().empty());
  EXPECT_EQ(flags.GetDouble("c", 0.75, half_open), 0.75);
  EXPECT_EQ(flags.GetDouble("d", 0.75, half_open), 0.75);
  EXPECT_EQ(flags.GetDouble("f", 0.75, closed), 0.75);
  EXPECT_EQ(std::nextafter(1.0, 2.0), 1.0000000000000002);
  EXPECT_EQ(std::nextafter(0.5, 0.0), 0.49999999999999994);
  EXPECT_EQ(flags.errors(),
            (std::vector<std::string>{
                "--c must be finite, > 0.5 and <= 1, got 0.5",
                "--d must be finite, > 0.5 and <= 1, got 1.0000000000000002",
                "--f must be finite, >= 0.5 and <= 1, got 0.49999999999999994"}));
}

TEST(FlagParserTest, RealRangeRejectsNonFiniteAndHugeValues) {
  FlagParser flags = Parse({"--nan=nan", "--inf=inf", "--neg_inf=-inf", "--big=1e300",
                            "--two63=9223372036854775808", "--over=1e400",
                            "--any=1e300"});
  const RealRange alpha{.min = 2.0, .min_open = true};
  const RealRange unit{.min = 0.0, .max = 1.0};
  EXPECT_EQ(flags.GetDouble("nan", 4.0, alpha), 4.0);
  EXPECT_EQ(flags.GetDouble("inf", 4.0, alpha), 4.0);
  EXPECT_EQ(flags.GetDouble("neg_inf", 4.0, {}), 4.0);
  EXPECT_EQ(flags.GetDouble("big", 0.5, unit), 0.5);
  EXPECT_EQ(flags.GetDouble("two63", 0.5, unit), 0.5);
  EXPECT_EQ(flags.GetDouble("over", 0.5, {}), 0.5);
  // The default range is every finite value.
  EXPECT_EQ(flags.GetDouble("any", 0.5, {}), 1e300);
  EXPECT_EQ(flags.errors(),
            (std::vector<std::string>{
                "--nan must be finite and > 2, got nan",
                "--inf must be finite and > 2, got inf",
                "--neg_inf must be finite, got -inf",
                "--big must be finite, >= 0 and <= 1, got 1e300",
                "--two63 must be finite, >= 0 and <= 1, got 9223372036854775808",
                "--over=1e400 is not a number"}));
}

// The millisecond range both CLIs use: every value below the bound converts
// inside the int64 nanosecond clock.
TEST(FlagParserTest, MillisecondsPastTheClockAreRejected) {
  const RealRange ms{.min = 0.0, .max = sim::kMillisecondsPastClock, .max_open = true};
  const double below = std::nextafter(sim::kMillisecondsPastClock, 0.0);
  EXPECT_LT(below * static_cast<double>(sim::kMillisecond), 0x1p63);
  EXPECT_EQ(sim::kMillisecondsPastClock * static_cast<double>(sim::kMillisecond), 0x1p63);
  FlagParser flags = Parse({"--below=9223372036854.7734", "--at=9223372036854.775"});
  EXPECT_EQ(flags.GetDouble("below", 0.0, ms), below);
  EXPECT_EQ(flags.GetDouble("at", 0.0, ms), 0.0);
  EXPECT_EQ(flags.errors(), (std::vector<std::string>{
                                "--at must be finite, >= 0 and < 9223372036854.775, "
                                "got 9223372036854.775"}));
}

class FlagParserEnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv("CRN_TEST_VAR"); }
};

TEST_F(FlagParserEnvTest, VariableStandsInForAnAbsentFlag) {
  FlagParser flags = Parse({});
  ::setenv("CRN_TEST_VAR", "42", 1);
  EXPECT_EQ(flags.GetInt("k", 7, {.min = 0}, "CRN_TEST_VAR"), 42);
  ::setenv("CRN_TEST_VAR", "-3", 1);
  EXPECT_EQ(flags.GetInt("k", 7, {}, "CRN_TEST_VAR"), -3);
  ::setenv("CRN_TEST_VAR", "0.25", 1);
  EXPECT_EQ(flags.GetDouble("x", 1.0, {}, "CRN_TEST_VAR"), 0.25);
  EXPECT_EQ(flags.GetString("s", "d", "CRN_TEST_VAR"), "0.25");
  for (const char* truthy : {"1", "true", "yes", "on"}) {
    ::setenv("CRN_TEST_VAR", truthy, 1);
    EXPECT_TRUE(flags.GetBool("b", false, "CRN_TEST_VAR")) << truthy;
  }
  for (const char* falsy : {"0", "false", "no", "off"}) {
    ::setenv("CRN_TEST_VAR", falsy, 1);
    EXPECT_FALSE(flags.GetBool("b", true, "CRN_TEST_VAR")) << falsy;
  }
  // Unset or empty is absent: the fallback, unchecked.
  ::setenv("CRN_TEST_VAR", "", 1);
  EXPECT_EQ(flags.GetInt("k", -9, {.min = 0}, "CRN_TEST_VAR"), -9);
  ::unsetenv("CRN_TEST_VAR");
  EXPECT_EQ(flags.GetDouble("x", 1.0, {}, "CRN_TEST_VAR"), 1.0);
  EXPECT_TRUE(flags.errors().empty());
}

TEST_F(FlagParserEnvTest, FlagBeatsItsVariable) {
  ::setenv("CRN_TEST_VAR", "abc", 1);  // never read
  FlagParser flags = Parse({"--k=5", "--b=off"});
  EXPECT_EQ(flags.GetInt("k", 7, {.min = 0}, "CRN_TEST_VAR"), 5);
  EXPECT_FALSE(flags.GetBool("b", true, "CRN_TEST_VAR"));
  EXPECT_TRUE(flags.errors().empty());
}

TEST_F(FlagParserEnvTest, ErrorsNameTheVariableTheValueCameFrom) {
  FlagParser flags = Parse({"--x=2"});
  ::setenv("CRN_TEST_VAR", "-3", 1);
  EXPECT_EQ(flags.GetInt("k", 7, {.min = 0}, "CRN_TEST_VAR"), 7);
  ::setenv("CRN_TEST_VAR", "2", 1);
  EXPECT_EQ(flags.GetDouble("y", 0.5, {.min = 0.0, .max = 1.0}, "CRN_TEST_VAR"), 0.5);
  // The same range on a flag names the flag.
  EXPECT_EQ(flags.GetDouble("x", 0.5, {.min = 0.0, .max = 1.0}, "CRN_TEST_VAR"), 0.5);
  EXPECT_EQ(flags.errors(), (std::vector<std::string>{
                                "CRN_TEST_VAR must be >= 0 and <= 2147483647, got -3",
                                "CRN_TEST_VAR must be finite, >= 0 and <= 1, got 2",
                                "--x must be finite, >= 0 and <= 1, got 2"}));
}

TEST_F(FlagParserEnvTest, MalformedVariablesAreErrors) {
  FlagParser flags = Parse({});
  ::setenv("CRN_TEST_VAR", "12abc", 1);
  EXPECT_EQ(flags.GetInt("k", 7, {}, "CRN_TEST_VAR"), 7);
  ::setenv("CRN_TEST_VAR", "nope", 1);
  EXPECT_EQ(flags.GetDouble("x", 1.0, {}, "CRN_TEST_VAR"), 1.0);
  ::setenv("CRN_TEST_VAR", "maybe", 1);
  EXPECT_TRUE(flags.GetBool("b", true, "CRN_TEST_VAR"));
  EXPECT_EQ(flags.errors(),
            (std::vector<std::string>{"CRN_TEST_VAR=12abc is not an integer",
                                      "CRN_TEST_VAR=nope is not a number",
                                      "CRN_TEST_VAR=maybe is not a boolean"}));
}

TEST(FlagParserTest, UnconsumedFlagsDetected) {
  FlagParser flags = Parse({"--known=1", "--typo=2"});
  flags.GetInt("known", 0);
  const auto unknown = flags.UnconsumedFlags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "--typo");
}

TEST(FlagParserTest, PositionalsCollected) {
  FlagParser flags = Parse({"input.csv", "--n=1", "more"});
  EXPECT_EQ(flags.positionals(),
            (std::vector<std::string>{"input.csv", "more"}));
}

TEST(FlagParserTest, LastValueWinsOnRepeat) {
  FlagParser flags = Parse({"--n=1", "--n=2"});
  EXPECT_EQ(flags.GetInt("n", 0), 2);
}

}  // namespace
}  // namespace crn::harness
