#include "harness/flags.h"

#include <gtest/gtest.h>

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
