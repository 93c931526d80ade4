// FaultPlan parsing and timeline compilation: the declarative fault format,
// its error reporting, and the (plan, seed) -> timeline determinism the
// whole resilience suite rests on.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "faults/fault_plan.h"
#include "sim/time.h"

namespace crn::faults {
namespace {

FaultPlan Parse(const std::string& text) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(ParsePlanText(text, plan, error)) << error;
  return plan;
}

std::string ParseError(const std::string& text) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(ParsePlanText(text, plan, error));
  return error;
}

TEST(FaultPlanParseTest, ParsesEveryDirective) {
  const FaultPlan plan = Parse(
      "# resilience scenario\n"
      "at 10 crash 3\n"
      "at 200 recover 3   # comes back\n"
      "at 50 sensing_burst 0.3 0.1 25\n"
      "at 75 pu_activity 0.9 40\n"
      "gen crash 2.5 150\n"
      "gen sensing_burst 4 0.2 0.05 50\n"
      "option horizon_ms 2000\n"
      "option repair_delay_ms 5\n"
      "option retx_budget 8\n");
  // crash + recover + (burst start/end) + (pu start/end) = 6 scripted events.
  ASSERT_EQ(plan.scripted.size(), 6u);
  EXPECT_EQ(plan.scripted[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.scripted[0].time, 10 * sim::kMillisecond);
  EXPECT_EQ(plan.scripted[0].node, 3);
  EXPECT_EQ(plan.scripted[1].kind, FaultKind::kRecover);
  EXPECT_EQ(plan.scripted[2].kind, FaultKind::kSensingBurstStart);
  EXPECT_DOUBLE_EQ(plan.scripted[2].false_alarm, 0.3);
  EXPECT_DOUBLE_EQ(plan.scripted[2].missed_detection, 0.1);
  EXPECT_EQ(plan.scripted[3].kind, FaultKind::kSensingBurstEnd);
  EXPECT_EQ(plan.scripted[3].time, 75 * sim::kMillisecond);
  EXPECT_EQ(plan.scripted[4].kind, FaultKind::kPuActivityStart);
  EXPECT_DOUBLE_EQ(plan.scripted[4].pu_activity, 0.9);
  EXPECT_EQ(plan.scripted[5].kind, FaultKind::kPuActivityEnd);
  ASSERT_EQ(plan.crash_generators.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.crash_generators[0].rate_per_s, 2.5);
  EXPECT_EQ(plan.crash_generators[0].recover_after, 150 * sim::kMillisecond);
  ASSERT_EQ(plan.burst_generators.size(), 1u);
  EXPECT_EQ(plan.burst_generators[0].duration, 50 * sim::kMillisecond);
  EXPECT_EQ(plan.horizon, 2000 * sim::kMillisecond);
  EXPECT_EQ(plan.repair_delay, 5 * sim::kMillisecond);
  EXPECT_EQ(plan.retx_budget, 8);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanParseTest, PermanentCrashGenerator) {
  const FaultPlan plan = Parse("gen crash 1.0 -1\n");
  ASSERT_EQ(plan.crash_generators.size(), 1u);
  EXPECT_LT(plan.crash_generators[0].recover_after, 0);
}

TEST(FaultPlanParseTest, BlankAndCommentOnlyLinesAreIgnored) {
  const FaultPlan plan = Parse("\n   \n# nothing here\n");
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanParseTest, ErrorsCarryLineNumbers) {
  EXPECT_NE(ParseError("at 10 crash\n").find("line 1"), std::string::npos);
  EXPECT_NE(ParseError("at 10 crash 3\nfrobnicate\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(ParseError("at -5 crash 3\n").find(">= 0 ms"), std::string::npos);
  EXPECT_NE(ParseError("at 10 sensing_burst 1.5 0 10\n").find("[0, 1]"),
            std::string::npos);
  EXPECT_NE(ParseError("gen crash 0 100\n").find("> 0"), std::string::npos);
  EXPECT_NE(ParseError("option retx_budget -3\n").find(">= 0"), std::string::npos);
  EXPECT_NE(ParseError("at 10 crash 3 extra\n").find("trailing"),
            std::string::npos);
  EXPECT_NE(ParseError("option unknown_knob 4\n").find("unknown option"),
            std::string::npos);
}

TEST(FaultPlanParseTest, ErrorsCarryTheColumnOfTheOffendingToken) {
  // One malformed instance of every construct; the expected column is the
  // 1-based start of the token the parser rejected (or one past the line
  // end when the token is missing entirely).
  const struct {
    const char* text;
    const char* location;
  } cases[] = {
      // Missing argument: the column points at the line end.
      {"at 10 crash\n", "line 1, column 12"},
      // Non-numeric where a number is due: the column points at the token.
      {"at x crash 3\n", "line 1, column 4"},
      // Out-of-range value: still the value's own column, not the keyword's.
      {"at -5 crash 3\n", "line 1, column 4"},
      {"at 10 sensing_burst 1.5 0 10\n", "line 1, column 21"},
      {"gen crash 0 100\n", "line 1, column 11"},
      {"option retx_budget -3\n", "line 1, column 20"},
      // Unknown names: the column points at the name.
      {"at 10 frobnicate 3\n", "line 1, column 7"},
      {"gen frobnicate 1 2\n", "line 1, column 5"},
      {"option unknown_knob 4\n", "line 1, column 8"},
      {"frobnicate\n", "line 1, column 1"},
      // Trailing junk after a complete directive.
      {"at 10 crash 3 extra\n", "line 1, column 15"},
      // Errors past line one carry that line's number and a fresh column.
      {"at 10 crash 3\ngen crash\n", "line 2, column 10"},
  };
  for (const auto& test_case : cases) {
    const std::string error = ParseError(test_case.text);
    EXPECT_NE(error.find(test_case.location), std::string::npos)
        << "plan <" << test_case.text << "> produced: " << error;
  }
}

// Numbers that parse but cannot become a plan: non-finite values, ms
// counts whose nanoseconds overflow the int64 clock, and Poisson rates
// whose mean gap is below the 1 ns tick (their arrival loop would round
// every gap to 0 ns and never advance). Each fails at its own column.
TEST(FaultPlanParseTest, RejectsNumbersTheClockCannotHold) {
  const struct {
    const char* text;
    const char* location;
    const char* reason;
  } cases[] = {
      {"option repair_delay_ms 1e400\n", "line 1, column 24", "not a finite number"},
      {"at inf crash 3\n", "line 1, column 4", "not a finite number"},
      {"at nan crash 3\n", "line 1, column 4", "not a finite number"},
      {"gen sensing_burst 4 nan 0.1 50\n", "line 1, column 21", "not a finite number"},
      {"gen crash 2 -inf\n", "line 1, column 13", "not a finite number"},
      {"option horizon_ms 9223372036855\n", "line 1, column 19", "do not fit in int64"},
      {"at 1e13 crash 3\n", "line 1, column 4", "do not fit in int64"},
      {"at 5 sensing_burst 0 0 -1e16\n", "line 1, column 24", "do not fit in int64"},
      {"at 5 pu_activity 0.5 1e16\n", "line 1, column 22", "do not fit in int64"},
      {"gen crash 1 1e16\n", "line 1, column 13", "do not fit in int64"},
      {"gen crash 99999999999999999999 1\n", "line 1, column 11", "<= 1e9 /s"},
      {"gen sensing_burst 1.0000001e9 0 0 5\n", "line 1, column 19", "<= 1e9 /s"},
  };
  for (const auto& test_case : cases) {
    const std::string error = ParseError(test_case.text);
    EXPECT_NE(error.find(test_case.location), std::string::npos)
        << "plan <" << test_case.text << "> produced: " << error;
    EXPECT_NE(error.find(test_case.reason), std::string::npos)
        << "plan <" << test_case.text << "> produced: " << error;
  }
  // The limits themselves are accepted.
  const FaultPlan edge = Parse(
      "option horizon_ms 9223372036854\n"
      "gen crash 1e9 -1e12\n");
  EXPECT_GT(edge.horizon, 9223372036853 * sim::kMillisecond);
  EXPECT_DOUBLE_EQ(edge.crash_generators[0].rate_per_s, 1e9);
}

// Times that each fit but whose sum would not saturate at the end of the
// clock, where nothing fires, instead of overflowing.
TEST(FaultPlanParseTest, EventEndsPastTheClockSaturate) {
  const FaultPlan plan = Parse("at 9000000000000 sensing_burst 0.1 0.1 9000000000000\n");
  ASSERT_EQ(plan.scripted.size(), 2u);
  EXPECT_EQ(plan.scripted[1].time, std::numeric_limits<sim::TimeNs>::max());
}

// A rate so small that its first gap overflows the clock compiles to no
// arrivals; the fastest accepted rate still reaches its horizon.
TEST(CompileTimelineTest, ExtremeRatesCompile) {
  const FaultPlan slow = Parse("gen crash 1e-300 -1\n");
  EXPECT_TRUE(CompileFaultTimeline(slow, Rng(7), 10, 0).empty());
  const FaultPlan fast = Parse("gen sensing_burst 1e9 0 0 1\noption horizon_ms 0.001\n");
  const auto timeline = CompileFaultTimeline(fast, Rng(7), 10, 0);
  ASSERT_FALSE(timeline.empty());
  for (const FaultEvent& event : timeline) {
    if (event.kind == FaultKind::kSensingBurstStart) {
      EXPECT_LT(event.time, 1000);
    }
  }
}

TEST(CompileTimelineTest, EmptyPlanCompilesToEmptyTimeline) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(CompileFaultTimeline(plan, Rng(7), 10, 0).empty());
}

TEST(CompileTimelineTest, ScriptedEventsComeOutSorted) {
  FaultPlan plan = Parse(
      "at 30 crash 2\n"
      "at 10 crash 1\n"
      "at 20 recover 1\n");
  const auto timeline = CompileFaultTimeline(plan, Rng(7), 5, 0);
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_EQ(timeline[0].node, 1);
  EXPECT_EQ(timeline[0].kind, FaultKind::kCrash);
  EXPECT_EQ(timeline[1].kind, FaultKind::kRecover);
  EXPECT_EQ(timeline[2].node, 2);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].time, timeline[i - 1].time);
  }
}

// The scenario-dependent checks report the offending event instead of
// failing a CRN_CHECK, and apply events in timeline order (time, then kind:
// a crash before a recovery at the same instant).
TEST(CheckScriptedEventsTest, NamesTheFirstOffendingEvent) {
  EXPECT_EQ(CheckScriptedEvents(Parse("at 20 recover 1\nat 10 crash 1\n"), 5, 0), "");
  EXPECT_EQ(CheckScriptedEvents(Parse("at 10 recover 1\nat 10 crash 1\n"), 5, 0), "");
  EXPECT_EQ(CheckScriptedEvents(Parse("at 50 crash 999\n"), 5, 0),
            "fault plan event 'at 50 ms crash 999': node 999 is out of range [0, 5)");
  EXPECT_EQ(CheckScriptedEvents(Parse("at 60 crash 3\nat 50 crash 3\n"), 5, 0),
            "fault plan event 'at 60 ms crash 3': node 3 is already down");
  EXPECT_EQ(CheckScriptedEvents(Parse("at 50 crash 0\n"), 5, 0),
            "fault plan event 'at 50 ms crash 0': the base station (node 0) "
            "cannot crash or recover");
  EXPECT_EQ(CheckScriptedEvents(Parse("at 10 crash 2\nat 50 recover 3\n"), 5, 0),
            "fault plan event 'at 50 ms recover 3': node 3 is not down");
  FaultPlan negative = Parse("at 1 sensing_burst 0.1 0.1 5\n");
  negative.scripted[0].time = -1000000;
  EXPECT_EQ(CheckScriptedEvents(negative, 5, 0),
            "fault plan event 'at -1 ms sensing_burst_start': time is negative");
}

TEST(CompileTimelineTest, RejectsContradictoryScripts) {
  {
    const FaultPlan plan = Parse("at 10 crash 2\nat 20 crash 2\n");
    EXPECT_THROW(CompileFaultTimeline(plan, Rng(7), 5, 0), ContractViolation);
  }
  {
    const FaultPlan plan = Parse("at 10 recover 2\n");  // never crashed
    EXPECT_THROW(CompileFaultTimeline(plan, Rng(7), 5, 0), ContractViolation);
  }
  {
    const FaultPlan plan = Parse("at 10 crash 0\n");  // the base station
    EXPECT_THROW(CompileFaultTimeline(plan, Rng(7), 5, 0), ContractViolation);
  }
  {
    const FaultPlan plan = Parse("at 10 crash 9\n");  // out of range
    EXPECT_THROW(CompileFaultTimeline(plan, Rng(7), 5, 0), ContractViolation);
  }
}

TEST(CompileTimelineTest, ReturnsScriptedEventsThatRaceAGenerator) {
  // At 2,000 crashes/s the generator takes all four SUs down within a few
  // ms, so the scripted crash at 30 ms finds node 3 already down.
  const FaultPlan plan = Parse("gen crash 2000 -1\nat 30 crash 3\n");
  std::vector<FaultEvent> timeline = {FaultEvent{}};
  EXPECT_EQ(CompileFaultTimeline(plan, Rng(7), 5, 0, timeline),
            "fault plan event 'at 30 ms crash 3': node 3 is already down (a "
            "generated crash took it)");
  EXPECT_THROW(CompileFaultTimeline(plan, Rng(7), 5, 0), ContractViolation);
  // A consistent plan fills the timeline and returns no error.
  EXPECT_EQ(CompileFaultTimeline(Parse("at 30 crash 3\n"), Rng(7), 5, 0, timeline), "");
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_EQ(timeline[0].node, 3);
}

TEST(CompileTimelineTest, GeneratorsAreDeterministicInSeed) {
  const FaultPlan plan = Parse(
      "gen crash 20 50\n"
      "gen sensing_burst 10 0.2 0.1 30\n"
      "option horizon_ms 1000\n");
  const auto first = CompileFaultTimeline(plan, Rng(42), 20, 0);
  const auto second = CompileFaultTimeline(plan, Rng(42), 20, 0);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_FALSE(first.empty()) << "rate 20/s over 1 s should produce arrivals";
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].time, second[i].time);
    EXPECT_EQ(first[i].kind, second[i].kind);
    EXPECT_EQ(first[i].node, second[i].node);
  }
  const auto other_seed = CompileFaultTimeline(plan, Rng(43), 20, 0);
  bool differs = other_seed.size() != first.size();
  for (std::size_t i = 0; !differs && i < first.size(); ++i) {
    differs = other_seed[i].time != first[i].time || other_seed[i].node != first[i].node;
  }
  EXPECT_TRUE(differs) << "different seeds should draw different timelines";
}

TEST(CompileTimelineTest, GeneratedCrashesRespectAlivenessAndSink) {
  FaultPlan plan;
  CrashGenerator gen;
  gen.rate_per_s = 100.0;  // far more arrivals than nodes
  gen.recover_after = -1;  // permanent: the live set only shrinks
  plan.crash_generators.push_back(gen);
  plan.horizon = 1 * sim::kSecond;
  const graph::NodeId n = 6;
  const auto timeline = CompileFaultTimeline(plan, Rng(3), n, 0);
  // At most n-1 crashes (sink excluded), each node at most once.
  EXPECT_LE(timeline.size(), static_cast<std::size_t>(n - 1));
  std::vector<int> crashed(n, 0);
  for (const FaultEvent& event : timeline) {
    ASSERT_EQ(event.kind, FaultKind::kCrash);
    EXPECT_NE(event.node, 0) << "the base station must never be a victim";
    EXPECT_EQ(crashed[event.node], 0) << "node " << event.node << " crashed twice";
    crashed[event.node] = 1;
  }
}

TEST(CompileTimelineTest, RecoveryPairsFollowTheirCrashes) {
  FaultPlan plan;
  CrashGenerator gen;
  gen.rate_per_s = 5.0;
  gen.recover_after = 100 * sim::kMillisecond;
  plan.crash_generators.push_back(gen);
  plan.horizon = 2 * sim::kSecond;
  const auto timeline = CompileFaultTimeline(plan, Rng(11), 8, 0);
  std::vector<sim::TimeNs> crash_time(8, -1);
  for (const FaultEvent& event : timeline) {
    if (event.kind == FaultKind::kCrash) {
      crash_time[event.node] = event.time;
    } else if (event.kind == FaultKind::kRecover) {
      ASSERT_GE(crash_time[event.node], 0);
      EXPECT_EQ(event.time, crash_time[event.node] + gen.recover_after);
      crash_time[event.node] = -1;
    }
  }
}

TEST(CompileTimelineTest, BurstsExpandToPairedStartEnd) {
  FaultPlan plan = Parse("gen sensing_burst 8 0.25 0.05 40\noption horizon_ms 1000\n");
  const auto timeline = CompileFaultTimeline(plan, Rng(5), 4, 0);
  ASSERT_FALSE(timeline.empty());
  std::int64_t depth = 0;
  for (const FaultEvent& event : timeline) {
    if (event.kind == FaultKind::kSensingBurstStart) {
      EXPECT_DOUBLE_EQ(event.false_alarm, 0.25);
      EXPECT_DOUBLE_EQ(event.missed_detection, 0.05);
      ++depth;
    } else if (event.kind == FaultKind::kSensingBurstEnd) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0) << "every burst start needs a matching end";
}

}  // namespace
}  // namespace crn::faults
