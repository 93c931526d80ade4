// Tests for Algorithm 1's fairness rule (line 12) via Theorem 1's property
// 𝔓, exactly as stated in the paper: once a competing SU s_i sets its
// backoff timer, a neighbor s_j inside its PCR transmits at most two
// packets before s_i transmits one.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "mac/collection_mac.h"
#include "sim/simulator.h"

namespace crn::mac {
namespace {

using geom::Aabb;
using geom::Vec2;

struct Trace {
  struct Success {
    NodeId node;
    sim::TimeNs start;
  };
  std::vector<Success> successes;
  // Per node: times at which a fresh backoff timer was set.
  std::vector<std::vector<sim::TimeNs>> contention_starts;
  bool finished = false;
};

// Two SUs beside the sink, each holding `packets` packets, competing for a
// single spectrum cell — the setting of Theorem 1's proof (a stand-alone
// secondary network, no PUs).
Trace RunHeadToHead(bool fairness_wait, std::int32_t packets, std::uint64_t seed) {
  const Aabb area = Aabb::Square(300.0);
  const std::vector<Vec2> positions{{150, 150}, {155, 150}, {150, 155}};
  const std::vector<NodeId> next_hop{0, 0, 0};

  MacConfig config;
  config.pcr = 40.0;
  config.audit_stride = 0;
  config.fairness_wait = fairness_wait;
  config.max_sim_time = 600 * sim::kSecond;

  pu::PrimaryConfig pu_config;
  pu_config.count = 0;  // stand-alone secondary network
  pu_config.activity = 0.0;
  pu_config.slot = config.slot;

  sim::Simulator simulator;
  pu::PrimaryNetwork primary(pu_config, area, std::vector<Vec2>{});
  CollectionMac mac(simulator, primary, positions, area, 0, next_hop, config,
                    Rng(seed));

  Trace trace;
  trace.contention_starts.resize(positions.size());
  mac.AddObserver([&](const MacEvent& event) {
    switch (event.kind) {
      case MacEvent::Kind::kTxEnd:
        if (event.outcome == TxOutcome::kSuccess) {
          trace.successes.push_back({event.node, event.start});
        }
        break;
      case MacEvent::Kind::kContentionStarted:
        trace.contention_starts[event.node].push_back(event.time);
        break;
      default:
        break;
    }
  });
  std::vector<NodeId> producers;
  for (std::int32_t i = 0; i < packets; ++i) {
    producers.push_back(1);
    producers.push_back(2);
  }
  mac.StartCollection(producers);
  simulator.Run();
  trace.finished = mac.finished();
  return trace;
}

// Property 𝔓: for every contention window of `victim` (from setting its
// timer to its next successful transmission), the `rival` transmits at most
// two packets inside that window. Returns the worst count observed.
std::int32_t WorstRivalWins(const Trace& trace, NodeId victim, NodeId rival) {
  std::int32_t worst = 0;
  for (sim::TimeNs timer_set : trace.contention_starts[victim]) {
    // Victim's next success at or after timer_set.
    sim::TimeNs victim_next = -1;
    for (const auto& s : trace.successes) {
      if (s.node == victim && s.start >= timer_set) {
        victim_next = s.start;
        break;
      }
    }
    if (victim_next < 0) continue;  // drained; no competition window
    std::int32_t rival_wins = 0;
    for (const auto& s : trace.successes) {
      if (s.node == rival && s.start >= timer_set && s.start < victim_next) {
        ++rival_wins;
      }
    }
    worst = std::max(worst, rival_wins);
  }
  return worst;
}

class FairnessPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FairnessPropertyTest, Theorem1AtMostTwoRivalPackets) {
  const Trace trace = RunHeadToHead(/*fairness_wait=*/true, /*packets=*/40,
                                    GetParam());
  ASSERT_TRUE(trace.finished);
  ASSERT_EQ(trace.successes.size(), 80u);
  EXPECT_LE(WorstRivalWins(trace, 1, 2), 2) << "𝔓 violated against node 1";
  EXPECT_LE(WorstRivalWins(trace, 2, 1), 2) << "𝔓 violated against node 2";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairnessPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(FairnessTest, BothCompetitorsFinish) {
  for (bool fairness : {true, false}) {
    const Trace trace = RunHeadToHead(fairness, 5, 42);
    EXPECT_TRUE(trace.finished) << "fairness=" << fairness;
  }
}

TEST(FairnessTest, GlobalLeadStaysSmall) {
  // A coarser corollary of 𝔓: across the whole balanced phase the success
  // counts never diverge by more than 𝔓's two packets plus one in-flight
  // window on each side.
  const Trace trace = RunHeadToHead(true, 50, 7);
  ASSERT_TRUE(trace.finished);
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t worst = 0;
  for (const auto& s : trace.successes) {
    (s.node == 1 ? a : b) += 1;
    if (a < 50 && b < 50) worst = std::max(worst, std::abs(a - b));
  }
  EXPECT_LE(worst, 4);
}

TEST(FairnessTest, CompetitorsFinishWithinOneWindowOfEachOther) {
  const Trace trace = RunHeadToHead(true, 30, 13);
  ASSERT_TRUE(trace.finished);
  // The last success of each node should be close in sequence: neither
  // node drains long before the other under the fairness rule.
  std::int32_t last_a = -1;
  std::int32_t last_b = -1;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(trace.successes.size()); ++i) {
    (trace.successes[i].node == 1 ? last_a : last_b) = i;
  }
  EXPECT_LE(std::abs(last_a - last_b), 6);
}

}  // namespace
}  // namespace crn::mac
