#include "mac/collection_mac.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/checkpoint.h"
#include "sim/simulator.h"

namespace crn::mac {
namespace {

using geom::Aabb;
using geom::Vec2;

// Test fixture assembling a CollectionMac over hand-placed nodes/PUs.
struct Harness {
  Harness(std::vector<Vec2> su_positions, std::vector<NodeId> next_hop,
          std::vector<Vec2> pu_positions, double pu_activity, MacConfig config,
          double side = 100.0, std::uint64_t seed = 99)
      : area(Aabb::Square(side)),
        primary(MakePrimary(std::move(pu_positions), pu_activity, config, area)),
        mac(simulator, primary, std::move(su_positions), area, /*sink=*/0,
            std::move(next_hop), config, Rng(seed)) {}

  static pu::PrimaryNetwork MakePrimary(std::vector<Vec2> pu_positions,
                                        double activity, const MacConfig& mac_config,
                                        Aabb area) {
    pu::PrimaryConfig config;
    config.count = static_cast<std::int32_t>(pu_positions.size());
    config.power = 10.0;
    config.radius = 10.0;
    config.activity = activity;
    config.slot = mac_config.slot;
    return pu::PrimaryNetwork(config, area, std::move(pu_positions));
  }

  Aabb area;
  sim::Simulator simulator;
  pu::PrimaryNetwork primary;
  CollectionMac mac;
};

MacConfig BasicConfig() {
  MacConfig config;
  config.pcr = 30.0;
  config.su_power = 10.0;
  config.eta_s = SirThreshold::FromDb(8.0);
  config.audit_stride = 0;
  config.max_sim_time = 60 * sim::kSecond;
  return config;
}

TEST(CollectionMacTest, SingleHopDeliversWithoutPus) {
  // One SU next to the sink, no PUs: delivery within a couple of slots.
  Harness h({{50, 50}, {55, 50}}, {0, 0}, {}, 0.0, BasicConfig());
  h.mac.StartSnapshotCollection();
  h.simulator.Run();
  EXPECT_TRUE(h.mac.finished());
  EXPECT_EQ(h.mac.stats().delivered, 1);
  EXPECT_EQ(h.mac.stats().outcomes[0], 1);  // one success, first try
  EXPECT_EQ(h.mac.stats().attempts, 1);
  EXPECT_LE(h.mac.stats().finish_time, 2 * sim::kMillisecond);
  EXPECT_GE(h.mac.delivery_time()[1], 0);
}

TEST(CollectionMacTest, ChainRelaysAllPackets) {
  // 0 <- 1 <- 2 <- 3: three packets, each relayed hop by hop.
  Harness h({{10, 50}, {18, 50}, {26, 50}, {34, 50}}, {0, 0, 1, 2}, {}, 0.0,
            BasicConfig());
  h.mac.StartSnapshotCollection();
  h.simulator.Run();
  EXPECT_TRUE(h.mac.finished());
  EXPECT_EQ(h.mac.stats().delivered, 3);
  // 3's packet travels 3 hops, 2's 2, 1's 1 = 6 successful transmissions.
  EXPECT_EQ(h.mac.stats().outcomes[0], 6);
  EXPECT_EQ(h.mac.stats().delivered_hops_total, 6);
}

TEST(CollectionMacTest, SelectedProducersOnly) {
  Harness h({{10, 50}, {18, 50}, {26, 50}, {34, 50}}, {0, 0, 1, 2}, {}, 0.0,
            BasicConfig());
  h.mac.StartCollection({3});
  h.simulator.Run();
  EXPECT_TRUE(h.mac.finished());
  EXPECT_EQ(h.mac.expected_packets(), 1);
  EXPECT_EQ(h.mac.stats().delivered, 1);
  EXPECT_LT(h.mac.delivery_time()[1], 0) << "node 1 produced nothing";
  EXPECT_GE(h.mac.delivery_time()[3], 0);
}

TEST(CollectionMacTest, NeighborsNeverTransmitConcurrently) {
  // Five SUs all within one PCR: carrier sensing must serialize them.
  std::vector<Vec2> sus{{50, 50}, {52, 50}, {54, 50}, {50, 52}, {52, 52}, {54, 52}};
  Harness h(sus, {0, 0, 0, 0, 0, 0}, {}, 0.0, BasicConfig());
  std::vector<std::pair<sim::TimeNs, sim::TimeNs>> intervals;
  h.mac.AddObserver([&](const MacEvent& event) {
    if (event.kind == MacEvent::Kind::kTxEnd) {
      intervals.emplace_back(event.start, event.end);
    }
  });
  h.mac.StartSnapshotCollection();
  h.simulator.Run();
  EXPECT_TRUE(h.mac.finished());
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    for (std::size_t j = i + 1; j < intervals.size(); ++j) {
      const bool overlap = intervals[i].first < intervals[j].second &&
                           intervals[j].first < intervals[i].second;
      ASSERT_FALSE(overlap) << "transmissions " << i << " and " << j << " overlap";
    }
  }
}

TEST(CollectionMacTest, BlockedByAlwaysActivePu) {
  // A PU with p_t = 1 sits inside the SU's PCR: no opportunity ever
  // appears and the run times out undelivered.
  MacConfig config = BasicConfig();
  config.max_sim_time = 50 * sim::kMillisecond;
  Harness h({{50, 50}, {55, 50}}, {0, 0}, {{60, 50}}, 1.0, config);
  h.mac.StartSnapshotCollection();
  h.simulator.Run();
  EXPECT_FALSE(h.mac.finished());
  EXPECT_TRUE(h.mac.stats().timed_out);
  EXPECT_EQ(h.mac.stats().delivered, 0);
  EXPECT_EQ(h.mac.stats().attempts, 0);
  EXPECT_EQ(h.mac.stats().slot_checks_free, 0);
}

TEST(CollectionMacTest, PuOutsidePcrDoesNotBlock) {
  MacConfig config = BasicConfig();
  // PU at distance 40 > PCR 30 from the transmitter: sensing ignores it.
  Harness h({{50, 50}, {55, 50}}, {0, 0}, {{95, 50}}, 1.0, config);
  h.mac.StartSnapshotCollection();
  h.simulator.Run();
  EXPECT_TRUE(h.mac.finished());
}

TEST(CollectionMacTest, SpectrumHandoffOnPuReturn) {
  // tx_duration spanning a whole slot guarantees every transmission crosses
  // a boundary; with p_t = 0.8 the PU comes back mid-flight with high
  // probability and the SU must abort (spectrum handoff) before eventually
  // finishing. Ten packets make at least one handoff overwhelmingly likely.
  MacConfig config = BasicConfig();
  config.tx_duration = config.slot;  // forces boundary crossing
  config.slot_aware_defer = false;
  config.max_sim_time = 120 * sim::kSecond;
  Harness h({{50, 50}, {55, 50}}, {0, 0}, {{60, 50}}, 0.8, config);
  h.mac.StartCollection(std::vector<NodeId>(10, 1));
  h.simulator.Run();
  EXPECT_TRUE(h.mac.finished());
  EXPECT_GT(h.mac.stats().outcomes[static_cast<int>(TxOutcome::kAbortedPuReturn)], 0)
      << "expected at least one spectrum handoff";
}

TEST(CollectionMacTest, SlotAwareDeferAvoidsAllHandoffs) {
  MacConfig config = BasicConfig();  // defer on, tx fits in slot
  config.max_sim_time = 30 * sim::kSecond;
  Harness h({{50, 50}, {55, 50}}, {0, 0}, {{60, 50}}, 0.5, config);
  h.mac.StartSnapshotCollection();
  h.simulator.Run();
  EXPECT_TRUE(h.mac.finished());
  EXPECT_EQ(h.mac.stats().outcomes[static_cast<int>(TxOutcome::kAbortedPuReturn)], 0);
}

TEST(CollectionMacTest, MeasuredOpportunityTracksPuActivity) {
  // Single contender with exactly one PU in range at p_t = 0.3: over many
  // packets, the free fraction it observes at slot boundaries while
  // contending should track 1 − p_t = 0.7 (Lemma 7 with one PU).
  MacConfig config = BasicConfig();
  config.max_sim_time = 60 * sim::kSecond;
  std::vector<Vec2> sus{{50, 50}, {55, 50}};
  Harness h(sus, {0, 0}, {{60, 50}}, 0.3, config);
  h.mac.StartCollection(std::vector<NodeId>(400, 1));
  h.simulator.Run();
  EXPECT_TRUE(h.mac.finished());
  const auto& stats = h.mac.stats();
  ASSERT_GT(stats.slot_checks_total, 50);
  EXPECT_NEAR(stats.measured_spectrum_opportunity(), 0.7, 0.15);
}

TEST(CollectionMacTest, DeterministicAcrossRuns) {
  auto run = [] {
    MacConfig config = BasicConfig();
    std::vector<Vec2> sus;
    std::vector<NodeId> next_hop;
    for (int i = 0; i < 12; ++i) {
      sus.push_back({10.0 + 7.0 * i, 50.0});
      next_hop.push_back(i == 0 ? 0 : i - 1);
    }
    Harness h(sus, next_hop, {{30, 55}, {70, 45}}, 0.3, config);
    h.mac.StartSnapshotCollection();
    h.simulator.Run();
    return std::make_tuple(h.mac.stats().finish_time, h.mac.stats().attempts,
                           h.mac.stats().outcomes[0]);
  };
  EXPECT_EQ(run(), run());
}

TEST(CollectionMacTest, RejectsBrokenNextHopTables) {
  const std::vector<Vec2> sus{{50, 50}, {55, 50}, {60, 50}};
  // Self-loop.
  EXPECT_THROW(Harness({{50, 50}, {55, 50}}, {0, 1}, {}, 0.0, BasicConfig()),
               ContractViolation);
  // Cycle 1 <-> 2.
  EXPECT_THROW(Harness(sus, {0, 2, 1}, {}, 0.0, BasicConfig()), ContractViolation);
}

std::string RouteRejection(const std::vector<NodeId>& next_hop) {
  try {
    (void)RouteDepths(next_hop, /*sink=*/0);
  } catch (const ContractViolation& violation) {
    return violation.what();
  }
  ADD_FAILURE() << "RouteDepths accepted a broken table";
  return {};
}

TEST(RouteDepthsTest, CountsHopsToTheSink) {
  // 0 <- 1 <- 3 <- 4, 0 <- 2 <- 5; the sink's own entry is never read.
  EXPECT_EQ(RouteDepths({-1, 0, 0, 1, 3, 2}, 0),
            (std::vector<std::int32_t>{0, 1, 1, 2, 3, 2}));
  // Walks that start deep and meet already-walked nodes.
  EXPECT_EQ(RouteDepths({0, 2, 3, 0, 1}, 0),
            (std::vector<std::int32_t>{0, 3, 2, 1, 4}));
}

TEST(RouteDepthsTest, NamesTheBrokenEntry) {
  auto contains = [](const std::string& text, const std::string& part) {
    return text.find(part) != std::string::npos;
  };
  // The first node (in index order) whose route fails is reported.
  EXPECT_TRUE(contains(RouteRejection({0, 1}), "bad next hop 1 at node 1"));
  EXPECT_TRUE(contains(RouteRejection({0, 0, 7, 2}), "bad next hop 7 at node 2"));
  EXPECT_TRUE(contains(RouteRejection({0, -1}), "bad next hop -1 at node 1"));
  // 1 leads into the cycle 2 <-> 3 without being on it.
  EXPECT_TRUE(contains(RouteRejection({0, 2, 3, 2}), "next-hop cycle involving node 1"));
  EXPECT_TRUE(contains(RouteRejection({0, 0, 3, 2}), "next-hop cycle involving node 2"));
}

TEST(CollectionMacTest, ExposesTheConstructionRouteDepths) {
  Harness h({{10, 50}, {18, 50}, {26, 50}, {34, 50}}, {0, 0, 1, 2}, {}, 0.0,
            BasicConfig());
  EXPECT_EQ(h.mac.route_depths(), (std::vector<std::int32_t>{0, 1, 2, 3}));
}

// A MAC checkpointed while packets wait in its relays' queues restores to
// the same state: the restored run re-saves the same bytes and finishes
// with the same statistics as the uninterrupted one.
TEST(CollectionMacCheckpointTest, RoundTripsNonEmptyQueues) {
  const std::vector<Vec2> sus{{10, 50}, {18, 50}, {26, 50}, {34, 50}, {42, 50}};
  const std::vector<NodeId> next_hop{0, 0, 1, 2, 3};
  const std::vector<Vec2> pus{{30, 60}, {60, 40}};
  const MacConfig config = BasicConfig();
  std::vector<NodeId> producers;
  for (int k = 0; k < 6; ++k) {
    for (NodeId v = 1; v < 5; ++v) producers.push_back(v);
  }
  const auto save = [](const sim::Simulator& simulator, const pu::PrimaryNetwork& primary,
                       const CollectionMac& mac) {
    sim::StateWriter writer;
    simulator.SaveState(writer);
    primary.SaveState(writer);
    mac.SaveState(writer);
    return writer.Finish();
  };

  Harness original(sus, next_hop, pus, 0.3, config);
  original.mac.KeepSirFloors();  // the run is saved mid-flight
  original.mac.StartCollection(producers);
  ASSERT_EQ(original.simulator.RunUntilEvents(60), sim::RunStatus::kPaused);
  const MacStats& at_pause = original.mac.stats();
  ASSERT_GE(at_pause.packets_seeded - at_pause.delivered - at_pause.packets_lost, 12)
      << "the checkpoint should hold queued packets";
  const std::string blob = save(original.simulator, original.primary, original.mac);

  sim::StateReader reader(blob);
  sim::Simulator simulator;
  simulator.LoadRegistry(reader);
  simulator.BeginRestore(reader);
  const Aabb area = Aabb::Square(100.0);
  pu::PrimaryNetwork primary = Harness::MakePrimary(pus, 0.3, config, area);
  CollectionMac restored(simulator, primary, sus, area, /*sink=*/0, next_hop, config,
                         Rng(99));
  primary.LoadState(reader);
  restored.LoadState(reader);
  ASSERT_TRUE(reader.ok()) << reader.error();
  simulator.FinishRestore();
  EXPECT_EQ(save(simulator, primary, restored), blob);

  original.simulator.Run();
  simulator.Run();
  ASSERT_TRUE(original.mac.finished());
  ASSERT_TRUE(restored.finished());
  EXPECT_EQ(restored.stats().delivered, original.mac.stats().delivered);
  EXPECT_EQ(restored.stats().delivered, 24);
  EXPECT_EQ(restored.stats().attempts, original.mac.stats().attempts);
  EXPECT_EQ(restored.stats().finish_time, original.mac.stats().finish_time);
  EXPECT_EQ(restored.stats().delivered_hops_total,
            original.mac.stats().delivered_hops_total);
  EXPECT_EQ(restored.delivery_time(), original.mac.delivery_time());
}

// Watches a MAC's contenders through its event feed and checks, at every
// slot boundary with exact sensing, the slot-check counts the previous
// boundary booked (one per contender, free when no PU in its PCR was
// active) and that every contender whose PCR held an active PU stayed
// frozen. The MAC skips its per-contender re-sense at boundaries where its
// sensing summary says no flag can change; in Debug builds a CRN_DCHECK in
// that branch also re-senses every contender.
struct SenseLedger {
  struct Boundary {
    bool valid = false;  // exact sensing since this boundary
    std::int64_t total_before = 0;
    std::int64_t free_before = 0;
    std::int64_t contenders = 0;
    std::int64_t expected_free = 0;
    std::vector<NodeId> pu_busy;
  };

  // A copy attached to a restored MAC carries the original's state over.
  void Attach(CollectionMac& observed) {
    mac = &observed;
    if (contending.empty()) {
      contending.assign(static_cast<std::size_t>(observed.node_count()), 0);
      frozen.assign(static_cast<std::size_t>(observed.node_count()), 1);
    }
    observed.AddObserver([this](const MacEvent& event) { Observe(event); });
  }
  [[nodiscard]] bool Exact() const {
    return mac->config().sensing_false_alarm == 0.0 &&
           mac->config().sensing_missed_detection == 0.0;
  }
  // Sensing errors from now on: the current slot's flags may differ from
  // the ground truth.
  void NoteSensingErrors() { last.valid = false; }

  void Observe(const MacEvent& event) {
    const NodeId v = event.node;
    switch (event.kind) {
      case MacEvent::Kind::kContentionStarted:
        contending[v] = 1;
        frozen[v] = 1;
        if (mac->ComputePuBusy(v)) last.pu_busy.push_back(v);
        if (!Exact()) last.valid = false;
        break;
      case MacEvent::Kind::kFrozen:
        frozen[v] = 1;
        break;
      case MacEvent::Kind::kResumed:
      case MacEvent::Kind::kDeferred:
        frozen[v] = 0;
        break;
      case MacEvent::Kind::kTxStart:
        contending[v] = 0;
        break;
      case MacEvent::Kind::kSlotBoundary:
        CheckLastSlot(event.time);
        StartSlot();
        break;
      default:
        break;
    }
  }

  void CheckLastSlot(sim::TimeNs now) {
    if (!last.valid) return;
    ++checked_slots;
    const MacStats& stats = mac->stats();
    EXPECT_EQ(stats.slot_checks_total - last.total_before, last.contenders)
        << "the slot before " << now << " ns";
    EXPECT_EQ(stats.slot_checks_free - last.free_before, last.expected_free)
        << "the slot before " << now << " ns";
    for (const NodeId v : last.pu_busy) {
      EXPECT_TRUE(contending[v] == 0 || frozen[v] != 0)
          << "node " << v << " in the slot before " << now << " ns";
    }
  }

  void StartSlot() {
    last = Boundary{};
    last.valid = Exact();
    last.total_before = mac->stats().slot_checks_total;
    last.free_before = mac->stats().slot_checks_free;
    for (NodeId v = 0; v < mac->node_count(); ++v) {
      if (contending[v] == 0) continue;
      ++last.contenders;
      if (mac->ComputePuBusy(v)) {
        last.pu_busy.push_back(v);
      } else {
        ++last.expected_free;
      }
    }
  }

  // The node leaves the sensing set without an event of its own.
  void NoteFailed(NodeId v) { contending[v] = 0; }

  CollectionMac* mac = nullptr;
  std::vector<std::uint8_t> contending;  // by node
  std::vector<std::uint8_t> frozen;
  Boundary last;
  std::int64_t checked_slots = 0;
};

TEST(CollectionMacTest, SenseSummaryFollowsEveryInvalidationInsideOneWindow) {
  // A 12-node chain under four PUs at p_t = 0.9: busy flags flip, but
  // rarely enough that most boundaries take the summary's skip. The window
  // of slots 64..127 sees a leave (a PU-busy contender fails), joins,
  // sensing errors switched on and off, a PU-activity override and, from
  // 95.5 ms on, a restored copy of the run.
  MacConfig config = BasicConfig();
  std::vector<Vec2> sus;
  std::vector<NodeId> next_hop;
  for (int i = 0; i < 12; ++i) {
    sus.push_back({10.0 + 7.0 * i, 50.0});
    next_hop.push_back(i == 0 ? 0 : i - 1);
  }
  const std::vector<Vec2> pus{{25, 75}, {50, 28}, {75, 72}, {90, 30}};
  std::vector<NodeId> producers;
  for (int k = 0; k < 20; ++k) {
    for (NodeId v = 1; v < 12; ++v) producers.push_back(v);
  }
  Harness h(sus, next_hop, pus, 0.9, config);
  SenseLedger ledger;
  ledger.Attach(h.mac);
  h.mac.StartCollection(producers);
  h.simulator.RunUntil(sim::FromMilliseconds(66.5));
  NodeId failed = graph::kInvalidNode;
  for (NodeId v = 1; v < 12 && failed == graph::kInvalidNode; ++v) {
    if (ledger.contending[v] != 0 && h.mac.ComputePuBusy(v)) failed = v;
  }
  ASSERT_NE(failed, graph::kInvalidNode) << "no PU-busy contender at 66.5 ms";
  h.mac.FailNode(failed);
  ledger.NoteFailed(failed);
  h.simulator.RunUntil(sim::FromMilliseconds(70.5));
  h.mac.RecoverNode(failed);

  h.simulator.RunUntil(sim::FromMilliseconds(75.5));
  h.mac.SetSensingErrorRates(0.3, 0.3);
  ledger.NoteSensingErrors();
  h.simulator.RunUntil(sim::FromMilliseconds(80.5));
  h.mac.SetSensingErrorRates(0.0, 0.0);

  h.simulator.RunUntil(sim::FromMilliseconds(85.5));
  h.primary.OverrideActivity(0.3);
  h.simulator.RunUntil(sim::FromMilliseconds(90.5));
  h.primary.OverrideActivity(0.9);
  h.simulator.RunUntil(sim::FromMilliseconds(95.5));

  sim::StateWriter writer;
  h.simulator.SaveState(writer);
  h.primary.SaveState(writer);
  h.mac.SaveState(writer);
  const std::string blob = writer.Finish();
  sim::StateReader reader(blob);
  sim::Simulator simulator;
  simulator.LoadRegistry(reader);
  simulator.BeginRestore(reader);
  const Aabb area = Aabb::Square(100.0);
  pu::PrimaryNetwork primary = Harness::MakePrimary(pus, 0.9, config, area);
  CollectionMac restored(simulator, primary, sus, area, /*sink=*/0, next_hop, config,
                         Rng(99));
  primary.LoadState(reader);
  restored.LoadState(reader);
  ASSERT_TRUE(reader.ok()) << reader.error();
  simulator.FinishRestore();
  SenseLedger restored_ledger = ledger;
  restored_ledger.Attach(restored);

  h.simulator.RunUntil(sim::FromMilliseconds(300.5));
  simulator.RunUntil(sim::FromMilliseconds(300.5));
  EXPECT_GT(ledger.checked_slots, 250);
  EXPECT_EQ(restored_ledger.checked_slots, ledger.checked_slots);
  EXPECT_EQ(restored.stats().slot_checks_total, h.mac.stats().slot_checks_total);
  EXPECT_EQ(restored.stats().slot_checks_free, h.mac.stats().slot_checks_free);
  EXPECT_EQ(restored.stats().attempts, h.mac.stats().attempts);
  EXPECT_EQ(restored.stats().delivered, h.mac.stats().delivered);
  EXPECT_GT(h.mac.stats().slot_checks_free, 0);
  EXPECT_LT(h.mac.stats().slot_checks_free, h.mac.stats().slot_checks_total);
}

// Every MacEvent field the word scan could move, in emission order, plus
// the slot checks booked so far at each slot boundary.
struct EventLog {
  void Attach(CollectionMac& mac) {
    mac.AddObserver([this, &mac](const MacEvent& event) {
      entries.push_back({event.time, static_cast<std::int64_t>(event.kind), event.node,
                         event.value});
      if (event.kind == MacEvent::Kind::kSlotBoundary) {
        entries.push_back({mac.stats().slot_checks_total, mac.stats().slot_checks_free, -1, 0});
      }
    });
  }
  std::vector<std::tuple<std::int64_t, std::int64_t, NodeId, std::int64_t>> entries;
};

std::string MacBlob(const CollectionMac& mac) {
  sim::StateWriter writer;
  mac.SaveState(writer);
  return writer.Finish();
}

// The word scan against the re-sense loop at every boundary: two MACs on
// one scenario, the second with the scan disabled, emit the same freezes,
// resumes and every other event at the same instants, book the same slot
// checks at every boundary, and save the same flags. A 30-node network
// under 24 PUs at p_t = 0.3 for 600 slots, with a leave and a rejoin, a
// PU-activity override, and a restore from a checkpoint taken mid-window.
TEST(CollectionMacTest, WordScanMatchesTheResenseLoopAtEveryBoundary) {
  MacConfig config = BasicConfig();
  config.pcr = 25.0;
  std::vector<Vec2> sus;
  std::vector<NodeId> next_hop;
  Rng layout(7);
  sus.push_back({50.0, 50.0});
  next_hop.push_back(0);
  for (NodeId v = 1; v < 30; ++v) {
    sus.push_back({layout.UniformDouble(0.0, 100.0), layout.UniformDouble(0.0, 100.0)});
    next_hop.push_back(v < 6 ? 0 : static_cast<NodeId>(1 + layout.UniformInt(std::uint64_t{5})));
  }
  std::vector<Vec2> pus;
  for (int p = 0; p < 24; ++p) {
    pus.push_back({layout.UniformDouble(0.0, 100.0), layout.UniformDouble(0.0, 100.0)});
  }
  std::vector<NodeId> producers;
  for (int k = 0; k < 40; ++k) {
    for (NodeId v = 1; v < 30; ++v) producers.push_back(v);
  }
  Harness scan(sus, next_hop, pus, 0.3, config);
  Harness loop(sus, next_hop, pus, 0.3, config);
  loop.mac.DisableWordScanForTesting();
  EventLog scan_log;
  EventLog loop_log;
  scan_log.Attach(scan.mac);
  loop_log.Attach(loop.mac);
  scan.mac.StartCollection(producers);
  loop.mac.StartCollection(producers);
  const auto run_both = [&](double ms) {
    scan.simulator.RunUntil(sim::FromMilliseconds(ms));
    loop.simulator.RunUntil(sim::FromMilliseconds(ms));
    ASSERT_EQ(scan_log.entries, loop_log.entries) << "by " << ms << " ms";
    ASSERT_EQ(MacBlob(scan.mac), MacBlob(loop.mac)) << "at " << ms << " ms";
  };
  run_both(40.5);
  NodeId leaver = graph::kInvalidNode;
  for (NodeId v = 29; v > 0 && leaver == graph::kInvalidNode; --v) {
    if (!scan.mac.IsFailed(v) && next_hop[v] != v && v >= 6) leaver = v;
  }
  scan.mac.FailNode(leaver);
  loop.mac.FailNode(leaver);
  run_both(70.5);
  scan.mac.RecoverNode(leaver);
  loop.mac.RecoverNode(leaver);
  run_both(85.5);
  scan.primary.OverrideActivity(0.6);
  loop.primary.OverrideActivity(0.6);
  run_both(90.5);
  scan.primary.OverrideActivity(0.3);
  loop.primary.OverrideActivity(0.3);
  run_both(95.5);  // window slots 64..127: mid-window

  // Restored copies of both, each from its own blob.
  struct Restored {
    explicit Restored(const std::string& blob, const std::vector<Vec2>& sus,
                      const std::vector<NodeId>& next_hop, const std::vector<Vec2>& pus,
                      const MacConfig& config)
        : primary(Harness::MakePrimary(pus, 0.3, config, Aabb::Square(100.0))) {
      sim::StateReader reader(blob);
      simulator.LoadRegistry(reader);
      simulator.BeginRestore(reader);
      mac.emplace(simulator, primary, sus, Aabb::Square(100.0), /*sink=*/0, next_hop, config,
                  Rng(99));
      primary.LoadState(reader);
      mac->LoadState(reader);
      EXPECT_TRUE(reader.ok()) << reader.error();
      simulator.FinishRestore();
    }
    sim::Simulator simulator;
    pu::PrimaryNetwork primary;
    std::optional<CollectionMac> mac;
  };
  const auto save = [](Harness& h) {
    sim::StateWriter writer;
    h.simulator.SaveState(writer);
    h.primary.SaveState(writer);
    h.mac.SaveState(writer);
    return writer.Finish();
  };
  const std::string blob = save(scan);
  ASSERT_EQ(blob, save(loop));
  Restored restored_scan(blob, sus, next_hop, pus, config);
  Restored restored_loop(blob, sus, next_hop, pus, config);
  restored_loop.mac->DisableWordScanForTesting();
  EventLog restored_scan_log;
  EventLog restored_loop_log;
  restored_scan_log.Attach(*restored_scan.mac);
  restored_loop_log.Attach(*restored_loop.mac);
  run_both(600.5);
  restored_scan.simulator.RunUntil(sim::FromMilliseconds(600.5));
  restored_loop.simulator.RunUntil(sim::FromMilliseconds(600.5));
  EXPECT_EQ(restored_scan_log.entries, restored_loop_log.entries);
  EXPECT_EQ(MacBlob(*restored_scan.mac), MacBlob(*restored_loop.mac));
  EXPECT_EQ(MacBlob(*restored_scan.mac), MacBlob(scan.mac));
  const MacStats& stats = scan.mac.stats();
  EXPECT_EQ(stats.slot_checks_total, loop.mac.stats().slot_checks_total);
  EXPECT_EQ(stats.slot_checks_free, loop.mac.stats().slot_checks_free);
  EXPECT_EQ(restored_scan.mac->stats().slot_checks_free, stats.slot_checks_free);
  // Contention through most of the run, with busy and free checks.
  EXPECT_GT(stats.slot_checks_total, 3000);
  EXPECT_GT(stats.slot_checks_free, 0);
  EXPECT_LT(stats.slot_checks_free, stats.slot_checks_total);
}

// Every MacConfig field is validated at construction with a message naming
// the offending field and value, so a bad sweep axis fails at the source
// instead of corrupting a run. One test per rejected parameter.
std::string RejectionMessage(const MacConfig& config) {
  try {
    Harness h({{50, 50}, {55, 50}}, {0, 0}, {}, 0.0, config);
  } catch (const ContractViolation& violation) {
    return violation.what();
  }
  ADD_FAILURE() << "constructor accepted an invalid MacConfig";
  return {};
}

TEST(MacConfigValidationTest, RejectsUnsetPcr) {
  MacConfig config = BasicConfig();
  config.pcr = 0.0;
  EXPECT_NE(RejectionMessage(config).find("pcr="), std::string::npos);
}

TEST(MacConfigValidationTest, RejectsNonPositiveSuPower) {
  MacConfig config = BasicConfig();
  config.su_power = -1.0;
  EXPECT_NE(RejectionMessage(config).find("su_power="), std::string::npos);
}

TEST(MacConfigValidationTest, RejectsNonPositiveAlpha) {
  MacConfig config = BasicConfig();
  config.alpha = 0.0;
  EXPECT_NE(RejectionMessage(config).find("alpha="), std::string::npos);
}

TEST(MacConfigValidationTest, RejectsNonPositiveSlot) {
  MacConfig config = BasicConfig();
  config.slot = 0;
  EXPECT_NE(RejectionMessage(config).find("slot="), std::string::npos);
}

TEST(MacConfigValidationTest, RejectsContentionWindowOutsideSlot) {
  MacConfig config = BasicConfig();
  config.contention_window = 0;
  EXPECT_NE(RejectionMessage(config).find("contention_window="), std::string::npos);
  config = BasicConfig();
  config.contention_window = config.slot + 1;
  EXPECT_NE(RejectionMessage(config).find("contention_window="), std::string::npos);
}

TEST(MacConfigValidationTest, RejectsNonPositiveTxDuration) {
  MacConfig config = BasicConfig();
  config.tx_duration = 0;
  EXPECT_NE(RejectionMessage(config).find("tx_duration="), std::string::npos);
}

TEST(MacConfigValidationTest, RejectsFalseAlarmOutsideUnitInterval) {
  MacConfig config = BasicConfig();
  config.sensing_false_alarm = 1.5;
  EXPECT_NE(RejectionMessage(config).find("sensing_false_alarm="),
            std::string::npos);
}

TEST(MacConfigValidationTest, RejectsMissedDetectionOutsideUnitInterval) {
  MacConfig config = BasicConfig();
  config.sensing_missed_detection = -0.2;
  EXPECT_NE(RejectionMessage(config).find("sensing_missed_detection="),
            std::string::npos);
}

TEST(MacConfigValidationTest, RejectsNegativeSensingLatency) {
  MacConfig config = BasicConfig();
  config.sensing_latency = -1;
  EXPECT_NE(RejectionMessage(config).find("sensing_latency="), std::string::npos);
}

TEST(MacConfigValidationTest, RejectsNegativeBackoffGranularity) {
  MacConfig config = BasicConfig();
  config.backoff_granularity = -5;
  EXPECT_NE(RejectionMessage(config).find("backoff_granularity="),
            std::string::npos);
}

TEST(MacConfigValidationTest, RejectsNegativeDeadHopRetxBudget) {
  MacConfig config = BasicConfig();
  config.dead_hop_retx_budget = -1;
  EXPECT_NE(RejectionMessage(config).find("dead_hop_retx_budget="),
            std::string::npos);
}

TEST(CollectionMacTest, SinkDoesNotProduce) {
  Harness h({{50, 50}, {55, 50}}, {0, 0}, {}, 0.0, BasicConfig());
  EXPECT_THROW(h.mac.StartCollection({0}), ContractViolation);
}

TEST(CollectionMacTest, PacketHopCountsAccumulate) {
  Harness h({{10, 50}, {18, 50}, {26, 50}, {34, 50}}, {0, 0, 1, 2}, {}, 0.0,
            BasicConfig());
  std::vector<std::int32_t> delivered_hops;
  h.mac.AddObserver([&](const MacEvent& event) {
    if (event.kind == MacEvent::Kind::kTxEnd &&
        event.outcome == TxOutcome::kSuccess && event.peer == 0) {
      delivered_hops.push_back(event.packet.hops);
    }
  });
  h.mac.StartSnapshotCollection();
  h.simulator.Run();
  // Hop counts recorded at the last hop: origin 1 arrives with 0 prior
  // hops, origin 2 with 1, origin 3 with 2 (incremented after delivery).
  std::sort(delivered_hops.begin(), delivered_hops.end());
  EXPECT_EQ(delivered_hops, (std::vector<std::int32_t>{0, 1, 2}));
}

TEST(CollectionMacTest, FarApartCellsTransmitConcurrently) {
  // Two independent pairs far beyond the PCR: spatial reuse must allow
  // overlapping transmissions.
  std::vector<Vec2> sus{{10, 10}, {15, 10}, {90, 90}, {85, 90}};
  MacConfig config = BasicConfig();
  config.pcr = 20.0;
  Harness h(sus, {0, 0, 0, 2}, {}, 0.0, config);
  // Route: node 1 -> sink, node 3 -> node 2 -> sink. Node 3 and node 1 are
  // ~113 apart: they can air simultaneously.
  bool overlap_seen = false;
  std::vector<std::pair<sim::TimeNs, sim::TimeNs>> open;
  h.mac.AddObserver([&](const MacEvent& event) {
    if (event.kind != MacEvent::Kind::kTxEnd) return;
    for (const auto& other : open) {
      if (event.start < other.second && other.first < event.end) overlap_seen = true;
    }
    open.emplace_back(event.start, event.end);
  });
  h.mac.StartSnapshotCollection();
  h.simulator.Run();
  EXPECT_TRUE(h.mac.finished());
  EXPECT_TRUE(overlap_seen) << "no spatial reuse observed";
}

}  // namespace
}  // namespace crn::mac
