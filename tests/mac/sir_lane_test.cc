// Lane SIR mode against exact mode (DESIGN.md §10, "Deciding SU receptions
// from a lane sum"). A run with no MAC observer and no checkpoint decides
// each reception from a lane sum's proven window; a run with an observer
// keeps today's in-order floors. The two must give the same run: every
// outcome, delay and scheduler event, at every lane width the host can run.
// Near η_s the window cannot decide, and the in-order fallback must, so
// the decision tests below build receivers within a few ulps of η_s.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/simd_width.h"
#include "core/collection.h"
#include "core/scenario.h"
#include "faults/fault_plan.h"
#include "geom/vec2.h"
#include "mac/collection_mac.h"
#include "obs/span_tracer.h"
#include "pu/primary_network.h"
#include "routing/coolest.h"
#include "sim/checkpoint.h"
#include "sim/flight_recorder.h"
#include "sim/simulator.h"
#include "spectrum/interference.h"

namespace crn {
namespace {

// Lifts the width cap when a test ends, whatever its outcome.
struct WidthCap {
  explicit WidthCap(int width) { simd::internal::SetWidthCapForTesting(width); }
  ~WidthCap() { simd::internal::SetWidthCapForTesting(0); }
  WidthCap(const WidthCap&) = delete;
  WidthCap& operator=(const WidthCap&) = delete;
};

// --- lane mode against exact mode, end to end ------------------------------

struct Case {
  const char* name;
  core::ScenarioConfig config;
  core::RunOptions options;
  bool coolest = false;
  const char* plan = nullptr;  // fault-plan text
};

struct RunRecord {
  core::CollectionResult result;
  std::uint64_t events = 0;
  std::string trail;  // the last scheduler events, decoded
};

// One run of `c`: bare, so the MAC decides in lanes, or with the span
// tracer (a read-only MacEvent observer) attached, so it stays exact. Both
// carry a flight recorder, which is not a MAC observer, to count events.
RunRecord RunCase(const Case& c, bool observed) {
  const core::Scenario scenario(c.config, 0);
  faults::FaultPlan plan;
  core::RunOptions options = c.options;
  if (c.plan != nullptr) {
    std::string error;
    CRN_CHECK(faults::ParsePlanText(c.plan, plan, error)) << error;
    options.faults = &plan;
  }
  obs::PacketSpanTracer spans;
  if (observed) options.spans = &spans;
  sim::FlightRecorder recorder;
  options.flight_recorder = &recorder;
  RunRecord run;
  if (c.coolest) {
    options.sensing_range = core::CoolestSensingRange(c.config);
    options.backoff_granularity = c.config.baseline_backoff_granularity;
    options.sensing_latency = c.config.baseline_sensing_latency;
    options.slot_aware_defer = false;
    run.result = core::RunWithNextHops(
        scenario,
        routing::CoolestNextHops(scenario.secondary_graph(),
                                 core::CoolestTemperatures(scenario), scenario.sink(),
                                 routing::TemperatureMetric::kAccumulated),
        "Coolest/accumulated", options);
  } else {
    run.result = core::RunAddc(scenario, options);
  }
  run.events = recorder.total_recorded();
  run.trail = recorder.FormatTrail(64);
  return run;
}

void ExpectSameRun(const RunRecord& lanes, const RunRecord& exact) {
  const mac::MacStats& a = lanes.result.mac;
  const mac::MacStats& b = exact.result.mac;
  EXPECT_EQ(a.attempts, b.attempts);
  for (std::size_t k = 0; k < a.outcomes.size(); ++k) {
    EXPECT_EQ(a.outcomes[k], b.outcomes[k])
        << mac::ToString(static_cast<mac::TxOutcome>(k));
  }
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.slot_checks_total, b.slot_checks_total);
  EXPECT_EQ(a.slot_checks_free, b.slot_checks_free);
  EXPECT_EQ(a.packets_seeded, b.packets_seeded);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.delivered_hops_total, b.delivered_hops_total);
  EXPECT_EQ(lanes.result.delay_ms, exact.result.delay_ms);
  EXPECT_EQ(lanes.result.snapshot_delay_ms, exact.result.snapshot_delay_ms);
  EXPECT_EQ(lanes.events, exact.events);
  EXPECT_EQ(lanes.trail, exact.trail);
}

// The PuSensingPinTest grid's scenario for a cell (seed 41, scaled
// defaults), with its own population, duty cycle and horizon.
core::ScenarioConfig PinConfig(std::int32_t sus, std::int32_t pus, double side,
                               double activity, pu::ActivityProcess process,
                               double burst, sim::TimeNs horizon) {
  core::ScenarioConfig config = core::ScenarioConfig::ScaledDefaults(0.25);
  config.seed = 41;
  config.num_sus = sus;
  config.num_pus = pus;
  config.area_side = side;
  config.pu_activity = activity;
  config.pu_activity_process = process;
  config.pu_mean_burst_slots = burst;
  config.max_sim_time = horizon;
  return config;
}

core::RunOptions Sensing(double false_alarm, double missed_detection) {
  core::RunOptions options;
  options.sensing_false_alarm = false_alarm;
  options.sensing_missed_detection = missed_detection;
  return options;
}

Case MakeCase(const char* name, const core::ScenarioConfig& config,
              const core::RunOptions& options = {}, const char* plan = nullptr) {
  Case c{name, config, options};
  c.plan = plan;
  return c;
}

std::vector<Case> Cases() {
  constexpr auto kIid = pu::ActivityProcess::kIid;
  constexpr auto kMarkov = pu::ActivityProcess::kMarkov;
  constexpr sim::TimeNs kHorizon = 2 * sim::kSecond;
  const core::ScenarioConfig small = PinConfig(500, 100, 125.0, 0.1, kIid, 4.0, kHorizon);
  std::vector<Case> cases = {
      // The PuSensingPinTest configurations.
      MakeCase("small-iid", small, Sensing(0.05, 0.02), "at 75 pu_activity 0.8 40\n"),
      MakeCase("small-markov4", PinConfig(500, 100, 125.0, 0.1, kMarkov, 4.0, kHorizon),
               {}, "at 75 pu_activity 0.15 40\n"),
      MakeCase("small-markov1", PinConfig(500, 100, 125.0, 0.1, kMarkov, 1.0, kHorizon),
               Sensing(0.05, 0.02)),
      MakeCase("small-pt0", PinConfig(500, 100, 125.0, 0.0, kIid, 4.0, kHorizon),
               Sensing(0.05, 0.0)),
      MakeCase("small-pt1",
               PinConfig(500, 100, 125.0, 1.0, kIid, 4.0, 200 * sim::kMillisecond),
               Sensing(0.0, 0.05)),
      MakeCase("large-iid", PinConfig(200, 1100, 80.0, 0.005, kIid, 4.0, kHorizon),
               Sensing(0.05, 0.02), "at 75 pu_activity 0.02 40\n"),
      MakeCase("large-markov4", PinConfig(200, 1100, 80.0, 0.005, kMarkov, 4.0, kHorizon),
               {}, "at 75 pu_activity 0.02 40\n"),
      MakeCase("large-markov1", PinConfig(200, 1100, 80.0, 0.005, kMarkov, 1.0, kHorizon),
               Sensing(0.05, 0.02)),
      MakeCase("long-iid-pt45",
               PinConfig(500, 100, 125.0, 0.45, kIid, 4.0, 14 * sim::kSecond)),
      MakeCase("burst-in-window", small, {}, "at 70 sensing_burst 0.2 0.1 20\n"),
  };
  Case no_fairness = MakeCase("no-fairness", small);
  no_fairness.config.fairness_wait = false;
  cases.push_back(no_fairness);
  Case continuous =
      MakeCase("continuous", PinConfig(200, 100, 80.0, 0.1, kIid, 4.0, kHorizon));
  continuous.options.snapshot_count = 3;
  continuous.options.snapshot_interval = 200 * sim::kMillisecond;
  cases.push_back(continuous);
  Case coolest =
      MakeCase("coolest-pt45", PinConfig(500, 100, 125.0, 0.45, kIid, 4.0, kHorizon));
  coolest.coolest = true;
  cases.push_back(coolest);
  // ADDC under the conventional MAC's discrete backoffs and sensing lag:
  // same-slot winners collide, receivers are captured (RS mode) and SIR
  // failures are common.
  Case capture = MakeCase("rs-capture", small);
  capture.options.backoff_granularity = 50 * sim::kMicrosecond;
  capture.options.sensing_latency = 10 * sim::kMicrosecond;
  cases.push_back(capture);
  // α = 3.5: each lane's term goes through pow.
  Case alpha = MakeCase("alpha-3.5", PinConfig(400, 100, 125.0, 0.2, kIid, 4.0, kHorizon));
  alpha.config.alpha = 3.5;
  cases.push_back(alpha);
  // Crashes cut transmissions and retire receivers mid-run.
  cases.push_back(MakeCase("faults", small, {},
                           "at 30 crash 3\nat 60 crash 5\nat 75 pu_activity 0.8 40\n"
                           "at 400 recover 3\n"));
  return cases;
}

TEST(SirLaneTest, LaneModeRunsEqualExactRunsAtEveryWidth) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    const RunRecord exact = RunCase(c, /*observed=*/true);
    EXPECT_GT(exact.result.mac.attempts, 0);
    for (const int width : simd::SupportedWidths()) {
      SCOPED_TRACE("width " + std::to_string(width));
      const WidthCap cap(width);
      ExpectSameRun(RunCase(c, /*observed=*/false), exact);
    }
  }
}

// The cases that test sealing and capture do exercise them.
TEST(SirLaneTest, CaptureAndCoolestCasesFailReceptions) {
  for (const Case& c : Cases()) {
    const std::string name = c.name;
    if (name != "rs-capture" && name != "coolest-pt45") continue;
    SCOPED_TRACE(name);
    const mac::MacStats stats = RunCase(c, /*observed=*/false).result.mac;
    const auto count = [&](mac::TxOutcome outcome) {
      return stats.outcomes[static_cast<std::size_t>(outcome)];
    };
    EXPECT_GT(count(mac::TxOutcome::kSirFailure), 0);
    EXPECT_GT(count(mac::TxOutcome::kCaptureLost), 0);
  }
}

// --- decisions near η_s ----------------------------------------------------

using geom::Vec2;

constexpr double kPower = 10.0;  // SU and PU transmit power
const geom::Aabb kArea = geom::Aabb::Square(100.0);

// One relay (node 1) sending one packet to the sink (node 0), under every
// PU in `pus` transmitting in every slot, none inside the relay's PCR: each
// attempt is one evaluation of one constant SIR.
struct Rig {
  Rig(const std::vector<Vec2>& sus, const std::vector<Vec2>& pus, double alpha,
      double eta)
      : primary(Primary(pus)),
        mac(simulator, primary, sus, kArea, /*sink=*/0, {0, 0}, Config(alpha, eta),
            Rng(7)) {}

  static pu::PrimaryNetwork Primary(const std::vector<Vec2>& pus) {
    pu::PrimaryConfig config;
    config.count = static_cast<std::int32_t>(pus.size());
    config.power = kPower;
    config.radius = 10.0;
    config.activity = 1.0;
    config.slot = sim::kMillisecond;
    return pu::PrimaryNetwork(config, kArea, pus);
  }

  static mac::MacConfig Config(double alpha, double eta) {
    mac::MacConfig config;
    config.pcr = 2.0;
    config.su_power = kPower;
    config.alpha = alpha;
    config.eta_s = SirThreshold::FromLinear(eta);
    config.audit_stride = 0;
    config.max_sim_time = 8 * sim::kMillisecond;
    return config;
  }

  sim::Simulator simulator;
  pu::PrimaryNetwork primary;
  mac::CollectionMac mac;
};

struct Geometry {
  std::vector<Vec2> sus;  // sink, relay
  std::vector<Vec2> pus;
};

// A relay 1–4 m from the sink and `count` PUs anywhere at least 5 m from
// the relay (outside its 2 m PCR).
Geometry RandomGeometry(Rng& rng, std::int32_t count) {
  Geometry g;
  const Vec2 sink{rng.UniformDouble(20.0, 80.0), rng.UniformDouble(20.0, 80.0)};
  const double angle = rng.UniformDouble(0.0, 6.283185307179586);
  const double distance = rng.UniformDouble(1.0, 4.0);
  const Vec2 relay{sink.x + distance * std::cos(angle), sink.y + distance * std::sin(angle)};
  g.sus = {sink, relay};
  while (static_cast<std::int32_t>(g.pus.size()) < count) {
    const Vec2 pu{rng.UniformDouble(0.0, 100.0), rng.UniformDouble(0.0, 100.0)};
    if (geom::DistanceSquared(pu, relay) >= 25.0) g.pus.push_back(pu);
  }
  return g;
}

// The exact SIR the relay's reception has: its signal over the PUs' power
// summed in id order, each term the MAC's own expression.
double InOrderSir(const Geometry& g, double alpha) {
  const spectrum::PathLoss loss(alpha);
  double interference = 0.0;
  for (const Vec2& pu : g.pus) {
    interference += loss.ReceivedPowerSquared(kPower, geom::DistanceSquared(pu, g.sus[0]));
  }
  const double signal =
      loss.ReceivedPowerSquared(kPower, geom::DistanceSquared(g.sus[1], g.sus[0]));
  return signal / interference;
}

double StepUlps(double x, int ulps) {
  const double toward = ulps > 0 ? std::numeric_limits<double>::infinity() : 0.0;
  for (int k = 0; k < std::abs(ulps); ++k) x = std::nextafter(x, toward);
  return x;
}

struct Decision {
  std::int64_t attempts = 0;
  bool delivered = false;
  std::int64_t sir_failures = 0;
  std::int64_t fallbacks = 0;
  bool lanes = false;
  double min_sir = 0.0;  // exact mode: the floor of the last reception
};

Decision Decide(const Geometry& g, double alpha, double eta, bool observed) {
  Rig rig(g.sus, g.pus, alpha, eta);
  Decision decision;
  if (observed) {
    rig.mac.AddObserver([&decision](const mac::MacEvent& event) {
      if (event.kind == mac::MacEvent::Kind::kTxEnd) decision.min_sir = event.min_sir;
    });
  }
  rig.mac.StartCollection({1});
  rig.simulator.Run();
  decision.attempts = rig.mac.stats().attempts;
  decision.delivered = rig.mac.stats().delivered == 1;
  decision.sir_failures =
      rig.mac.stats().outcomes[static_cast<std::size_t>(mac::TxOutcome::kSirFailure)];
  decision.fallbacks = rig.mac.SirFallbacksForTesting();
  decision.lanes = rig.mac.sir_lanes();
  return decision;
}

// Receivers within three ulps of η_s on either side: the window around the
// lane sum straddles η_s, so the in-order fallback decides every attempt,
// and its verdict is the exact predicate fl(signal / I) < η_s. With the
// margin set to 0 no evaluation falls back and this test fails.
TEST(SirLaneDecisionTest, NearThresholdTheInOrderSumDecides) {
  Rng rng(20260);
  for (const double alpha : {4.0, 3.5}) {
    for (int trial = 0; trial < 6; ++trial) {
      const Geometry g = RandomGeometry(rng, 13 + 17 * trial);
      const double sir = InOrderSir(g, alpha);
      for (int ulps = -3; ulps <= 3; ++ulps) {
        const double eta = StepUlps(sir, ulps);
        const bool fails = sir < eta;
        SCOPED_TRACE("alpha " + std::to_string(alpha) + " trial " +
                     std::to_string(trial) + " ulps " + std::to_string(ulps));
        const Decision exact = Decide(g, alpha, eta, /*observed=*/true);
        EXPECT_FALSE(exact.lanes);
        EXPECT_EQ(exact.fallbacks, 0);
        EXPECT_EQ(exact.delivered, !fails);
        EXPECT_EQ(exact.sir_failures > 0, fails);
        // An observer keeps the exact floor: the in-order sum's bits.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(exact.min_sir),
                  std::bit_cast<std::uint64_t>(sir));
        for (const int width : simd::SupportedWidths()) {
          SCOPED_TRACE("width " + std::to_string(width));
          const WidthCap cap(width);
          const Decision lanes = Decide(g, alpha, eta, /*observed=*/false);
          EXPECT_TRUE(lanes.lanes);
          EXPECT_EQ(lanes.delivered, exact.delivered);
          EXPECT_EQ(lanes.sir_failures, exact.sir_failures);
          EXPECT_GT(lanes.attempts, 0);
          EXPECT_EQ(lanes.fallbacks, lanes.attempts)
              << "every attempt's window must straddle η_s";
        }
      }
    }
  }
}

// Away from η_s the window decides on its own, both ways.
TEST(SirLaneDecisionTest, AwayFromThresholdTheWindowDecides) {
  Rng rng(77);
  for (const double alpha : {4.0, 3.5}) {
    const Geometry g = RandomGeometry(rng, 40);
    const double sir = InOrderSir(g, alpha);
    for (const double factor : {1.0 - 1e-9, 1.0 + 1e-9}) {
      const bool fails = sir < sir * factor;
      for (const int width : simd::SupportedWidths()) {
        const WidthCap cap(width);
        const Decision lanes = Decide(g, alpha, sir * factor, /*observed=*/false);
        EXPECT_TRUE(lanes.lanes);
        EXPECT_EQ(lanes.fallbacks, 0);
        EXPECT_EQ(lanes.delivered, !fails);
        EXPECT_EQ(lanes.sir_failures > 0, fails);
      }
    }
  }
}

// Whatever may read a floor keeps exact mode: an observer, a checkpoint
// (KeepSirFloors) or a restore. A lane-mode run refuses SaveState and a
// late observer.
TEST(SirLaneDecisionTest, ObserversAndCheckpointsKeepExactMode) {
  Rng rng(5);
  const Geometry g = RandomGeometry(rng, 20);
  const double eta = InOrderSir(g, 4.0) * 0.5;

  Rig bare(g.sus, g.pus, 4.0, eta);
  bare.mac.StartCollection({1});
  ASSERT_EQ(bare.simulator.RunUntilEvents(3), sim::RunStatus::kPaused);
  EXPECT_TRUE(bare.mac.sir_lanes());
  sim::StateWriter refused;
  EXPECT_THROW(bare.mac.SaveState(refused), ContractViolation);
  EXPECT_THROW(bare.mac.AddObserver([](const mac::MacEvent&) {}), ContractViolation);

  Rig kept(g.sus, g.pus, 4.0, eta);
  kept.mac.KeepSirFloors();
  kept.mac.StartCollection({1});
  ASSERT_EQ(kept.simulator.RunUntilEvents(3), sim::RunStatus::kPaused);
  EXPECT_FALSE(kept.mac.sir_lanes());
  EXPECT_THROW(kept.mac.KeepSirFloors(), ContractViolation);
  sim::StateWriter writer;
  kept.simulator.SaveState(writer);
  kept.primary.SaveState(writer);
  kept.mac.SaveState(writer);
  const std::string blob = writer.Finish();

  sim::StateReader reader(blob);
  sim::Simulator simulator;
  simulator.LoadRegistry(reader);
  simulator.BeginRestore(reader);
  pu::PrimaryNetwork primary = Rig::Primary(g.pus);
  mac::CollectionMac restored(simulator, primary, g.sus, kArea, /*sink=*/0, {0, 0},
                              Rig::Config(4.0, eta), Rng(7));
  primary.LoadState(reader);
  restored.LoadState(reader);
  ASSERT_TRUE(reader.ok()) << reader.error();
  simulator.FinishRestore();
  simulator.Run();
  kept.simulator.Run();
  EXPECT_FALSE(restored.sir_lanes());
  EXPECT_EQ(restored.stats().delivered, 1);
  EXPECT_EQ(restored.stats().finish_time, kept.mac.stats().finish_time);
}

}  // namespace
}  // namespace crn
