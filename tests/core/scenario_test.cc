#include "core/scenario.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "geom/deployment.h"

namespace crn::core {
namespace {

ScenarioConfig TinyConfig() {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.05);  // n = 100
  config.seed = 7;
  return config;
}

TEST(ScenarioConfigTest, PaperDefaultsMatchFig6Caption) {
  const ScenarioConfig config = ScenarioConfig::PaperDefaults();
  EXPECT_EQ(config.num_sus, 2000);
  EXPECT_EQ(config.num_pus, 400);
  EXPECT_DOUBLE_EQ(config.area_side, 250.0);
  EXPECT_DOUBLE_EQ(config.alpha, 4.0);
  EXPECT_DOUBLE_EQ(config.pu_activity, 0.3);
  EXPECT_DOUBLE_EQ(config.eta_p_db, 8.0);
  EXPECT_DOUBLE_EQ(config.eta_s_db, 8.0);
  EXPECT_DOUBLE_EQ(config.pu_power, 10.0);
  EXPECT_DOUBLE_EQ(config.su_power, 10.0);
  EXPECT_DOUBLE_EQ(config.pu_radius, 10.0);
  EXPECT_DOUBLE_EQ(config.su_radius, 10.0);
  EXPECT_EQ(config.slot, sim::kMillisecond);
  EXPECT_EQ(config.contention_window, sim::kMillisecond / 2);
}

TEST(ScenarioConfigTest, ScaledDefaultsPreserveDensities) {
  const ScenarioConfig full = ScenarioConfig::PaperDefaults();
  for (double scale : {0.1, 0.25, 0.5, 1.0}) {
    const ScenarioConfig scaled = ScenarioConfig::ScaledDefaults(scale);
    EXPECT_NEAR(scaled.num_sus / scaled.area(), full.num_sus / full.area(),
                0.02 * full.num_sus / full.area())
        << scale;
    EXPECT_NEAR(scaled.num_pus / scaled.area(), full.num_pus / full.area(),
                0.02 * full.num_pus / full.area())
        << scale;
  }
}

TEST(ScenarioConfigTest, ScaledDefaultsRejectBadScale) {
  EXPECT_THROW(ScenarioConfig::ScaledDefaults(0.0), ContractViolation);
  EXPECT_THROW(ScenarioConfig::ScaledDefaults(1.5), ContractViolation);
}

TEST(ScenarioConfigTest, PaperAndScaledDefaultsValidate) {
  EXPECT_EQ(ScenarioConfig::PaperDefaults().Validate(), "");
  for (const double scale : {0.01, 0.05, 0.25, 0.5, 1.0}) {
    EXPECT_EQ(ScenarioConfig::ScaledDefaults(scale).Validate(), "") << scale;
  }
}

TEST(ScenarioConfigTest, ValidateAcceptsEachRuleAtItsBound) {
  // A zero horizon (run set-up alone) and a disabled auditor are valid.
  ScenarioConfig config = TinyConfig();
  config.max_sim_time = 0;
  config.audit_stride = 0;
  config.num_pus = 0;
  EXPECT_EQ(config.Validate(), "");
  for (const double p_t : {0.0, 1.0}) {
    config.pu_activity = p_t;
    EXPECT_EQ(config.Validate(), "") << p_t;
  }
  // Markov: burst 1 is the shortest, p_t = burst / (burst + 1) the highest
  // reachable activity below the saturated chain, which takes any burst.
  config.pu_activity_process = pu::ActivityProcess::kMarkov;
  config.pu_mean_burst_slots = 1.0;
  config.pu_activity = 0.5;
  EXPECT_EQ(config.Validate(), "");
  config.pu_mean_burst_slots = 3.0;
  config.pu_activity = 0.75;
  EXPECT_EQ(config.Validate(), "");
  config.pu_activity = 1.0;
  EXPECT_EQ(config.Validate(), "");
  // The corrected c2 holds at every alpha > 2.
  config = TinyConfig();
  config.c2_variant = C2Variant::kCorrected;
  config.alpha = 6.0;
  EXPECT_EQ(config.Validate(), "");
}

TEST(ScenarioConfigTest, ValidateNamesTheFirstViolatedRule) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* expect;  // a substring of the message
    void (*mutate)(ScenarioConfig&);
  };
  const Case cases[] = {
      {"num_sus must be >= 1, got 0", [](ScenarioConfig& c) { c.num_sus = 0; }},
      {"num_pus must be >= 0, got -1", [](ScenarioConfig& c) { c.num_pus = -1; }},
      {"area_side must be finite and > 0", [](ScenarioConfig& c) { c.area_side = 0.0; }},
      {"area_side", [](ScenarioConfig& c) { c.area_side = nan; }},
      {"area_side", [](ScenarioConfig& c) { c.area_side = inf; }},
      // The side is positive; its square underflows or overflows.
      {"with a finite area > 0, got 1e-300",
       [](ScenarioConfig& c) { c.area_side = 1e-300; }},
      {"with a finite area > 0, got 1e+200",
       [](ScenarioConfig& c) { c.area_side = 1e200; }},
      {"pu_activity must be in [0, 1], got -0.1",
       [](ScenarioConfig& c) { c.pu_activity = -0.1; }},
      {"pu_activity must be in [0, 1], got 1.1",
       [](ScenarioConfig& c) { c.pu_activity = 1.1; }},
      {"pu_activity must be in [0, 1], got nan",
       [](ScenarioConfig& c) { c.pu_activity = nan; }},
      {"alpha must be finite and > 2, got 2", [](ScenarioConfig& c) { c.alpha = 2.0; }},
      {"alpha must be finite and > 2, got nan", [](ScenarioConfig& c) { c.alpha = nan; }},
      {"alpha must be finite and > 2, got inf", [](ScenarioConfig& c) {
         c.alpha = inf;
         c.c2_variant = C2Variant::kCorrected;
       }},
      {"pu_power must be finite and > 0, got 0",
       [](ScenarioConfig& c) { c.pu_power = 0; }},
      {"su_power must be finite and > 0, got inf",
       [](ScenarioConfig& c) { c.su_power = inf; }},
      {"pu_radius must be finite and > 0, got -1",
       [](ScenarioConfig& c) { c.pu_radius = -1; }},
      {"su_radius must be finite and > 0, got nan",
       [](ScenarioConfig& c) { c.su_radius = nan; }},
      {"eta_p_db must be a threshold whose linear value is finite and > 0, got 1e+300",
       [](ScenarioConfig& c) { c.eta_p_db = 1e300; }},
      {"eta_s_db must be a threshold whose linear value is finite and > 0, got -1e+300",
       [](ScenarioConfig& c) { c.eta_s_db = -1e300; }},
      {"eta_s_db", [](ScenarioConfig& c) { c.eta_s_db = nan; }},
      {"pu_mean_burst_slots must be finite and >= 1 under the Markov process, got 0.5",
       [](ScenarioConfig& c) {
         c.pu_activity_process = pu::ActivityProcess::kMarkov;
         c.pu_mean_burst_slots = 0.5;
       }},
      {"pu_mean_burst_slots", [](ScenarioConfig& c) {
         c.pu_activity_process = pu::ActivityProcess::kMarkov;
         c.pu_mean_burst_slots = inf;
       }},
      {"pu_activity must be at most pu_mean_burst_slots / (pu_mean_burst_slots + 1), "
       "or exactly 1, under the Markov process, got 0.9",
       [](ScenarioConfig& c) {
         c.pu_activity_process = pu::ActivityProcess::kMarkov;
         c.pu_mean_burst_slots = 2.0;
         c.pu_activity = 0.9;
       }},
      {"alpha must be below about 4.2038 under the paper's c2",
       [](ScenarioConfig& c) { c.alpha = 4.3; }},
      // c1 = P_p / max(P_p, P_s) underflows to 0: Lemma 2's range is infinite.
      {"the PCR from these powers, radii and SIR thresholds must be finite, got inf",
       [](ScenarioConfig& c) {
         c.pu_power = 1e-300;
         c.su_power = 1e300;
       }},
  };
  for (const Case& c : cases) {
    ScenarioConfig config = TinyConfig();
    c.mutate(config);
    const std::string message = config.Validate();
    EXPECT_NE(message.find(c.expect), std::string::npos)
        << c.expect << " in: " << message;
  }
}

// Validate decides the paper's c2 by the expression C2 uses, so the two
// agree at every alpha around the root near 4.2038.
TEST(ScenarioConfigTest, PaperC2RuleMatchesC2) {
  ScenarioConfig config = TinyConfig();
  ASSERT_EQ(config.c2_variant, C2Variant::kPaper);
  int accepted = 0;
  int rejected = 0;
  for (int step = 0; step <= 4000; ++step) {
    config.alpha = 4.2 + 1e-6 * step;
    bool c2_throws = false;
    try {
      (void)C2(config.alpha, C2Variant::kPaper);
    } catch (const ContractViolation&) {
      c2_throws = true;
    }
    EXPECT_EQ(config.Validate().empty(), !c2_throws) << config.alpha;
    (c2_throws ? rejected : accepted) += 1;
  }
  // The grid straddles the root.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ScenarioConfigTest, DerivedQuantities) {
  const ScenarioConfig config = ScenarioConfig::PaperDefaults();
  EXPECT_DOUBLE_EQ(config.area(), 62500.0);
  EXPECT_DOUBLE_EQ(config.c0(), 31.25);
}

TEST(ScenarioTest, SinkAtCenterAndAllInsideArea) {
  const Scenario scenario(TinyConfig(), 0);
  EXPECT_EQ(scenario.sink(), 0);
  EXPECT_EQ(scenario.su_positions()[0], scenario.area().Center());
  EXPECT_EQ(scenario.su_positions().size(),
            static_cast<std::size_t>(TinyConfig().num_sus) + 1);
  EXPECT_EQ(scenario.pu_positions().size(),
            static_cast<std::size_t>(TinyConfig().num_pus));
  for (const auto& p : scenario.su_positions()) {
    EXPECT_TRUE(scenario.area().Contains(p));
  }
}

TEST(ScenarioTest, SecondaryGraphIsConnected) {
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    const Scenario scenario(TinyConfig(), rep);
    EXPECT_TRUE(scenario.secondary_graph().IsConnected(0));
  }
}

TEST(ScenarioTest, DeterministicPerSeedAndRepetition) {
  const Scenario a(TinyConfig(), 2);
  const Scenario b(TinyConfig(), 2);
  EXPECT_EQ(a.su_positions(), b.su_positions());
  EXPECT_EQ(a.pu_positions(), b.pu_positions());
  const Scenario c(TinyConfig(), 3);
  EXPECT_NE(a.su_positions(), c.su_positions());
}

TEST(ScenarioTest, DifferentSeedsDifferentDeployments) {
  ScenarioConfig other = TinyConfig();
  other.seed = 8;
  const Scenario a(TinyConfig(), 0);
  const Scenario b(other, 0);
  EXPECT_NE(a.su_positions(), b.su_positions());
}

TEST(ScenarioTest, PcrMatchesKappaTimesRadius) {
  const ScenarioConfig config = TinyConfig();
  const Scenario scenario(config, 0);
  EXPECT_NEAR(scenario.pcr(), scenario.kappa() * config.su_radius, 1e-12);
  EXPECT_NEAR(scenario.kappa(), Kappa(config.MakePcrParams(), config.c2_variant),
              1e-12);
}

TEST(ScenarioTest, SubCriticalDensityFailsLoudly) {
  ScenarioConfig config = TinyConfig();
  config.num_sus = 20;
  config.area_side = 2000.0;  // hopelessly sparse for r = 10
  config.max_deployment_attempts = 5;
  EXPECT_THROW(Scenario(config, 0), ContractViolation);
}

TEST(ScenarioTest, InvalidConfigThrowsValidatesMessage) {
  ScenarioConfig config = TinyConfig();
  const std::shared_ptr<const ScenarioPrefab> prefab = ScenarioPrefab::Build(config, 0);
  config.alpha = 4.3;  // not part of the geometry key
  const std::string message = config.Validate();
  ASSERT_FALSE(message.empty());
  const auto expect_message = [&](auto construct) {
    try {
      construct();
      ADD_FAILURE() << "no ContractViolation";
    } catch (const ContractViolation& error) {
      EXPECT_NE(std::string(error.what()).find(message), std::string::npos)
          << error.what();
    }
  };
  expect_message([&] { Scenario(config, 0); });
  expect_message([&] { Scenario(config, 0, prefab); });
}

TEST(ScenarioTest, MakePrimaryNetworkUsesDeployedPositions) {
  const Scenario scenario(TinyConfig(), 0);
  const pu::PrimaryNetwork primary = scenario.MakePrimaryNetwork();
  EXPECT_EQ(primary.count(), TinyConfig().num_pus);
  EXPECT_EQ(primary.positions(), scenario.pu_positions());
}

}  // namespace
}  // namespace crn::core
