// Scenario-prefab cache contracts: the geometry keying rule (which
// ScenarioConfig fields key a prefab and which must not), build-once
// sharing with deterministic hit/miss/bytes accounting, cached ≡ rebuilt
// bit-identity, the key-mismatch guard on prefab-sharing Scenarios, the
// per-PCR sensing-table memo, and the announced-request lifetime.
#include "core/scenario_prefab.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/collection.h"
#include "core/scenario.h"

namespace crn::core {
namespace {

ScenarioConfig TinyConfig() {
  ScenarioConfig config = ScenarioConfig::ScaledDefaults(0.05);  // n = 100
  config.seed = 7;
  return config;
}

TEST(PrefabKeyTest, GeometryFieldsKeyThePrefab) {
  const ScenarioConfig base = TinyConfig();
  const PrefabKey key = PrefabKey::Of(base, 3);
  EXPECT_EQ(key, PrefabKey::Of(base, 3));
  EXPECT_NE(key, PrefabKey::Of(base, 4));  // repetition is geometry

  ScenarioConfig changed = base;
  changed.seed += 1;
  EXPECT_NE(key, PrefabKey::Of(changed, 3));
  changed = base;
  changed.num_sus += 1;
  EXPECT_NE(key, PrefabKey::Of(changed, 3));
  changed = base;
  changed.num_pus += 1;
  EXPECT_NE(key, PrefabKey::Of(changed, 3));
  changed = base;
  changed.area_side *= 1.5;
  EXPECT_NE(key, PrefabKey::Of(changed, 3));
  changed = base;
  changed.su_radius *= 1.1;
  EXPECT_NE(key, PrefabKey::Of(changed, 3));
}

TEST(PrefabKeyTest, MacAndSpectrumParametersDoNotKeyThePrefab) {
  // The four Fig.-6 axes that sweep MAC/spectrum parameters only — τ_c,
  // p_a, PU power, SIR thresholds — must map to the same prefab, plus the
  // other simulation-side knobs.
  const ScenarioConfig base = TinyConfig();
  const PrefabKey key = PrefabKey::Of(base, 0);
  ScenarioConfig changed = base;
  changed.contention_window *= 2;
  changed.pu_activity = 0.9;
  changed.pu_power = 25.0;
  changed.eta_p_db = 11.0;
  changed.eta_s_db = 5.0;
  changed.su_power = 3.0;
  changed.alpha = 3.0;
  changed.fairness_wait = false;
  EXPECT_EQ(key, PrefabKey::Of(changed, 0));
}

TEST(ScenarioPrefabTest, BuildMatchesLegacyScenarioDeployment) {
  const ScenarioConfig config = TinyConfig();
  const auto prefab = ScenarioPrefab::Build(config, 2);
  const Scenario scenario(config, 2);  // builds its own prefab internally
  EXPECT_EQ(prefab->su_positions, scenario.su_positions());
  EXPECT_EQ(prefab->pu_positions, scenario.pu_positions());
  EXPECT_EQ(prefab->graph->StructureDigest(),
            scenario.secondary_graph().StructureDigest());
  EXPECT_EQ(prefab->GeometryDigest(),
            scenario.prefab()->GeometryDigest());
  EXPECT_GT(prefab->ApproxBytes(), 0);
  // The prebuilt tree is the CDS tree the run would have built.
  prefab->tree->Validate(*prefab->graph);
  EXPECT_EQ(prefab->tree->root(), 0);
}

TEST(ScenarioPrefabCacheTest, SharesOneBuildPerKeyWithExactCounters) {
  const ScenarioConfig base = TinyConfig();
  ScenarioPrefabCache cache;
  const auto first = cache.Get(base, 0);
  const auto again = cache.Get(base, 0);
  EXPECT_EQ(first.get(), again.get());  // same immutable object

  ScenarioConfig mac_only = base;
  mac_only.pu_activity = 0.8;  // not geometry → same prefab
  EXPECT_EQ(cache.Get(mac_only, 0).get(), first.get());

  const auto other_rep = cache.Get(base, 1);  // geometry → fresh build
  EXPECT_NE(other_rep.get(), first.get());

  const ScenarioPrefabCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2);  // two distinct keys
  EXPECT_EQ(stats.hits, 2);    // four requests total
  EXPECT_EQ(stats.bytes, first->ApproxBytes() + other_rep->ApproxBytes());
}

TEST(ScenarioPrefabCacheTest, VerifyModeRechecksEveryHit) {
  ScenarioPrefabCache cache(/*verify=*/true);
  const ScenarioConfig config = TinyConfig();
  cache.Get(config, 0);
  cache.Get(config, 0);
  cache.Get(config, 0);
  EXPECT_EQ(cache.stats().verified, 2);
}

TEST(ScenarioPrefabCacheTest, CachedScenarioRunsBitIdenticalToRebuilt) {
  const ScenarioConfig config = TinyConfig();
  ScenarioPrefabCache cache;
  const Scenario rebuilt(config, 0);
  const Scenario cached(config, 0, cache.Get(config, 0));
  RunOptions options;
  AuditReport rebuilt_report;
  options.audit_report = &rebuilt_report;
  const CollectionResult from_rebuilt = RunAddc(rebuilt, options);
  AuditReport cached_report;
  options.audit_report = &cached_report;
  const CollectionResult from_cached = RunAddc(cached, options);
  EXPECT_EQ(rebuilt_report.trace_digest, cached_report.trace_digest);
  EXPECT_DOUBLE_EQ(from_rebuilt.delay_ms, from_cached.delay_ms);
}

TEST(ScenarioPrefabTest, SensingTablesAreMemoizedPerPcrAndLeaveTheGeometryAlone) {
  const ScenarioConfig config = TinyConfig();
  const auto prefab = ScenarioPrefab::Build(config, 0);
  const std::uint64_t digest = prefab->GeometryDigest();
  const std::int64_t bytes = prefab->ApproxBytes();
  const Scenario scenario(config, 0, prefab);
  const auto table = prefab->SensingTable(scenario.pcr());
  EXPECT_EQ(prefab->SensingTable(scenario.pcr()).get(), table.get());
  const auto wider = prefab->SensingTable(2.0 * scenario.pcr());
  EXPECT_NE(wider.get(), table.get());
  EXPECT_EQ(table->pcr, scenario.pcr());
  EXPECT_EQ(wider->pcr, 2.0 * scenario.pcr());
  // The same builder a MAC without a table uses, on the same positions.
  const auto fresh = mac::BuildPuSensingTable(prefab->su_positions, prefab->pu_positions,
                                              prefab->area, scenario.pcr());
  EXPECT_EQ(table->begin, fresh->begin);
  EXPECT_EQ(table->pus, fresh->pus);
  // Derived data: neither the digest nor the byte count moves.
  EXPECT_EQ(prefab->GeometryDigest(), digest);
  EXPECT_EQ(prefab->ApproxBytes(), bytes);
}

// A sweep's request pattern: `points` cells per repetition, each holding its
// prefab while it "runs". The cache's reference to a repetition's prefab
// must go with the last announced request, not before.
TEST(ScenarioPrefabCacheTest, AnnouncedPrefabsExpireAfterTheirLastRequest) {
  const ScenarioConfig base = TinyConfig();
  ScenarioPrefabCache cache;
  constexpr int kReps = 3;
  constexpr int kPoints = 4;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int point = 0; point < kPoints; ++point) cache.Announce(base, rep);
  }
  std::int64_t bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::weak_ptr<const ScenarioPrefab> watch;
    for (int point = 0; point < kPoints; ++point) {
      ScenarioConfig config = base;
      config.pu_activity = 0.1 * (point + 1);  // not geometry: one key per rep
      std::shared_ptr<const ScenarioPrefab> prefab = cache.Get(config, rep);
      if (point == 0) {
        watch = prefab;
        bytes += prefab->ApproxBytes();
      }
      EXPECT_EQ(prefab.get(), watch.lock().get());
      prefab.reset();  // the cell is done
      EXPECT_EQ(watch.expired(), point == kPoints - 1) << "rep " << rep << " point " << point;
    }
  }
  const ScenarioPrefabCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, kReps);
  EXPECT_EQ(stats.hits, kReps * kPoints - kReps);
  EXPECT_EQ(stats.bytes, bytes);
  // Past its announced requests the key's prefab is gone: a contract error.
  EXPECT_THROW(cache.Get(base, 0), ContractViolation);
}

TEST(ScenarioPrefabCacheTest, AnnouncingChangesNoCounter) {
  const ScenarioConfig base = TinyConfig();
  ScenarioPrefabCache plain;
  ScenarioPrefabCache announced;
  for (int rep = 0; rep < 2; ++rep) {
    for (int point = 0; point < 3; ++point) announced.Announce(base, rep);
  }
  for (int rep = 0; rep < 2; ++rep) {
    for (int point = 0; point < 3; ++point) {
      EXPECT_EQ(plain.Get(base, rep)->GeometryDigest(),
                announced.Get(base, rep)->GeometryDigest());
    }
  }
  EXPECT_EQ(plain.stats().hits, announced.stats().hits);
  EXPECT_EQ(plain.stats().misses, announced.stats().misses);
  EXPECT_EQ(plain.stats().bytes, announced.stats().bytes);
  EXPECT_EQ(announced.stats().misses, 2);
  EXPECT_EQ(announced.stats().hits, 4);
}

TEST(ScenarioPrefabCacheTest, VerifyModeRechecksEveryAnnouncedHit) {
  ScenarioPrefabCache cache(/*verify=*/true);
  const ScenarioConfig config = TinyConfig();
  for (int request = 0; request < 3; ++request) cache.Announce(config, 0);
  std::weak_ptr<const ScenarioPrefab> watch = cache.Get(config, 0);
  cache.Get(config, 0);
  EXPECT_FALSE(watch.expired());
  cache.Get(config, 0);  // the last request: verified, then dropped
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(cache.stats().verified, 2);
}

TEST(ScenarioPrefabCacheTest, UnannouncedRequestsKeepTheirEntries) {
  const ScenarioConfig config = TinyConfig();
  ScenarioPrefabCache cache;
  cache.Announce(config, 1);  // another key's announcement changes nothing here
  std::weak_ptr<const ScenarioPrefab> watch = cache.Get(config, 0);
  EXPECT_FALSE(watch.expired());
  const auto again = cache.Get(config, 0);
  EXPECT_EQ(again.get(), watch.lock().get());
  EXPECT_FALSE(watch.expired());
  // Announcing a key after its first request would miscount its lifetime.
  EXPECT_THROW(cache.Announce(config, 0), ContractViolation);
}

// The geometries of the benchmark's four workloads (bench/suite) at the
// default seed and each workload's repetitions: the deployment the
// connectivity test accepts, its unit-disk graph, CDS tree and PU layout.
// A faster IsUnitDiskConnected, UnitDiskGraph or CdsTree must not move one.
TEST(ScenarioPrefabTest, BenchmarkGeometryDigestsArePinned) {
  struct Workload {
    double factor;  // of ScaledDefaults(0.25), as the benchmark scales it
    std::vector<std::uint64_t> digests;  // by repetition
  };
  const std::vector<Workload> workloads{
      {1.0, {0xf2862c82115ec628}},  // fig6c
      {20.0, {0x087a0efa3b502673, 0xa3539d4e9a98121e}},  // horizon_n10k
      {4.0,
       {0x9785ef3c51df9630, 0x99224474663d60dd, 0xcbf945bfc3c7fd26, 0x8fc4f6f93968f41b,
        0x36511ff475f6f659, 0xad86dcd6d0df5cfa, 0xcdbeac990d982c5a, 0x4dffa74176d888cf,
        0x8c06110617cb8289, 0xf846fa98e87bb30f, 0x5da15f1c181fc698, 0x923ec6dc9b454b74,
        0x700d975daf345515, 0xfff68c5ce6b18267, 0xe354640032a45b40,
        0x5874a0d26490c5aa}},  // sweep_n2000
      {3.2,
       {0xc748c634b5970f03, 0x856f2a94e68e8106, 0xf767d677cf78c487,
        0xe3a548b0db5b2efe}},  // observed_n1600
  };
  const ScenarioConfig base = ScenarioConfig::ScaledDefaults(0.25);
  for (const Workload& workload : workloads) {
    ScenarioConfig config = base;
    config.seed = 0x5EEDADDC;
    config.num_sus = static_cast<std::int32_t>(std::lround(base.num_sus * workload.factor));
    config.num_pus = static_cast<std::int32_t>(std::lround(base.num_pus * workload.factor));
    config.area_side = base.area_side * std::sqrt(workload.factor);
    for (std::uint64_t rep = 0; rep < workload.digests.size(); ++rep) {
      EXPECT_EQ(ScenarioPrefab::Build(config, rep)->GeometryDigest(), workload.digests[rep])
          << "n=" << config.num_sus << ", repetition " << rep;
    }
  }
}

TEST(ScenarioPrefabTest, TryBuildReportsAnUnconnectableDeployment) {
  ScenarioConfig config = TinyConfig();
  config.num_sus = 2;
  config.area_side = 5000.0;
  config.max_deployment_attempts = 20;
  std::string error;
  EXPECT_EQ(ScenarioPrefab::TryBuild(config, 0, error), nullptr);
  EXPECT_NE(error.find("could not draw a connected secondary network in 20 attempts"),
            std::string::npos)
      << error;
  EXPECT_THROW(ScenarioPrefab::Build(config, 0), ContractViolation);
  error.clear();
  EXPECT_NE(ScenarioPrefab::TryBuild(TinyConfig(), 0, error), nullptr);
  EXPECT_TRUE(error.empty());
}

TEST(ScenarioTest, PrefabKeyMismatchIsAContractViolation) {
  const ScenarioConfig config = TinyConfig();
  ScenarioConfig other = config;
  other.seed += 1;  // different geometry
  const auto wrong = ScenarioPrefab::Build(other, 0);
  EXPECT_THROW(Scenario(config, 0, wrong), ContractViolation);
  EXPECT_THROW(Scenario(config, 0, nullptr), ContractViolation);
}

}  // namespace
}  // namespace crn::core
