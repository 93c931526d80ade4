#include "pu/primary_network.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/spatial_grid.h"
#include "geom/vec2.h"

namespace crn::pu {
namespace {

using geom::Aabb;
using geom::Vec2;

PrimaryConfig SmallConfig() {
  PrimaryConfig config;
  config.count = 50;
  config.power = 10.0;
  config.radius = 8.0;
  config.activity = 0.3;
  return config;
}

TEST(PrimaryNetworkTest, DeploysRequestedCountInsideArea) {
  const Aabb area = Aabb::Square(100.0);
  const PrimaryNetwork network(SmallConfig(), area, Rng(1));
  EXPECT_EQ(network.count(), 50);
  for (PuId id = 0; id < network.count(); ++id) {
    EXPECT_TRUE(area.Contains(network.position(id)));
  }
}

TEST(PrimaryNetworkTest, ActivityFractionMatchesPt) {
  const Aabb area = Aabb::Square(100.0);
  PrimaryNetwork network(SmallConfig(), area, Rng(2));
  Rng activity(77);
  const int kSlots = 4000;
  for (int s = 0; s < kSlots; ++s) {
    network.ResampleSlot(activity);
  }
  EXPECT_EQ(network.slots_sampled(), kSlots);
  const double fraction = static_cast<double>(network.activations_total()) /
                          (static_cast<double>(kSlots) * network.count());
  EXPECT_NEAR(fraction, 0.3, 0.01);
}

TEST(PrimaryNetworkTest, ActiveListMatchesFlags) {
  const Aabb area = Aabb::Square(100.0);
  PrimaryNetwork network(SmallConfig(), area, Rng(3));
  Rng activity(5);
  for (int s = 0; s < 20; ++s) {
    network.ResampleSlot(activity);
    std::int32_t flagged = 0;
    for (PuId id = 0; id < network.count(); ++id) {
      if (network.IsActive(id)) ++flagged;
    }
    ASSERT_EQ(flagged, static_cast<std::int32_t>(network.active_transmitters().size()));
    for (PuId id : network.active_transmitters()) {
      ASSERT_TRUE(network.IsActive(id));
    }
  }
}

TEST(PrimaryNetworkTest, ReceiverWithinTransmissionRadius) {
  const Aabb area = Aabb::Square(100.0);
  PrimaryNetwork network(SmallConfig(), area, Rng(4));
  Rng activity(9);
  Rng receivers(10);
  for (int s = 0; s < 50; ++s) {
    network.ResampleSlot(activity);
    network.SampleReceiverPositions(receivers);
    for (PuId id : network.active_transmitters()) {
      ASSERT_LE(geom::Distance(network.position(id), network.receiver_position(id)),
                network.config().radius + 1e-9);
    }
  }
}

TEST(PrimaryNetworkTest, ExtremeActivities) {
  const Aabb area = Aabb::Square(50.0);
  PrimaryConfig config = SmallConfig();
  config.activity = 0.0;
  PrimaryNetwork silent(config, area, Rng(5));
  Rng activity(1);
  silent.ResampleSlot(activity);
  EXPECT_TRUE(silent.active_transmitters().empty());

  config.activity = 1.0;
  PrimaryNetwork saturated(config, area, Rng(6));
  saturated.ResampleSlot(activity);
  EXPECT_EQ(static_cast<std::int32_t>(saturated.active_transmitters().size()),
            saturated.count());
}

TEST(PrimaryNetworkTest, DeterministicGivenSameStreams) {
  const Aabb area = Aabb::Square(100.0);
  PrimaryNetwork a(SmallConfig(), area, Rng(7));
  PrimaryNetwork b(SmallConfig(), area, Rng(7));
  Rng act_a(42), act_b(42);
  for (int s = 0; s < 100; ++s) {
    a.ResampleSlot(act_a);
    b.ResampleSlot(act_b);
    ASSERT_EQ(a.active_transmitters(), b.active_transmitters());
  }
}

TEST(PrimaryNetworkTest, GridFindsNearbyPus) {
  const Aabb area = Aabb::Square(100.0);
  const std::vector<Vec2> positions{{10, 10}, {12, 10}, {90, 90}};
  PrimaryConfig config = SmallConfig();
  config.count = 3;
  const PrimaryNetwork network(config, area, positions);
  const geom::SpatialGrid grid(network.positions(), network.area(), config.radius);
  std::vector<PuId> near;
  grid.ForEachInDisk({11, 10}, 3.0, [&](PuId id) { near.push_back(id); });
  std::sort(near.begin(), near.end());
  EXPECT_EQ(near, (std::vector<PuId>{0, 1}));
}

TEST(PrimaryNetworkTest, RejectsInvalidConfig) {
  const Aabb area = Aabb::Square(10.0);
  PrimaryConfig config = SmallConfig();
  config.activity = 1.5;
  EXPECT_THROW(PrimaryNetwork(config, area, Rng(1)), ContractViolation);
  config = SmallConfig();
  config.power = 0.0;
  EXPECT_THROW(PrimaryNetwork(config, area, Rng(1)), ContractViolation);
  config = SmallConfig();
  config.radius = -1.0;
  EXPECT_THROW(PrimaryNetwork(config, area, Rng(1)), ContractViolation);
}

}  // namespace
}  // namespace crn::pu
