#include "geom/deployment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"

namespace crn::geom {
namespace {

TEST(DeploymentTest, UniformCountAndBounds) {
  Rng rng(1);
  const Aabb area{{10.0, 20.0}, {30.0, 50.0}};
  const auto points = UniformDeployment(500, area, rng);
  ASSERT_EQ(points.size(), 500u);
  for (const Vec2& p : points) {
    ASSERT_TRUE(area.Contains(p)) << p;
  }
}

TEST(DeploymentTest, UniformCoversAreaEvenly) {
  Rng rng(2);
  const Aabb area = Aabb::Square(100.0);
  const auto points = UniformDeployment(10000, area, rng);
  // Quadrant counts within 5% of each other.
  int quadrant[4] = {0, 0, 0, 0};
  for (const Vec2& p : points) {
    ++quadrant[(p.x >= 50.0 ? 1 : 0) + (p.y >= 50.0 ? 2 : 0)];
  }
  for (int q : quadrant) {
    EXPECT_NEAR(q, 2500, 200);
  }
}

TEST(DeploymentTest, UniformZeroCount) {
  Rng rng(3);
  EXPECT_TRUE(UniformDeployment(0, Aabb::Square(10.0), rng).empty());
}

TEST(DeploymentTest, JitteredGridCountAndBounds) {
  Rng rng(4);
  const Aabb area = Aabb::Square(100.0);
  const auto points = JitteredGridDeployment(37, area, rng);
  ASSERT_EQ(points.size(), 37u);
  for (const Vec2& p : points) {
    ASSERT_TRUE(area.Contains(p));
  }
}

TEST(DeploymentTest, JitteredGridIsWellSpread) {
  Rng rng(5);
  const Aabb area = Aabb::Square(100.0);
  const auto points = JitteredGridDeployment(100, area, rng);  // 10x10 cells
  // One point per 10x10 cell by construction.
  std::vector<int> cells(100, 0);
  for (const Vec2& p : points) {
    const int cx = std::min(9, static_cast<int>(p.x / 10.0));
    const int cy = std::min(9, static_cast<int>(p.y / 10.0));
    ++cells[cy * 10 + cx];
  }
  for (int c : cells) {
    EXPECT_EQ(c, 1);
  }
}

TEST(DeploymentTest, ClusteredStaysInArea) {
  Rng rng(6);
  const Aabb area = Aabb::Square(50.0);
  const auto points = ClusteredDeployment(300, 4, 8.0, area, rng);
  ASSERT_EQ(points.size(), 300u);
  for (const Vec2& p : points) {
    ASSERT_TRUE(area.Contains(p));
  }
}

TEST(DeploymentTest, ClusteredIsActuallyClustered) {
  Rng rng(7);
  const Aabb area = Aabb::Square(1000.0);
  const auto points = ClusteredDeployment(400, 3, 10.0, area, rng);
  // Mean nearest-neighbor distance should be far below the uniform
  // expectation (~0.5/sqrt(density) = ~25 for 400 points on 1000^2).
  double total_nn = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double best = 1e18;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i != j) best = std::min(best, Distance(points[i], points[j]));
    }
    total_nn += best;
  }
  EXPECT_LT(total_nn / points.size(), 5.0);
}

TEST(ConnectivityTest, SinglePointAndEmptyAreConnected) {
  EXPECT_TRUE(IsUnitDiskConnected({}, Aabb::Square(10.0), 1.0));
  EXPECT_TRUE(IsUnitDiskConnected({{5.0, 5.0}}, Aabb::Square(10.0), 1.0));
}

TEST(ConnectivityTest, LineTopology) {
  const std::vector<Vec2> line{{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  EXPECT_TRUE(IsUnitDiskConnected(line, Aabb::Square(4.0), 1.0));
  EXPECT_FALSE(IsUnitDiskConnected(line, Aabb::Square(4.0), 0.9));
}

TEST(ConnectivityTest, TwoIslands) {
  const std::vector<Vec2> points{{0, 0}, {1, 0}, {10, 10}, {11, 10}};
  EXPECT_FALSE(IsUnitDiskConnected(points, Aabb::Square(12.0), 2.0));
  EXPECT_TRUE(IsUnitDiskConnected(points, Aabb::Square(12.0), 15.0));
}

// The definition: union-find over every pair within `radius`.
bool ConnectedByAllPairs(const std::vector<Vec2>& points, double radius) {
  std::vector<std::size_t> parent(points.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  std::size_t components = points.size();
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      if (DistanceSquared(points[i], points[j]) > radius * radius) continue;
      const std::size_t a = find(i);
      const std::size_t b = find(j);
      if (a != b) {
        parent[a] = b;
        --components;
      }
    }
  }
  return components <= 1;
}

bool HasIsolatedPoint(const std::vector<Vec2>& points, double radius) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool neighbor = false;
    for (std::size_t j = 0; j < points.size() && !neighbor; ++j) {
      neighbor = j != i && DistanceSquared(points[i], points[j]) <= radius * radius;
    }
    if (!neighbor) return true;
  }
  return false;
}

void ExpectMatchesAllPairs(const std::vector<Vec2>& points, Aabb area, double radius,
                           const std::string& label) {
  EXPECT_EQ(IsUnitDiskConnected(points, area, radius), ConnectedByAllPairs(points, radius))
      << label << " (" << points.size() << " points, r=" << radius << ")";
}

// Random deployments near the connectivity threshold (2 to 12 expected
// neighbours), in areas off the origin, uniform, clustered and jittered:
// the verdict is the all-pairs one, including for draws that are
// disconnected without an isolated point.
TEST(ConnectivityTest, MatchesAllPairsUnionFindNearTheThreshold) {
  Rng rng(31);
  int connected = 0;
  int isolated = 0;
  int split = 0;  // disconnected, no isolated point
  for (int draw = 0; draw < 3000; ++draw) {
    const auto n = static_cast<std::int32_t>(2 + rng.UniformInt(std::uint64_t{90}));
    const double side = rng.UniformDouble(5.0, 80.0);
    const Vec2 corner{rng.UniformDouble(-100.0, 100.0), rng.UniformDouble(-100.0, 100.0)};
    const Aabb area{corner, {corner.x + side, corner.y + side * rng.UniformDouble(0.5, 1.5)}};
    const double degree = rng.UniformDouble(2.0, 12.0);
    const double radius = std::sqrt(degree * area.Area() / (M_PI * n));
    std::vector<Vec2> points;
    switch (draw % 4) {
      case 0:
        points = ClusteredDeployment(n, 1 + static_cast<std::int32_t>(rng.UniformInt(std::uint64_t{4})),
                                     side / 4.0, area, rng);
        break;
      case 1:
        points = JitteredGridDeployment(n, area, rng);
        break;
      default:
        points = UniformDeployment(n, area, rng);
        break;
    }
    const bool want = ConnectedByAllPairs(points, radius);
    ASSERT_EQ(IsUnitDiskConnected(points, area, radius), want) << "draw " << draw;
    if (want) {
      ++connected;
    } else if (HasIsolatedPoint(points, radius)) {
      ++isolated;
    } else {
      ++split;
    }
  }
  // Every path of the test is taken many times.
  EXPECT_GT(connected, 300);
  EXPECT_GT(isolated, 300);
  EXPECT_GT(split, 100);
}

// Disconnected draws that the isolated-point scan passes: an isolated pair
// or triple off a connected body; and the same body with an isolated point.
TEST(ConnectivityTest, IsolatedPointsPairsAndTriples) {
  Rng rng(5);
  const Aabb area = Aabb::Square(100.0);
  const std::vector<Vec2> body = JitteredGridDeployment(100, Aabb::Square(50.0), rng);
  ASSERT_TRUE(IsUnitDiskConnected(body, area, 10.0));
  const std::vector<std::vector<Vec2>> islands{
      {{90.0, 90.0}},
      {{90.0, 90.0}, {91.0, 90.0}},
      {{90.0, 90.0}, {91.0, 90.0}, {90.0, 91.0}},
      {{90.0, 90.0}, {99.0, 90.0}, {99.0, 99.0}}};
  for (const std::vector<Vec2>& island : islands) {
    for (const bool first : {false, true}) {
      std::vector<Vec2> points = first ? island : body;
      const std::vector<Vec2>& rest = first ? body : island;
      points.insert(points.end(), rest.begin(), rest.end());
      EXPECT_FALSE(IsUnitDiskConnected(points, area, 10.0)) << island.size() << " points";
      // A chain of stepping stones joins the island to the body.
      for (double step = 50.0; step < 90.0; step += 5.0) points.push_back({step, step});
      EXPECT_TRUE(IsUnitDiskConnected(points, area, 10.0)) << island.size() << " points";
    }
  }
}

TEST(ConnectivityTest, DuplicatePoints) {
  const Aabb area = Aabb::Square(20.0);
  const Vec2 p{3.0, 4.0};
  const Vec2 q{15.0, 16.0};
  EXPECT_TRUE(IsUnitDiskConnected({p, p}, area, 1.0));
  EXPECT_TRUE(IsUnitDiskConnected({p, p, p, p, p}, area, 1.0));
  EXPECT_FALSE(IsUnitDiskConnected({p, p, p, q, q}, area, 1.0));
  EXPECT_FALSE(IsUnitDiskConnected({p, q, q}, area, 1.0));
  EXPECT_TRUE(IsUnitDiskConnected({p, q, q}, area, 17.0));
  // A duplicated body point; then a duplicated pair off the body.
  std::vector<Vec2> points{{1.0, 1.0}, {1.5, 1.0}, {2.0, 1.0}, {2.0, 1.0}};
  EXPECT_TRUE(IsUnitDiskConnected(points, area, 0.6));
  points.push_back(q);
  points.push_back(q);
  EXPECT_FALSE(IsUnitDiskConnected(points, area, 0.6));
}

// The predicate is DistanceSquared(p, q) <= r²: a pair exactly r apart is
// linked, one a ulp further is not, along an axis and on a diagonal. Chains
// at 0.99 r cross one or two cells of the connectivity grid per link.
TEST(ConnectivityTest, PairsExactlyRApartAndAUlpPast) {
  const Aabb area = Aabb::Square(10.0);
  const double past3 = std::nextafter(3.0, 4.0);
  const double past4 = std::nextafter(4.0, 5.0);
  EXPECT_TRUE(IsUnitDiskConnected({{2.0, 3.0}, {3.0, 3.0}}, area, 1.0));
  EXPECT_FALSE(IsUnitDiskConnected({{2.0, 3.0}, {past3, 3.0}}, area, 1.0));
  EXPECT_TRUE(IsUnitDiskConnected({{3.0, 2.0}, {3.0, 3.0}}, area, 1.0));
  EXPECT_FALSE(IsUnitDiskConnected({{3.0, 2.0}, {3.0, past3}}, area, 1.0));
  EXPECT_TRUE(IsUnitDiskConnected({{0.0, 0.0}, {3.0, 4.0}}, area, 5.0));
  EXPECT_FALSE(IsUnitDiskConnected({{0.0, 0.0}, {3.0, past4}}, area, 5.0));
  // The same pairs inside dense bodies, so the isolated-point scan passes
  // and the verdict falls to the traversal.
  for (const bool exact : {true, false}) {
    std::vector<Vec2> points;
    for (int k = 0; k <= 4; ++k) points.push_back({0.5 * k, 1.0});
    for (int k = 0; k <= 4; ++k) points.push_back({3.2 + 0.5 * k, 1.0});
    points.push_back({2.0, 1.5});
    points.push_back({exact ? 3.0 : past3, 1.5});
    EXPECT_EQ(IsUnitDiskConnected(points, area, 1.0), exact);
    ExpectMatchesAllPairs(points, area, 1.0, exact ? "exact" : "a ulp past");
  }
  const Aabb wide = Aabb::Square(100.0);
  for (const double spacing : {0.99, 1.0, 1.01}) {
    std::vector<Vec2> row;
    std::vector<Vec2> diagonal;
    for (int k = 0; k < 60; ++k) {
      row.push_back({1.0 + spacing * k, 7.0});
      diagonal.push_back({1.0 + spacing * k / std::sqrt(2.0), 1.0 + spacing * k / std::sqrt(2.0)});
    }
    ExpectMatchesAllPairs(row, wide, 1.0, "row");
    ExpectMatchesAllPairs(diagonal, wide, 1.0, "diagonal");
  }
}

// Points on the edges and corners of the connectivity grid's cells (side
// just below r/√2, deployment.cc), where the cell assignment rounds: random
// subsets of the edge lattice against all pairs.
TEST(ConnectivityTest, PointsOnCellEdges) {
  Rng rng(12);
  const double radius = 3.0;
  const double cell = (1.0 - 0x1p-16) / std::numbers::sqrt2 * radius;
  const Aabb area{{-7.0, -7.0}, {-7.0 + 12 * cell, -7.0 + 12 * cell}};
  for (int draw = 0; draw < 300; ++draw) {
    std::vector<Vec2> points;
    for (int i = 0; i <= 12; ++i) {
      for (int j = 0; j <= 12; ++j) {
        if (rng.Bernoulli(0.35)) points.push_back({area.min.x + i * cell, area.min.y + j * cell});
      }
    }
    ExpectMatchesAllPairs(points, area, radius, "edge lattice draw " + std::to_string(draw));
  }
}

TEST(ConnectivityTest, TwoPoints) {
  const Aabb area = Aabb::Square(10.0);
  EXPECT_TRUE(IsUnitDiskConnected({{1.0, 1.0}, {1.5, 1.0}}, area, 1.0));
  EXPECT_FALSE(IsUnitDiskConnected({{1.0, 1.0}, {5.0, 1.0}}, area, 1.0));
  EXPECT_TRUE(IsUnitDiskConnected({{0.0, 0.0}, {10.0, 10.0}}, area, 15.0));
}

// Areas so large that the grid's cell cap widens the cells past r/√2, and
// points outside the area (clamped into edge cells): the general traversal.
TEST(ConnectivityTest, CappedCellsAndPointsOutsideTheArea) {
  Rng rng(44);
  const Aabb huge = Aabb::Square(1e7);
  for (int draw = 0; draw < 20; ++draw) {
    std::vector<Vec2> points;
    Vec2 at{rng.UniformDouble(0.0, 1e7), rng.UniformDouble(0.0, 1e7)};
    for (int k = 0; k < 40; ++k) {
      points.push_back(at);
      at = {std::clamp(at.x + rng.UniformDouble(-0.8, 0.8), 0.0, 1e7),
            std::clamp(at.y + rng.UniformDouble(-0.8, 0.8), 0.0, 1e7)};
    }
    if (draw % 2 == 1) points.push_back({rng.UniformDouble(0.0, 1e7), rng.UniformDouble(0.0, 1e7)});
    if (draw % 4 == 2) {
      points.push_back(points.back() + Vec2{5.0, 0.0});
      points.push_back(points.back() + Vec2{0.5, 0.0});
    }
    ExpectMatchesAllPairs(points, huge, 1.0, "capped draw " + std::to_string(draw));
  }
  const Aabb small = Aabb::Square(10.0);
  for (int draw = 0; draw < 200; ++draw) {
    const std::vector<Vec2> points = UniformDeployment(
        20, Aabb{{-10.0, -5.0}, {25.0, 15.0}}, rng);
    ExpectMatchesAllPairs(points, small, rng.UniformDouble(3.0, 9.0),
                          "outside draw " + std::to_string(draw));
  }
}

TEST(ConnectivityTest, DenseUniformIsConnected) {
  Rng rng(8);
  const Aabb area = Aabb::Square(50.0);
  // 500 nodes, r=10 on 50x50: supercritical by a wide margin.
  const auto points = UniformDeployment(500, area, rng);
  EXPECT_TRUE(IsUnitDiskConnected(points, area, 10.0));
}

}  // namespace
}  // namespace crn::geom
