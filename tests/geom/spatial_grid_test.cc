#include "geom/spatial_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace crn::geom {
namespace {

std::vector<Vec2> RandomPoints(std::int32_t count, Aabb area, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> points;
  points.reserve(count);
  for (std::int32_t i = 0; i < count; ++i) {
    points.push_back({rng.UniformDouble(area.min.x, area.max.x),
                      rng.UniformDouble(area.min.y, area.max.y)});
  }
  return points;
}

std::vector<std::int32_t> BruteForceDisk(const std::vector<Vec2>& points, Vec2 center,
                                         double radius) {
  std::vector<std::int32_t> result;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(points.size()); ++i) {
    if (Distance(points[i], center) <= radius) result.push_back(i);
  }
  return result;
}

// Property: grid queries agree with brute force over random point sets,
// query centers, and radii — swept across seeds and cell sizes.
class SpatialGridPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpatialGridPropertyTest, MatchesBruteForce) {
  const Aabb area = Aabb::Square(100.0);
  Rng rng(GetParam() * 977 + 1);
  const auto points = RandomPoints(200, area, GetParam());
  for (double cell_size : {3.0, 10.0, 45.0, 200.0}) {
    const SpatialGrid grid(points, area, cell_size);
    for (int q = 0; q < 20; ++q) {
      const Vec2 center{rng.UniformDouble(-10.0, 110.0), rng.UniformDouble(-10.0, 110.0)};
      const double radius = rng.UniformDouble(0.5, 40.0);
      auto got = grid.QueryDisk(center, radius);
      auto want = BruteForceDisk(points, center, radius);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "cell=" << cell_size << " r=" << radius;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialGridPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The visit-order contract, written out independently of the grid: points
// with d² <= r² ordered by cell (row-major from the area's lower-left
// corner, cells clamped to the grid), then by index — the grid inserts
// points into a cell in index order.
std::vector<std::int32_t> CellMajorDisk(const std::vector<Vec2>& points, Aabb area,
                                        double cell_size, Vec2 center, double radius) {
  const auto dim = [cell_size](double extent) {
    return std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(extent / cell_size)));
  };
  const std::int64_t cols = dim(area.Width());
  const std::int64_t rows = dim(area.Height());
  const auto cell_of = [&](Vec2 p) {
    const std::int64_t cx = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::floor((p.x - area.min.x) / cell_size)), 0, cols - 1);
    const std::int64_t cy = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::floor((p.y - area.min.y) / cell_size)), 0, rows - 1);
    return cy * cols + cx;
  };
  std::vector<std::int32_t> result;
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(points.size()); ++i) {
    if (DistanceSquared(points[i], center) <= radius * radius) result.push_back(i);
  }
  std::stable_sort(result.begin(), result.end(), [&](std::int32_t a, std::int32_t b) {
    return cell_of(points[a]) < cell_of(points[b]);
  });
  return result;
}

// Both query forms against the reference, element for element.
void ExpectCellMajorOrder(const SpatialGrid& grid, const std::vector<Vec2>& points,
                          Aabb area, double cell_size, Vec2 center, double radius) {
  const std::vector<std::int32_t> want =
      CellMajorDisk(points, area, cell_size, center, radius);
  std::vector<std::int32_t> visited;
  grid.ForEachInDisk(center, radius, [&](std::int32_t i) { visited.push_back(i); });
  ASSERT_EQ(visited, want) << "ForEachInDisk cell=" << cell_size << " center=("
                           << center.x << ", " << center.y << ") r=" << radius;
  ASSERT_EQ(grid.QueryDisk(center, radius), want)
      << "QueryDisk cell=" << cell_size << " r=" << radius;
}

class SpatialGridOrderTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpatialGridOrderTest, QueriesVisitCellMajorThenIndexOrder) {
  const Aabb area = Aabb::Square(100.0);
  Rng rng(GetParam() * 31 + 5);
  auto points = RandomPoints(300, area, GetParam());
  for (double cell_size : {3.0, 10.0, 45.0, 200.0}) {
    // Points on cell edges and corners, and on the area's far edges.
    std::vector<Vec2> with_edges = points;
    for (int k = 0; k < 20; ++k) {
      const double edge = std::min(100.0, cell_size * static_cast<double>(rng.UniformInt(12)));
      with_edges.push_back({edge, rng.UniformDouble(0.0, 100.0)});
      with_edges.push_back({rng.UniformDouble(0.0, 100.0), edge});
      with_edges.push_back({edge, edge});
    }
    const SpatialGrid grid(with_edges, area, cell_size);
    for (int q = 0; q < 40; ++q) {
      // Centres inside and outside the area.
      const Vec2 center{rng.UniformDouble(-60.0, 160.0), rng.UniformDouble(-60.0, 160.0)};
      ExpectCellMajorOrder(grid, with_edges, area, cell_size, center,
                           rng.UniformDouble(0.0, 80.0));
    }
    // Radius 0 on a point, and radii that cover far more than the area.
    const Vec2 on_point = with_edges[static_cast<std::size_t>(rng.UniformInt(with_edges.size()))];
    ExpectCellMajorOrder(grid, with_edges, area, cell_size, on_point, 0.0);
    ExpectCellMajorOrder(grid, with_edges, area, cell_size, {50.0, 50.0}, 1e12);
    ExpectCellMajorOrder(grid, with_edges, area, cell_size, {-1e6, 3e6}, 1e300);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialGridOrderTest, ::testing::Values(1, 2, 3, 4));

// HasNeighbor against all pairs and against a full disk query: a duplicate
// position is a neighbour, the point itself is not, and a point exactly
// `radius` away counts. Cell sizes include one the cap widens.
TEST(SpatialGridTest, HasNeighborMatchesAllPairsAndDiskQueries) {
  const Aabb area{{-20.0, 5.0}, {40.0, 65.0}};
  auto points = RandomPoints(150, area, 23);
  points.push_back(points[7]);     // duplicate pair
  points.push_back({-20.0, 5.0});  // alone in a corner...
  points.push_back({40.0, 65.0});  // ...and its opposite
  points.push_back({10.0, 5.0});
  points.push_back({13.0, 9.0});   // exactly 5 from the last
  for (const double radius : {0.0, 1.0, 2.5, 5.0}) {
    for (const double cell_size : {radius > 0.0 ? radius : 1.0, 3.3, 1e-9}) {
      const SpatialGrid grid(points, area, cell_size);
      for (std::int32_t i = 0; i < static_cast<std::int32_t>(points.size()); ++i) {
        bool want = false;
        for (std::int32_t j = 0; j < static_cast<std::int32_t>(points.size()); ++j) {
          want = want || (j != i && DistanceSquared(points[i], points[j]) <= radius * radius);
        }
        bool visited_other = false;
        grid.ForEachInDisk(points[i], radius,
                           [&](std::int32_t j) { visited_other = visited_other || j != i; });
        ASSERT_EQ(visited_other, want) << "point " << i << ", r=" << radius;
        ASSERT_EQ(grid.HasNeighbor(i, radius), want)
            << "point " << i << ", r=" << radius << ", cell " << cell_size;
      }
    }
  }
}

// A radius whose cell coordinates pass the int32 range still covers every
// cell (the clamp happens before the cast to a cell index).
TEST(SpatialGridTest, HugeRadiiReachEveryPoint) {
  const std::vector<Vec2> points{{1.0, 1.0}, {95.0, 95.0}};
  const SpatialGrid grid(points, Aabb::Square(100.0), 10.0);
  for (double radius : {1e12, 1e300}) {
    EXPECT_EQ(grid.QueryDisk({5.0, 5.0}, radius), (std::vector<std::int32_t>{0, 1}))
        << "r=" << radius;
  }
  DynamicSpatialGrid members(points, Aabb::Square(100.0), 10.0);
  members.Insert(0);
  members.Insert(1);
  for (double radius : {1e12, 1e300}) {
    std::vector<std::int32_t> hits;
    members.ForEachMemberInDisk({5.0, 5.0}, radius,
                                [&](std::int32_t i) { hits.push_back(i); });
    EXPECT_EQ(hits, (std::vector<std::int32_t>{0, 1})) << "r=" << radius;
  }
}

// A grid's cell count follows its points, not its area: 10^14 cells of 1 m
// over a 10,000 km square (past the int32 range per side, let alone in
// total) become at most 2^20 larger cells, and queries stay exact.
TEST(SpatialGridTest, HugeAreasCapTheCellCount) {
  const Aabb area = Aabb::Square(1e7);
  Rng rng(9);
  auto points = RandomPoints(50, area, 9);
  points.push_back({0.0, 0.0});
  points.push_back({1e7, 1e7});
  const SpatialGrid grid(points, area, 1.0);
  DynamicSpatialGrid members(points, area, 1.0);
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(points.size()); ++i) {
    members.Insert(i);
  }
  for (int q = 0; q < 50; ++q) {
    const Vec2 center{rng.UniformDouble(0.0, 1e7), rng.UniformDouble(0.0, 1e7)};
    const double radius = rng.UniformDouble(1.0, 3e6);
    auto got = grid.QueryDisk(center, radius);
    std::vector<std::int32_t> member_hits;
    members.ForEachMemberInDisk(center, radius,
                                [&](std::int32_t i) { member_hits.push_back(i); });
    const auto want = BruteForceDisk(points, center, radius);
    std::sort(got.begin(), got.end());
    std::sort(member_hits.begin(), member_hits.end());
    ASSERT_EQ(got, want) << "r=" << radius;
    ASSERT_EQ(member_hits, want) << "r=" << radius;
  }
  EXPECT_EQ(grid.QueryDisk({1e7, 1e7}, 0.0), (std::vector<std::int32_t>{51}));
}

TEST(SpatialGridTest, RejectsNonFiniteBounds) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SpatialGrid({}, Aabb{{0.0, 0.0}, {inf, 10.0}}, 1.0), ContractViolation);
  EXPECT_THROW(DynamicSpatialGrid({}, Aabb{{0.0, 0.0}, {10.0, inf}}, 1.0),
               ContractViolation);
}

TEST(SpatialGridTest, EmptyPointSet) {
  const SpatialGrid grid({}, Aabb::Square(10.0), 5.0);
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_TRUE(grid.QueryDisk({5.0, 5.0}, 100.0).empty());
}

TEST(SpatialGridTest, BoundaryPointsIncluded) {
  const std::vector<Vec2> points{{0.0, 0.0}, {10.0, 10.0}};
  const SpatialGrid grid(points, Aabb::Square(10.0), 4.0);
  EXPECT_EQ(grid.QueryDisk({0.0, 0.0}, 0.0).size(), 1u);  // exact hit
  EXPECT_EQ(grid.QueryDisk({5.0, 5.0}, 7.08).size(), 2u);
}

TEST(SpatialGridTest, RejectsBadCellSize) {
  EXPECT_THROW(SpatialGrid({}, Aabb::Square(10.0), 0.0), ContractViolation);
  EXPECT_THROW(SpatialGrid({}, Aabb::Square(10.0), -1.0), ContractViolation);
}

TEST(DynamicSpatialGridTest, MembershipLifecycle) {
  const std::vector<Vec2> points{{1, 1}, {2, 2}, {50, 50}, {99, 99}};
  DynamicSpatialGrid grid(points, Aabb::Square(100.0), 10.0);
  EXPECT_EQ(grid.member_count(), 0u);

  grid.Insert(0);
  grid.Insert(2);
  EXPECT_TRUE(grid.Contains(0));
  EXPECT_FALSE(grid.Contains(1));
  EXPECT_EQ(grid.member_count(), 2u);

  std::vector<std::int32_t> hits;
  grid.ForEachMemberInDisk({0, 0}, 5.0, [&](std::int32_t i) { hits.push_back(i); });
  EXPECT_EQ(hits, (std::vector<std::int32_t>{0}));

  grid.Erase(0);
  EXPECT_FALSE(grid.Contains(0));
  hits.clear();
  grid.ForEachMemberInDisk({0, 0}, 200.0, [&](std::int32_t i) { hits.push_back(i); });
  EXPECT_EQ(hits, (std::vector<std::int32_t>{2}));
}

TEST(DynamicSpatialGridTest, DoubleInsertAndEraseAreIdempotent) {
  const std::vector<Vec2> points{{1, 1}, {2, 2}};
  DynamicSpatialGrid grid(points, Aabb::Square(10.0), 5.0);
  grid.Insert(0);
  grid.Insert(0);
  EXPECT_EQ(grid.member_count(), 1u);
  grid.Erase(0);
  grid.Erase(0);
  EXPECT_EQ(grid.member_count(), 0u);
}

TEST(DynamicSpatialGridTest, SwapEraseKeepsOtherMembersFindable) {
  // Points sharing one cell exercise the swap-erase slot fix.
  const std::vector<Vec2> points{{1, 1}, {1.5, 1.5}, {2, 2}};
  DynamicSpatialGrid grid(points, Aabb::Square(10.0), 10.0);
  grid.Insert(0);
  grid.Insert(1);
  grid.Insert(2);
  grid.Erase(0);  // last-inserted member 2 is swapped into slot 0
  grid.Erase(2);
  std::vector<std::int32_t> hits;
  grid.ForEachMemberInDisk({1.5, 1.5}, 5.0, [&](std::int32_t i) { hits.push_back(i); });
  EXPECT_EQ(hits, (std::vector<std::int32_t>{1}));
}

// Property: a random insert/erase workload tracked against a reference set.
TEST(DynamicSpatialGridTest, RandomWorkloadMatchesReference) {
  const Aabb area = Aabb::Square(50.0);
  const auto points = RandomPoints(100, area, 99);
  DynamicSpatialGrid grid(points, area, 7.0);
  std::vector<char> member(points.size(), 0);
  Rng rng(123);
  for (int step = 0; step < 2000; ++step) {
    const auto i = static_cast<std::int32_t>(rng.UniformInt(points.size()));
    if (rng.Bernoulli(0.5)) {
      grid.Insert(i);
      member[i] = 1;
    } else {
      grid.Erase(i);
      member[i] = 0;
    }
    if (step % 100 == 0) {
      const Vec2 center{rng.UniformDouble(0.0, 50.0), rng.UniformDouble(0.0, 50.0)};
      const double radius = rng.UniformDouble(1.0, 25.0);
      std::vector<std::int32_t> got;
      grid.ForEachMemberInDisk(center, radius, [&](std::int32_t v) { got.push_back(v); });
      std::sort(got.begin(), got.end());
      std::vector<std::int32_t> want;
      for (std::int32_t v = 0; v < static_cast<std::int32_t>(points.size()); ++v) {
        if (member[v] && Distance(points[v], center) <= radius) want.push_back(v);
      }
      ASSERT_EQ(got, want) << "step " << step;
    }
  }
}

// The order model of a membership grid: one vector per cell (row-major
// from the area's lower-left corner), Insert appends and Erase swap-removes
// within the cell — the semantics the MAC's arm order was pinned under.
class SwapEraseModel {
 public:
  SwapEraseModel(const std::vector<Vec2>& points, Aabb area, double cell_size)
      : points_(points), area_(area), cell_size_(cell_size) {
    cols_ = std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(area.Width() / cell_size)));
    rows_ = std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(area.Height() / cell_size)));
    cells_.resize(static_cast<std::size_t>(cols_ * rows_));
  }

  void Insert(std::int32_t i) {
    std::vector<std::int32_t>& cell = cells_[CellOf(points_[i])];
    if (std::find(cell.begin(), cell.end(), i) == cell.end()) cell.push_back(i);
  }
  void Erase(std::int32_t i) {
    std::vector<std::int32_t>& cell = cells_[CellOf(points_[i])];
    const auto it = std::find(cell.begin(), cell.end(), i);
    if (it == cell.end()) return;
    *it = cell.back();
    cell.pop_back();
  }
  [[nodiscard]] std::vector<std::int32_t> Members() const {
    std::vector<std::int32_t> all;
    for (const auto& cell : cells_) all.insert(all.end(), cell.begin(), cell.end());
    return all;
  }
  // Members within the disk, cell-major over the covering cells.
  [[nodiscard]] std::vector<std::int32_t> Disk(Vec2 center, double radius) const {
    std::vector<std::int32_t> result;
    for (std::int32_t i : Members()) {
      if (DistanceSquared(points_[i], center) <= radius * radius) result.push_back(i);
    }
    return result;
  }

 private:
  [[nodiscard]] std::size_t CellOf(Vec2 p) const {
    const std::int64_t cx = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::floor((p.x - area_.min.x) / cell_size_)), 0, cols_ - 1);
    const std::int64_t cy = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::floor((p.y - area_.min.y) / cell_size_)), 0, rows_ - 1);
    return static_cast<std::size_t>(cy * cols_ + cx);
  }

  const std::vector<Vec2>& points_;
  Aabb area_;
  double cell_size_;
  std::int64_t cols_ = 1;
  std::int64_t rows_ = 1;
  std::vector<std::vector<std::int32_t>> cells_;
};

std::vector<std::int32_t> VisitOrder(const DynamicSpatialGrid& grid, Vec2 center,
                                     double radius) {
  std::vector<std::int32_t> visited;
  grid.ForEachMemberInDisk(center, radius, [&](std::int32_t v) { visited.push_back(v); });
  return visited;
}

// Unsorted visit order over random Insert/Erase against the swap-erase
// model (the MAC's freeze and resume arms follow this order), and the
// checkpoint round trip: re-inserting MembersInIterationOrder into a fresh
// grid, and into a copy of one, reproduces the order.
TEST(DynamicSpatialGridTest, VisitOrderMatchesPerCellSwapEraseModel) {
  const Aabb area = Aabb::Square(60.0);
  for (std::uint64_t seed : {5, 6, 7}) {
    for (double cell_size : {4.0, 9.0, 25.0}) {
      const auto points = RandomPoints(160, area, seed);
      DynamicSpatialGrid grid(points, area, cell_size);
      SwapEraseModel model(points, area, cell_size);
      Rng rng(seed * 101 + 7);
      for (int step = 0; step < 3000; ++step) {
        const auto i = static_cast<std::int32_t>(rng.UniformInt(points.size()));
        if (rng.Bernoulli(0.55)) {
          grid.Insert(i);
          model.Insert(i);
        } else {
          grid.Erase(i);
          model.Erase(i);
        }
        if (step % 50 != 0) continue;
        ASSERT_EQ(grid.MembersInIterationOrder(), model.Members())
            << "seed " << seed << " cell " << cell_size << " step " << step;
        ASSERT_EQ(grid.member_count(), model.Members().size());
        const Vec2 center{rng.UniformDouble(-10.0, 70.0), rng.UniformDouble(-10.0, 70.0)};
        const double radius = rng.UniformDouble(0.0, 40.0);
        ASSERT_EQ(VisitOrder(grid, center, radius), model.Disk(center, radius))
            << "seed " << seed << " cell " << cell_size << " step " << step;

        const std::vector<std::int32_t> saved = grid.MembersInIterationOrder();
        DynamicSpatialGrid fresh(points, area, cell_size);
        DynamicSpatialGrid copied(fresh);  // shares the layout, as the MAC's grids do
        for (const std::int32_t v : saved) {
          fresh.Insert(v);
          copied.Insert(v);
        }
        ASSERT_EQ(fresh.MembersInIterationOrder(), saved);
        ASSERT_EQ(copied.MembersInIterationOrder(), saved);
        ASSERT_EQ(VisitOrder(fresh, center, radius), VisitOrder(grid, center, radius));
        ASSERT_EQ(fresh.member_count(), 0U + saved.size());
      }
    }
  }
}

}  // namespace
}  // namespace crn::geom
