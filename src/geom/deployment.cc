#include "geom/deployment.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numbers>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "geom/spatial_grid.h"

namespace crn::geom {

std::vector<Vec2> UniformDeployment(std::int32_t count, Aabb area, Rng& rng) {
  CRN_CHECK(count >= 0);
  std::vector<Vec2> points;
  points.reserve(count);
  for (std::int32_t i = 0; i < count; ++i) {
    points.push_back({rng.UniformDouble(area.min.x, area.max.x),
                      rng.UniformDouble(area.min.y, area.max.y)});
  }
  return points;
}

std::vector<Vec2> JitteredGridDeployment(std::int32_t count, Aabb area, Rng& rng) {
  CRN_CHECK(count >= 0);
  if (count == 0) return {};
  // Pick a grid of ceil(sqrt(count)) columns; fill row-major, jittering each
  // point within its cell.
  const auto cols = static_cast<std::int32_t>(std::ceil(std::sqrt(static_cast<double>(count))));
  const auto rows = (count + cols - 1) / cols;
  const double cell_w = area.Width() / cols;
  const double cell_h = area.Height() / rows;
  std::vector<Vec2> points;
  points.reserve(count);
  for (std::int32_t i = 0; i < count; ++i) {
    const std::int32_t cx = i % cols;
    const std::int32_t cy = i / cols;
    points.push_back({area.min.x + (cx + rng.UniformDouble()) * cell_w,
                      area.min.y + (cy + rng.UniformDouble()) * cell_h});
  }
  return points;
}

std::vector<Vec2> ClusteredDeployment(std::int32_t count, std::int32_t cluster_count,
                                      double cluster_radius, Aabb area, Rng& rng) {
  CRN_CHECK(count >= 0);
  CRN_CHECK(cluster_count > 0);
  CRN_CHECK(cluster_radius > 0.0);
  const std::vector<Vec2> centers = UniformDeployment(cluster_count, area, rng);
  std::vector<Vec2> points;
  points.reserve(count);
  for (std::int32_t i = 0; i < count; ++i) {
    const Vec2 center = centers[rng.UniformInt(static_cast<std::uint64_t>(cluster_count))];
    // Uniform point in a disk: sqrt-radius trick.
    const double rho = cluster_radius * std::sqrt(rng.UniformDouble());
    const double theta = rng.UniformDouble(0.0, 2.0 * M_PI);
    Vec2 p{center.x + rho * std::cos(theta), center.y + rho * std::sin(theta)};
    // Clamp into the area so downstream grids stay well-formed.
    p.x = std::clamp(p.x, area.min.x, area.max.x);
    p.y = std::clamp(p.y, area.min.y, area.max.y);
    points.push_back(p);
  }
  return points;
}

namespace {

// The connectivity grid's cell side over r: strictly below 1/√2, so any two
// points of one cell are within r of each other. The margin covers the
// rounding in the cell assignment and in DistanceSquared (DESIGN.md §5):
// both are relative errors of a few ulps, far below 2^-16.
constexpr double kCellOverRadius = (1.0 - 0x1p-16) / std::numbers::sqrt2;

// Union-find over grid cells, by size with path halving.
class CellSets {
 public:
  explicit CellSets(std::int32_t cells) : parent_(cells), size_(cells, 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::int32_t Find(std::int32_t cell) {
    while (parent_[cell] != cell) {
      parent_[cell] = parent_[parent_[cell]];
      cell = parent_[cell];
    }
    return cell;
  }
  // Joins two roots; the larger set's root stays.
  void Join(std::int32_t a, std::int32_t b) {
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }
  [[nodiscard]] std::int32_t size(std::int32_t root) const { return size_[root]; }

 private:
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> size_;
};

bool AnyPairWithin(std::span<const Vec2> a, std::span<const Vec2> b, double r2) {
  for (const Vec2 p : a) {
    for (const Vec2 q : b) {
      if (DistanceSquared(p, q) <= r2) return true;
    }
  }
  return false;
}

// Connectivity when every cell is a clique (each cell's points pairwise
// within r): the unit-disk graph is connected exactly when the graph of
// non-empty cells is, two cells adjacent when some pair across them is
// within r. Cells narrower than r/√2 reach within r only up to two cells
// away. The first pass joins the 8-neighbourhood, which links most cells;
// the second looks two cells away, and only from cells outside the
// largest set, since a join needs one end outside it.
bool CellCliquesConnected(const SpatialGrid& grid, double radius) {
  const std::int32_t cols = grid.cols();
  const std::int32_t rows = grid.rows();
  const double r2 = radius * radius;
  CellSets sets(cols * rows);
  std::int32_t components = 0;
  for (std::int32_t c = 0; c < cols * rows; ++c) {
    if (!grid.CellPositions(c).empty()) ++components;
  }
  // Looks at the cell (cx + dx, cy + dy) from cell c; true once one set is
  // left.
  const auto link = [&](std::int32_t c, std::int32_t cx, std::int32_t cy, std::int32_t dx,
                        std::int32_t dy) {
    const std::int32_t nx = cx + dx;
    const std::int32_t ny = cy + dy;
    if (nx < 0 || nx >= cols || ny < 0 || ny >= rows) return false;
    const std::int32_t d = ny * cols + nx;
    const std::span<const Vec2> there = grid.CellPositions(d);
    if (there.empty()) return false;
    const std::int32_t a = sets.Find(c);
    const std::int32_t b = sets.Find(d);
    if (a == b || !AnyPairWithin(grid.CellPositions(c), there, r2)) return false;
    sets.Join(a, b);
    return --components == 1;
  };
  if (components <= 1) return true;
  static constexpr std::int32_t kNear[4][2] = {{1, 0}, {-1, 1}, {0, 1}, {1, 1}};
  for (std::int32_t cy = 0; cy < rows; ++cy) {
    for (std::int32_t cx = 0; cx < cols; ++cx) {
      const std::int32_t c = cy * cols + cx;
      if (grid.CellPositions(c).empty()) continue;
      for (const auto& [dx, dy] : kNear) {
        if (link(c, cx, cy, dx, dy)) return true;
      }
    }
  }
  std::int32_t largest = sets.Find(0);
  for (std::int32_t c = 0; c < cols * rows; ++c) {
    if (sets.Find(c) == c && sets.size(c) > sets.size(largest)) largest = c;
  }
  for (std::int32_t cy = 0; cy < rows; ++cy) {
    for (std::int32_t cx = 0; cx < cols; ++cx) {
      const std::int32_t c = cy * cols + cx;
      if (grid.CellPositions(c).empty() || sets.Find(c) == largest) continue;
      for (std::int32_t dy = -2; dy <= 2; ++dy) {
        for (std::int32_t dx = -2; dx <= 2; ++dx) {
          if (std::max(std::abs(dx), std::abs(dy)) == 2 && link(c, cx, cy, dx, dy)) {
            return true;
          }
        }
      }
    }
  }
  return false;
}

// Connectivity by a BFS over the points, for grids whose cells the cap
// widened or that hold points outside the area.
bool PointsConnected(const SpatialGrid& grid, double radius) {
  const auto n = static_cast<std::int32_t>(grid.size());
  std::vector<char> visited(grid.size(), 0);
  // The frontier is every node reached so far, in discovery order; `next`
  // walks it as a FIFO. Each node enters once, so one reserve covers it.
  std::vector<std::int32_t> frontier;
  frontier.reserve(grid.size());
  frontier.push_back(0);
  visited[0] = 1;
  for (std::size_t next = 0; next < frontier.size(); ++next) {
    grid.ForEachInDisk(grid.position(frontier[next]), radius, [&](std::int32_t neighbor) {
      if (!visited[neighbor]) {
        visited[neighbor] = 1;
        frontier.push_back(neighbor);
      }
    });
  }
  return static_cast<std::int32_t>(frontier.size()) == n;
}

}  // namespace

bool IsUnitDiskConnected(const std::vector<Vec2>& points, Aabb area, double radius) {
  if (points.size() <= 1) return true;
  CRN_CHECK(radius > 0.0);
  const double cell = kCellOverRadius * radius;
  const SpatialGrid grid(points, area, cell);
  // A cell is a clique when the cap kept the cell size and no point was
  // clamped into an edge cell from outside the area.
  const bool cliques =
      grid.cell_size() <= cell &&
      std::all_of(points.begin(), points.end(), [&](Vec2 p) { return area.Contains(p); });
  // Near the connectivity threshold most disconnected draws have an
  // isolated point, found here without a traversal. A point sharing a
  // clique cell has a neighbour; any other point asks the grid.
  for (std::int32_t c = 0; c < grid.cols() * grid.rows(); ++c) {
    const std::span<const std::int32_t> ids = grid.CellPoints(c);
    if (cliques && ids.size() >= 2) continue;
    for (const std::int32_t id : ids) {
      if (!grid.HasNeighbor(id, radius)) return false;
    }
  }
  return cliques ? CellCliquesConnected(grid, radius) : PointsConnected(grid, radius);
}

}  // namespace crn::geom
