#include "geom/deployment.h"

#include <algorithm>
#include <cmath>
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

bool IsUnitDiskConnected(const std::vector<Vec2>& points, Aabb area, double radius) {
  if (points.size() <= 1) return true;
  CRN_CHECK(radius > 0.0);
  const SpatialGrid grid(points, area, radius);
  std::vector<char> visited(points.size(), 0);
  // The frontier is every node reached so far, in discovery order; `next`
  // walks it as a FIFO. Each node enters once, so one reserve covers it.
  std::vector<std::int32_t> frontier;
  frontier.reserve(points.size());
  frontier.push_back(0);
  visited[0] = 1;
  for (std::size_t next = 0; next < frontier.size(); ++next) {
    grid.ForEachInDisk(points[frontier[next]], radius, [&](std::int32_t neighbor) {
      if (!visited[neighbor]) {
        visited[neighbor] = 1;
        frontier.push_back(neighbor);
      }
    });
  }
  return frontier.size() == points.size();
}

}  // namespace crn::geom
