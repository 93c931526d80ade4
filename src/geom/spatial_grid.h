// Uniform spatial hash grid over a fixed point set, supporting fast
// "all points within radius d of q" queries.
//
// Positions are fixed at construction (nodes do not move in this model);
// what changes at runtime is *membership* of dynamic subsets (e.g. the set
// of SUs currently carrier-sensing), which callers track separately and
// filter in the visit callback. A dynamic variant (DynamicSpatialGrid)
// supports insert/erase for exactly that use case.
#ifndef CRN_GEOM_SPATIAL_GRID_H_
#define CRN_GEOM_SPATIAL_GRID_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "geom/vec2.h"

namespace crn::geom {

// The grid cell holding coordinate `raw` (in cells from the grid's lower
// edge), clamped to [0, limit). The clamp runs in double before the cast:
// a huge query radius puts `raw` past the int32 range, where the cast
// itself would be undefined. NaN clamps to 0.
inline std::int32_t ClampedCell(double raw, std::int32_t limit) {
  return static_cast<std::int32_t>(raw >= 0.0 ? std::min(raw, limit - 1.0) : 0.0);
}

// Immutable point index. Query cost is O(points in the covering cells).
class SpatialGrid {
 public:
  // `cell_size` should be on the order of the typical query radius. A grid
  // whose area would need more than max(4 · points, 2^20) cells of that
  // size uses larger cells instead (spatial_grid.cc).
  SpatialGrid(std::vector<Vec2> points, Aabb bounds, double cell_size);

  // Calls visit(index) for every point with Distance(point, center) <= radius,
  // in cell-major order (rows bottom to top, cells left to right), then in
  // insertion order within a cell. A row's cells are adjacent in the CSR
  // arrays, so each row of the covering range is scanned as one span.
  template <typename Visitor>
  void ForEachInDisk(Vec2 center, double radius, Visitor&& visit) const {
    const double r2 = radius * radius;
    const CellRange range = CoveringCells(center, radius);
    for (std::int32_t row = range.first_row; row <= range.last_row; row += cols_) {
      const std::int32_t end = cell_start_[row + range.cx_hi + 1];
      for (std::int32_t i = cell_start_[row + range.cx_lo]; i < end; ++i) {
        const std::int32_t point = cell_points_[i];
        if (DistanceSquared(points_[point], center) <= r2) {
          visit(point);
        }
      }
    }
  }

  // Convenience: collects indices of all points within `radius` of `center`.
  [[nodiscard]] std::vector<std::int32_t> QueryDisk(Vec2 center, double radius) const;

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] Vec2 position(std::int32_t index) const { return points_[index]; }

 private:
  // The covering cells of a disk: rows [first_row, last_row] (as offsets
  // cy * cols_ into the CSR) by columns [cx_lo, cx_hi].
  struct CellRange {
    std::int32_t first_row;
    std::int32_t last_row;
    std::int32_t cx_lo;
    std::int32_t cx_hi;
  };

  [[nodiscard]] CellRange CoveringCells(Vec2 center, double radius) const {
    return {ClampedCell((center.y - radius - bounds_.min.y) / cell_size_, rows_) * cols_,
            ClampedCell((center.y + radius - bounds_.min.y) / cell_size_, rows_) * cols_,
            ClampedCell((center.x - radius - bounds_.min.x) / cell_size_, cols_),
            ClampedCell((center.x + radius - bounds_.min.x) / cell_size_, cols_)};
  }

  [[nodiscard]] std::int32_t CellOf(Vec2 p) const {
    const std::int32_t cx = ClampedCell((p.x - bounds_.min.x) / cell_size_, cols_);
    const std::int32_t cy = ClampedCell((p.y - bounds_.min.y) / cell_size_, rows_);
    return cy * cols_ + cx;
  }

  std::vector<Vec2> points_;
  Aabb bounds_;
  double cell_size_ = 0.0;
  std::int32_t cols_ = 0;
  std::int32_t rows_ = 0;
  // CSR layout: cell_start_[c]..cell_start_[c+1] indexes into cell_points_.
  std::vector<std::int32_t> cell_start_;
  std::vector<std::int32_t> cell_points_;
};

// Mutable membership grid over the same fixed positions: supports
// Insert/Erase of point indices and radius queries over current members.
// Used for the set of actively-sensing SUs, which shrinks as collection
// progresses.
class DynamicSpatialGrid {
 public:
  // Cell size and cap as for SpatialGrid.
  DynamicSpatialGrid(std::vector<Vec2> points, Aabb bounds, double cell_size);

  void Insert(std::int32_t index);
  void Erase(std::int32_t index);
  [[nodiscard]] bool Contains(std::int32_t index) const { return slot_[index] >= 0; }
  [[nodiscard]] std::size_t member_count() const { return member_count_; }

  // Members in (cell-major, in-cell) order — the exact order disk queries
  // visit them. In-cell order is history-dependent (Erase swap-removes), so
  // a checkpointed grid is rebuilt by re-Inserting members in this order
  // into a fresh grid (Insert appends, reproducing the layout bit-exactly).
  [[nodiscard]] std::vector<std::int32_t> MembersInIterationOrder() const {
    std::vector<std::int32_t> members;
    members.reserve(member_count_);
    for (const std::vector<std::int32_t>& cell : cells_) {
      members.insert(members.end(), cell.begin(), cell.end());
    }
    return members;
  }

  template <typename Visitor>
  void ForEachMemberInDisk(Vec2 center, double radius, Visitor&& visit) const {
    const double r2 = radius * radius;
    const std::int32_t cx_lo = ClampedCell((center.x - radius - bounds_.min.x) / cell_size_, cols_);
    const std::int32_t cx_hi = ClampedCell((center.x + radius - bounds_.min.x) / cell_size_, cols_);
    const std::int32_t cy_lo = ClampedCell((center.y - radius - bounds_.min.y) / cell_size_, rows_);
    const std::int32_t cy_hi = ClampedCell((center.y + radius - bounds_.min.y) / cell_size_, rows_);
    for (std::int32_t cy = cy_lo; cy <= cy_hi; ++cy) {
      for (std::int32_t cx = cx_lo; cx <= cx_hi; ++cx) {
        for (std::int32_t member : cells_[cy * cols_ + cx]) {
          if (DistanceSquared(points_[member], center) <= r2) {
            visit(member);
          }
        }
      }
    }
  }

 private:
  [[nodiscard]] std::int32_t CellOf(Vec2 p) const {
    const std::int32_t cx = ClampedCell((p.x - bounds_.min.x) / cell_size_, cols_);
    const std::int32_t cy = ClampedCell((p.y - bounds_.min.y) / cell_size_, rows_);
    return cy * cols_ + cx;
  }

  std::vector<Vec2> points_;
  Aabb bounds_;
  double cell_size_ = 0.0;
  std::int32_t cols_ = 0;
  std::int32_t rows_ = 0;
  std::vector<std::vector<std::int32_t>> cells_;
  // slot_[i] = position of i within its cell vector, or -1 when absent.
  std::vector<std::int32_t> slot_;
  std::size_t member_count_ = 0;
};

}  // namespace crn::geom

#endif  // CRN_GEOM_SPATIAL_GRID_H_
