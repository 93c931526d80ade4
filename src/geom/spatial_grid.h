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
#include <memory>
#include <span>
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
        if (DistanceSquared(cell_positions_[i], center) <= r2) {
          visit(cell_points_[i]);
        }
      }
    }
  }

  // True when some other point lies within `radius` of point `index` (a
  // duplicate of its position counts; the point itself does not): a disk
  // query that stops at the first such point.
  [[nodiscard]] bool HasNeighbor(std::int32_t index, double radius) const {
    const Vec2 center = points_[index];
    const double r2 = radius * radius;
    const CellRange range = CoveringCells(center, radius);
    for (std::int32_t row = range.first_row; row <= range.last_row; row += cols_) {
      const std::int32_t end = cell_start_[row + range.cx_hi + 1];
      for (std::int32_t i = cell_start_[row + range.cx_lo]; i < end; ++i) {
        if (DistanceSquared(cell_positions_[i], center) <= r2 && cell_points_[i] != index) {
          return true;
        }
      }
    }
    return false;
  }

  // How many points the cells a ForEachInDisk(center, radius) query scans
  // hold: a bound on its visits, read off the CSR offsets alone.
  [[nodiscard]] std::int32_t CandidateCount(Vec2 center, double radius) const {
    const CellRange range = CoveringCells(center, radius);
    std::int32_t count = 0;
    for (std::int32_t row = range.first_row; row <= range.last_row; row += cols_) {
      count += cell_start_[row + range.cx_hi + 1] - cell_start_[row + range.cx_lo];
    }
    return count;
  }

  // Convenience: collects indices of all points within `radius` of `center`.
  [[nodiscard]] std::vector<std::int32_t> QueryDisk(Vec2 center, double radius) const;

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] Vec2 position(std::int32_t index) const { return points_[index]; }

  // The cells themselves, for algorithms that work cell by cell. Cell
  // (cx, cy) is cy * cols() + cx; its side is cell_size(), which the cap
  // may have made larger than the size asked for.
  [[nodiscard]] double cell_size() const { return cell_size_; }
  [[nodiscard]] std::int32_t cols() const { return cols_; }
  [[nodiscard]] std::int32_t rows() const { return rows_; }
  // The points in `cell` in insertion order, and their positions.
  [[nodiscard]] std::span<const std::int32_t> CellPoints(std::int32_t cell) const {
    return {cell_points_.data() + cell_start_[cell], CellCount(cell)};
  }
  [[nodiscard]] std::span<const Vec2> CellPositions(std::int32_t cell) const {
    return {cell_positions_.data() + cell_start_[cell], CellCount(cell)};
  }

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

  [[nodiscard]] std::size_t CellCount(std::int32_t cell) const {
    return static_cast<std::size_t>(cell_start_[cell + 1] - cell_start_[cell]);
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
  // CSR layout: cell_start_[c]..cell_start_[c+1] indexes into cell_points_,
  // and cell_positions_[i] is points_[cell_points_[i]], so a disk query
  // reads its candidates' positions as contiguous spans.
  std::vector<std::int32_t> cell_start_;
  std::vector<std::int32_t> cell_points_;
  std::vector<Vec2> cell_positions_;
};

// Mutable membership grid over the same fixed positions: supports
// Insert/Erase of point indices and radius queries over current members.
// Used for the set of actively-sensing SUs, which shrinks as collection
// progresses.
//
// Storage is a fixed-capacity CSR: cell c owns the range [cell_start[c],
// cell_start[c + 1]), sized for every point that lies in it, and its
// members fill the front of that range. Insert appends to the cell and
// Erase swap-removes within it, so nothing allocates after construction,
// and member positions sit next to their ids in visit order. A copy shares
// the immutable layout (positions, cells, offsets) and owns only the
// membership, so two grids over one point set cost one layout.
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
  [[nodiscard]] std::vector<std::int32_t> MembersInIterationOrder() const;

  // Calls visit(index) for every member within `radius` of `center`, in
  // cell-major order (rows bottom to top, cells left to right), then in
  // in-cell order.
  template <typename Visitor>
  void ForEachMemberInDisk(Vec2 center, double radius, Visitor&& visit) const {
    const double r2 = radius * radius;
    const std::int32_t cx_lo = ClampedCell((center.x - radius - bounds_.min.x) / cell_size_, cols_);
    const std::int32_t cx_hi = ClampedCell((center.x + radius - bounds_.min.x) / cell_size_, cols_);
    const std::int32_t cy_lo = ClampedCell((center.y - radius - bounds_.min.y) / cell_size_, rows_);
    const std::int32_t cy_hi = ClampedCell((center.y + radius - bounds_.min.y) / cell_size_, rows_);
    for (std::int32_t cy = cy_lo; cy <= cy_hi; ++cy) {
      for (std::int32_t c = cy * cols_ + cx_lo; c <= cy * cols_ + cx_hi; ++c) {
        const std::int32_t begin = layout_->cell_start[c];
        const std::int32_t end = begin + cell_fill_[c];
        for (std::int32_t i = begin; i < end; ++i) {
          if (DistanceSquared(member_positions_[i], center) <= r2) {
            visit(members_[i]);
          }
        }
      }
    }
  }

 private:
  struct Layout {
    std::vector<Vec2> points;
    std::vector<std::int32_t> cell_of;     // point -> its cell
    std::vector<std::int32_t> cell_start;  // CSR offsets, size cells + 1
  };

  std::shared_ptr<const Layout> layout_;
  Aabb bounds_;
  double cell_size_ = 0.0;
  std::int32_t cols_ = 0;
  std::int32_t rows_ = 0;
  std::vector<std::int32_t> cell_fill_;  // members in each cell
  // Members and their positions, cell by cell in visit order.
  std::vector<std::int32_t> members_;
  std::vector<Vec2> member_positions_;
  // slot_[i] = i's index in members_, or -1 when absent.
  std::vector<std::int32_t> slot_;
  std::size_t member_count_ = 0;
};

}  // namespace crn::geom

#endif  // CRN_GEOM_SPATIAL_GRID_H_
