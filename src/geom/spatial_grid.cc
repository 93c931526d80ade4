#include "geom/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace crn::geom {

namespace {

// The cell cap: a grid holds at most max(kCellsPerPoint · points,
// kMinCellCap) cells (never more than kMaxCells), so its size follows the
// point count, not the area. Every configuration the tests, pins and
// benchmark run stays below kMinCellCap, so their grids use the requested
// cell size and keep its visit order.
constexpr double kCellsPerPoint = 4.0;
constexpr double kMinCellCap = 1 << 20;
constexpr double kMaxCells = 1 << 30;

// Cells along one axis, computed and clamped in double, so the cast to an
// integer only ever sees a value in [1, kMaxCells].
double GridDim(double extent, double cell_size) {
  return std::clamp(std::ceil(extent / cell_size), 1.0, kMaxCells);
}

struct GridShape {
  double cell_size;
  std::int32_t cols;
  std::int32_t rows;
};

// `cell_size`, grown past the cap's bound when the area would need more
// cells than the cap allows.
GridShape ShapeOf(Aabb bounds, double cell_size, std::size_t points) {
  CRN_CHECK(cell_size > 0.0) << "cell_size=" << cell_size;
  const double width = bounds.Width();
  const double height = bounds.Height();
  CRN_CHECK(width > 0.0 && height > 0.0 && std::isfinite(width) && std::isfinite(height))
      << "bounds " << width << " x " << height;
  const double cap = std::min(
      std::max(kCellsPerPoint * static_cast<double>(points), kMinCellCap), kMaxCells);
  double cell = cell_size;
  if (GridDim(width, cell) * GridDim(height, cell) > cap) {
    cell = std::max(cell, std::sqrt(width) * std::sqrt(height / cap));
    while (GridDim(width, cell) * GridDim(height, cell) > cap) cell *= 1.0625;
  }
  return {cell, static_cast<std::int32_t>(GridDim(width, cell)),
          static_cast<std::int32_t>(GridDim(height, cell))};
}

}  // namespace

SpatialGrid::SpatialGrid(std::vector<Vec2> points, Aabb bounds, double cell_size)
    : points_(std::move(points)), bounds_(bounds) {
  const GridShape shape = ShapeOf(bounds, cell_size, points_.size());
  cell_size_ = shape.cell_size;
  cols_ = shape.cols;
  rows_ = shape.rows;

  const std::int32_t num_cells = cols_ * rows_;
  std::vector<std::int32_t> counts(num_cells, 0);
  for (const Vec2& p : points_) {
    ++counts[CellOf(p)];
  }
  cell_start_.assign(num_cells + 1, 0);
  for (std::int32_t c = 0; c < num_cells; ++c) {
    cell_start_[c + 1] = cell_start_[c] + counts[c];
  }
  cell_points_.resize(points_.size());
  std::vector<std::int32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(points_.size()); ++i) {
    cell_points_[cursor[CellOf(points_[i])]++] = i;
  }
}

std::vector<std::int32_t> SpatialGrid::QueryDisk(Vec2 center, double radius) const {
  std::vector<std::int32_t> result;
  ForEachInDisk(center, radius, [&](std::int32_t index) { result.push_back(index); });
  return result;
}

DynamicSpatialGrid::DynamicSpatialGrid(std::vector<Vec2> points, Aabb bounds,
                                       double cell_size)
    : points_(std::move(points)), bounds_(bounds) {
  const GridShape shape = ShapeOf(bounds, cell_size, points_.size());
  cell_size_ = shape.cell_size;
  cols_ = shape.cols;
  rows_ = shape.rows;
  cells_.resize(static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_));
  slot_.assign(points_.size(), -1);
}

void DynamicSpatialGrid::Insert(std::int32_t index) {
  CRN_DCHECK(index >= 0 && index < static_cast<std::int32_t>(points_.size()));
  if (slot_[index] >= 0) return;  // already a member
  auto& cell = cells_[CellOf(points_[index])];
  slot_[index] = static_cast<std::int32_t>(cell.size());
  cell.push_back(index);
  ++member_count_;
}

void DynamicSpatialGrid::Erase(std::int32_t index) {
  CRN_DCHECK(index >= 0 && index < static_cast<std::int32_t>(points_.size()));
  const std::int32_t pos = slot_[index];
  if (pos < 0) return;  // not a member
  auto& cell = cells_[CellOf(points_[index])];
  // Swap-erase, fixing the slot of the element moved into `pos`.
  const std::int32_t moved = cell.back();
  cell[pos] = moved;
  slot_[moved] = pos;
  cell.pop_back();
  slot_[index] = -1;
  --member_count_;
}

}  // namespace crn::geom
