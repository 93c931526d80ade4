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
  cell_positions_.resize(points_.size());
  std::vector<std::int32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(points_.size()); ++i) {
    const std::int32_t at = cursor[CellOf(points_[i])]++;
    cell_points_[at] = i;
    cell_positions_[at] = points_[i];
  }
}

std::vector<std::int32_t> SpatialGrid::QueryDisk(Vec2 center, double radius) const {
  std::vector<std::int32_t> result;
  ForEachInDisk(center, radius, [&](std::int32_t index) { result.push_back(index); });
  return result;
}

DynamicSpatialGrid::DynamicSpatialGrid(std::vector<Vec2> points, Aabb bounds,
                                       double cell_size)
    : bounds_(bounds) {
  const GridShape shape = ShapeOf(bounds, cell_size, points.size());
  cell_size_ = shape.cell_size;
  cols_ = shape.cols;
  rows_ = shape.rows;
  const auto n = static_cast<std::int32_t>(points.size());
  const std::int32_t num_cells = cols_ * rows_;
  // Each cell's capacity is the number of points in it, so a full grid
  // exactly fills members_.
  auto layout = std::make_shared<Layout>();
  layout->cell_of.resize(points.size());
  cell_fill_.assign(num_cells, 0);
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t cx = ClampedCell((points[i].x - bounds_.min.x) / cell_size_, cols_);
    const std::int32_t cy = ClampedCell((points[i].y - bounds_.min.y) / cell_size_, rows_);
    layout->cell_of[i] = cy * cols_ + cx;
    ++cell_fill_[layout->cell_of[i]];
  }
  layout->cell_start.assign(num_cells + 1, 0);
  for (std::int32_t c = 0; c < num_cells; ++c) {
    layout->cell_start[c + 1] = layout->cell_start[c] + cell_fill_[c];
    cell_fill_[c] = 0;
  }
  layout->points = std::move(points);
  layout_ = std::move(layout);
  members_.resize(layout_->points.size());
  member_positions_.resize(layout_->points.size());
  slot_.assign(layout_->points.size(), -1);
}

std::vector<std::int32_t> DynamicSpatialGrid::MembersInIterationOrder() const {
  std::vector<std::int32_t> members;
  members.reserve(member_count_);
  for (std::size_t c = 0; c < cell_fill_.size(); ++c) {
    const auto first = members_.begin() + layout_->cell_start[c];
    members.insert(members.end(), first, first + cell_fill_[c]);
  }
  return members;
}

void DynamicSpatialGrid::Insert(std::int32_t index) {
  CRN_DCHECK(index >= 0 && index < static_cast<std::int32_t>(slot_.size()));
  if (slot_[index] >= 0) return;  // already a member
  const std::int32_t cell = layout_->cell_of[index];
  const std::int32_t pos = layout_->cell_start[cell] + cell_fill_[cell]++;
  members_[pos] = index;
  member_positions_[pos] = layout_->points[index];
  slot_[index] = pos;
  ++member_count_;
}

void DynamicSpatialGrid::Erase(std::int32_t index) {
  CRN_DCHECK(index >= 0 && index < static_cast<std::int32_t>(slot_.size()));
  const std::int32_t pos = slot_[index];
  if (pos < 0) return;  // not a member
  // Swap-erase within the cell, fixing the slot of the member moved into
  // `pos`.
  const std::int32_t cell = layout_->cell_of[index];
  const std::int32_t last = layout_->cell_start[cell] + --cell_fill_[cell];
  const std::int32_t moved = members_[last];
  members_[pos] = moved;
  member_positions_[pos] = member_positions_[last];
  slot_[moved] = pos;
  slot_[index] = -1;
  --member_count_;
}

}  // namespace crn::geom
