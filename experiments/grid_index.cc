#include "experiments/grid_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gprq::index {

namespace {

constexpr size_t kMaxCells = size_t{1} << 24;

}  // namespace

Result<UniformGridIndex> UniformGridIndex::Build(
    const std::vector<la::Vector>& points, size_t cells_per_dim) {
  if (points.empty()) {
    return Status::InvalidArgument("cannot build a grid over nothing");
  }
  if (cells_per_dim < 1) {
    return Status::InvalidArgument("cells_per_dim must be >= 1");
  }
  const size_t d = points.front().dim();
  double total_cells = 1.0;
  for (size_t i = 0; i < d; ++i) {
    total_cells *= static_cast<double>(cells_per_dim);
  }
  if (total_cells > static_cast<double>(kMaxCells)) {
    return Status::InvalidArgument(
        "grid too large; reduce cells_per_dim for this dimensionality");
  }

  geom::Rect bounds = geom::Rect::Empty(d);
  for (const auto& p : points) {
    if (p.dim() != d) {
      return Status::InvalidArgument("inconsistent point dimensions");
    }
    bounds.ExpandToInclude(p);
  }
  la::Vector lo = bounds.lo();
  la::Vector widths(d);
  for (size_t i = 0; i < d; ++i) {
    const double extent = bounds.hi()[i] - lo[i];
    widths[i] = (extent > 0.0) ? extent / static_cast<double>(cells_per_dim)
                               : 1.0;
  }

  std::vector<std::vector<std::pair<la::Vector, ObjectId>>> cells(
      static_cast<size_t>(total_cells));
  UniformGridIndex grid(std::move(lo), std::move(widths), cells_per_dim,
                        std::move(cells), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    size_t index = 0;
    for (size_t j = 0; j < d; ++j) {
      index = index * cells_per_dim + grid.CellOf(j, points[i][j]);
    }
    grid.cells_[index].emplace_back(points[i], static_cast<ObjectId>(i));
  }
  return grid;
}

size_t UniformGridIndex::CellOf(size_t dim_index, double coordinate) const {
  const double offset = (coordinate - lo_[dim_index]) / widths_[dim_index];
  const auto cell = static_cast<long>(std::floor(offset));
  return static_cast<size_t>(
      std::clamp<long>(cell, 0, static_cast<long>(cells_per_dim_) - 1));
}

void UniformGridIndex::RangeQuery(
    const geom::Rect& box,
    const std::function<void(const la::Vector&, ObjectId)>& visit) const {
  assert(box.dim() == dim());
  const size_t d = dim();
  std::vector<size_t> cell_lo(d), cell_hi(d), cell(d);
  for (size_t i = 0; i < d; ++i) {
    cell_lo[i] = CellOf(i, box.lo()[i]);
    cell_hi[i] = CellOf(i, box.hi()[i]);
    cell[i] = cell_lo[i];
  }
  for (;;) {
    size_t index = 0;
    for (size_t i = 0; i < d; ++i) index = index * cells_per_dim_ + cell[i];
    ++cells_touched_;
    for (const auto& [point, id] : cells_[index]) {
      if (box.Contains(point)) visit(point, id);
    }
    // Odometer increment over [cell_lo, cell_hi].
    size_t i = d;
    bool done = true;
    while (i > 0) {
      --i;
      if (cell[i] < cell_hi[i]) {
        ++cell[i];
        for (size_t j = i + 1; j < d; ++j) cell[j] = cell_lo[j];
        done = false;
        break;
      }
    }
    if (done) return;
  }
}

void UniformGridIndex::RangeQuery(const geom::Rect& box,
                                  std::vector<ObjectId>* out) const {
  RangeQuery(box, [out](const la::Vector&, ObjectId id) {
    out->push_back(id);
  });
}

void UniformGridIndex::BallQuery(const la::Vector& center, double radius,
                                 std::vector<ObjectId>* out) const {
  assert(center.dim() == dim());
  assert(radius >= 0.0);
  const double radius_sq = radius * radius;
  RangeQuery(geom::Rect::CenteredUniform(center, radius),
             [&](const la::Vector& point, ObjectId id) {
               if (la::SquaredDistance(point, center) <= radius_sq) {
                 out->push_back(id);
               }
             });
}

}  // namespace gprq::index
