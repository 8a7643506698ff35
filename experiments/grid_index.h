#ifndef GPRQ_EXPERIMENTS_GRID_INDEX_H_
#define GPRQ_EXPERIMENTS_GRID_INDEX_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "geom/rect.h"
#include "index/rstar_tree.h"
#include "la/vector.h"

namespace gprq::index {

/// A uniform (equi-width) grid over a static point set — the classic
/// alternative to the R-tree family for Phase-1 window search. Simple and
/// cache-friendly on uniform data; degrades on skewed data where a few
/// cells hold most points (the TIGER ablation in bench/grid_vs_rtree shows
/// exactly that trade-off, which is why the paper sticks to R-trees).
///
/// Static: built once over a point set; no updates.
class UniformGridIndex {
 public:
  /// Builds a grid with `cells_per_dim` buckets per dimension over the
  /// points' bounding box. Total cells capped at 2^24.
  static Result<UniformGridIndex> Build(
      const std::vector<la::Vector>& points, size_t cells_per_dim);

  size_t dim() const { return lo_.dim(); }
  size_t size() const { return size_; }
  size_t cells_per_dim() const { return cells_per_dim_; }

  /// Visits every point inside `box` (closed).
  void RangeQuery(const geom::Rect& box,
                  const std::function<void(const la::Vector&, ObjectId)>&
                      visit) const;

  /// Appends ids of points inside `box`.
  void RangeQuery(const geom::Rect& box, std::vector<ObjectId>* out) const;

  /// Appends ids of points within `radius` of `center`.
  void BallQuery(const la::Vector& center, double radius,
                 std::vector<ObjectId>* out) const;

  /// Cells touched by the last query (the grid's analogue of node reads).
  uint64_t cells_touched() const { return cells_touched_; }
  void ResetStats() { cells_touched_ = 0; }

 private:
  UniformGridIndex(la::Vector lo, la::Vector widths, size_t cells_per_dim,
                   std::vector<std::vector<std::pair<la::Vector, ObjectId>>>
                       cells,
                   size_t size)
      : lo_(std::move(lo)),
        widths_(std::move(widths)),
        cells_per_dim_(cells_per_dim),
        cells_(std::move(cells)),
        size_(size) {}

  size_t CellOf(size_t dim_index, double coordinate) const;

  la::Vector lo_;
  la::Vector widths_;
  size_t cells_per_dim_;
  std::vector<std::vector<std::pair<la::Vector, ObjectId>>> cells_;
  size_t size_;
  mutable uint64_t cells_touched_ = 0;
};

}  // namespace gprq::index

#endif  // GPRQ_EXPERIMENTS_GRID_INDEX_H_
