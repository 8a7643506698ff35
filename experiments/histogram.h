#ifndef GPRQ_EXPERIMENTS_HISTOGRAM_H_
#define GPRQ_EXPERIMENTS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/gaussian.h"
#include "core/prq.h"
#include "geom/rect.h"
#include "la/vector.h"

namespace gprq::core {

class GridHistogram;
struct PrqCandidateEstimate;
Result<PrqCandidateEstimate> EstimatePrqCandidates(
    const GridHistogram& histogram, const GaussianDistribution& g,
    double delta, double theta, StrategyMask strategies);

/// An equi-width d-dimensional grid histogram over a point set — the
/// classic selectivity-estimation structure, here used to predict PRQ
/// candidate counts *without running the query*. Since Phase 3 cost is
/// proportional to the number of integration candidates (paper Tables
/// I/II), the estimate doubles as a query cost model.
class GridHistogram {
 public:
  /// Builds a histogram with `cells_per_dim` buckets per dimension over
  /// the bounding box of `points`. Total cells = cells_per_dim^d; capped
  /// at 2^24 (fails with InvalidArgument beyond — lower the resolution for
  /// high dimensions).
  static Result<GridHistogram> Build(const std::vector<la::Vector>& points,
                                     size_t cells_per_dim);

  size_t dim() const { return lo_.dim(); }
  size_t cells_per_dim() const { return cells_per_dim_; }
  size_t total_points() const { return total_points_; }

  /// Estimated number of points inside `box` (closed), assuming uniform
  /// density within each cell (fractional cell overlap).
  double EstimateInRect(const geom::Rect& box) const;

 private:
  friend Result<PrqCandidateEstimate> EstimatePrqCandidates(
      const GridHistogram& histogram, const GaussianDistribution& g,
      double delta, double theta, StrategyMask strategies);

  GridHistogram(la::Vector lo, la::Vector widths, size_t cells_per_dim,
                std::vector<uint32_t> counts, size_t total_points)
      : lo_(std::move(lo)),
        widths_(std::move(widths)),
        cells_per_dim_(cells_per_dim),
        counts_(std::move(counts)),
        total_points_(total_points) {}

  /// Cell index along one dimension for a coordinate (clamped).
  size_t CellOf(size_t dim_index, double coordinate) const;
  geom::Rect CellBox(const std::vector<size_t>& cell) const;
  la::Vector CellCenter(const std::vector<size_t>& cell) const;
  uint32_t CountAt(const std::vector<size_t>& cell) const;

  la::Vector lo_;       // grid origin
  la::Vector widths_;   // per-dimension cell width
  size_t cells_per_dim_;
  std::vector<uint32_t> counts_;  // row-major over dimensions
  size_t total_points_;
};

/// Estimated Phase-1/2 outcomes for a PRQ under a strategy combination.
struct PrqCandidateEstimate {
  double index_candidates = 0.0;        // Phase-1 search-box content
  double integration_candidates = 0.0;  // after the Phase-2 filters
  double accepted_free = 0.0;           // BF inner-ball auto-accepts
  /// The BF outer bound proves the result empty (no search needed).
  bool proved_empty = false;
};

// EstimatePrqCandidates (declared above): predicts the candidate counts the
// engine would report for PRQ(g, δ, θ) under `strategies`, by sweeping the
// histogram cells that overlap the Phase-1 search region and applying the
// Phase-2 filters at cell granularity (fractional box overlap, membership
// at the cell center). Uses exact (not table) radii. Typical accuracy is
// ~10-30% at 64x64 cells on clustered 2-D data — good enough to rank
// strategies and to size Phase-3 budgets ahead of execution.

}  // namespace gprq::core

#endif  // GPRQ_EXPERIMENTS_HISTOGRAM_H_
