#include "experiments/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/filters.h"
#include "core/radius_catalog.h"

namespace gprq::core {

namespace {

constexpr size_t kMaxCells = size_t{1} << 24;

}  // namespace

Result<GridHistogram> GridHistogram::Build(
    const std::vector<la::Vector>& points, size_t cells_per_dim) {
  if (points.empty()) {
    return Status::InvalidArgument("cannot build a histogram of nothing");
  }
  if (cells_per_dim < 1) {
    return Status::InvalidArgument("cells_per_dim must be >= 1");
  }
  const size_t d = points.front().dim();
  double total_cells = 1.0;
  for (size_t i = 0; i < d; ++i) total_cells *= static_cast<double>(cells_per_dim);
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
    // Degenerate extents (all points share a coordinate) get a unit width
    // so indexing stays well-defined.
    widths[i] = (extent > 0.0) ? extent / static_cast<double>(cells_per_dim)
                               : 1.0;
  }

  std::vector<uint32_t> counts(static_cast<size_t>(total_cells), 0);
  GridHistogram histogram(std::move(lo), std::move(widths), cells_per_dim,
                          std::move(counts), points.size());
  for (const auto& p : points) {
    size_t index = 0;
    for (size_t i = 0; i < d; ++i) {
      index = index * cells_per_dim + histogram.CellOf(i, p[i]);
    }
    ++histogram.counts_[index];
  }
  return histogram;
}

size_t GridHistogram::CellOf(size_t dim_index, double coordinate) const {
  const double offset = (coordinate - lo_[dim_index]) / widths_[dim_index];
  const auto cell = static_cast<long>(std::floor(offset));
  return static_cast<size_t>(
      std::clamp<long>(cell, 0, static_cast<long>(cells_per_dim_) - 1));
}

geom::Rect GridHistogram::CellBox(const std::vector<size_t>& cell) const {
  const size_t d = dim();
  la::Vector lo(d), hi(d);
  for (size_t i = 0; i < d; ++i) {
    lo[i] = lo_[i] + widths_[i] * static_cast<double>(cell[i]);
    hi[i] = lo[i] + widths_[i];
  }
  return geom::Rect(std::move(lo), std::move(hi));
}

la::Vector GridHistogram::CellCenter(const std::vector<size_t>& cell) const {
  const size_t d = dim();
  la::Vector center(d);
  for (size_t i = 0; i < d; ++i) {
    center[i] =
        lo_[i] + widths_[i] * (static_cast<double>(cell[i]) + 0.5);
  }
  return center;
}

uint32_t GridHistogram::CountAt(const std::vector<size_t>& cell) const {
  size_t index = 0;
  for (size_t i = 0; i < dim(); ++i) {
    index = index * cells_per_dim_ + cell[i];
  }
  return counts_[index];
}

namespace {

/// Iterates all grid cells whose box intersects [cell_lo, cell_hi] ranges,
/// invoking fn(cell indices).
template <typename Fn>
void ForEachCellInRange(const std::vector<size_t>& lo,
                        const std::vector<size_t>& hi, Fn&& fn) {
  const size_t d = lo.size();
  std::vector<size_t> cell = lo;
  for (;;) {
    fn(cell);
    size_t i = d;
    while (i > 0) {
      --i;
      if (cell[i] < hi[i]) {
        ++cell[i];
        for (size_t j = i + 1; j < d; ++j) cell[j] = lo[j];
        break;
      }
      if (i == 0) return;
    }
  }
}

double OverlapFraction(const geom::Rect& cell, const geom::Rect& box) {
  const double cell_volume = cell.Volume();
  if (cell_volume <= 0.0) {
    return box.Contains(cell.Center()) ? 1.0 : 0.0;
  }
  return cell.IntersectionVolume(box) / cell_volume;
}

}  // namespace

double GridHistogram::EstimateInRect(const geom::Rect& box) const {
  assert(box.dim() == dim());
  const size_t d = dim();
  std::vector<size_t> cell_lo(d), cell_hi(d);
  for (size_t i = 0; i < d; ++i) {
    cell_lo[i] = CellOf(i, box.lo()[i]);
    cell_hi[i] = CellOf(i, box.hi()[i]);
  }
  double estimate = 0.0;
  ForEachCellInRange(cell_lo, cell_hi, [&](const std::vector<size_t>& cell) {
    const uint32_t count = CountAt(cell);
    if (count == 0) return;
    estimate += count * OverlapFraction(CellBox(cell), box);
  });
  return estimate;
}

Result<PrqCandidateEstimate> EstimatePrqCandidates(
    const GridHistogram& histogram, const GaussianDistribution& g,
    double delta, double theta, StrategyMask strategies) {
  if (g.dim() != histogram.dim()) {
    return Status::InvalidArgument("dimension mismatch");
  }
  if (!(delta > 0.0) || !(theta > 0.0 && theta < 1.0)) {
    return Status::InvalidArgument("invalid delta/theta");
  }
  if ((strategies & kStrategyAll) == 0) {
    return Status::InvalidArgument("at least one strategy required");
  }
  const size_t d = histogram.dim();
  const bool use_rr = strategies & kStrategyRR;
  const bool use_or = strategies & kStrategyOR;
  const bool use_bf = strategies & kStrategyBF;

  const double r_theta =
      (theta < 0.5) ? RadiusCatalog::ExactRadius(d, theta) : 0.0;
  RrRegion rr;
  OrRegion oreg;
  BfBounds bf;
  if (use_rr || use_or) rr = RrRegion::Compute(g, delta, r_theta);
  if (use_or) oreg = OrRegion::Compute(g, delta, r_theta);
  PrqCandidateEstimate estimate;
  if (use_bf) {
    bf = BfBounds::Compute(g, delta, theta, /*catalog=*/nullptr);
    if (bf.nothing_qualifies) {
      estimate.proved_empty = true;
      return estimate;
    }
  }

  // The same search box the engine would use.
  geom::Rect search_box = geom::Rect::Empty(d);
  if (use_rr) {
    search_box = rr.search_box;
    if (use_bf) {
      const geom::Rect bf_box =
          geom::Rect::CenteredUniform(g.mean(), bf.alpha_outer);
      la::Vector lo(d), hi(d);
      for (size_t i = 0; i < d; ++i) {
        lo[i] = std::max(search_box.lo()[i], bf_box.lo()[i]);
        hi[i] = std::min(search_box.hi()[i], bf_box.hi()[i]);
        if (lo[i] > hi[i]) {
          estimate.proved_empty = true;
          return estimate;
        }
      }
      search_box = geom::Rect(std::move(lo), std::move(hi));
    }
  } else if (use_bf) {
    search_box = geom::Rect::CenteredUniform(g.mean(), bf.alpha_outer);
  } else {
    search_box = oreg.BoundingBox(g);
  }

  std::vector<size_t> cell_lo(d), cell_hi(d);
  for (size_t i = 0; i < d; ++i) {
    cell_lo[i] = histogram.CellOf(i, search_box.lo()[i]);
    cell_hi[i] = histogram.CellOf(i, search_box.hi()[i]);
  }
  ForEachCellInRange(cell_lo, cell_hi, [&](const std::vector<size_t>& cell) {
    const uint32_t count = histogram.CountAt(cell);
    if (count == 0) return;
    const geom::Rect cell_box = histogram.CellBox(cell);
    const double mass = count * OverlapFraction(cell_box, search_box);
    if (mass <= 0.0) return;
    estimate.index_candidates += mass;

    // Phase-2 membership judged at the cell center (the estimator's
    // granularity limit).
    const la::Vector center = histogram.CellCenter(cell);
    if (use_rr && !rr.PassesFringe(center, delta)) return;
    if (use_bf) {
      const double dist_sq = la::SquaredDistance(center, g.mean());
      if (dist_sq > bf.alpha_outer * bf.alpha_outer) return;
      if (bf.has_inner && dist_sq <= bf.alpha_inner * bf.alpha_inner) {
        estimate.accepted_free += mass;
        return;
      }
    }
    if (use_or && !oreg.Contains(g, center)) return;
    estimate.integration_candidates += mass;
  });
  return estimate;
}

}  // namespace gprq::core
