#include "mc/sample_pool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/stopwatch.h"
#include "mc/simd/kernels.h"
#include "obs/metrics.h"
#include "rng/halton.h"
#include "stats/special.h"

namespace gprq::mc {
namespace {

// Samples per kernel block (see mc/simd/kernels.h): the scratch accumulator
// (16 KB) plus one axis stream (16 KB) stay resident in L1/L2 while the
// block is swept once per dimension.
constexpr uint64_t kKernelBlock = simd::kKernelBlock;

// Sampling metrics, resolved once. Recording at the source keeps every
// consumer (per-candidate evaluators and the pooled Phase-3 path alike)
// on the same counters, so `samples_used / (decisions · pool size)` is the
// budget-utilization ratio regardless of which code path ran, and
// `samples_examined` is what the count kernel actually touched.
struct McMetrics {
  obs::Counter* pool_builds;
  obs::Counter* pool_samples_drawn;
  obs::Histogram* pool_build_nanos;
  obs::Counter* decisions;
  obs::Counter* samples_used;
  obs::Counter* samples_examined;
  obs::Counter* early_stops;
  obs::Counter* undecided;
  obs::Counter* interrupted;
  obs::Counter* budget_exhausted;

  static const McMetrics& Get() {
    static const McMetrics metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return McMetrics{r.GetCounter("gprq.mc.pool_builds"),
                       r.GetCounter("gprq.mc.pool_samples_drawn"),
                       r.GetHistogram("gprq.mc.pool_build_nanos"),
                       r.GetCounter("gprq.mc.decisions"),
                       r.GetCounter("gprq.mc.samples_used"),
                       r.GetCounter("gprq.mc.samples_examined"),
                       r.GetCounter("gprq.mc.early_stops"),
                       r.GetCounter("gprq.mc.undecided"),
                       r.GetCounter("gprq.deadline.interrupted_decisions"),
                       r.GetCounter("gprq.overload.sample_budget_exhausted")};
    }();
    return metrics;
  }
};

// The cell grid of a PoolLayout::kCells pool: about kSamplesPerCell
// samples per cell on average, at most kMaxGridSide cells per plane axis,
// spanning ±kGridSigmas standard deviations of the plane coordinate around
// the mean (outer cells are open-ended), and for d ≥ 3 kRhoSlabs slabs of
// the off-plane norm ρ, split at quantiles of the first kRhoProbe draws.
constexpr size_t kMaxGridSide = 32;
constexpr uint64_t kSamplesPerCell = 16;
constexpr double kGridSigmas = 4.0;
constexpr size_t kRhoSlabs = 8;
constexpr uint64_t kRhoProbe = 1024;

// DecideExact skips a cell only when its lower bound on the distance to
// the object exceeds the reach radius max(δ·(1 + kReachMargin),
// kReachFloor). The bound is computed with slack for the projection's
// rounding (SamplePool::slack_); the relative margin covers the kernel's
// own rounding of ‖x − o‖² and of the bound's last few operations, and the
// floor keeps reach² a normal number, where a relative margin still bounds
// the rounding (DESIGN.md §5b).
constexpr double kReachMargin = 1e-7;
constexpr double kReachFloor = 1e-150;

// One plane axis of the grid, in coordinates relative to the mean: `cells`
// equal cells over ±kGridSigmas·σ, the outer two unbounded.
struct GridAxis {
  double lo;
  double inv_width;
  size_t cells;

  GridAxis(double sigma, size_t n)
      : lo(-kGridSigmas * sigma),
        inv_width(static_cast<double>(n) / (2.0 * kGridSigmas * sigma)),
        cells(n) {}

  // Branch-free clamp to [0, cells − 1]; a NaN from a degenerate width
  // lands in cell 0.
  size_t Index(double x) const {
    double t = (x - lo) * inv_width;
    t = (t > 0.0) ? t : 0.0;
    const double last = static_cast<double>(cells - 1);
    t = (t < last) ? t : last;
    return static_cast<size_t>(t);
  }
};

// Distance from x to [lo, hi] less the slack, floored at 0; 0 inside the
// interval or on an unbounded side.
double Gap(double lo, double hi, double x, double slack) {
  const double g = std::max({lo - x, x - hi, 0.0}) - slack;
  return (g > 0.0) ? g : 0.0;
}

// splitmix64 finalizer, the mixing step behind QueryFingerprint.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t CanonicalDoubleBits(double v) {
  // -0.0 compares equal to +0.0 and samples identically, so both must
  // digest identically; v == 0.0 is true for both signs and the literal
  // 0.0 re-encodes as the +0.0 bit pattern. NaN never passes SPD
  // validation into a GaussianDistribution, but a digest must not depend
  // on which of the 2^52 NaN payloads an upstream bug produced — collapse
  // them all to the canonical quiet NaN.
  if (v == 0.0) v = 0.0;
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t QueryFingerprint(const core::GaussianDistribution& query) {
  // Mean then the full covariance, row-major. Canonicalized bit patterns:
  // two queries hash equal iff they are numerically identical — including
  // across bit-distinct encodings of the same value (-0.0 vs +0.0) — which
  // is the determinism contract (same query + same seed → same pool) and
  // the soundness precondition of the fingerprint-keyed result cache.
  uint64_t h = Mix64(query.dim());
  for (size_t i = 0; i < query.dim(); ++i) {
    h = Mix64(h ^ CanonicalDoubleBits(query.mean()[i]));
  }
  const la::Matrix& cov = query.covariance();
  for (size_t i = 0; i < cov.rows(); ++i) {
    for (size_t j = 0; j < cov.cols(); ++j) {
      h = Mix64(h ^ CanonicalDoubleBits(cov(i, j)));
    }
  }
  return h;
}

int WilsonCompare(uint64_t hits, uint64_t n, double theta, double z) {
  assert(n > 0);
  const double nf = static_cast<double>(n);
  const double p_hat = static_cast<double>(hits) / nf;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nf;
  const double center = (p_hat + z2 / (2.0 * nf)) / denom;
  const double half =
      z / denom *
      std::sqrt(p_hat * (1.0 - p_hat) / nf + z2 / (4.0 * nf * nf));
  if (center - half > theta) return 1;
  if (center + half < theta) return -1;
  return 0;
}

SamplePool::SamplePool(const core::GaussianDistribution& query,
                       uint64_t samples, uint64_t seed, PoolVariant variant,
                       PoolLayout layout)
    : dim_(query.dim()),
      samples_(std::max<uint64_t>(samples, 1)),
      data_(dim_ * samples_),
      cell_begin_{0, samples_} {
  ScopedTimer build_timer(McMetrics::Get().pool_build_nanos);
  if (variant == PoolVariant::kHalton &&
      dim_ <= rng::HaltonSequence::kMaxDim) {
    // Randomized-Halton QMC: low-discrepancy uniforms → standard-normal
    // quantiles → the query's q + L·z transform, scattered into the SoA
    // layout.
    rng::HaltonSequence halton(dim_, seed);
    la::Vector u(dim_), z(dim_), x(dim_);
    for (uint64_t i = 0; i < samples_; ++i) {
      halton.Next(u);
      for (size_t a = 0; a < dim_; ++a) {
        // Guard the open-interval requirement of the quantile.
        const double clipped = std::min(std::max(u[a], 1e-15), 1.0 - 1e-15);
        z[a] = stats::StandardNormalQuantile(clipped);
      }
      query.TransformStandard(z, x);
      for (size_t a = 0; a < dim_; ++a) data_[a * samples_ + i] = x[a];
    }
  } else {
    // Pseudo-random draws in stream order, sample by sample (also the
    // d > kMaxDim fallback for kHalton). Only the storage is transposed,
    // one scatter per coordinate.
    rng::Random random(seed);
    la::Vector x(dim_);
    for (uint64_t i = 0; i < samples_; ++i) {
      query.Sample(random, x);
      for (size_t a = 0; a < dim_; ++a) data_[a * samples_ + i] = x[a];
    }
  }
  if (layout == PoolLayout::kCells) ArrangeInCells(query);
  McMetrics::Get().pool_builds->Add(1);
  McMetrics::Get().pool_samples_drawn->Add(samples_);
}

void SamplePool::ArrangeInCells(const core::GaussianDistribution& query) {
  // The grid plane: Σ's top two eigenvectors u and v through the mean (the
  // paper's OR rotation; eigen_basis() columns ascend in scale). A sample's
  // plane coordinates spread by the two largest axis scales, and its norm
  // ρ off the plane by all the others, independently of the plane.
  const la::Matrix& basis = query.eigen_basis();
  origin_.assign(query.mean().data(), query.mean().data() + dim_);
  frame_.assign(2 * dim_, 0.0);
  for (size_t a = 0; a < dim_; ++a) {
    frame_[a] = basis(a, dim_ - 1);
    if (dim_ > 1) frame_[dim_ + a] = basis(a, dim_ - 2);
  }
  // The rounding allowance of Project (DESIGN.md §5b): eta bounds how far
  // the computed u and v are from orthonormal, including the rounding of
  // the dot products that measure it.
  double uu = 0.0, vv = 0.0, uv = 0.0;
  for (size_t a = 0; a < dim_; ++a) {
    uu += frame_[a] * frame_[a];
    vv += frame_[dim_ + a] * frame_[dim_ + a];
    uv += frame_[a] * frame_[dim_ + a];
  }
  const double unit = std::numeric_limits<double>::epsilon() / 2.0;
  const double d = static_cast<double>(dim_);
  double eta = std::max(std::abs(uu - 1.0), std::abs(uv));
  if (dim_ > 1) eta = std::max(eta, std::abs(vv - 1.0));
  eta += 4.0 * (d + 2.0) * unit;
  slack_ = 4.0 * eta + 16.0 * (d + 6.0) * unit;
  rho_slack_ = std::sqrt(slack_);
  contraction_ = 1.0 / (1.0 + 4.0 * eta);

  // Placed from Σ alone; the actual cell boxes below make it exact.
  const bool residual = dim_ >= 3;
  grid_slabs_ = residual ? kRhoSlabs : 1;
  const auto side = static_cast<size_t>(std::sqrt(static_cast<double>(
      samples_ / (kSamplesPerCell * grid_slabs_))));
  grid_cols_ = std::clamp<size_t>(side, 1, kMaxGridSide);
  grid_rows_ = (dim_ > 1) ? grid_cols_ : 1;
  const la::Vector& scales = query.axis_scales();
  const GridAxis cols(scales[dim_ - 1], grid_cols_);
  const GridAxis rows((dim_ > 1) ? scales[dim_ - 2] : 1.0, grid_rows_);
  const size_t cells = grid_cols_ * grid_rows_ * grid_slabs_;

  // Projection buffers for one kernel block of samples.
  std::vector<double> buffers(4 * kKernelBlock);
  double* p0 = buffers.data();
  double* p1 = p0 + kKernelBlock;
  double* rho_sq = p1 + kKernelBlock;
  double* norm_sq = rho_sq + kKernelBlock;

  // ρ² slab edges at quantiles of the first draws, an unbiased subsample
  // in draw order. They only balance the slabs; +inf pads the unused ones.
  const double inf = std::numeric_limits<double>::infinity();
  double edges[kRhoSlabs - 1];
  std::fill(edges, edges + kRhoSlabs - 1, inf);
  if (residual) {
    const auto probe = static_cast<size_t>(std::min(samples_, kRhoProbe));
    Project(data_.data(), samples_, probe, p0, p1, rho_sq, norm_sq);
    std::sort(rho_sq, rho_sq + probe);
    for (size_t k = 1; k < grid_slabs_; ++k) {
      edges[k - 1] = rho_sq[k * probe / grid_slabs_];
    }
  }

  // Each sample's cell, the cell sizes and the cells' actual bounds (ρ²
  // for now), then each sample's destination: the next free position of
  // its cell.
  const Interval empty{inf, -inf};
  const auto widen = [](Interval& bounds, double x) {
    bounds.lo = std::min(bounds.lo, x);
    bounds.hi = std::max(bounds.hi, x);
  };
  assert(samples_ <= std::numeric_limits<uint32_t>::max());
  std::vector<uint32_t> slot(samples_);
  cell_begin_.assign(cells + 1, 0);
  std::vector<Box> boxes(cells, Box{empty, empty, empty});
  double max_norm_sq = 0.0;
  for (uint64_t b = 0; b < samples_; b += kKernelBlock) {
    const auto len = static_cast<size_t>(std::min(kKernelBlock, samples_ - b));
    Project(data_.data() + b, samples_, len, p0, p1, rho_sq, norm_sq);
    uint32_t* cell = slot.data() + b;
    for (size_t i = 0; i < len; ++i) {
      cell[i] = static_cast<uint32_t>(
          (cols.Index(p0[i]) * grid_rows_ + rows.Index(p1[i])) * grid_slabs_);
      max_norm_sq = std::max(max_norm_sq, norm_sq[i]);
    }
    if (residual) {
      for (size_t i = 0; i < len; ++i) {
        uint32_t k = 0;
        for (const double edge : edges) k += (rho_sq[i] > edge) ? 1 : 0;
        cell[i] += k;
        widen(boxes[cell[i]].rho, rho_sq[i]);
      }
    }
    for (size_t i = 0; i < len; ++i) {
      ++cell_begin_[cell[i] + 1];
      widen(boxes[cell[i]].p0, p0[i]);
      widen(boxes[cell[i]].p1, p1[i]);
    }
  }
  max_norm_ = std::sqrt(max_norm_sq);
  for (size_t c = 0; c < cells; ++c) cell_begin_[c + 1] += cell_begin_[c];
  std::vector<uint64_t> cursor(cell_begin_.begin(), cell_begin_.end() - 1);
  for (uint64_t i = 0; i < samples_; ++i) {
    slot[i] = static_cast<uint32_t>(cursor[slot[i]]++);
  }
  // Permute one axis at a time through one axis-sized buffer.
  std::unique_ptr<double[]> scratch(new double[samples_]);
  for (size_t a = 0; a < dim_; ++a) {
    double* x = data_.data() + a * samples_;
    for (uint64_t i = 0; i < samples_; ++i) scratch[slot[i]] = x[i];
    std::copy(scratch.get(), scratch.get() + samples_, x);
  }

  // The bounds DecideExact reads. Coordinates the grid does not split
  // must not contribute distance: p1 on one axis, ρ below three. Rows and
  // slabs are cut by monotone functions of p1 and ρ, so along a column
  // their bounds are ordered; filling the empty ones keeps them so.
  columns_.assign(grid_cols_, Box{empty, empty, empty});
  rows_.assign(grid_cols_ * grid_rows_, empty);
  slabs_.assign(cells, empty);
  for (size_t c = 0; c < grid_cols_; ++c) {
    double row_floor = -inf;
    for (size_t r = 0; r < grid_rows_; ++r) {
      const size_t plane_cell = c * grid_rows_ + r;
      Interval& row = rows_[plane_cell];
      double slab_floor = -inf;
      for (size_t k = 0; k < grid_slabs_; ++k) {
        const Box& box = boxes[plane_cell * grid_slabs_ + k];
        Interval& slab = slabs_[plane_cell * grid_slabs_ + k];
        if (box.p0.lo > box.p0.hi) {
          slab = {slab_floor, slab_floor};
          continue;
        }
        // sqrt is monotone and correctly rounded: these are the bounds of
        // the samples' own ρ = sqrt(ρ²).
        slab = residual ? Interval{std::sqrt(box.rho.lo), std::sqrt(box.rho.hi)}
                        : kUnbounded;
        slab_floor = slab.hi;
        widen(row, box.p1.lo);
        widen(row, box.p1.hi);
        Box& column = columns_[c];
        widen(column.p0, box.p0.lo);
        widen(column.p0, box.p0.hi);
        widen(column.p1, box.p1.lo);
        widen(column.p1, box.p1.hi);
        widen(column.rho, slab.lo);
        widen(column.rho, slab.hi);
      }
      if (row.lo > row.hi) {
        row = {row_floor, row_floor};
      } else {
        if (dim_ == 1) row = kUnbounded;
        row_floor = row.hi;
      }
    }
    if (dim_ == 1 && columns_[c].p0.lo <= columns_[c].p0.hi) {
      columns_[c].p1 = kUnbounded;
    }
  }
  layout_ = PoolLayout::kCells;
}

void SamplePool::Project(const double* x, uint64_t stride, size_t len,
                         double* __restrict p0, double* __restrict p1,
                         double* __restrict rho_sq,
                         double* __restrict norm_sq) const {
  const double* u = frame_.data();
  const double* v = u + dim_;
  std::fill(p0, p0 + len, 0.0);
  std::fill(p1, p1 + len, 0.0);
  std::fill(norm_sq, norm_sq + len, 0.0);
  for (size_t a = 0; a < dim_; ++a) {
    const double* __restrict xa = x + a * stride;
    const double q = origin_[a];
    const double ua = u[a];
    const double va = v[a];
    for (size_t i = 0; i < len; ++i) {
      const double w = xa[i] - q;
      p0[i] += ua * w;
      p1[i] += va * w;
      norm_sq[i] += w * w;
    }
  }
  // The residual by difference: it cancels, but its error stays within
  // rho_slack_·‖w‖ (DESIGN.md §5b), and it costs no second pass.
  if (dim_ < 3) return;
  for (size_t i = 0; i < len; ++i) {
    const double r = norm_sq[i] - p0[i] * p0[i] - p1[i] * p1[i];
    rho_sq[i] = (r > 0.0) ? r : 0.0;
  }
}

uint64_t SamplePool::CountWithin(const la::Vector& object, double delta_sq,
                                 uint64_t begin, uint64_t end) const {
  assert(object.dim() == dim_);
  assert(begin <= end && end <= samples_);
  // The block loop hands each ≤2048-sample slice to the dispatched kernel
  // (mc/simd): the widest vector ISA the CPU supports, every one
  // bit-compatible with the scalar reference, so the hit count — and every
  // Phase-3 decision built on it — is independent of the dispatch.
  const simd::CountFn kernel = simd::DispatchedCountKernel();
  const double* o = object.data();
  uint64_t hits = 0;
  for (uint64_t b = begin; b < end; b += kKernelBlock) {
    const size_t len = static_cast<size_t>(std::min(kKernelBlock, end - b));
    hits += kernel(data_.data() + b, samples_, dim_, o, delta_sq, len);
  }
  return hits;
}

SamplePool::Estimate SamplePool::EstimateProbability(const la::Vector& object,
                                                     double delta) const {
  const uint64_t hits = CountWithin(object, delta * delta, 0, samples_);
  Estimate est;
  est.samples = samples_;
  est.probability =
      static_cast<double>(hits) / static_cast<double>(samples_);
  est.std_error = std::sqrt(est.probability * (1.0 - est.probability) /
                            static_cast<double>(samples_));
  return est;
}

SamplePool::Decision SamplePool::Decide(const la::Vector& object, double delta,
                                        double theta,
                                        DecideOptions options) const {
  assert(options.block_samples > 0);
  assert(layout_ == PoolLayout::kDrawOrder);
  const McMetrics& metrics = McMetrics::Get();
  metrics.decisions->Add(1);
  const double delta_sq = delta * delta;
  // Resolve the control once: unbounded controls never read the clock.
  const common::QueryControl* control =
      (options.control != nullptr && !options.control->Unbounded())
          ? options.control
          : nullptr;
  // A sample budget truncates the decision to a whole number of blocks so
  // every Wilson check lands at the same n as in an uncapped run — that
  // alignment is what makes capped decisions bit-identical to unloaded
  // ones (see DecideOptions::max_samples).
  uint64_t limit = samples_;
  if (options.max_samples > 0 && options.max_samples < samples_) {
    const uint64_t blocks =
        std::max<uint64_t>(options.max_samples / options.block_samples, 1);
    limit = std::min(samples_, blocks * options.block_samples);
  }
  uint64_t n = 0;
  uint64_t hits = 0;
  while (n < limit) {
    if (control != nullptr && control->ShouldStop()) {
      // Stopped mid-decision: report the work done but neither an early
      // stop nor an undecided fallback — the candidate stays *undecided*
      // in the degraded result, it did not "fall back" to an estimate.
      metrics.samples_used->Add(n);
      metrics.samples_examined->Add(n);
      metrics.interrupted->Add(1);
      return {false, n, false, true};
    }
    const uint64_t end = std::min(n + options.block_samples, limit);
    hits += CountWithin(object, delta_sq, n, end);
    n = end;
    const int cmp = WilsonCompare(hits, n, theta, options.confidence_z);
    if (cmp != 0) {
      metrics.samples_used->Add(n);
      metrics.samples_examined->Add(n);
      if (n < samples_) metrics.early_stops->Add(1);
      return {cmp > 0, n, false};
    }
  }
  metrics.samples_used->Add(n);
  metrics.samples_examined->Add(n);
  if (limit < samples_) {
    // Budget spent with θ inside the interval: the unloaded run would have
    // kept sampling, so guessing here could disagree with it. Surface as
    // undecided instead — ids stay exact under brownout.
    metrics.budget_exhausted->Add(1);
    return {false, n, true, false, true};
  }
  // Pool exhausted with θ inside the interval: fall back to the point
  // estimate, as a fixed-budget sampler would.
  metrics.undecided->Add(1);
  return {static_cast<double>(hits) >= theta * static_cast<double>(n), n,
          true};
}

SamplePool::Decision SamplePool::Decide(const la::Vector& object, double delta,
                                        double theta) const {
  return Decide(object, delta, theta, DecideOptions());
}

SamplePool::ExactDecision SamplePool::DecideExact(const la::Vector& object,
                                                  double delta, double theta,
                                                  ExactOptions options) const {
  assert(object.dim() == dim_);
  const double delta_sq = delta * delta;
  const double needed = theta * static_cast<double>(samples_);
  const double reach =
      std::max(std::sqrt(delta_sq) * (1.0 + kReachMargin), kReachFloor);
  const double reach_sq = reach * reach;

  // The candidate in the grid's frame, through the samples' own
  // arithmetic, and the absolute slack that arithmetic can be off by on
  // either side (DESIGN.md §5b). A draw-order pool has no frame.
  double o0 = 0.0, o1 = 0.0, orho = 0.0, onorm = 0.0;
  if (layout_ == PoolLayout::kCells) {
    Project(object.data(), 1, 1, &o0, &o1, &orho, &onorm);
    orho = std::sqrt(orho);
    onorm = std::sqrt(onorm);
  }
  const double slack = slack_ * (max_norm_ + onorm);
  const double rho_slack = rho_slack_ * (max_norm_ + onorm);

  // The reachable samples. A sample x in a column, row and slab with gaps
  // g0, g1 and gρ to the candidate (less the slack) has ‖x − o‖² ≥
  // (g0² + g1²)·contraction_ + gρ²: projection onto the plane contracts,
  // and ‖R(x − o)‖ ≥ |ρ(x) − ρ(o)| off it. Cells where that bound exceeds
  // reach² hold only samples that fail the kernel's ≤ δ² test, so skipping
  // them leaves the hit count unchanged. Per column, with its own g0, the
  // rows whose g1 fits the rest of reach² are one ordered run, and per row
  // so are the slabs whose gρ fits what is left, so each row adds at most
  // one run of cells. The square roots round by a few ulps of reach,
  // inside kReachMargin.
  uint64_t span_begin[kMaxGridSide * kMaxGridSide];
  uint64_t span_end[kMaxGridSide * kMaxGridSide];
  size_t spans = 0;
  uint64_t remaining = 0;
  for (size_t c = 0; c < grid_cols_; ++c) {
    const Box& column = columns_[c];
    if (column.p0.lo > column.p0.hi) continue;  // empty
    const double g0 = Gap(column.p0.lo, column.p0.hi, o0, slack);
    const double g1 = Gap(column.p1.lo, column.p1.hi, o1, slack);
    const double gr = Gap(column.rho.lo, column.rho.hi, orho, rho_slack);
    if ((g0 * g0 + g1 * g1) * contraction_ + gr * gr > reach_sq) continue;
    const double reach1 =
        std::sqrt(std::max(reach_sq / contraction_ - g0 * g0, 0.0));
    const Interval* row = &rows_[c * grid_rows_];
    size_t r = 0;
    while (r < grid_rows_ && row[r].hi < o1 - slack - reach1) ++r;
    for (; r < grid_rows_ && row[r].lo <= o1 + slack + reach1; ++r) {
      const size_t base = (c * grid_rows_ + r) * grid_slabs_;
      size_t first = 0;
      size_t last = grid_slabs_;
      if (grid_slabs_ > 1) {
        const double gp = Gap(row[r].lo, row[r].hi, o1, slack);
        const double reach_rho = std::sqrt(std::max(
            reach_sq - (g0 * g0 + gp * gp) * contraction_, 0.0));
        const Interval* slab = &slabs_[base];
        while (first < grid_slabs_ &&
               slab[first].hi < orho - rho_slack - reach_rho) {
          ++first;
        }
        last = first;
        while (last < grid_slabs_ &&
               slab[last].lo <= orho + rho_slack + reach_rho) {
          ++last;
        }
      }
      const uint64_t begin = cell_begin_[base + first];
      const uint64_t end = cell_begin_[base + last];
      if (begin == end) continue;
      if (spans > 0 && span_end[spans - 1] == begin) {
        span_end[spans - 1] = end;
      } else {
        span_begin[spans] = begin;
        span_end[spans] = end;
        ++spans;
      }
      remaining += end - begin;
    }
  }

  // Count with exact early exits: the final whole-pool count H satisfies
  // hits ≤ H ≤ hits + remaining at every step, so either bound can settle
  // the comparison before the runs are exhausted; with nothing remaining,
  // H = hits.
  const simd::CountFn kernel = simd::DispatchedCountKernel();
  const double* o = object.data();
  uint64_t hits = 0;
  uint64_t examined = 0;
  uint64_t unchecked = kKernelBlock;  // poll the control before block one
  size_t s = 0;
  uint64_t b = (spans > 0) ? span_begin[0] : 0;
  for (;;) {
    if (static_cast<double>(hits) >= needed) {
      return {ExactDecision::kQualifies, examined};
    }
    if (remaining == 0 || static_cast<double>(hits + remaining) < needed) {
      return {ExactDecision::kFails, examined};
    }
    if (options.max_examined > 0 && examined >= options.max_examined) {
      return {ExactDecision::kBudgetExhausted, examined};
    }
    if (options.control != nullptr && unchecked >= kKernelBlock) {
      if (options.control->ShouldStop()) {
        return {ExactDecision::kInterrupted, examined};
      }
      unchecked = 0;
    }
    while (b == span_end[s]) b = span_begin[++s];  // remaining > 0 here
    uint64_t len = std::min(kKernelBlock, span_end[s] - b);
    if (options.max_examined > 0) {
      len = std::min(len, options.max_examined - examined);
    }
    hits += kernel(data_.data() + b, samples_, dim_, o, delta_sq,
                   static_cast<size_t>(len));
    b += len;
    examined += len;
    remaining -= len;
    unchecked += len;
  }
}

}  // namespace gprq::mc
