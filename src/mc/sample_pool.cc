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

// The cell grid of a PoolLayout::kCells pool: at most kMaxGridSide cells
// per axis, about kSamplesPerCell samples per cell on average, spanning
// ±kGridSigmas standard deviations around the mean (outer cells are
// open-ended).
constexpr size_t kMaxGridSide = 32;
constexpr uint64_t kSamplesPerCell = 16;
constexpr double kGridSigmas = 4.0;

// DecideExact skips a cell only when its box lies farther than the reach
// radius max(δ·(1 + kReachMargin), kReachFloor) from the object. Rounding
// is monotone, so the box gap computed here never exceeds the kernel's own
// rounded squared distance of a sample in the box. The margin and the
// floor keep that true even where this arithmetic is contracted or
// reordered unlike the kernel's; the floor keeps reach² a normal number,
// where a relative margin still bounds the rounding (DESIGN.md §5b).
constexpr double kReachMargin = 1e-7;
constexpr double kReachFloor = 1e-150;

size_t GridSide(uint64_t samples) {
  const auto side = static_cast<size_t>(
      std::sqrt(static_cast<double>(samples / kSamplesPerCell)));
  return std::clamp<size_t>(side, 1, kMaxGridSide);
}

// One grid axis anchored on the query: `cells` equal cells over
// mean ± kGridSigmas·σ, the outer two unbounded.
struct GridAxis {
  double lo;
  double inv_width;
  size_t cells;

  GridAxis(const core::GaussianDistribution& query, size_t axis, size_t n)
      : cells(n) {
    const double sigma = std::sqrt(query.covariance()(axis, axis));
    lo = query.mean()[axis] - kGridSigmas * sigma;
    inv_width = static_cast<double>(n) / (2.0 * kGridSigmas * sigma);
  }

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

// Squared distance from (o0, o1) to a cell box; 0 inside it or on an
// unbounded side.
double GapSq(double lo0, double hi0, double lo1, double hi1, double o0,
             double o1) {
  const double dx = std::max({lo0 - o0, o0 - hi0, 0.0});
  const double dy = std::max({lo1 - o1, o1 - hi1, 0.0});
  return dx * dx + dy * dy;
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
                       uint64_t samples, rng::Random& random)
    : dim_(query.dim()),
      samples_(std::max<uint64_t>(samples, 1)),
      data_(dim_ * samples_),
      cell_begin_{0, samples_} {
  ScopedTimer build_timer(McMetrics::Get().pool_build_nanos);
  // The draw order matches a per-candidate evaluator's: sample by sample.
  // Only the storage is transposed, one scatter per coordinate.
  la::Vector x(dim_);
  for (uint64_t i = 0; i < samples_; ++i) {
    query.Sample(random, x);
    for (size_t a = 0; a < dim_; ++a) data_[a * samples_ + i] = x[a];
  }
  McMetrics::Get().pool_builds->Add(1);
  McMetrics::Get().pool_samples_drawn->Add(samples_);
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
    // quantiles → the query's q + L·z transform, exactly the
    // QuasiMonteCarloEvaluator mapping, scattered into the SoA layout.
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
    // Pseudo-random draws, bit-identical to the stream constructor seeded
    // the same way (also the d > kMaxDim fallback for kHalton).
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
  // Anchor the grid on what is known before drawing: the mean and the two
  // largest variances (ties keep the lower axis). No pass over the samples
  // is needed to place it; the actual cell boxes below make it exact.
  const la::Matrix& cov = query.covariance();
  axis0_ = 0;
  for (size_t a = 1; a < dim_; ++a) {
    if (cov(a, a) > cov(axis0_, axis0_)) axis0_ = a;
  }
  axis1_ = axis0_;
  if (dim_ > 1) {
    axis1_ = (axis0_ == 0) ? 1 : 0;
    for (size_t a = 0; a < dim_; ++a) {
      if (a != axis0_ && cov(a, a) > cov(axis1_, axis1_)) axis1_ = a;
    }
  }
  const size_t side = GridSide(samples_);
  grid_cols_ = side;
  grid_rows_ = (dim_ > 1) ? side : 1;
  const GridAxis cols(query, axis0_, grid_cols_);
  const GridAxis rows(query, axis1_, grid_rows_);
  const size_t cells = grid_cols_ * grid_rows_;

  // Each sample's cell and the cell sizes, then each sample's destination:
  // the next free position of its cell.
  assert(samples_ <= std::numeric_limits<uint32_t>::max());
  std::vector<uint32_t> slot(samples_);
  cell_begin_.assign(cells + 1, 0);
  {
    const double* x0 = axis(axis0_);
    const double* x1 = axis(axis1_);
    for (uint64_t i = 0; i < samples_; ++i) {
      const size_t c = cols.Index(x0[i]) * grid_rows_ + rows.Index(x1[i]);
      slot[i] = static_cast<uint32_t>(c);
      ++cell_begin_[c + 1];
    }
  }
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

  // Each cell's actual bounding box on the two grid axes (lo > hi when
  // empty), and each column's union of them. On one axis the rows split
  // nothing, so the second coordinate must not contribute distance.
  const double inf = std::numeric_limits<double>::infinity();
  const double* x0 = axis(axis0_);
  const double* x1 = axis(axis1_);
  cells_.assign(cells, CellBox{inf, -inf, inf, -inf});
  columns_.assign(grid_cols_, CellBox{inf, -inf, inf, -inf});
  for (size_t c = 0; c < cells; ++c) {
    CellBox& box = cells_[c];
    for (uint64_t i = cell_begin_[c]; i < cell_begin_[c + 1]; ++i) {
      box.lo0 = std::min(box.lo0, x0[i]);
      box.hi0 = std::max(box.hi0, x0[i]);
      box.lo1 = std::min(box.lo1, x1[i]);
      box.hi1 = std::max(box.hi1, x1[i]);
    }
    if (dim_ == 1) box.lo1 = -inf, box.hi1 = inf;
    CellBox& column = columns_[c / grid_rows_];
    column.lo0 = std::min(column.lo0, box.lo0);
    column.hi0 = std::max(column.hi0, box.hi0);
    column.lo1 = std::min(column.lo1, box.lo1);
    column.hi1 = std::max(column.hi1, box.hi1);
  }
  layout_ = PoolLayout::kCells;
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
  const double o0 = object[axis0_];
  const double o1 = object[axis1_];

  // The reachable samples: per column, the contiguous run of cells from
  // the first to the last cell whose box the δ-ball reaches (the column's
  // chord of the disk). Every sample outside these runs fails the kernel's
  // ≤ δ² test, so skipping it leaves the hit count unchanged.
  uint64_t span_begin[kMaxGridSide];
  uint64_t span_end[kMaxGridSide];
  size_t spans = 0;
  uint64_t remaining = 0;
  for (size_t c = 0; c < grid_cols_; ++c) {
    const CellBox& column = columns_[c];
    if (column.lo0 > column.hi0 ||
        GapSq(column.lo0, column.hi0, column.lo1, column.hi1, o0, o1) >
            reach_sq) {
      continue;
    }
    const size_t base = c * grid_rows_;
    size_t first = grid_rows_;
    size_t last = 0;
    for (size_t r = 0; r < grid_rows_; ++r) {
      const CellBox& box = cells_[base + r];
      if (box.lo0 > box.hi0 ||
          GapSq(box.lo0, box.hi0, box.lo1, box.hi1, o0, o1) > reach_sq) {
        continue;
      }
      if (first == grid_rows_) first = r;
      last = r;
    }
    if (first == grid_rows_) continue;
    span_begin[spans] = cell_begin_[base + first];
    span_end[spans] = cell_begin_[base + last + 1];
    remaining += span_end[spans] - span_begin[spans];
    ++spans;
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
