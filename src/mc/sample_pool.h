#ifndef GPRQ_MC_SAMPLE_POOL_H_
#define GPRQ_MC_SAMPLE_POOL_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/deadline.h"
#include "core/gaussian.h"
#include "la/vector.h"
#include "mc/pool_variant.h"
#include "rng/random.h"

namespace gprq::mc {

/// Sign of the Wilson-score confidence interval of hits/n relative to θ at
/// z standard errors: +1 when the whole interval lies above θ, −1 when it
/// lies below, 0 when θ is inside (undecided). The Wilson interval is robust
/// when the running estimate sits at 0 or 1 — common, since most candidates
/// are far from the θ boundary. Shared by AdaptiveMonteCarloEvaluator and
/// SamplePool::Decide so both make identical sequential decisions.
int WilsonCompare(uint64_t hits, uint64_t n, double theta, double z);

/// A deterministic 64-bit digest of the query distribution (mean and
/// covariance bit patterns, splitmix-mixed). Sampling evaluators fold it
/// into their pool-stream seed so a query's shared sample pool depends only
/// on (evaluator seed, query) — not on how many pools the evaluator built
/// before. That makes Phase-3 results reproducible per query: resubmitting
/// a query to a long-lived executor, or skipping a neighboring query (it
/// expired, it was cancelled), leaves every other query's samples — and
/// therefore its decisions — bit-identical.
uint64_t QueryFingerprint(const core::GaussianDistribution& query);

/// The bit pattern QueryFingerprint mixes for one double: the raw IEEE-754
/// encoding after canonicalization — -0.0 normalizes to +0.0 (they are the
/// same real number and sample identically) and every NaN payload collapses
/// to the canonical quiet NaN. Exposed so cache keys and tests canonicalize
/// exactly the way the fingerprint does.
uint64_t CanonicalDoubleBits(double v);

/// A per-query pool of samples from the query Gaussian N(q, Σ), shared by
/// every Phase-3 candidate of that query.
///
/// Every candidate of one query integrates against the same distribution,
/// so the expensive part of the paper's Monte-Carlo Phase 3 — drawing n
/// samples, an O(d²) `q + L·z` transform each — needs to happen once per
/// *query*, not once per *candidate*. The pool amortizes it: construction
/// draws the samples once; per candidate only the O(d) squared-distance
/// count remains.
///
/// Layout is dimension-major structure-of-arrays: coordinate a of all n
/// samples is contiguous at data()[a·n .. a·n + n). The count kernel walks
/// one axis stream at a time over a cache-sized block of samples,
/// accumulating squared distances in a small scratch array.
///
/// Sample order is PoolLayout's choice. kDrawOrder keeps the draws in the
/// order the stream produced them: a prefix is an unbiased subsample, which
/// the sequential Wilson Decide needs. kCells permutes the same draws once
/// into the cells of a grid on the plane of Σ's top two eigenvectors,
/// split further by the norm off that plane when d ≥ 3, so DecideExact
/// counts only the cells a candidate's δ-ball can reach.
///
/// A pool is immutable after construction, so one pool can be read by any
/// number of worker threads concurrently (the fan-out unit in
/// exec::BatchExecutor is a chunk of candidates, all evaluated against the
/// same shared pool). Because the samples are fixed per query, Phase-3
/// decisions no longer depend on which worker's RNG evaluates which
/// candidate — results are bit-identical for any thread count.
class SamplePool {
 public:
  /// Draws `samples` (at least 1 is enforced) points from `query`;
  /// O(samples · d²) once, the cost this class amortizes. Seeded, so both
  /// variants are a pure function of (seed, query):
  /// PoolVariant::kPseudoRandom draws from rng::Random(seed) — the stream a
  /// per-candidate evaluator seeded the same way would read, sample by
  /// sample — and PoolVariant::kHalton draws a randomized Halton sequence
  /// (rotation seeded with `seed`) mapped through the standard-normal
  /// quantile and the query's standard transform. Dimensions above
  /// rng::HaltonSequence::kMaxDim fall back to kPseudoRandom.
  ///
  /// `layout` only permutes the drawn samples (see PoolLayout): both
  /// layouts hold the same multiset of points.
  SamplePool(const core::GaussianDistribution& query, uint64_t samples,
             uint64_t seed, PoolVariant variant,
             PoolLayout layout = PoolLayout::kDrawOrder);

  size_t dim() const { return dim_; }
  uint64_t size() const { return samples_; }
  PoolLayout layout() const { return layout_; }

  /// Coordinate `axis` of all samples, contiguous (length size()).
  const double* axis(size_t axis) const { return data_.data() + axis * samples_; }

  /// Number of samples in [begin, end) within squared Euclidean distance
  /// `delta_sq` of `object`. Thread-safe (read-only; scratch is stack-local).
  uint64_t CountWithin(const la::Vector& object, double delta_sq,
                       uint64_t begin, uint64_t end) const;

  /// Full-pool estimate of Pr(‖x − o‖² ≤ δ²) with its standard error
  /// sqrt(p(1−p)/n).
  struct Estimate {
    double probability = 0.0;
    double std_error = 0.0;
    uint64_t samples = 0;
  };
  Estimate EstimateProbability(const la::Vector& object, double delta) const;

  struct DecideOptions {
    /// Samples counted between confidence checks. Blocks are large so the
    /// SoA kernel stays vectorized between checks (the adaptive evaluator's
    /// 256-sample rounds would spend more time checking than counting).
    uint64_t block_samples = 4096;
    /// Confidence half-width in standard errors (see AdaptiveMonteCarlo).
    double confidence_z = 4.0;
    /// Optional deadline/cancellation checked between blocks (never inside
    /// the vectorized count). Null means unbounded — no clock reads.
    const common::QueryControl* control = nullptr;
    /// Per-decision sample cap (0 = the whole pool), the brownout knob.
    /// The cap is rounded down to a whole number of blocks (at least one)
    /// so every confidence check of a capped run happens at the same n as
    /// in an uncapped run over the same pool: a capped decision that
    /// separates is bit-identical to the unloaded answer, and one that
    /// does not comes back budget_exhausted — never a cheaper guess.
    uint64_t max_samples = 0;
  };
  struct Decision {
    /// The Phase-3 answer: qualification probability ≥ θ.
    bool qualifies = false;
    /// Samples consumed before the interval separated (or the pool size).
    uint64_t samples_used = 0;
    /// True when the pool was exhausted with θ still inside the interval;
    /// `qualifies` then falls back to the full-pool point estimate.
    bool undecided = false;
    /// True when DecideOptions::control stopped the decision before it
    /// resolved. `qualifies` is then meaningless and the candidate must be
    /// surfaced as undecided, never guessed — the degradation contract.
    bool interrupted = false;
    /// True when DecideOptions::max_samples ran out with θ still inside
    /// the interval. Like `interrupted`, `qualifies` is meaningless and
    /// the candidate must surface as undecided: a brownout answer may
    /// shrink, but it never lies.
    bool budget_exhausted = false;
  };
  /// Block-wise early-terminating decision: counts block_samples at a time
  /// and stops as soon as the Wilson interval of the running hit rate
  /// separates from θ — the AdaptiveMonteCarloEvaluator statistics, over
  /// the shared pool. Requires a kDrawOrder pool (a prefix of a cell-ordered
  /// pool is not a random subsample). Thread-safe.
  Decision Decide(const la::Vector& object, double delta, double theta,
                  DecideOptions options) const;
  Decision Decide(const la::Vector& object, double delta,
                  double theta) const;

  struct ExactOptions {
    /// Per-candidate cap on samples examined (0 = no cap), the brownout
    /// knob: a candidate that has not resolved by then is kBudgetExhausted.
    uint64_t max_examined = 0;
    /// Optional deadline/cancellation, polled before the candidate's first
    /// kernel call and then every 2048 samples examined (never inside a
    /// kernel call). Null means unbounded.
    const common::QueryControl* control = nullptr;
  };
  struct ExactDecision {
    enum Outcome : uint8_t {
      kQualifies,        // hits ≥ θ·n over the whole pool
      kFails,            // hits < θ·n over the whole pool
      kInterrupted,      // the control fired first; no answer
      kBudgetExhausted,  // max_examined ran out first; no answer
    };
    Outcome outcome = kFails;
    /// Samples the count kernel touched for this candidate.
    uint64_t examined = 0;
  };
  /// The fixed-budget decision, exactly: does the whole-pool hit count
  /// reach θ·n (compared as `double(hits) >= θ * double(n)`)? Counts only
  /// the grid cells the candidate's δ-ball can reach, and stops as soon as
  /// the answer is settled — hits ≥ θ·n, or hits plus the unvisited
  /// reachable samples < θ·n. kQualifies/kFails are bit-identical to a
  /// full-pool CountWithin for any layout (DESIGN.md §5b has the argument);
  /// a kDrawOrder pool is one cell, so it just gets the early exits.
  /// Thread-safe.
  ExactDecision DecideExact(const la::Vector& object, double delta,
                            double theta, ExactOptions options) const;

 private:
  /// Actual bounds of a set of samples on one grid coordinate (lo > hi
  /// when empty; ±inf on a coordinate the grid does not bound).
  struct Interval {
    double lo, hi;
  };
  /// Actual bounds of a set of samples (a cell's, a column's): their two
  /// plane coordinates and their off-plane norm ρ.
  struct Box {
    Interval p0, p1, rho;
  };
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr Interval kUnbounded = {-kInf, kInf};

  /// Permutes the draw-order samples into cell order and fills the grid.
  void ArrangeInCells(const core::GaussianDistribution& query);

  /// For `len` points stored dimension-major at `x` (axis a of point i at
  /// x[a·stride + i]) and w = point − origin_: the plane coordinates
  /// p0 = u·w and p1 = v·w, ‖w‖², and ρ² = max(‖w‖² − p0² − p1², 0), the
  /// squared norm off the plane (not written for d < 3, where the grid
  /// bounds no residual). Samples and candidates go through this one
  /// arithmetic.
  void Project(const double* x, uint64_t stride, size_t len, double* p0,
               double* p1, double* rho_sq, double* norm_sq) const;

  size_t dim_;
  uint64_t samples_;
  PoolLayout layout_ = PoolLayout::kDrawOrder;
  std::vector<double> data_;  // dimension-major: axis a at [a·n, a·n + n)
  // The grid (kCells only): the plane spanned by Σ's top two eigenvectors
  // u and v through the mean, columns splitting p0, rows splitting p1 and,
  // for d ≥ 3, slabs splitting ρ. Cell i = (c·grid_rows_ + r)·grid_slabs_
  // + k (column c, row r, slab k) holds samples
  // [cell_begin_[i], cell_begin_[i+1]). A kDrawOrder pool is a single
  // unbounded cell.
  std::vector<double> origin_;  // the query mean
  std::vector<double> frame_;   // u then v, dim_ entries each
  size_t grid_cols_ = 1;
  size_t grid_rows_ = 1;
  size_t grid_slabs_ = 1;
  // Rounding allowance of Project (DESIGN.md §5b): a computed plane
  // coordinate is within slack_·‖w‖ of the exact projection and a computed
  // ρ within rho_slack_·‖w‖, and the squared plane gap times contraction_
  // stays below the exact one.
  double slack_ = 0.0;
  double rho_slack_ = 0.0;
  double contraction_ = 1.0;
  double max_norm_ = 0.0;  // the largest computed ‖x − mean‖ in the pool
  std::vector<uint64_t> cell_begin_;
  // Per column, the union of its cells; per (column, row), the p1 bounds
  // of its samples; per cell, the ρ bounds of its samples. An empty row or
  // cell takes the bounds [h, h] of the one before it (h = −inf for none),
  // so along a column both bounds never decrease from row to row, nor from
  // slab to slab within a row (DecideExact scans for its runs on that).
  std::vector<Box> columns_{Box{kUnbounded, kUnbounded,
                                            kUnbounded}};
  std::vector<Interval> rows_{kUnbounded};
  std::vector<Interval> slabs_{kUnbounded};
};

}  // namespace gprq::mc

#endif  // GPRQ_MC_SAMPLE_POOL_H_
