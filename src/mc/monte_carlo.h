#ifndef GPRQ_MC_MONTE_CARLO_H_
#define GPRQ_MC_MONTE_CARLO_H_

#include <cstdint>
#include <memory>

#include "mc/probability_evaluator.h"
#include "mc/sample_pool.h"
#include "rng/random.h"

namespace gprq::mc {

/// The paper's numerical integrator (Section V-A): draw random points from
/// the query Gaussian itself and count the fraction landing inside the
/// δ-ball around the target object. The paper calls this importance
/// sampling; sampling from the integrand's own density makes the estimator
/// converge much faster than uniform hit-or-miss Monte Carlo, especially in
/// medium dimensions. The paper used 100,000 samples per object.
struct MonteCarloOptions {
  uint64_t samples = 100000;
  uint64_t seed = 42;
  /// Query dimensionality hint; when nonzero the sampling scratch buffer
  /// is allocated at construction instead of on the first sample draw.
  size_t dim = 0;
};

class MonteCarloEvaluator final : public ProbabilityEvaluator {
 public:
  using Options = MonteCarloOptions;

  explicit MonteCarloEvaluator(Options options = Options());

  double QualificationProbability(const core::GaussianDistribution& query,
                                  const la::Vector& object,
                                  double delta) override;

  /// Batched Phase-3 over a shared per-query pool: the O(d²) sampling cost
  /// is paid once per query (in MakeSamplePool) and each candidate costs
  /// only SamplePool::DecideExact — the fixed-budget whole-pool decision
  /// (hits ≥ θ·n), counting just the samples its δ-ball can reach. The
  /// control is polled between kernel blocks, and once it fires the
  /// current and remaining candidates are marked kDecideUndecided. A
  /// brownout sample_budget caps the samples each candidate examines; one
  /// that does not settle within it is undecided. Without a pool, falls
  /// back to the per-candidate path.
  void DecideBatchBounded(const core::GaussianDistribution& query,
                          const la::Vector* const* objects, size_t count,
                          double delta, double theta, const SamplePool* pool,
                          const common::QueryControl& control,
                          char* states) override;

  /// A pool of options().samples draws from a stream seeded by
  /// (options().seed, pool salt, QueryFingerprint(query)) — a pure function
  /// of evaluator seed and query, independent of how many pools were built
  /// before, so per-query Phase-3 results are reproducible on a long-lived
  /// evaluator and unaffected by neighboring queries being skipped. The
  /// pool is laid out in grid cells (PoolLayout::kCells) for DecideExact.
  std::shared_ptr<const SamplePool> MakeSamplePool(
      const core::GaussianDistribution& query) override;

  /// Variant-selecting pool from the same (seed, salt, fingerprint) stream
  /// seed: kPseudoRandom is bit-identical to the overload above; kHalton
  /// swaps the iid draws for the randomized-Halton QMC construction.
  std::shared_ptr<const SamplePool> MakeSamplePool(
      const core::GaussianDistribution& query, PoolVariant variant) override;

  /// Estimate plus its standard error sqrt(p(1−p)/n).
  struct Estimate {
    double probability = 0.0;
    double std_error = 0.0;
    uint64_t samples = 0;
  };
  Estimate EstimateWithError(const core::GaussianDistribution& query,
                             const la::Vector& object, double delta);

  const char* name() const override { return "monte-carlo"; }

  const Options& options() const { return options_; }

 private:
  uint64_t CountHits(const core::GaussianDistribution& query,
                     const la::Vector& object, double delta_sq, uint64_t n);

  /// The pooled decision loop behind DecideBatchBounded; writes kDecide*
  /// states.
  void DecidePooled(const SamplePool& pool, const la::Vector* const* objects,
                    size_t count, double delta, double theta,
                    const SamplePool::ExactOptions& exact, char* states);

  Options options_;
  rng::Random random_;
  la::Vector scratch_;
};

}  // namespace gprq::mc

#endif  // GPRQ_MC_MONTE_CARLO_H_
