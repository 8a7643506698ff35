#ifndef GPRQ_MC_ADAPTIVE_MONTE_CARLO_H_
#define GPRQ_MC_ADAPTIVE_MONTE_CARLO_H_

#include <cstdint>
#include <memory>

#include "mc/probability_evaluator.h"
#include "mc/sample_pool.h"
#include "rng/random.h"

namespace gprq::mc {

struct AdaptiveMonteCarloOptions {
  /// Samples drawn before the first confidence check.
  uint64_t min_samples = 256;
  /// Per-round batch between confidence checks.
  uint64_t batch_samples = 256;
  /// Hard sample cap; reaching it falls back to comparing the running
  /// estimate against θ (like fixed-budget Monte Carlo).
  uint64_t max_samples = 100000;
  /// Confidence half-width in standard errors (z = 4 ⇒ ~6e-5 per-side
  /// error probability per decision).
  double confidence_z = 4.0;
  uint64_t seed = 42;
};

/// Sequential-sampling Monte-Carlo decider: an optimization of the paper's
/// Phase 3. The engine only needs the *decision* p >= θ, not p itself, and
/// most surviving candidates have probabilities far from θ, so a running
/// Wilson-style confidence interval usually separates from θ after a few
/// hundred samples — orders of magnitude below the paper's fixed budget of
/// 100,000 samples per object. Ablated in bench/adaptive_mc.
class AdaptiveMonteCarloEvaluator final : public ProbabilityEvaluator {
 public:
  using Options = AdaptiveMonteCarloOptions;

  explicit AdaptiveMonteCarloEvaluator(Options options = Options());

  /// Full-budget estimate (used when a caller wants the probability, e.g.
  /// the ranking extension); runs max_samples draws.
  double QualificationProbability(const core::GaussianDistribution& query,
                                  const la::Vector& object,
                                  double delta) override;

  /// Early-stopping decision with per-call sample accounting.
  bool QualificationDecision(const core::GaussianDistribution& query,
                             const la::Vector& object, double delta,
                             double theta) override;

  /// Batched decisions over a shared per-query pool: block-wise counts with
  /// the same Wilson early termination, amortizing the sampling across all
  /// candidates of the query. Counter semantics are unchanged
  /// (total_samples counts pool samples consumed per decision;
  /// undecided_fallbacks counts pool-exhausted decisions). The control is
  /// threaded into the Wilson block loop, so a deadline firing
  /// mid-candidate overshoots by at most one block of samples; the
  /// interrupted candidate and all remaining ones become kDecideUndecided.
  /// Without a pool, falls back to the per-candidate sequential path.
  void DecideBatchBounded(const core::GaussianDistribution& query,
                          const la::Vector* const* objects, size_t count,
                          double delta, double theta, const SamplePool* pool,
                          const common::QueryControl& control,
                          char* states) override;

  /// A pool of options().max_samples draws from a stream seeded by
  /// (options().seed, pool salt, QueryFingerprint(query)) — see
  /// MonteCarloEvaluator::MakeSamplePool for the determinism rationale.
  /// kHalton draws randomized-Halton QMC samples from the same stream seed.
  std::shared_ptr<const SamplePool> MakeSamplePool(
      const core::GaussianDistribution& query, PoolVariant variant) override;

  const char* name() const override { return "adaptive-monte-carlo"; }

  /// Samples drawn across all decisions since construction/reset.
  uint64_t total_samples() const { return total_samples_; }
  /// Decisions that reached max_samples without separating from θ.
  uint64_t undecided_fallbacks() const { return undecided_fallbacks_; }
  void ResetCounters() {
    total_samples_ = 0;
    undecided_fallbacks_ = 0;
  }

 private:
  Options options_;
  rng::Random random_;
  la::Vector scratch_;
  uint64_t total_samples_ = 0;
  uint64_t undecided_fallbacks_ = 0;
};

}  // namespace gprq::mc

#endif  // GPRQ_MC_ADAPTIVE_MONTE_CARLO_H_
