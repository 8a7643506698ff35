#ifndef GPRQ_MC_PROBABILITY_EVALUATOR_H_
#define GPRQ_MC_PROBABILITY_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/deadline.h"
#include "core/gaussian.h"
#include "la/vector.h"
#include "mc/pool_variant.h"

namespace gprq::mc {

class SamplePool;

/// Per-candidate outcome of a bounded (deadline/cancellation-aware) batch.
/// Excluded and included are *exact* Phase-3 answers; undecided means the
/// control stopped the batch before this candidate resolved — the engine
/// must surface it as unknown, never guess. kExcluded/kIncluded are 0/1,
/// so a state reads as a boolean decision.
enum DecideState : char {
  kDecideExcluded = 0,
  kDecideIncluded = 1,
  kDecideUndecided = 2,
};

/// Phase-3 backend: computes (or estimates) the qualification probability
///
///   Pr( ‖x − o‖² <= δ² ),   x ~ N(q, Σ)
///
/// of paper Eq. (2)/(3) — the Gaussian measure of the Euclidean δ-ball
/// centered at target object o. Implementations: the paper's Monte-Carlo
/// importance sampling (MonteCarloEvaluator) and an exact
/// characteristic-function inversion (ImhofEvaluator).
class ProbabilityEvaluator {
 public:
  virtual ~ProbabilityEvaluator() = default;

  /// The qualification probability of object `object` for radius `delta`.
  virtual double QualificationProbability(
      const core::GaussianDistribution& query,
      const la::Vector& object, double delta) = 0;

  /// The Phase-3 decision the engine actually needs: is the qualification
  /// probability at least `theta`? The default compares a full
  /// QualificationProbability() estimate against θ; implementations that
  /// can decide cheaper (e.g. sequential sampling with early stopping) may
  /// override.
  virtual bool QualificationDecision(const core::GaussianDistribution& query,
                                     const la::Vector& object, double delta,
                                     double theta) {
    return QualificationProbability(query, object, delta) >= theta;
  }

  /// Builds a per-query pool of shared samples for batched decisions, or
  /// null when the implementation does not integrate by sampling from the
  /// query Gaussian (exact evaluators; the default). `variant`
  /// (core::PrqOptions::pool_variant) selects the paper's pseudo-random
  /// draws or a randomized-Halton QMC pool. Phase-3 drivers call this once
  /// per query — on the submitting thread, before any DecideBatchBounded
  /// fan-out — and pass the pool to every chunk of it, so the
  /// O(samples · d²) draw happens once per query instead of once per
  /// candidate. Sampling evaluators should draw the pool from a dedicated
  /// RNG stream so pool construction never perturbs their per-candidate
  /// stream.
  virtual std::shared_ptr<const SamplePool> MakeSamplePool(
      const core::GaussianDistribution& query, PoolVariant variant) {
    (void)query;
    (void)variant;
    return nullptr;
  }

  /// Batched Phase-3 decisions: sets states[i] to kDecideIncluded iff the
  /// qualification probability of *objects[i] is at least `theta`
  /// (kDecideExcluded otherwise), for i in [0, count). `objects` is an
  /// array of `count` pointers (candidate points live inside caller
  /// containers and are not contiguous).
  ///
  /// `pool` is the pool MakeSamplePool returned for this query — null for
  /// evaluators that returned null there. Implementations deciding from the
  /// pool must treat it as read-only: one pool instance fans out across
  /// worker threads (mutating their *own* per-evaluator state is fine, the
  /// worker owns it).
  ///
  /// `control` bounds the batch: once it fires, the current and every
  /// remaining candidate are marked kDecideUndecided. Decided entries are
  /// bit-identical to an unlimited control's (the control only truncates
  /// work, it never alters it); QueryControl::Unlimited() decides every
  /// candidate. The default ignores `pool`, loops the per-candidate
  /// QualificationDecision (so exact evaluators are batched transparently)
  /// and checks the control between candidates; sampling implementations
  /// override to also check inside a candidate (between count blocks),
  /// bounding the overshoot past a deadline by one block.
  virtual void DecideBatchBounded(const core::GaussianDistribution& query,
                                  const la::Vector* const* objects,
                                  size_t count, double delta, double theta,
                                  const SamplePool* pool,
                                  const common::QueryControl& control,
                                  char* states) {
    const bool bounded = !control.Unbounded();
    for (size_t i = 0; i < count; ++i) {
      if (bounded && control.ShouldStop()) {
        for (size_t j = i; j < count; ++j) states[j] = kDecideUndecided;
        return;
      }
      states[i] = QualificationDecision(query, *objects[i], delta, theta)
                      ? kDecideIncluded
                      : kDecideExcluded;
    }
    (void)pool;
  }

  /// Implementation name for reports ("monte-carlo", "imhof", ...).
  virtual const char* name() const = 0;
};

}  // namespace gprq::mc

#endif  // GPRQ_MC_PROBABILITY_EVALUATOR_H_
