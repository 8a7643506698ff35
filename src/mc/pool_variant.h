#ifndef GPRQ_MC_POOL_VARIANT_H_
#define GPRQ_MC_POOL_VARIANT_H_

#include <cstdint>

namespace gprq::mc {

/// How a per-query SamplePool draws its points from N(q, Σ).
///
/// kPseudoRandom is the paper's estimator: iid draws from the evaluator's
/// dedicated pool stream (xoshiro256++), O(1/√n) convergence.
///
/// kHalton replaces the uniforms with a randomized Halton low-discrepancy
/// sequence (Cranley-Patterson rotation seeded from the same pool-stream
/// seed, so the pool stays a pure function of (evaluator seed, query)),
/// mapped through the standard-normal quantile and the distribution's
/// Cholesky factor — quasi-Monte-Carlo integration with ~O(1/n)
/// convergence for the smooth δ-ball indicator integrands of Phase 3.
/// Falls back to kPseudoRandom above rng::HaltonSequence::kMaxDim (16)
/// dimensions, where the tail bases stop helping anyway.
///
/// The variant changes which samples a pool holds and therefore which
/// candidates a Monte-Carlo Phase 3 decides as qualifying near the θ
/// boundary; it is part of cache::FilterConfigBits so the result cache
/// never serves one variant's answer for the other.
enum class PoolVariant : uint8_t {
  kPseudoRandom = 0,
  kHalton = 1,
};

/// How a SamplePool orders the points it drew. The layout never changes
/// which points a pool holds, so whole-pool counts — and every fixed-budget
/// decision — are the same under both.
///
/// kDrawOrder keeps stream order: every prefix is an unbiased subsample,
/// which the sequential Wilson test (SamplePool::Decide, the adaptive
/// evaluator) relies on.
///
/// kCells sorts the points into the cells of a grid over the query's two
/// widest axes, so an exact fixed-budget count visits only the cells a
/// candidate's δ-ball can reach (SamplePool::DecideExact).
enum class PoolLayout : uint8_t {
  kDrawOrder = 0,
  kCells = 1,
};

}  // namespace gprq::mc

#endif  // GPRQ_MC_POOL_VARIANT_H_
