#ifndef GPRQ_EXPERIMENTS_RANKING_H_
#define GPRQ_EXPERIMENTS_RANKING_H_

#include <vector>

#include "common/status.h"
#include "core/prq.h"
#include "index/rstar_tree.h"
#include "mc/probability_evaluator.h"

namespace gprq::core {

/// A ranked query answer: object id plus its qualification probability.
struct RankedObject {
  index::ObjectId id = 0;
  double probability = 0.0;
};

/// Statistics for a top-k ranking query.
struct RankingStats {
  size_t objects_streamed = 0;   // points pulled from the NN iterator
  size_t evaluations = 0;        // exact probability computations
  double seconds = 0.0;
};

/// Top-k probabilistic ranking (the paper's Section VII names probabilistic
/// nearest-neighbor queries as future work; this is the threshold-free
/// variant): return the k objects with the highest qualification
/// probability Pr(‖x − o‖ <= δ).
///
/// Algorithm: stream objects from the R*-tree in increasing Euclidean
/// distance from q (incremental NN) and evaluate each exactly. The
/// spherical upper-bounding function p∥ of Section IV-C gives a bound on
/// the qualification probability that is monotone in the distance from q,
/// so the stream can stop as soon as that bound for the next-closest
/// object falls below the current k-th best probability — even though the
/// true probability is not monotone in distance for anisotropic Σ.
///
/// Results are sorted by probability, descending.
Result<std::vector<RankedObject>> TopKProbableRangeMembers(
    const index::RStarTree& tree, const GaussianDistribution& query,
    double delta, size_t k, mc::ProbabilityEvaluator* evaluator,
    RankingStats* stats = nullptr);

/// The distance-monotone upper bound used for termination: the mass of the
/// δ-ball at distance `dist` from q under the upper-bounding function p∥.
/// Exposed for tests (must dominate the exact probability everywhere).
double RankingUpperBound(const GaussianDistribution& query, double delta,
                         double dist);

}  // namespace gprq::core

#endif  // GPRQ_EXPERIMENTS_RANKING_H_
