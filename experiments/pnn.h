#ifndef GPRQ_EXPERIMENTS_PNN_H_
#define GPRQ_EXPERIMENTS_PNN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/gaussian.h"
#include "index/rstar_tree.h"

namespace gprq::core {

/// One probabilistic-nearest-neighbor candidate: the object and the
/// estimated probability that it is the nearest neighbor of the imprecise
/// query object.
struct PnnCandidate {
  index::ObjectId id = 0;
  double probability = 0.0;
  double std_error = 0.0;  // binomial standard error of the estimate
};

struct PnnStats {
  uint64_t samples = 0;      // query-location samples drawn
  uint64_t node_reads = 0;   // R*-tree node accesses across NN lookups
  double seconds = 0.0;
};

/// Probabilistic nearest-neighbor query — the first item of the paper's
/// future work (Section VII). For an imprecise query location x ~ N(q, Σ),
/// the PNN probability of object o is the Gaussian measure of o's Voronoi
/// cell:
///
///   P(o is NN) = Pr( ‖x − o‖ < ‖x − o'‖  for all o' ≠ o ).
///
/// Voronoi cells have no tractable closed form in general position, but the
/// measure is estimated consistently by sampling x from the query Gaussian
/// and answering an exact 1-NN query per sample (best-first search on the
/// R*-tree, microseconds each). Returns every object that ever won a
/// sample, with its frequency estimate and binomial standard error, sorted
/// by probability descending. Probabilities sum to 1 across the result.
///
/// Deterministic for a given seed.
Result<std::vector<PnnCandidate>> ProbabilisticNearestNeighbor(
    const index::RStarTree& tree, const GaussianDistribution& query,
    uint64_t samples, uint64_t seed, PnnStats* stats = nullptr);

}  // namespace gprq::core

#endif  // GPRQ_EXPERIMENTS_PNN_H_
