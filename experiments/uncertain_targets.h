#ifndef GPRQ_EXPERIMENTS_UNCERTAIN_TARGETS_H_
#define GPRQ_EXPERIMENTS_UNCERTAIN_TARGETS_H_

#include <vector>

#include "common/status.h"
#include "core/gaussian.h"
#include "la/matrix.h"
#include "la/vector.h"

namespace gprq::core {

/// A target object whose own location is Gaussian-uncertain: N(mean, cov).
struct UncertainTarget {
  la::Vector mean;
  la::Matrix cov;
};

struct UncertainPrqStats {
  size_t pruned_by_bound = 0;  // skipped via the combined BF outer radius
  size_t evaluations = 0;      // exact probability computations
  double seconds = 0.0;
};

/// PRQ where *both* the query object and the targets are
/// Gaussian-uncertain — the environment the paper's Section VII lists as
/// future work. The key identity: for independent x_q ~ N(q, Σ_q) and
/// x_o ~ N(o, Σ_o), the difference x_q − x_o is N(q − o, Σ_q + Σ_o), so
///
///   Pr(‖x_q − x_o‖ <= δ) = Pr(‖y‖ <= δ),  y ~ N(q − o, Σ_q + Σ_o),
///
/// which is exactly the quadratic form this library already evaluates. Each
/// target is first screened with the BF outer radius of the *combined*
/// covariance (a conservative distance bound); survivors get an exact
/// Imhof evaluation.
///
/// Returns the indices (into `targets`) of the qualifying objects.
Result<std::vector<size_t>> UncertainTargetPrq(
    const GaussianDistribution& query,
    const std::vector<UncertainTarget>& targets, double delta, double theta,
    UncertainPrqStats* stats = nullptr);

/// The exact qualification probability for a single uncertain target.
Result<double> UncertainTargetProbability(const GaussianDistribution& query,
                                          const UncertainTarget& target,
                                          double delta);

}  // namespace gprq::core

#endif  // GPRQ_EXPERIMENTS_UNCERTAIN_TARGETS_H_
