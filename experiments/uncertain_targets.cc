#include "experiments/uncertain_targets.h"

#include <cmath>

#include "common/stopwatch.h"
#include "core/alpha_catalog.h"
#include "core/filters.h"
#include "mc/exact_evaluator.h"

namespace gprq::core {

namespace {

/// Builds the combined Gaussian N(q − o, Σ_q + Σ_o) for one target.
Result<GaussianDistribution> CombinedGaussian(
    const GaussianDistribution& query, const UncertainTarget& target) {
  if (target.mean.dim() != query.dim()) {
    return Status::InvalidArgument("target dimension mismatch");
  }
  if (target.cov.rows() != query.dim() || target.cov.cols() != query.dim()) {
    return Status::InvalidArgument("target covariance must be d x d");
  }
  return GaussianDistribution::Create(query.mean() - target.mean,
                                      query.covariance() + target.cov);
}

}  // namespace

Result<double> UncertainTargetProbability(const GaussianDistribution& query,
                                          const UncertainTarget& target,
                                          double delta) {
  if (!(delta > 0.0)) {
    return Status::InvalidArgument("delta must be > 0");
  }
  auto combined = CombinedGaussian(query, target);
  if (!combined.ok()) return combined.status();
  mc::ImhofEvaluator evaluator;
  // Pr(‖y‖ <= δ) with y ~ combined: the "object" sits at the origin.
  return evaluator.QualificationProbability(*combined,
                                            la::Vector(query.dim()), delta);
}

Result<std::vector<size_t>> UncertainTargetPrq(
    const GaussianDistribution& query,
    const std::vector<UncertainTarget>& targets, double delta, double theta,
    UncertainPrqStats* stats) {
  if (!(delta > 0.0)) {
    return Status::InvalidArgument("delta must be > 0");
  }
  if (!(theta > 0.0 && theta < 1.0)) {
    return Status::InvalidArgument("theta must be in (0, 1)");
  }
  UncertainPrqStats local;
  UncertainPrqStats& out = (stats != nullptr) ? *stats : local;
  out = UncertainPrqStats();
  Stopwatch timer;

  mc::ImhofEvaluator evaluator;
  const la::Vector origin(query.dim());
  std::vector<size_t> result;
  for (size_t i = 0; i < targets.size(); ++i) {
    auto combined = CombinedGaussian(query, targets[i]);
    if (!combined.ok()) return combined.status();

    // Conservative prescreen: objects whose mean offset exceeds the BF
    // outer radius of the combined distribution cannot qualify.
    const BfBounds bounds =
        BfBounds::Compute(*combined, delta, theta, /*catalog=*/nullptr);
    if (bounds.nothing_qualifies ||
        la::SquaredNorm(combined->mean()) >
            bounds.alpha_outer * bounds.alpha_outer) {
      ++out.pruned_by_bound;
      continue;
    }
    if (bounds.has_inner &&
        la::SquaredNorm(combined->mean()) <=
            bounds.alpha_inner * bounds.alpha_inner) {
      result.push_back(i);  // guaranteed qualifier, no integration
      continue;
    }

    const double probability =
        evaluator.QualificationProbability(*combined, origin, delta);
    ++out.evaluations;
    if (probability >= theta) result.push_back(i);
  }
  out.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace gprq::core
