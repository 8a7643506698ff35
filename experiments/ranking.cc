#include "experiments/ranking.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/stopwatch.h"
#include "stats/noncentral_chi_squared.h"

namespace gprq::core {

double RankingUpperBound(const GaussianDistribution& query, double delta,
                         double dist) {
  // ∫_ball p∥ = [Π(s_i/s_max)]⁻¹ · P(χ'²_d((r/s_max)²) <= (δ/s_max)²);
  // see Section IV-C (p∥ scales the normalized Gaussian by |Σ|^{-1/2}
  // relative to an isotropic density with scale s_max).
  const la::Vector& scales = query.axis_scales();
  const double s_max = scales[scales.dim() - 1];
  double log_scale = 0.0;
  for (size_t i = 0; i < scales.dim(); ++i) {
    log_scale += std::log(scales[i] / s_max);
  }
  const double mass = stats::NoncentralChiSquaredCdf(
      query.dim(), (dist / s_max) * (dist / s_max),
      (delta / s_max) * (delta / s_max));
  return std::min(1.0, mass * std::exp(-log_scale));
}

Result<std::vector<RankedObject>> TopKProbableRangeMembers(
    const index::RStarTree& tree, const GaussianDistribution& query,
    double delta, size_t k, mc::ProbabilityEvaluator* evaluator,
    RankingStats* stats) {
  if (evaluator == nullptr) {
    return Status::InvalidArgument("evaluator must not be null");
  }
  if (query.dim() != tree.dim()) {
    return Status::InvalidArgument("query dimension does not match index");
  }
  if (!(delta > 0.0)) {
    return Status::InvalidArgument("delta must be > 0");
  }
  RankingStats local;
  RankingStats& out = (stats != nullptr) ? *stats : local;
  out = RankingStats();
  Stopwatch timer;

  std::vector<RankedObject> result;
  if (k == 0) return result;

  // Min-heap of the current top-k probabilities.
  auto cmp = [](const RankedObject& a, const RankedObject& b) {
    return a.probability > b.probability;
  };
  std::priority_queue<RankedObject, std::vector<RankedObject>, decltype(cmp)>
      top(cmp);

  index::NearestNeighborIterator it(tree, query.mean());
  double dist_sq = 0.0;
  index::ObjectId id = 0;
  la::Vector point;
  while (it.Next(&dist_sq, &id, &point)) {
    ++out.objects_streamed;
    const double dist = std::sqrt(dist_sq);
    if (top.size() == k &&
        RankingUpperBound(query, delta, dist) < top.top().probability) {
      break;  // no farther object can beat the current k-th best
    }
    const double probability =
        evaluator->QualificationProbability(query, point, delta);
    ++out.evaluations;
    if (top.size() < k) {
      top.push(RankedObject{id, probability});
    } else if (probability > top.top().probability) {
      top.pop();
      top.push(RankedObject{id, probability});
    }
  }

  result.reserve(top.size());
  while (!top.empty()) {
    result.push_back(top.top());
    top.pop();
  }
  std::reverse(result.begin(), result.end());  // descending probability
  out.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace gprq::core
