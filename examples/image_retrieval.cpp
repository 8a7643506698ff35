// Example: example-based multimedia retrieval (paper Sections I and VI).
// The user provides a handful of example images; the system models the
// user's interest as a Gaussian in 9-D color-moment feature space (mean and
// covariance of the examples, regularized with κI per Eq. 35) and retrieves
// images that are "similar with probability >= θ". Also runs the
// threshold-free top-k ranking extension on the same query.

#include <cmath>
#include <cstdio>

#include "core/engine.h"
#include "experiments/ranking.h"
#include "index/str_bulk_load.h"
#include "la/eigen_sym.h"
#include "mc/exact_evaluator.h"
#include "workload/corel_synthetic.h"

int main() {
  using namespace gprq;

  // A 68,040-image collection in 9-D color-moment space (synthetic Corel).
  std::printf("generating the image-feature collection...\n");
  const auto images = workload::GenerateCorelSynthetic();
  auto tree = index::StrBulkLoader::Load(9, images.points);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  const core::PrqEngine engine(&*tree);
  mc::ImhofEvaluator evaluator;

  // Pseudo-feedback: the "user's examples" are the 20 images most similar
  // to a seed image.
  const size_t kSeedImage = 12345;
  const size_t kFeedback = 20;
  std::vector<std::pair<double, index::ObjectId>> feedback;
  tree->KnnQuery(images.points[kSeedImage], kFeedback, &feedback);

  // Interest model: N(seed, Σ̃ + κI).
  la::Vector mean(9);
  for (const auto& [dist, id] : feedback) mean += images.points[id];
  mean *= 1.0 / static_cast<double>(feedback.size());
  la::Matrix sample_cov(9, 9);
  for (const auto& [dist, id] : feedback) {
    const la::Vector diff = images.points[id] - mean;
    for (size_t a = 0; a < 9; ++a)
      for (size_t b = 0; b < 9; ++b) sample_cov(a, b) += diff[a] * diff[b];
  }
  sample_cov *= 1.0 / static_cast<double>(feedback.size());
  auto eigen = la::DecomposeSymmetric(sample_cov);
  double log_det = 0.0;
  for (size_t i = 0; i < 9; ++i) {
    log_det += std::log(std::max(eigen->eigenvalues[i], 1e-12));
  }
  const double kappa = std::exp(log_det / 9.0);
  const la::Matrix cov = sample_cov + la::Matrix::Identity(9) * kappa;
  std::printf("interest model built from %zu feedback images "
              "(kappa = %.4f)\n\n", kFeedback, kappa);

  auto g = core::GaussianDistribution::Create(images.points[kSeedImage], cov);
  if (!g.ok()) {
    std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
    return 1;
  }

  // Probabilistic range query: similar with >= 30% probability.
  {
    auto gq = core::GaussianDistribution::Create(
        images.points[kSeedImage], cov);
    const core::PrqQuery query{std::move(*gq), /*delta=*/0.7,
                               /*theta=*/0.3};
    core::PrqStats stats;
    auto result = engine.Execute(query, core::PrqOptions(), &evaluator,
                                 &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("PRQ(delta=0.7, theta=0.3): %zu matching images "
                "(%zu integrations over %zu index candidates, %.1f ms)\n",
                result->size(), stats.integration_candidates,
                stats.index_candidates, stats.total_seconds() * 1e3);
  }

  // Threshold-free alternative: the 10 most probably-similar images.
  {
    core::RankingStats stats;
    auto ranked = core::TopKProbableRangeMembers(*tree, *g, 0.7, 10,
                                                 &evaluator, &stats);
    if (!ranked.ok()) {
      std::fprintf(stderr, "%s\n", ranked.status().ToString().c_str());
      return 1;
    }
    std::printf("\ntop-10 most probable matches "
                "(streamed %zu / evaluated %zu of %zu images):\n",
                stats.objects_streamed, stats.evaluations, images.size());
    for (size_t i = 0; i < ranked->size(); ++i) {
      std::printf("  #%zu: image %u  p = %.3f%s\n", i + 1, (*ranked)[i].id,
                  (*ranked)[i].probability,
                  (*ranked)[i].id == kSeedImage ? "  (the seed)" : "");
    }
  }
  return 0;
}
