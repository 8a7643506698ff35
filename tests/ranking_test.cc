// Tests for the top-k probability-ranking extension (threshold-free
// probabilistic NN flavor of the paper's future work).

#include "experiments/ranking.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
#include "workload/generators.h"

namespace gprq::core {
namespace {

GaussianDistribution MakeGaussian(la::Vector mean, la::Matrix cov) {
  auto g = GaussianDistribution::Create(std::move(mean), std::move(cov));
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

TEST(RankingUpperBound, DominatesExactProbabilityAndDecays) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              workload::PaperCovariance2D(10.0));
  mc::ImhofEvaluator exact;
  const double delta = 25.0;
  double prev_bound = 2.0;
  for (double r = 0.0; r <= 120.0; r += 7.5) {
    const double bound = RankingUpperBound(g, delta, r);
    EXPECT_LE(bound, prev_bound + 1e-12);  // monotone in distance
    prev_bound = bound;
    // Check dominance at several directions of equal distance.
    for (double angle : {0.0, 0.7, 1.9, 3.0}) {
      const la::Vector o{r * std::cos(angle), r * std::sin(angle)};
      const double p = exact.QualificationProbability(g, o, delta);
      EXPECT_LE(p, bound + 1e-7) << "r=" << r << " angle=" << angle;
    }
  }
}

TEST(TopK, ValidatesInput) {
  auto tree = index::StrBulkLoader::Load(2, {la::Vector{0.0, 0.0}});
  ASSERT_TRUE(tree.ok());
  const auto g = MakeGaussian(la::Vector{0.0, 0.0}, la::Matrix::Identity(2));
  mc::ImhofEvaluator exact;
  EXPECT_FALSE(TopKProbableRangeMembers(*tree, g, 1.0, 3, nullptr).ok());
  EXPECT_FALSE(TopKProbableRangeMembers(*tree, g, 0.0, 3, &exact).ok());
  const auto g3 = MakeGaussian(la::Vector(3), la::Matrix::Identity(3));
  EXPECT_FALSE(TopKProbableRangeMembers(*tree, g3, 1.0, 3, &exact).ok());
}

TEST(TopK, KZeroAndEmptyTree) {
  auto tree = index::StrBulkLoader::Load(2, {});
  ASSERT_TRUE(tree.ok());
  const auto g = MakeGaussian(la::Vector{0.0, 0.0}, la::Matrix::Identity(2));
  mc::ImhofEvaluator exact;
  auto r0 = TopKProbableRangeMembers(*tree, g, 1.0, 0, &exact);
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(r0->empty());
  auto r5 = TopKProbableRangeMembers(*tree, g, 1.0, 5, &exact);
  ASSERT_TRUE(r5.ok());
  EXPECT_TRUE(r5->empty());
}

TEST(TopK, MatchesBruteForceRanking) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{200.0, 200.0});
  const auto dataset = workload::GenerateClustered(1200, extent, 6, 15.0, 33);
  auto tree = index::StrBulkLoader::Load(2, dataset.points);
  ASSERT_TRUE(tree.ok());
  const auto g = MakeGaussian(la::Vector{100.0, 100.0},
                              workload::PaperCovariance2D(4.0));
  mc::ImhofEvaluator exact;
  const double delta = 12.0;
  const size_t k = 15;

  RankingStats stats;
  auto ranked = TopKProbableRangeMembers(*tree, g, delta, k, &exact, &stats);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), k);

  // Brute force: evaluate everything, sort by probability.
  std::vector<double> probs(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    probs[i] = exact.QualificationProbability(g, dataset.points[i], delta);
  }
  std::vector<size_t> order(dataset.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&probs](size_t a, size_t b) { return probs[a] > probs[b]; });

  for (size_t rank = 0; rank < k; ++rank) {
    // Compare probabilities (ids can swap under exact ties).
    EXPECT_NEAR((*ranked)[rank].probability, probs[order[rank]], 1e-7)
        << "rank " << rank;
    if (rank > 0) {
      EXPECT_LE((*ranked)[rank].probability,
                (*ranked)[rank - 1].probability + 1e-12);
    }
  }
  // The bound must have let the scan stop well before exhausting the data.
  EXPECT_LT(stats.objects_streamed, dataset.size());
  EXPECT_GT(stats.evaluations, 0u);
}

TEST(TopK, KLargerThanDataset) {
  const auto dataset = workload::GenerateUniform(
      20, geom::Rect(la::Vector{0.0, 0.0}, la::Vector{10.0, 10.0}), 3);
  auto tree = index::StrBulkLoader::Load(2, dataset.points);
  ASSERT_TRUE(tree.ok());
  const auto g = MakeGaussian(la::Vector{5.0, 5.0}, la::Matrix::Identity(2));
  mc::ImhofEvaluator exact;
  auto ranked = TopKProbableRangeMembers(*tree, g, 3.0, 100, &exact);
  ASSERT_TRUE(ranked.ok());
  EXPECT_EQ(ranked->size(), 20u);
}

}  // namespace
}  // namespace gprq::core
