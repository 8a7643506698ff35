// Tests for the probabilistic nearest-neighbor extension (Monte-Carlo
// Voronoi masses).

#include "experiments/pnn.h"

#include <gtest/gtest.h>

#include <cmath>

#include "index/str_bulk_load.h"
#include "stats/special.h"
#include "workload/generators.h"

namespace gprq::core {
namespace {

GaussianDistribution MakeGaussian(la::Vector mean, la::Matrix cov) {
  auto g = GaussianDistribution::Create(std::move(mean), std::move(cov));
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

TEST(Pnn, ValidatesInput) {
  auto tree = index::StrBulkLoader::Load(2, {la::Vector{0.0, 0.0}});
  ASSERT_TRUE(tree.ok());
  const auto g = MakeGaussian(la::Vector{0.0, 0.0}, la::Matrix::Identity(2));
  EXPECT_FALSE(ProbabilisticNearestNeighbor(*tree, g, 0, 1).ok());
  const auto g3 = MakeGaussian(la::Vector(3), la::Matrix::Identity(3));
  EXPECT_FALSE(ProbabilisticNearestNeighbor(*tree, g3, 100, 1).ok());
  auto empty = index::StrBulkLoader::Load(2, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(ProbabilisticNearestNeighbor(*empty, g, 100, 1).ok());
}

TEST(Pnn, SinglePointIsCertain) {
  auto tree = index::StrBulkLoader::Load(2, {la::Vector{5.0, 5.0}});
  ASSERT_TRUE(tree.ok());
  const auto g = MakeGaussian(la::Vector{0.0, 0.0}, la::Matrix::Identity(2));
  auto result = ProbabilisticNearestNeighbor(*tree, g, 1000, 1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 0u);
  EXPECT_EQ((*result)[0].probability, 1.0);
}

TEST(Pnn, SymmetricPairSplitsEvenly) {
  // Two points symmetric about the mean: the separating hyperplane passes
  // through q, so each Voronoi cell holds exactly half the Gaussian mass.
  auto tree = index::StrBulkLoader::Load(
      2, {la::Vector{-3.0, 0.0}, la::Vector{3.0, 0.0}});
  ASSERT_TRUE(tree.ok());
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              workload::PaperCovariance2D(2.0));
  auto result = ProbabilisticNearestNeighbor(*tree, g, 200000, 2);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_NEAR((*result)[0].probability, 0.5, 0.01);
  EXPECT_NEAR((*result)[1].probability, 0.5, 0.01);
}

TEST(Pnn, TwoPointsClosedFormHalfspace) {
  // Isotropic N(0, s²I), points a=(1,0) and b=(5,0): a wins iff
  // x_0 < 3 (the bisector), so P(a) = Φ(3/s).
  const double s = 2.0;
  auto tree = index::StrBulkLoader::Load(
      2, {la::Vector{1.0, 0.0}, la::Vector{5.0, 0.0}});
  ASSERT_TRUE(tree.ok());
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              la::Matrix::Identity(2) * (s * s));
  auto result = ProbabilisticNearestNeighbor(*tree, g, 200000, 3);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  const double expected = stats::StandardNormalCdf(3.0 / s);
  EXPECT_EQ((*result)[0].id, 0u);
  EXPECT_NEAR((*result)[0].probability, expected, 0.005);
}

TEST(Pnn, ProbabilitiesSumToOneAndSorted) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{100.0, 100.0});
  const auto dataset = workload::GenerateClustered(500, extent, 5, 8.0, 7);
  auto tree = index::StrBulkLoader::Load(2, dataset.points);
  ASSERT_TRUE(tree.ok());
  const auto g = MakeGaussian(la::Vector{50.0, 50.0},
                              workload::PaperCovariance2D(3.0));
  PnnStats stats;
  auto result = ProbabilisticNearestNeighbor(*tree, g, 20000, 4, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->size(), 1u);
  double total = 0.0;
  for (size_t i = 0; i < result->size(); ++i) {
    total += (*result)[i].probability;
    if (i > 0) {
      EXPECT_LE((*result)[i].probability, (*result)[i - 1].probability);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(stats.samples, 20000u);
  EXPECT_GT(stats.node_reads, 0u);
}

TEST(Pnn, DeterministicForSeed) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{10.0, 10.0});
  const auto dataset = workload::GenerateUniform(100, extent, 9);
  auto tree = index::StrBulkLoader::Load(2, dataset.points);
  ASSERT_TRUE(tree.ok());
  const auto g = MakeGaussian(la::Vector{5.0, 5.0}, la::Matrix::Identity(2));
  auto a = ProbabilisticNearestNeighbor(*tree, g, 5000, 42);
  auto b = ProbabilisticNearestNeighbor(*tree, g, 5000, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].id, (*b)[i].id);
    EXPECT_EQ((*a)[i].probability, (*b)[i].probability);
  }
}

TEST(Pnn, TightUncertaintyConcentratesOnTrueNn) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{100.0, 100.0});
  const auto dataset = workload::GenerateUniform(2000, extent, 11);
  auto tree = index::StrBulkLoader::Load(2, dataset.points);
  ASSERT_TRUE(tree.ok());
  // Query with near-zero uncertainty sitting exactly on a data point.
  const auto g = MakeGaussian(dataset.points[123],
                              la::Matrix::Identity(2) * 1e-8);
  auto result = ProbabilisticNearestNeighbor(*tree, g, 2000, 5);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 123u);
}

}  // namespace
}  // namespace gprq::core
