// Tests for the grid histogram and the PRQ candidate-count estimator.

#include "experiments/histogram.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
#include "workload/generators.h"
#include "workload/tiger_synthetic.h"

namespace gprq::core {
namespace {

TEST(GridHistogram, ValidatesInput) {
  EXPECT_FALSE(GridHistogram::Build({}, 8).ok());
  EXPECT_FALSE(
      GridHistogram::Build({la::Vector{0.0, 0.0}}, 0).ok());
  // 9-D at 64 cells/dim would need 64^9 cells.
  std::vector<la::Vector> points(3, la::Vector(9));
  EXPECT_FALSE(GridHistogram::Build(points, 64).ok());
  // Mixed dimensions.
  EXPECT_FALSE(GridHistogram::Build(
                   {la::Vector{0.0, 0.0}, la::Vector{1.0}}, 4)
                   .ok());
}

TEST(GridHistogram, ExactOnWholeDomainAndEmptyRegions) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{100.0, 100.0});
  const auto dataset = workload::GenerateUniform(5000, extent, 3);
  auto histogram = GridHistogram::Build(dataset.points, 32);
  ASSERT_TRUE(histogram.ok());
  EXPECT_EQ(histogram->total_points(), 5000u);
  // Whole domain: exact.
  EXPECT_NEAR(histogram->EstimateInRect(extent), 5000.0, 1e-9);
  // Region outside the data: zero.
  EXPECT_EQ(histogram->EstimateInRect(geom::Rect(la::Vector{200.0, 200.0},
                                                 la::Vector{300.0, 300.0})),
            0.0);
}

TEST(GridHistogram, UniformDataEstimatesProportionalArea) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{100.0, 100.0});
  const auto dataset = workload::GenerateUniform(50000, extent, 5);
  auto histogram = GridHistogram::Build(dataset.points, 25);
  ASSERT_TRUE(histogram.ok());
  // A quarter of the area should hold ~a quarter of the points.
  const geom::Rect quarter(la::Vector{0.0, 0.0}, la::Vector{50.0, 50.0});
  EXPECT_NEAR(histogram->EstimateInRect(quarter), 12500.0, 400.0);
  // Region not aligned to cell boundaries.
  const geom::Rect odd(la::Vector{13.7, 21.3}, la::Vector{48.1, 77.7});
  const double area_fraction = (48.1 - 13.7) * (77.7 - 21.3) / 1e4;
  EXPECT_NEAR(histogram->EstimateInRect(odd), 50000.0 * area_fraction,
              50000.0 * area_fraction * 0.05);
}

TEST(GridHistogram, EstimateMatchesActualCountsOnClusteredData) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{100.0, 100.0});
  const auto dataset = workload::GenerateClustered(30000, extent, 8, 5.0, 7);
  auto histogram = GridHistogram::Build(dataset.points, 64);
  ASSERT_TRUE(histogram.ok());
  rng::Random random(2);
  for (int trial = 0; trial < 10; ++trial) {
    la::Vector lo(2), hi(2);
    for (size_t j = 0; j < 2; ++j) {
      const double a = random.NextDouble(0.0, 100.0);
      const double b = random.NextDouble(0.0, 100.0);
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    const geom::Rect box(lo, hi);
    size_t actual = 0;
    for (const auto& p : dataset.points) {
      if (box.Contains(p)) ++actual;
    }
    const double estimated = histogram->EstimateInRect(box);
    EXPECT_NEAR(estimated, static_cast<double>(actual),
                std::max(100.0, actual * 0.25))
        << "trial " << trial;
  }
}

TEST(EstimatePrqCandidates, TracksEngineCountsOnTiger) {
  workload::TigerSyntheticOptions data_options;
  data_options.num_points = 20000;  // smaller for test speed
  const auto dataset = workload::GenerateTigerSynthetic(data_options);
  auto tree = index::StrBulkLoader::Load(2, dataset.points);
  ASSERT_TRUE(tree.ok());
  auto histogram = GridHistogram::Build(dataset.points, 96);
  ASSERT_TRUE(histogram.ok());

  const PrqEngine engine(&*tree);
  mc::ImhofEvaluator exact;
  rng::Random random(11);
  for (int trial = 0; trial < 6; ++trial) {
    const la::Vector& center =
        dataset.points[random.NextUint64(dataset.size())];
    auto g = GaussianDistribution::Create(center,
                                          workload::PaperCovariance2D(10.0));
    ASSERT_TRUE(g.ok());
    for (StrategyMask mask : {kStrategyRR, kStrategyAll}) {
      auto estimate =
          EstimatePrqCandidates(*histogram, *g, 25.0, 0.01, mask);
      ASSERT_TRUE(estimate.ok());

      auto gq = GaussianDistribution::Create(
          center, workload::PaperCovariance2D(10.0));
      const PrqQuery query{std::move(*gq), 25.0, 0.01};
      PrqOptions options;
      options.strategies = mask;
      options.use_catalogs = false;  // the estimator uses exact radii
      PrqStats stats;
      auto result = engine.Execute(query, options, &exact, &stats);
      ASSERT_TRUE(result.ok());

      // The estimator should land within ~40% + a small absolute slack of
      // the true counts (cell-granularity limits accuracy on road-network
      // data).
      EXPECT_NEAR(estimate->integration_candidates,
                  static_cast<double>(stats.integration_candidates),
                  stats.integration_candidates * 0.4 + 40.0)
          << "trial " << trial << " " << StrategyName(mask);
      EXPECT_NEAR(estimate->index_candidates,
                  static_cast<double>(stats.index_candidates),
                  stats.index_candidates * 0.4 + 40.0)
          << "trial " << trial << " " << StrategyName(mask);
    }
  }
}

TEST(EstimatePrqCandidates, ProvedEmptyPropagates) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{100.0, 100.0});
  const auto dataset = workload::GenerateUniform(1000, extent, 13);
  auto histogram = GridHistogram::Build(dataset.points, 16);
  ASSERT_TRUE(histogram.ok());
  auto g = GaussianDistribution::Create(la::Vector{50.0, 50.0},
                                        la::Matrix::Identity(2) * 1e6);
  ASSERT_TRUE(g.ok());
  auto estimate =
      EstimatePrqCandidates(*histogram, *g, 1.0, 0.4, kStrategyBF);
  ASSERT_TRUE(estimate.ok());
  EXPECT_TRUE(estimate->proved_empty);
}

TEST(EstimatePrqCandidates, ValidatesInput) {
  const auto dataset = workload::GenerateUniform(
      100, geom::Rect(la::Vector{0.0, 0.0}, la::Vector{1.0, 1.0}), 1);
  auto histogram = GridHistogram::Build(dataset.points, 4);
  ASSERT_TRUE(histogram.ok());
  auto g2 = GaussianDistribution::Create(la::Vector{0.5, 0.5},
                                         la::Matrix::Identity(2));
  ASSERT_TRUE(g2.ok());
  EXPECT_FALSE(
      EstimatePrqCandidates(*histogram, *g2, 0.0, 0.1, kStrategyAll).ok());
  EXPECT_FALSE(
      EstimatePrqCandidates(*histogram, *g2, 1.0, 0.0, kStrategyAll).ok());
  EXPECT_FALSE(EstimatePrqCandidates(*histogram, *g2, 1.0, 0.1, 0).ok());
  auto g3 = GaussianDistribution::Create(la::Vector(3),
                                         la::Matrix::Identity(3));
  ASSERT_TRUE(g3.ok());
  EXPECT_FALSE(
      EstimatePrqCandidates(*histogram, *g3, 1.0, 0.1, kStrategyAll).ok());
}

}  // namespace
}  // namespace gprq::core
