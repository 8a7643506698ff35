// Cross-validation of the 2-D slice evaluator against the noncentral
// chi-squared closed form (isotropic) and the Imhof evaluator (general).

#include "experiments/slice_evaluator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "core/naive.h"
#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
#include "rng/random.h"
#include "stats/noncentral_chi_squared.h"
#include "workload/generators.h"

namespace gprq::mc {
namespace {

core::GaussianDistribution MakeGaussian(la::Vector mean, la::Matrix cov) {
  auto g = core::GaussianDistribution::Create(std::move(mean),
                                              std::move(cov));
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

TEST(Slice2D, IsotropicMatchesNoncentralChiSquared) {
  const double s = 1.7;
  const auto g = MakeGaussian(la::Vector{2.0, -1.0},
                              la::Matrix::Identity(2) * (s * s));
  Slice2DEvaluator slice;
  for (double dist : {0.0, 1.0, 3.0, 6.0}) {
    for (double delta : {0.5, 2.0, 5.0}) {
      const la::Vector o{2.0 + dist, -1.0};
      const double expected = stats::NoncentralChiSquaredCdf(
          2, (dist / s) * (dist / s), (delta / s) * (delta / s));
      EXPECT_NEAR(slice.QualificationProbability(g, o, delta), expected,
                  1e-9)
          << "dist=" << dist << " delta=" << delta;
    }
  }
}

TEST(Slice2D, MatchesImhofOnAnisotropicGaussians) {
  rng::Random random(21);
  Slice2DEvaluator slice;
  ImhofEvaluator imhof;
  for (int trial = 0; trial < 30; ++trial) {
    const la::Matrix cov = workload::RandomRotatedCovariance(
        la::Vector{std::exp(random.NextDouble(-1.0, 2.0)),
                   std::exp(random.NextDouble(-1.0, 2.0))},
        trial);
    const auto g = MakeGaussian(la::Vector{0.0, 0.0}, cov);
    const la::Vector o{random.NextDouble(-10.0, 10.0),
                       random.NextDouble(-10.0, 10.0)};
    const double delta = random.NextDouble(0.5, 8.0);
    EXPECT_NEAR(slice.QualificationProbability(g, o, delta),
                imhof.QualificationProbability(g, o, delta), 1e-6)
        << "trial " << trial;
  }
}

TEST(Slice2D, EdgeCases) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              workload::PaperCovariance2D(1.0));
  Slice2DEvaluator slice;
  EXPECT_EQ(slice.QualificationProbability(g, la::Vector{0.0, 0.0}, 0.0),
            0.0);
  // Huge radius: probability ~1.
  EXPECT_NEAR(slice.QualificationProbability(g, la::Vector{0.0, 0.0}, 100.0),
              1.0, 1e-9);
  // Far object: ~0 and non-negative.
  const double far = slice.QualificationProbability(
      g, la::Vector{1000.0, 0.0}, 1.0);
  EXPECT_GE(far, 0.0);
  EXPECT_LT(far, 1e-12);
}

TEST(Slice2D, WorksAsEngineEvaluator) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{1000.0, 1000.0});
  const auto dataset = workload::GenerateClustered(2000, extent, 10, 35.0, 5);
  auto tree = index::StrBulkLoader::Load(2, dataset.points);
  ASSERT_TRUE(tree.ok());
  auto g = core::GaussianDistribution::Create(
      dataset.points[1000], workload::PaperCovariance2D(10.0));
  ASSERT_TRUE(g.ok());
  const core::PrqQuery query{std::move(*g), 25.0, 0.01};

  const core::PrqEngine engine(&*tree);
  Slice2DEvaluator slice;
  ImhofEvaluator imhof;
  auto a = engine.Execute(query, core::PrqOptions(), &slice);
  auto b = engine.Execute(query, core::PrqOptions(), &imhof);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<index::ObjectId> va = *a, vb = *b;
  std::sort(va.begin(), va.end());
  std::sort(vb.begin(), vb.end());
  EXPECT_EQ(va, vb);
}

}  // namespace
}  // namespace gprq::mc
