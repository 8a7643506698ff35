// Tests for the randomized Halton sequence and the quasi-Monte-Carlo
// estimate of a PoolVariant::kHalton sample pool: low discrepancy,
// unbiasedness, and better accuracy than plain Monte Carlo at equal sample
// budgets.

#include <gtest/gtest.h>

#include <cmath>

#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "mc/sample_pool.h"
#include "rng/halton.h"
#include "workload/generators.h"

namespace gprq {
namespace {

/// The randomized-Halton QMC qualification probability: the whole-pool
/// estimate of a kHalton pool of `samples` points seeded with `seed`.
double QmcProbability(const core::GaussianDistribution& g, uint64_t samples,
                      uint64_t seed, const la::Vector& object, double delta) {
  return mc::SamplePool(g, samples, seed, mc::PoolVariant::kHalton)
      .EstimateProbability(object, delta)
      .probability;
}

TEST(Halton, PointsInUnitCube) {
  rng::HaltonSequence halton(5, 3);
  la::Vector u;
  for (int i = 0; i < 5000; ++i) {
    halton.Next(u);
    for (size_t j = 0; j < 5; ++j) {
      ASSERT_GE(u[j], 0.0);
      ASSERT_LT(u[j], 1.0);
    }
  }
}

TEST(Halton, LowerDiscrepancyThanUniform) {
  // Star-discrepancy proxy: worst deviation of the empirical measure of
  // anchored boxes [0,a)x[0,b) from a*b, on a grid of anchors.
  const int n = 4096;
  std::vector<la::Vector> halton_points(n), uniform_points(n);
  rng::HaltonSequence halton(2, 1);
  rng::Random random(1);
  for (int i = 0; i < n; ++i) {
    halton.Next(halton_points[i]);
    uniform_points[i] = la::Vector{random.NextDouble(), random.NextDouble()};
  }
  const auto discrepancy = [n](const std::vector<la::Vector>& points) {
    double worst = 0.0;
    for (double a = 0.1; a < 1.0; a += 0.1) {
      for (double b = 0.1; b < 1.0; b += 0.1) {
        int count = 0;
        for (const auto& p : points) {
          if (p[0] < a && p[1] < b) ++count;
        }
        worst = std::max(worst,
                         std::abs(static_cast<double>(count) / n - a * b));
      }
    }
    return worst;
  };
  EXPECT_LT(discrepancy(halton_points), 0.5 * discrepancy(uniform_points));
}

TEST(Halton, DifferentSeedsDecorrelate) {
  rng::HaltonSequence a(2, 1), b(2, 2);
  la::Vector ua, ub;
  a.Next(ua);
  b.Next(ub);
  EXPECT_NE(ua[0], ub[0]);
}

TEST(Qmc, MatchesExactProbabilities) {
  auto g = core::GaussianDistribution::Create(
      la::Vector{0.0, 0.0}, workload::PaperCovariance2D(10.0));
  ASSERT_TRUE(g.ok());
  mc::ImhofEvaluator exact;
  for (double offset : {0.0, 15.0, 35.0}) {
    const la::Vector o{offset, -offset * 0.3};
    const double truth = exact.QualificationProbability(*g, o, 25.0);
    EXPECT_NEAR(QmcProbability(*g, 50000, 5, o, 25.0), truth, 0.004)
        << "offset " << offset;
  }
}

TEST(Qmc, BeatsPlainMonteCarloAtEqualBudget) {
  // Compare worst-case error over several objects and seeds at a modest
  // sample budget; QMC's stratification should win clearly.
  auto g = core::GaussianDistribution::Create(
      la::Vector{0.0, 0.0}, workload::PaperCovariance2D(10.0));
  ASSERT_TRUE(g.ok());
  mc::ImhofEvaluator exact;
  const uint64_t budget = 4096;

  double mc_err = 0.0, qmc_err = 0.0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (double offset : {5.0, 20.0, 40.0}) {
      const la::Vector o{offset, offset * 0.5};
      const double truth = exact.QualificationProbability(*g, o, 25.0);
      mc::MonteCarloEvaluator mc({.samples = budget, .seed = seed});
      mc_err += std::abs(mc.QualificationProbability(*g, o, 25.0) - truth);
      qmc_err +=
          std::abs(QmcProbability(*g, budget, seed, o, 25.0) - truth);
    }
  }
  EXPECT_LT(qmc_err, mc_err * 0.7)
      << "qmc total err " << qmc_err << " vs mc " << mc_err;
}

TEST(Qmc, NineDimensionalAgreement) {
  const la::Matrix cov = workload::RandomRotatedCovariance(
      la::Vector{0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.5, 1.9}, 4);
  auto g = core::GaussianDistribution::Create(la::Vector(9), cov);
  ASSERT_TRUE(g.ok());
  mc::ImhofEvaluator exact;
  la::Vector o(9);
  o[2] = 1.0;
  o[7] = -0.5;
  for (double delta : {1.5, 3.5}) {
    const double truth = exact.QualificationProbability(*g, o, delta);
    EXPECT_NEAR(QmcProbability(*g, 50000, 9, o, delta), truth, 0.006)
        << "delta " << delta;
  }
}

}  // namespace
}  // namespace gprq
