// Tests for the uncertain-target extension: PRQ where targets are Gaussian
// too (the paper's Section VII future work), which reduces to the same
// quadratic form with the summed covariance.

#include "experiments/uncertain_targets.h"

#include <gtest/gtest.h>

#include <cmath>

#include "mc/exact_evaluator.h"
#include "rng/random.h"
#include "workload/generators.h"

namespace gprq::core {
namespace {

GaussianDistribution MakeGaussian(la::Vector mean, la::Matrix cov) {
  auto g = GaussianDistribution::Create(std::move(mean), std::move(cov));
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

TEST(UncertainTargets, ValidatesInput) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0}, la::Matrix::Identity(2));
  std::vector<UncertainTarget> targets = {
      {la::Vector{1.0, 1.0}, la::Matrix::Identity(2)}};
  EXPECT_FALSE(UncertainTargetPrq(g, targets, 0.0, 0.1).ok());
  EXPECT_FALSE(UncertainTargetPrq(g, targets, 1.0, 0.0).ok());
  EXPECT_FALSE(UncertainTargetPrq(g, targets, 1.0, 1.0).ok());
  targets[0].mean = la::Vector{1.0};
  EXPECT_FALSE(UncertainTargetPrq(g, targets, 1.0, 0.1).ok());
  EXPECT_FALSE(UncertainTargetProbability(g, targets[0], 1.0).ok());
}

TEST(UncertainTargets, NearZeroCovarianceReducesToPointTargets) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              workload::PaperCovariance2D(5.0));
  mc::ImhofEvaluator exact;
  // A target with negligible uncertainty behaves like an exact point.
  const la::Matrix tiny = la::Matrix::Identity(2) * 1e-9;
  for (double x : {0.0, 5.0, 15.0, 40.0}) {
    const UncertainTarget target{la::Vector{x, 2.0}, tiny};
    auto p = UncertainTargetProbability(g, target, 20.0);
    ASSERT_TRUE(p.ok());
    const double p_point =
        exact.QualificationProbability(g, la::Vector{x, 2.0}, 20.0);
    EXPECT_NEAR(*p, p_point, 1e-5) << "x=" << x;
  }
}

TEST(UncertainTargets, SymmetricRolesOfQueryAndTarget) {
  // P(‖x_q − x_o‖ <= δ) is symmetric under swapping the two Gaussians.
  const auto q = MakeGaussian(la::Vector{0.0, 0.0},
                              workload::PaperCovariance2D(2.0));
  const auto o = MakeGaussian(la::Vector{5.0, 3.0},
                              la::Matrix::Identity(2) * 3.0);
  const UncertainTarget as_target{o.mean(), o.covariance()};
  const UncertainTarget q_as_target{q.mean(), q.covariance()};
  auto p1 = UncertainTargetProbability(q, as_target, 6.0);
  auto p2 = UncertainTargetProbability(o, q_as_target, 6.0);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_NEAR(*p1, *p2, 1e-8);
}

TEST(UncertainTargets, IsotropicClosedForm) {
  // Both Gaussians isotropic: difference is N(μ, (s1²+s2²)I) and the
  // probability is a noncentral chi-squared value we can cross-check via
  // the exact point-target evaluator on the combined distribution.
  const auto q =
      MakeGaussian(la::Vector{0.0, 0.0}, la::Matrix::Identity(2) * 4.0);
  const UncertainTarget target{la::Vector{3.0, 4.0},
                               la::Matrix::Identity(2) * 5.0};
  auto p = UncertainTargetProbability(q, target, 6.0);
  ASSERT_TRUE(p.ok());
  const auto combined = MakeGaussian(la::Vector{0.0, 0.0},
                                     la::Matrix::Identity(2) * 9.0);
  mc::ImhofEvaluator exact;
  const double expected =
      exact.QualificationProbability(combined, la::Vector{3.0, 4.0}, 6.0);
  EXPECT_NEAR(*p, expected, 1e-8);
}

TEST(UncertainTargets, QueryMatchesPerTargetEvaluation) {
  rng::Random random(17);
  const auto g = MakeGaussian(la::Vector{50.0, 50.0},
                              workload::PaperCovariance2D(3.0));
  std::vector<UncertainTarget> targets;
  for (int i = 0; i < 120; ++i) {
    la::Vector mean{random.NextDouble(0.0, 100.0),
                    random.NextDouble(0.0, 100.0)};
    const la::Matrix cov = workload::RandomRotatedCovariance(
        la::Vector{random.NextDouble(0.5, 3.0), random.NextDouble(0.5, 3.0)},
        1000 + i);
    targets.push_back({std::move(mean), cov});
  }
  const double delta = 15.0, theta = 0.05;

  UncertainPrqStats stats;
  auto result = UncertainTargetPrq(g, targets, delta, theta, &stats);
  ASSERT_TRUE(result.ok());

  std::vector<size_t> expected;
  for (size_t i = 0; i < targets.size(); ++i) {
    auto p = UncertainTargetProbability(g, targets[i], delta);
    ASSERT_TRUE(p.ok());
    if (*p >= theta) expected.push_back(i);
  }
  EXPECT_EQ(*result, expected);
  // The distance prescreen must have pruned a decent share of far targets.
  EXPECT_GT(stats.pruned_by_bound, 0u);
  EXPECT_LT(stats.evaluations, targets.size());
}

TEST(UncertainTargets, MoreTargetUncertaintySpreadsTheAnswer) {
  // Growing target uncertainty lowers the qualification probability of a
  // nearby target (mass leaks out of the δ-ball).
  const auto g = MakeGaussian(la::Vector{0.0, 0.0}, la::Matrix::Identity(2));
  double prev = 1.1;
  for (double s2 : {0.01, 0.5, 2.0, 10.0, 50.0}) {
    const UncertainTarget target{la::Vector{1.0, 0.0},
                                 la::Matrix::Identity(2) * s2};
    auto p = UncertainTargetProbability(g, target, 3.0);
    ASSERT_TRUE(p.ok());
    EXPECT_LT(*p, prev) << "s2=" << s2;
    prev = *p;
  }
}

}  // namespace
}  // namespace gprq::core
