// The randomized-Halton SamplePool variant (PrqOptions::pool_variant =
// kHalton): statistical equivalence with the pseudo-random pool against
// exact probabilities at d ∈ {2, 3, 9}, determinism of the randomized
// construction (pure function of evaluator seed and query), the
// bit-identity of the kPseudoRandom variant overload with the legacy
// overload, the high-dimension fallback, and the cache-key separation that
// keeps one variant's answers from being served for the other.

#include "mc/pool_variant.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "cache/result_cache.h"
#include "core/engine.h"
#include "mc/adaptive_monte_carlo.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "mc/sample_pool.h"
#include "rng/halton.h"
#include "rng/random.h"

namespace gprq::mc {
namespace {

core::GaussianDistribution MakeGaussian(size_t d, uint64_t seed) {
  rng::Random random(seed);
  la::Vector mean(d);
  for (size_t i = 0; i < d; ++i) mean[i] = random.NextDouble(-5.0, 5.0);
  la::Matrix b(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) b(i, j) = random.NextDouble(-1.0, 1.0);
  }
  la::Matrix cov = b * b.Transposed();
  for (size_t i = 0; i < d; ++i) cov(i, i) += 1.0;
  auto g = core::GaussianDistribution::Create(std::move(mean),
                                              std::move(cov));
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

bool PoolsBitIdentical(const SamplePool& a, const SamplePool& b) {
  if (a.size() != b.size() || a.dim() != b.dim()) return false;
  for (size_t axis = 0; axis < a.dim(); ++axis) {
    if (std::memcmp(a.axis(axis), b.axis(axis),
                    a.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// ---- Statistical equivalence with the pseudo-random estimator. -------------

/// Both pool variants must agree with the exact probability: the
/// pseudo-random pool within its Monte-Carlo error, the Halton pool at
/// least as tightly (QMC converges faster on these smooth integrands).
TEST(QmcPool, AgreesWithExactAcrossDimensions) {
  for (const size_t d : {size_t{2}, size_t{3}, size_t{9}}) {
    const auto g = MakeGaussian(d, 100 + d);
    MonteCarloEvaluator mc(
        MonteCarloOptions{.samples = 60000, .seed = 7});
    ImhofEvaluator exact;

    const auto mc_pool = mc.MakeSamplePool(g, PoolVariant::kPseudoRandom);
    const auto qmc_pool = mc.MakeSamplePool(g, PoolVariant::kHalton);
    ASSERT_NE(mc_pool, nullptr);
    ASSERT_NE(qmc_pool, nullptr);
    EXPECT_EQ(qmc_pool->size(), mc_pool->size());

    rng::Random random(500 + d);
    for (int trial = 0; trial < 8; ++trial) {
      la::Vector object(d);
      for (size_t a = 0; a < d; ++a) {
        object[a] = g.mean()[a] + random.NextDouble(-3.0, 3.0);
      }
      const double delta = random.NextDouble(1.0, 6.0);
      const double p = exact.QualificationProbability(g, object, delta);
      const auto est_mc = mc_pool->EstimateProbability(object, delta);
      const auto est_qmc = qmc_pool->EstimateProbability(object, delta);
      // Shared tolerance: 4σ of the MC error plus a floor near p ∈ {0,1}.
      const double tol = 4.0 * est_mc.std_error + 3e-3;
      EXPECT_NEAR(est_mc.probability, p, tol) << "d=" << d;
      EXPECT_NEAR(est_qmc.probability, p, tol) << "d=" << d;
    }
  }
}

// ---- Determinism. ----------------------------------------------------------

TEST(QmcPool, HaltonPoolIsPureFunctionOfSeedAndQuery) {
  const auto g = MakeGaussian(3, 21);
  MonteCarloEvaluator a(MonteCarloOptions{.samples = 4096, .seed = 7});
  MonteCarloEvaluator b(MonteCarloOptions{.samples = 4096, .seed = 7});

  // Perturb evaluator `a`'s internal stream state: pool construction must
  // not depend on how many pools (or point evaluations) came before.
  const auto decoy = MakeGaussian(3, 99);
  (void)a.MakeSamplePool(decoy, PoolVariant::kHalton);

  const auto p1 = a.MakeSamplePool(g, PoolVariant::kHalton);
  const auto p2 = b.MakeSamplePool(g, PoolVariant::kHalton);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_TRUE(PoolsBitIdentical(*p1, *p2));
}

TEST(QmcPool, DifferentSeedsGiveDifferentHaltonRandomization) {
  const auto g = MakeGaussian(2, 22);
  MonteCarloEvaluator a(MonteCarloOptions{.samples = 1024, .seed = 7});
  MonteCarloEvaluator b(MonteCarloOptions{.samples = 1024, .seed = 8});
  const auto p1 = a.MakeSamplePool(g, PoolVariant::kHalton);
  const auto p2 = b.MakeSamplePool(g, PoolVariant::kHalton);
  EXPECT_FALSE(PoolsBitIdentical(*p1, *p2));
}

TEST(QmcPool, HaltonDiffersFromPseudoRandom) {
  const auto g = MakeGaussian(2, 24);
  MonteCarloEvaluator e(MonteCarloOptions{.samples = 1024, .seed = 7});
  const auto mc_pool = e.MakeSamplePool(g, PoolVariant::kPseudoRandom);
  const auto qmc_pool = e.MakeSamplePool(g, PoolVariant::kHalton);
  EXPECT_FALSE(PoolsBitIdentical(*mc_pool, *qmc_pool));
}

TEST(QmcPool, AdaptiveEvaluatorSupportsHaltonVariant) {
  const auto g = MakeGaussian(3, 25);
  AdaptiveMonteCarloEvaluator a(
      AdaptiveMonteCarloOptions{.max_samples = 4096, .seed = 7});
  AdaptiveMonteCarloEvaluator b(
      AdaptiveMonteCarloOptions{.max_samples = 4096, .seed = 7});
  const auto p1 = a.MakeSamplePool(g, PoolVariant::kHalton);
  const auto p2 = b.MakeSamplePool(g, PoolVariant::kHalton);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_TRUE(PoolsBitIdentical(*p1, *p2));
}

/// Above HaltonSequence::kMaxDim the variant falls back to the
/// pseudo-random construction (documented in pool_variant.h) — the pools
/// must be identical there, not silently degraded QMC.
TEST(QmcPool, FallsBackToPseudoRandomAboveMaxDim) {
  const size_t d = rng::HaltonSequence::kMaxDim + 1;
  const auto g = MakeGaussian(d, 26);
  MonteCarloEvaluator e(MonteCarloOptions{.samples = 512, .seed = 7});
  const auto mc_pool = e.MakeSamplePool(g, PoolVariant::kPseudoRandom);
  const auto qmc_pool = e.MakeSamplePool(g, PoolVariant::kHalton);
  EXPECT_TRUE(PoolsBitIdentical(*mc_pool, *qmc_pool));
}

// ---- Cache-key separation. -------------------------------------------------

TEST(QmcPool, PoolVariantIsPartOfFilterConfigBits) {
  core::PrqOptions a;
  core::PrqOptions b;
  b.pool_variant = PoolVariant::kHalton;
  EXPECT_NE(cache::FilterConfigBits(a), cache::FilterConfigBits(b));

  // And it composes with, not clobbers, the existing config fields.
  core::PrqOptions c = b;
  c.use_catalogs = !c.use_catalogs;
  EXPECT_NE(cache::FilterConfigBits(b), cache::FilterConfigBits(c));
}

}  // namespace
}  // namespace gprq::mc
