// Tests for the shared per-query sample pool: agreement of the SoA count
// kernel with exact (Imhof) probabilities across dimensions and covariance
// shapes, the Wilson block early-termination statistics, the batched
// evaluator entry points, edge cases, and the exactness differential of the
// cell-ordered pool's pruned fixed-budget count against a brute-force
// whole-pool count (including concurrent readers of one pool).

#include "mc/sample_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include "mc/adaptive_monte_carlo.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "mc/probability_evaluator.h"
#include "rng/random.h"

namespace gprq::mc {
namespace {

core::GaussianDistribution MakeGaussian(la::Vector mean, la::Matrix cov) {
  auto g = core::GaussianDistribution::Create(std::move(mean),
                                              std::move(cov));
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

/// A d × d SPD matrix with substantial off-diagonal correlation:
/// A = B·Bᵀ + d·I for a fixed pseudo-random B.
la::Matrix CorrelatedCovariance(size_t d, uint64_t seed) {
  rng::Random random(seed);
  la::Matrix b(d, d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) b(i, j) = random.NextDouble(-1.0, 1.0);
  }
  la::Matrix cov = b * b.Transposed();
  for (size_t i = 0; i < d; ++i) cov(i, i) += static_cast<double>(d);
  return cov;
}

la::Matrix DiagonalCovariance(size_t d) {
  la::Vector diag(d);
  for (size_t i = 0; i < d; ++i) {
    diag[i] = 1.0 + 0.5 * static_cast<double>(i);
  }
  return la::Matrix::Diagonal(diag);
}

/// Pool estimates must sit within 3 standard errors of the exact
/// probability (plus a small floor for p near 0/1 where std_error → 0).
void ExpectAgreesWithExact(const core::GaussianDistribution& g,
                           const SamplePool& pool, const la::Vector& object,
                           double delta) {
  ImhofEvaluator exact;
  const double p_exact = exact.QualificationProbability(g, object, delta);
  const SamplePool::Estimate est = pool.EstimateProbability(object, delta);
  const double tolerance = 3.0 * est.std_error + 2e-3;
  EXPECT_NEAR(est.probability, p_exact, tolerance)
      << "d=" << g.dim() << " delta=" << delta;
}

TEST(SamplePool, AgreesWithImhofAcrossDimensionsAndCovariances) {
  for (const size_t d : {size_t{2}, size_t{3}, size_t{9}}) {
    for (const bool correlated : {false, true}) {
      la::Matrix cov =
          correlated ? CorrelatedCovariance(d, 17 + d) : DiagonalCovariance(d);
      la::Vector mean(d);
      for (size_t i = 0; i < d; ++i) mean[i] = static_cast<double>(i);
      const auto g = MakeGaussian(std::move(mean), std::move(cov));

      rng::Random random(99 + d);
      const SamplePool pool(g, 50000, random);
      ASSERT_EQ(pool.dim(), d);
      ASSERT_EQ(pool.size(), 50000u);

      // Objects from deep inside the distribution to far outside, at
      // several radii, so the sweep covers p ≈ 1 down to p ≈ 0.
      for (const double shift : {0.0, 1.0, 2.5, 6.0}) {
        la::Vector object = g.mean();
        for (size_t i = 0; i < d; ++i) {
          object[i] += shift * g.Sigma(i) * (i % 2 == 0 ? 1.0 : -0.7);
        }
        for (const double delta_sigmas : {0.5, 1.5, 3.0}) {
          const double delta = delta_sigmas * g.Sigma(0);
          ExpectAgreesWithExact(g, pool, object, delta);
        }
      }
    }
  }
}

TEST(SamplePool, CountWithinRangesPartitionTheFullCount) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0}, CorrelatedCovariance(2, 5));
  rng::Random random(7);
  const SamplePool pool(g, 10000, random);
  const la::Vector object{0.5, -0.25};
  const double delta_sq = 2.25;
  const uint64_t full = pool.CountWithin(object, delta_sq, 0, pool.size());
  // Sum over uneven subranges (crossing kernel-block boundaries) matches.
  uint64_t pieces = 0;
  const uint64_t cuts[] = {0, 1, 1777, 2048, 4096, 9999, 10000};
  for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
    pieces += pool.CountWithin(object, delta_sq, cuts[i], cuts[i + 1]);
  }
  EXPECT_EQ(pieces, full);
  // Empty range.
  EXPECT_EQ(pool.CountWithin(object, delta_sq, 4096, 4096), 0u);
}

TEST(SamplePool, DecideMatchesFullCountAwayFromBoundary) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              DiagonalCovariance(2));
  rng::Random random(11);
  const SamplePool pool(g, 100000, random);
  for (const double r : {0.0, 1.0, 3.0, 8.0, 20.0}) {
    const la::Vector object{r, 0.3 * r};
    const double delta = 2.0;
    const double theta = 0.05;
    const double p = pool.EstimateProbability(object, delta).probability;
    if (std::abs(p - theta) < 0.01) continue;  // genuinely borderline
    const SamplePool::Decision decision = pool.Decide(object, delta, theta);
    EXPECT_EQ(decision.qualifies, p >= theta) << "r=" << r;
    EXPECT_LE(decision.samples_used, pool.size());
    if (!decision.undecided) {
      // Clearly separated objects stop early.
      EXPECT_LT(decision.samples_used, pool.size());
    }
  }
}

TEST(SamplePool, DecideUndecidedFallsBackToPointEstimate) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              la::Matrix::Identity(2) * 4.0);
  rng::Random random(13);
  const SamplePool pool(g, 4096, random);
  const la::Vector object{3.0, 0.0};
  const double delta = 3.0;
  // θ set to the pool's own estimate: the interval cannot separate.
  const double p = pool.EstimateProbability(object, delta).probability;
  const SamplePool::Decision decision = pool.Decide(object, delta, p);
  EXPECT_TRUE(decision.undecided);
  EXPECT_EQ(decision.samples_used, pool.size());
  EXPECT_EQ(decision.qualifies, p >= p);  // point-estimate fallback: true
}

TEST(SamplePool, DeterministicForAGivenStream) {
  const auto g = MakeGaussian(la::Vector{1.0, -2.0}, CorrelatedCovariance(2, 3));
  rng::Random random_a(21), random_b(21);
  const SamplePool a(g, 5000, random_a);
  const SamplePool b(g, 5000, random_b);
  const la::Vector object{1.5, -1.0};
  EXPECT_EQ(a.CountWithin(object, 4.0, 0, a.size()),
            b.CountWithin(object, 4.0, 0, b.size()));
  EXPECT_EQ(a.EstimateProbability(object, 2.0).probability,
            b.EstimateProbability(object, 2.0).probability);
}

TEST(SamplePool, EdgeCases) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              la::Matrix::Identity(2));
  rng::Random random(31);
  const SamplePool pool(g, 10000, random);

  // δ = 0: the δ-ball has measure zero; no sample hits it.
  const la::Vector at_mean{0.0, 0.0};
  EXPECT_EQ(pool.CountWithin(at_mean, 0.0, 0, pool.size()), 0u);
  EXPECT_EQ(pool.EstimateProbability(at_mean, 0.0).probability, 0.0);

  // Candidate exactly at q: probability is the central χ²_d ball mass.
  ExpectAgreesWithExact(g, pool, at_mean, 1.0);

  // A zero-sample request is clamped to one sample, never an empty pool.
  rng::Random random2(32);
  const SamplePool tiny(g, 0, random2);
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_NO_FATAL_FAILURE(tiny.Decide(at_mean, 1.0, 0.5));
}

TEST(QueryFingerprint, CanonicalizesNegativeZeroAndNaN) {
  // -0.0 and +0.0 are the same real number and sample identically, so they
  // must digest identically (regression: the raw-bit fingerprint split them,
  // which would fork sample pools — and cache entries — for one query).
  EXPECT_EQ(CanonicalDoubleBits(-0.0), CanonicalDoubleBits(0.0));
  EXPECT_NE(CanonicalDoubleBits(-0.0), CanonicalDoubleBits(1.0));
  // Every NaN payload collapses to one canonical encoding.
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(CanonicalDoubleBits(qnan), CanonicalDoubleBits(-qnan));
  EXPECT_EQ(CanonicalDoubleBits(qnan),
            CanonicalDoubleBits(std::nan("0x5eed")));
  // Ordinary values keep their exact bit patterns (no normalization beyond
  // the two special cases — distinct values must stay distinct).
  EXPECT_NE(CanonicalDoubleBits(1.0), CanonicalDoubleBits(std::nextafter(
                                          1.0, 2.0)));

  const auto plus = MakeGaussian(la::Vector{0.0, 2.0},
                                 la::Matrix::Identity(2));
  const auto minus = MakeGaussian(la::Vector{-0.0, 2.0},
                                  la::Matrix::Identity(2));
  EXPECT_EQ(QueryFingerprint(plus), QueryFingerprint(minus));
  const auto other = MakeGaussian(la::Vector{0.5, 2.0},
                                  la::Matrix::Identity(2));
  EXPECT_NE(QueryFingerprint(plus), QueryFingerprint(other));

  // The determinism contract downstream of the fingerprint: evaluators
  // seeded with it build identical pools for both encodings.
  rng::Random ra(QueryFingerprint(plus)), rb(QueryFingerprint(minus));
  const SamplePool pa(plus, 1000, ra), pb(minus, 1000, rb);
  const la::Vector object{0.3, 1.7};
  EXPECT_EQ(pa.CountWithin(object, 2.0, 0, pa.size()),
            pb.CountWithin(object, 2.0, 0, pb.size()));
}

TEST(SamplePool, WilsonCompareSeparatesAndStaysUndecided) {
  EXPECT_EQ(WilsonCompare(1000, 1000, 0.5, 4.0), 1);   // all hits, θ = 0.5
  EXPECT_EQ(WilsonCompare(0, 1000, 0.5, 4.0), -1);     // no hits
  EXPECT_EQ(WilsonCompare(500, 1000, 0.5, 4.0), 0);    // dead on θ
  EXPECT_EQ(WilsonCompare(10, 20, 0.45, 4.0), 0);      // tiny n: wide CI
}

TEST(DecideBatch, MonteCarloPooledMatchesPoolCounts) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              DiagonalCovariance(2));
  MonteCarloEvaluator evaluator({.samples = 20000, .seed = 3, .dim = 2});
  const auto pool = evaluator.MakeSamplePool(g);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 20000u);

  const double delta = 2.0, theta = 0.05;
  std::vector<la::Vector> objects = {
      la::Vector{0.0, 0.0}, la::Vector{1.0, 1.0}, la::Vector{10.0, 0.0}};
  std::vector<const la::Vector*> ptrs;
  for (const auto& o : objects) ptrs.push_back(&o);
  std::vector<char> decisions(objects.size(), 2);
  evaluator.DecideBatchBounded(g, ptrs.data(), ptrs.size(), delta, theta,
                               pool.get(), common::QueryControl::Unlimited(),
                               decisions.data());
  for (size_t i = 0; i < objects.size(); ++i) {
    const double p = pool->EstimateProbability(objects[i], delta).probability;
    EXPECT_EQ(decisions[i] != 0, p >= theta) << "object " << i;
  }
}

TEST(DecideBatch, ZeroAndOneCandidates) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              la::Matrix::Identity(2));
  MonteCarloEvaluator mc({.samples = 5000, .seed = 5});
  AdaptiveMonteCarloEvaluator adaptive({.max_samples = 5000, .seed = 5});
  const auto mc_pool = mc.MakeSamplePool(g);
  const auto adaptive_pool = adaptive.MakeSamplePool(g);

  // 0 candidates: valid call, nothing written.
  EXPECT_NO_FATAL_FAILURE(
      mc.DecideBatchBounded(g, nullptr, 0, 1.0, 0.5, mc_pool.get(),
                            common::QueryControl::Unlimited(), nullptr));
  EXPECT_NO_FATAL_FAILURE(adaptive.DecideBatchBounded(
      g, nullptr, 0, 1.0, 0.5, adaptive_pool.get(),
      common::QueryControl::Unlimited(), nullptr));

  // 1 candidate at the mean with a generous δ: certain qualifier.
  const la::Vector at_mean{0.0, 0.0};
  const la::Vector* one[] = {&at_mean};
  char decision = 0;
  mc.DecideBatchBounded(g, one, 1, 5.0, 0.5, mc_pool.get(),
                        common::QueryControl::Unlimited(), &decision);
  EXPECT_NE(decision, 0);
  decision = 0;
  adaptive.DecideBatchBounded(g, one, 1, 5.0, 0.5, adaptive_pool.get(),
                              common::QueryControl::Unlimited(), &decision);
  EXPECT_NE(decision, 0);
}

TEST(DecideBatch, AdaptivePooledTracksSampleCounters) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              DiagonalCovariance(2));
  AdaptiveMonteCarloEvaluator adaptive({.max_samples = 100000, .seed = 9});
  const auto pool = adaptive.MakeSamplePool(g);
  ASSERT_NE(pool, nullptr);

  // Far-away objects separate after the first block: way below max_samples.
  std::vector<la::Vector> objects;
  for (double r = 20.0; r < 30.0; r += 1.0) objects.push_back({r, 0.0});
  std::vector<const la::Vector*> ptrs;
  for (const auto& o : objects) ptrs.push_back(&o);
  std::vector<char> decisions(objects.size(), 1);
  adaptive.DecideBatchBounded(g, ptrs.data(), ptrs.size(), 2.0, 0.05,
                              pool.get(), common::QueryControl::Unlimited(),
                              decisions.data());
  for (const char d : decisions) EXPECT_EQ(d, 0);
  const double avg = static_cast<double>(adaptive.total_samples()) /
                     static_cast<double>(objects.size());
  EXPECT_LT(avg, 20000.0);
  EXPECT_GE(avg, 4096.0);  // at least one kernel block per decision
  EXPECT_EQ(adaptive.undecided_fallbacks(), 0u);
}

TEST(DecideBatch, DefaultFallbackWithoutPoolMatchesPerCandidate) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0},
                              DiagonalCovariance(2));
  // Two identically-seeded evaluators: one decides through the batched
  // entry point without a pool, the other per candidate; the underlying
  // RNG consumption must be identical.
  MonteCarloEvaluator batched({.samples = 2000, .seed = 77});
  MonteCarloEvaluator single({.samples = 2000, .seed = 77});
  std::vector<la::Vector> objects = {
      la::Vector{0.0, 0.0}, la::Vector{2.0, -1.0}, la::Vector{6.0, 6.0}};
  std::vector<const la::Vector*> ptrs;
  for (const auto& o : objects) ptrs.push_back(&o);
  std::vector<char> decisions(objects.size(), 2);
  batched.DecideBatchBounded(g, ptrs.data(), ptrs.size(), 2.0, 0.05,
                             /*pool=*/nullptr,
                             common::QueryControl::Unlimited(),
                             decisions.data());
  for (size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(decisions[i] != 0,
              single.QualificationDecision(g, objects[i], 2.0, 0.05))
        << "object " << i;
  }
}

// ---- Exactness of the cell-ordered pruned count. ---------------------------

/// Rotates diag(variances) by a fixed pseudo-random orthogonal-ish mix of
/// Givens rotations: anisotropic and correlated at once.
la::Matrix RotatedCovariance(const std::vector<double>& variances,
                             uint64_t seed) {
  const size_t d = variances.size();
  la::Matrix r = la::Matrix::Identity(d);
  rng::Random random(seed);
  for (size_t i = 0; i + 1 < d; ++i) {
    const double angle = random.NextDouble(0.0, 3.14159);
    la::Matrix g = la::Matrix::Identity(d);
    g(i, i) = std::cos(angle);
    g(i + 1, i + 1) = std::cos(angle);
    g(i, i + 1) = -std::sin(angle);
    g(i + 1, i) = std::sin(angle);
    r = g * r;
  }
  la::Vector diag(d);
  for (size_t i = 0; i < d; ++i) diag[i] = variances[i];
  la::Matrix cov = r * la::Matrix::Diagonal(diag) * r.Transposed();
  for (size_t i = 0; i < d; ++i) {  // exact symmetry for Cholesky
    for (size_t j = 0; j < i; ++j) cov(j, i) = cov(i, j);
  }
  return cov;
}

/// Everything the differential needs about one query: a draw-order pool
/// (the brute-force reference) and a cell-ordered pool from the same seed.
struct PoolPair {
  core::GaussianDistribution query;
  SamplePool draw;
  SamplePool cells;

  PoolPair(core::GaussianDistribution g, uint64_t n, uint64_t seed)
      : query(std::move(g)),
        draw(query, n, seed, PoolVariant::kPseudoRandom,
             PoolLayout::kDrawOrder),
        cells(query, n, seed, PoolVariant::kPseudoRandom, PoolLayout::kCells) {
  }

  /// Sample i of the draw-order pool.
  la::Vector Sample(uint64_t i) const {
    la::Vector x(draw.dim());
    for (size_t a = 0; a < draw.dim(); ++a) x[a] = draw.axis(a)[i];
    return x;
  }
};

/// Decides (object, δ) at θ grid points around and at the edges, and checks
/// DecideExact on the cell pool against the brute-force whole-pool count on
/// the draw-order pool. Returns the number of decisions checked.
size_t ExpectExactAgreement(const PoolPair& pair, const la::Vector& object,
                            double delta) {
  const uint64_t n = pair.draw.size();
  const uint64_t hits = pair.draw.CountWithin(object, delta * delta, 0, n);
  const double nf = static_cast<double>(n);
  std::vector<double> thetas = {0.0, 1.0 / nf, 0.5, 1.0 - 1.0 / nf, 1.0,
                                static_cast<double>(hits) / nf,
                                static_cast<double>(hits + 1) / nf};
  if (hits > 0) thetas.push_back(static_cast<double>(hits - 1) / nf);
  for (const double theta : thetas) {
    const bool expected = static_cast<double>(hits) >= theta * nf;
    for (const SamplePool* pool : {&pair.cells, &pair.draw}) {
      const SamplePool::ExactDecision d =
          pool->DecideExact(object, delta, theta, SamplePool::ExactOptions());
      EXPECT_EQ(d.outcome, expected ? SamplePool::ExactDecision::kQualifies
                                    : SamplePool::ExactDecision::kFails)
          << "d=" << pair.draw.dim() << " delta=" << delta
          << " theta=" << theta << " hits=" << hits
          << (pool == &pair.cells ? " (cells)" : " (draw order)");
      EXPECT_LE(d.examined, n);
    }
  }
  return thetas.size();
}

TEST(ExactCount, CellPoolHoldsTheDrawOrderSamples) {
  const PoolPair pair(MakeGaussian(la::Vector{3.0, -1.0, 2.0},
                                   CorrelatedCovariance(3, 41)),
                      5000, 8);
  EXPECT_EQ(pair.cells.layout(), PoolLayout::kCells);
  EXPECT_EQ(pair.draw.layout(), PoolLayout::kDrawOrder);
  // The same multiset: every axis sorts to the same values.
  for (size_t a = 0; a < 3; ++a) {
    std::vector<double> x(pair.draw.axis(a), pair.draw.axis(a) + 5000);
    std::vector<double> y(pair.cells.axis(a), pair.cells.axis(a) + 5000);
    EXPECT_NE(x, y) << "axis " << a << " was not reordered";
    std::sort(x.begin(), x.end());
    std::sort(y.begin(), y.end());
    EXPECT_EQ(x, y) << "axis " << a;
  }
}

TEST(ExactCount, MatchesBruteForceAcrossDimensionsAndShapes) {
  size_t checked = 0;
  for (const size_t d : {size_t{1}, size_t{2}, size_t{3}, size_t{9}}) {
    std::vector<std::pair<const char*, la::Matrix>> shapes;
    shapes.emplace_back("diagonal", DiagonalCovariance(d));
    shapes.emplace_back("correlated", CorrelatedCovariance(d, 60 + d));
    std::vector<double> aniso(d), singular(d);
    for (size_t i = 0; i < d; ++i) {
      aniso[i] = std::pow(10.0, 6.0 - 12.0 * static_cast<double>(i) /
                                        static_cast<double>(std::max<size_t>(
                                            d - 1, 1)));
      singular[i] = (i == 0) ? 1.0 : 1e-12;
    }
    shapes.emplace_back("anisotropic", RotatedCovariance(aniso, 70 + d));
    shapes.emplace_back("near-singular", RotatedCovariance(singular, 80 + d));
    for (auto& [shape, cov] : shapes) {
      la::Vector mean(d);
      for (size_t i = 0; i < d; ++i) mean[i] = 1000.0 * (i + 1.0);
      const PoolPair pair(MakeGaussian(std::move(mean), std::move(cov)),
                          16384, 100 + d);
      SCOPED_TRACE(shape);
      const auto& g = pair.query;
      rng::Random random(200 + d);
      for (int trial = 0; trial < 12; ++trial) {
        // Objects from the centre out to far beyond the ±4σ grid.
        const double spread = (trial < 8) ? 3.0 : 12.0;
        la::Vector object = g.mean();
        for (size_t a = 0; a < d; ++a) {
          object[a] += random.NextDouble(-spread, spread) * g.Sigma(a);
        }
        for (const double sigmas : {0.05, 0.5, 2.0}) {
          checked += ExpectExactAgreement(pair, object, sigmas * g.Sigma(0));
        }
      }
      // Objects on the grid lines (mean + k·σ/4 on every axis: the
      // 32-cell grid a 16384-sample pool gets) with δ under a cell width.
      for (const int k : {-16, -5, 0, 1, 15, 16}) {
        la::Vector object = g.mean();
        for (size_t a = 0; a < d; ++a) object[a] += k * g.Sigma(a) / 4.0;
        checked += ExpectExactAgreement(pair, object, 0.1 * g.Sigma(0));
        checked += ExpectExactAgreement(pair, object, g.Sigma(0) / 4.0);
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(ExactCount, BoundarySamplesAndDegenerateRadii) {
  for (const size_t d : {size_t{1}, size_t{2}, size_t{3}, size_t{9}}) {
    la::Vector mean(d);
    for (size_t i = 0; i < d; ++i) mean[i] = -50.0 + 7.0 * i;
    const PoolPair pair(MakeGaussian(std::move(mean),
                                     CorrelatedCovariance(d, 90 + d)),
                        16384, 300 + d);
    const uint64_t n = pair.draw.size();
    // The extreme samples along axis 0 — beyond the grid's ±4σ edge when
    // the tail reaches there — plus a few from the middle of the stream.
    uint64_t lowest = 0, highest = 0;
    for (uint64_t i = 1; i < n; ++i) {
      if (pair.draw.axis(0)[i] < pair.draw.axis(0)[lowest]) lowest = i;
      if (pair.draw.axis(0)[i] > pair.draw.axis(0)[highest]) highest = i;
    }
    for (const uint64_t i : {lowest, highest, uint64_t{0}, n / 2, n - 1}) {
      const la::Vector sample = pair.Sample(i);
      SCOPED_TRACE(testing::Message() << "d=" << d << " sample=" << i);
      // δ = 0 at the sample itself: exactly one hit (itself) unless
      // another sample coincides, and the count must find it.
      ExpectExactAgreement(pair, sample, 0.0);
      // The object exactly δ from the sample in the kernel's own
      // arithmetic: o = x except along one axis, and δ is the kernel's own
      // |x − o| there; the other axes add exact zeros, so the kernel's
      // squared distance is fl(δ²) and the sample sits on the ≤ δ²
      // boundary (and just outside it at the next smaller δ).
      for (size_t axis : {size_t{0}, d - 1}) {
        la::Vector object = sample;
        object[axis] = sample[axis] + 0.375;
        const double delta = std::abs(sample[axis] - object[axis]);
        ExpectExactAgreement(pair, object, delta);
        ExpectExactAgreement(pair, object, std::nextafter(delta, 0.0));
      }
    }
    // δ covering the whole pool, including δ² overflowing to +inf.
    ExpectExactAgreement(pair, pair.query.mean(), 1e6);
    ExpectExactAgreement(pair, pair.query.mean(), 1e200);
    // δ = 0 away from every sample: no hits.
    ExpectExactAgreement(pair, pair.query.mean(), 0.0);
  }
}

TEST(ExactCount, BudgetAndControlNeverChangeASettledAnswer) {
  const PoolPair pair(MakeGaussian(la::Vector{0.0, 0.0},
                                   CorrelatedCovariance(2, 5)),
                      20000, 17);
  rng::Random random(3);
  for (int trial = 0; trial < 200; ++trial) {
    const la::Vector object{random.NextDouble(-6.0, 6.0),
                            random.NextDouble(-6.0, 6.0)};
    const double delta = random.NextDouble(0.2, 4.0);
    const double theta = random.NextDouble(0.0, 0.6);
    const auto full = pair.cells.DecideExact(object, delta, theta, {});
    for (const uint64_t cap : {uint64_t{1}, uint64_t{100}, uint64_t{2048},
                               uint64_t{5000}}) {
      SamplePool::ExactOptions capped;
      capped.max_examined = cap;
      const auto d = pair.cells.DecideExact(object, delta, theta, capped);
      EXPECT_LE(d.examined, cap);
      if (d.outcome != SamplePool::ExactDecision::kBudgetExhausted) {
        EXPECT_EQ(d.outcome, full.outcome) << "cap=" << cap;
      } else {
        EXPECT_GT(full.examined, cap);
      }
    }
  }
  // A cancelled control stops a candidate that has samples to examine.
  common::CancellationSource cancel;
  cancel.Cancel();
  common::QueryControl control;
  control.cancel = cancel.token();
  SamplePool::ExactOptions stopped;
  stopped.control = &control;
  const auto d = pair.cells.DecideExact(la::Vector{0.0, 0.0}, 1.0, 0.01,
                                        stopped);
  EXPECT_EQ(d.outcome, SamplePool::ExactDecision::kInterrupted);
  EXPECT_EQ(d.examined, 0u);
}

TEST(ExactCount, BrownoutDecidesLikeTheUnloadedBatch) {
  const auto g = MakeGaussian(la::Vector{0.0, 0.0}, CorrelatedCovariance(2, 9));
  MonteCarloEvaluator evaluator({.samples = 30000, .seed = 7});
  const auto pool = evaluator.MakeSamplePool(g);
  rng::Random random(12);
  std::vector<la::Vector> objects;
  for (int i = 0; i < 300; ++i) {
    objects.push_back({random.NextDouble(-5.0, 5.0),
                       random.NextDouble(-5.0, 5.0)});
  }
  std::vector<const la::Vector*> ptrs;
  for (const auto& o : objects) ptrs.push_back(&o);
  const double delta = 2.0, theta = 0.1;
  std::vector<char> unloaded(objects.size(), kDecideUndecided);
  evaluator.DecideBatchBounded(g, ptrs.data(), ptrs.size(), delta, theta,
                               pool.get(), common::QueryControl::Unlimited(),
                               unloaded.data());
  common::QueryControl control;
  control.sample_budget = 2000;
  std::vector<char> capped(objects.size(), kDecideUndecided);
  evaluator.DecideBatchBounded(g, ptrs.data(), ptrs.size(), delta, theta,
                               pool.get(), control, capped.data());
  size_t decided = 0, undecided = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (capped[i] == kDecideUndecided) {
      ++undecided;
    } else {
      ++decided;
      EXPECT_EQ(capped[i], unloaded[i]) << "object " << i;
    }
  }
  EXPECT_GT(decided, 0u);
  EXPECT_GT(undecided, 0u);
}

TEST(ExactCount, ConcurrentChunksOnOnePoolMatchOneThread) {
  // One evaluator-built pool read by several workers at once, each deciding
  // its own chunk through its own evaluator — the executor's fan-out.
  const auto g = MakeGaussian(la::Vector{10.0, -3.0, 4.0},
                              CorrelatedCovariance(3, 11));
  MonteCarloEvaluator builder({.samples = 20000, .seed = 7});
  const auto pool = builder.MakeSamplePool(g);
  ASSERT_EQ(pool->layout(), PoolLayout::kCells);
  rng::Random random(5);
  std::vector<la::Vector> objects;
  for (int i = 0; i < 400; ++i) {
    la::Vector o = g.mean();
    for (size_t a = 0; a < 3; ++a) {
      o[a] += random.NextDouble(-4.0, 4.0) * g.Sigma(a);
    }
    objects.push_back(std::move(o));
  }
  std::vector<const la::Vector*> ptrs;
  for (const auto& o : objects) ptrs.push_back(&o);
  const double delta = 1.5, theta = 0.02;

  std::vector<char> serial(objects.size(), kDecideUndecided);
  builder.DecideBatchBounded(g, ptrs.data(), ptrs.size(), delta, theta,
                             pool.get(), common::QueryControl::Unlimited(),
                             serial.data());
  for (size_t i = 0; i < objects.size(); ++i) {
    const uint64_t hits =
        pool->CountWithin(objects[i], delta * delta, 0, pool->size());
    EXPECT_EQ(serial[i] != 0, static_cast<double>(hits) >=
                                  theta * static_cast<double>(pool->size()));
  }

  constexpr size_t kWorkers = 4;
  std::vector<char> parallel(objects.size(), kDecideUndecided);
  std::vector<std::thread> workers;
  const size_t chunk = (objects.size() + kWorkers - 1) / kWorkers;
  const auto control = common::QueryControl::WithDeadline(
      common::Deadline::After(3600.0));
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      MonteCarloEvaluator worker({.samples = 20000, .seed = 7});
      const size_t begin = w * chunk;
      const size_t end = std::min(objects.size(), begin + chunk);
      // Odd workers run under a live deadline: same loop, same answers.
      if (w % 2 == 0) {
        worker.DecideBatchBounded(g, ptrs.data() + begin, end - begin, delta,
                                  theta, pool.get(),
                                  common::QueryControl::Unlimited(),
                                  parallel.data() + begin);
      } else {
        worker.DecideBatchBounded(g, ptrs.data() + begin, end - begin, delta,
                                  theta, pool.get(), control,
                                  parallel.data() + begin);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace gprq::mc
