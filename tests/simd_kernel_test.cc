// The SIMD Phase-3 kernel contract: every compiled vector kernel
// (AVX2/AVX-512/NEON) counts bit-identically to the scalar reference — on
// every length including ragged tails, at thresholds straddling the decision
// boundary — and the runtime dispatcher only ever hands out supported
// kernels. SamplePool::CountWithin must equal a blockwise application of the
// scalar reference, which is what makes Phase-3 decisions independent of the
// dispatched ISA.

#include "mc/simd/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "la/cholesky.h"
#include "mc/sample_pool.h"
#include "mc/simd/kernels_internal.h"
#include "rng/random.h"

namespace gprq::mc::simd {
namespace {

constexpr KernelKind kAllKinds[] = {KernelKind::kScalar, KernelKind::kAvx2,
                                    KernelKind::kAvx512, KernelKind::kNeon};

// Lengths that exercise full vector bodies, ragged scalar tails, and the
// degenerate single-sample case for 2-, 4- and 8-lane kernels alike.
constexpr size_t kLengths[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                               31, 64, 100, 255, 1023, 2047, 2048};

// Dimension-major SoA fill: coordinate a of sample i at data[a*stride + i].
std::vector<double> RandomSoa(size_t dim, size_t stride, uint64_t seed) {
  rng::Random random(seed);
  std::vector<double> data(dim * stride);
  for (double& v : data) v = random.NextDouble(-3.0, 3.0);
  return data;
}

// Thresholds that make the count interesting: several sample distances on
// each side, plus the exact squared distance of one sample (the <= boundary
// itself — where a single ulp of kernel divergence would flip the count).
std::vector<double> InterestingThresholds(const std::vector<double>& data,
                                          size_t stride, size_t dim,
                                          const std::vector<double>& object,
                                          size_t len) {
  std::vector<double> dist_sq(len, 0.0);
  for (size_t a = 0; a < dim; ++a) {
    for (size_t i = 0; i < len; ++i) {
      const double t = data[a * stride + i] - object[a];
      dist_sq[i] += t * t;
    }
  }
  std::sort(dist_sq.begin(), dist_sq.end());
  std::vector<double> thresholds = {0.0, dist_sq.front() * 0.5,
                                    dist_sq[len / 2], dist_sq.back() * 2.0};
  thresholds.push_back(dist_sq[len / 3]);  // lands exactly on a sample
  return thresholds;
}

TEST(SimdKernels, ScalarAlwaysAvailableAndNamed) {
  EXPECT_TRUE(KernelSupported(KernelKind::kScalar));
  EXPECT_NE(CountKernel(KernelKind::kScalar), nullptr);
  EXPECT_NE(FusedKernel(KernelKind::kScalar), nullptr);
  EXPECT_STREQ(KernelName(KernelKind::kScalar), "scalar");
  EXPECT_STREQ(KernelName(KernelKind::kAvx2), "avx2");
  EXPECT_STREQ(KernelName(KernelKind::kAvx512), "avx512");
  EXPECT_STREQ(KernelName(KernelKind::kNeon), "neon");
}

TEST(SimdKernels, UnsupportedKindsReturnNullConsistently) {
  for (const KernelKind kind : kAllKinds) {
    if (KernelSupported(kind)) {
      EXPECT_NE(CountKernel(kind), nullptr) << KernelName(kind);
      EXPECT_NE(FusedKernel(kind), nullptr) << KernelName(kind);
    } else {
      EXPECT_EQ(CountKernel(kind), nullptr) << KernelName(kind);
      EXPECT_EQ(FusedKernel(kind), nullptr) << KernelName(kind);
    }
  }
}

TEST(SimdKernels, DispatchedKernelIsSupportedAndCached) {
  const KernelKind kind = DispatchedKind();
  EXPECT_TRUE(KernelSupported(kind));
  EXPECT_EQ(DispatchedCountKernel(), CountKernel(kind));
  EXPECT_EQ(DispatchedFusedKernel(), FusedKernel(kind));
  EXPECT_EQ(DispatchedKind(), kind);  // stable across calls
#if defined(GPRQ_SIMD_DISABLED)
  // A GPRQ_SIMD=OFF build compiles only the scalar kernel.
  EXPECT_EQ(kind, KernelKind::kScalar);
  EXPECT_FALSE(KernelSupported(KernelKind::kAvx2));
  EXPECT_FALSE(KernelSupported(KernelKind::kAvx512));
  EXPECT_FALSE(KernelSupported(KernelKind::kNeon));
#endif
}

TEST(SimdKernels, ResolveRequestHonorsSupportedAndDegradesGracefully) {
  const KernelKind detected = detail::ResolveRequest(nullptr);
  EXPECT_TRUE(KernelSupported(detected));
  EXPECT_EQ(detail::ResolveRequest(""), detected);
  // "scalar" is always a valid request.
  EXPECT_EQ(detail::ResolveRequest("scalar"), KernelKind::kScalar);
  // A typo degrades to the detected best, never a crash or an illegal kind.
  EXPECT_EQ(detail::ResolveRequest("avx1024"), detected);
  EXPECT_EQ(detail::ResolveRequest("AVX2"), detected);  // case-sensitive
  // Each real name resolves to itself when supported, detected otherwise.
  for (const KernelKind kind :
       {KernelKind::kAvx2, KernelKind::kAvx512, KernelKind::kNeon}) {
    const KernelKind resolved = detail::ResolveRequest(KernelName(kind));
    EXPECT_EQ(resolved, KernelSupported(kind) ? kind : detected)
        << KernelName(kind);
  }
}

TEST(SimdKernels, AllSupportedKernelsMatchScalarBitForBit) {
  const CountFn scalar = CountKernel(KernelKind::kScalar);
  for (const size_t dim : {size_t{1}, size_t{2}, size_t{3}, size_t{9}}) {
    const size_t stride = 2048;
    const std::vector<double> data = RandomSoa(dim, stride, 100 + dim);
    std::vector<double> object(dim);
    rng::Random random(7 * dim + 1);
    for (double& o : object) o = random.NextDouble(-2.0, 2.0);

    for (const size_t len : kLengths) {
      const std::vector<double> thresholds =
          InterestingThresholds(data, stride, dim, object, len);
      for (const double delta_sq : thresholds) {
        const uint64_t expected =
            scalar(data.data(), stride, dim, object.data(), delta_sq, len);
        for (const KernelKind kind : kAllKinds) {
          const CountFn kernel = CountKernel(kind);
          if (kernel == nullptr) continue;
          EXPECT_EQ(kernel(data.data(), stride, dim, object.data(), delta_sq,
                           len),
                    expected)
              << KernelName(kind) << " d=" << dim << " len=" << len
              << " delta_sq=" << delta_sq;
        }
      }
    }
  }
}

TEST(SimdKernels, CountMatchesScalarAtBlockOffsets) {
  // Kernels are fed interior block slices (data + b) whose tails alias the
  // next block's head in memory; counts must still match the reference.
  const size_t dim = 3, stride = 5000;
  const std::vector<double> data = RandomSoa(dim, stride, 42);
  const std::vector<double> object = {0.25, -0.5, 1.0};
  const CountFn scalar = CountKernel(KernelKind::kScalar);
  for (const size_t offset : {size_t{0}, size_t{1}, size_t{2048},
                              size_t{2953}, size_t{4999}}) {
    const size_t len = std::min<size_t>(2048, stride - offset);
    for (const KernelKind kind : kAllKinds) {
      const CountFn kernel = CountKernel(kind);
      if (kernel == nullptr) continue;
      EXPECT_EQ(kernel(data.data() + offset, stride, dim, object.data(), 2.0,
                       len),
                scalar(data.data() + offset, stride, dim, object.data(), 2.0,
                       len))
          << KernelName(kind) << " offset=" << offset;
    }
  }
}

TEST(SimdKernels, FusedKernelsMatchFusedScalarBitForBit) {
  const FusedCountFn scalar = FusedKernel(KernelKind::kScalar);
  for (const size_t dim : {size_t{1}, size_t{2}, size_t{3}, size_t{9}}) {
    const size_t stride = 2048;
    const std::vector<double> z = RandomSoa(dim, stride, 500 + dim);
    rng::Random random(13 * dim + 5);
    // Row-major lower factor; garbage above the diagonal must be ignored.
    std::vector<double> chol(dim * dim);
    for (size_t a = 0; a < dim; ++a) {
      for (size_t j = 0; j < dim; ++j) {
        chol[a * dim + j] = (j <= a) ? random.NextDouble(0.1, 1.5)
                                     : random.NextDouble(-100.0, 100.0);
      }
    }
    std::vector<double> mean(dim), object(dim);
    for (double& m : mean) m = random.NextDouble(-1.0, 1.0);
    for (double& o : object) o = random.NextDouble(-2.0, 2.0);

    for (const size_t len : kLengths) {
      for (const double delta_sq : {0.25, 1.0, 4.0, 25.0}) {
        const uint64_t expected =
            scalar(z.data(), stride, dim, chol.data(), mean.data(),
                   object.data(), delta_sq, len);
        for (const KernelKind kind : kAllKinds) {
          const FusedCountFn kernel = FusedKernel(kind);
          if (kernel == nullptr) continue;
          EXPECT_EQ(kernel(z.data(), stride, dim, chol.data(), mean.data(),
                           object.data(), delta_sq, len),
                    expected)
              << KernelName(kind) << " d=" << dim << " len=" << len
              << " delta_sq=" << delta_sq;
        }
      }
    }
  }
}

TEST(SimdKernels, FusedCountAgreesWithPretransformedPool) {
  // Replays SamplePool's standard-normal draw order onto raw z storage and
  // checks the fused transform-and-count against counting the transformed
  // pool. gaussian.cc may contract its transform to FMA (it is not a kernel
  // TU), so thresholds are chosen midway between adjacent order statistics
  // of the sample distances — robust to ulp-level divergence, sensitive to
  // any real transform mismatch.
  for (const size_t dim : {size_t{2}, size_t{3}}) {
    la::Matrix cov(dim, dim);
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        cov(i, j) = (i == j) ? 2.0 + static_cast<double>(i) : 0.4;
      }
    }
    la::Vector mean(dim);
    for (size_t i = 0; i < dim; ++i) mean[i] = static_cast<double>(i) - 0.5;
    auto g = core::GaussianDistribution::Create(mean, cov);
    ASSERT_TRUE(g.ok());
    auto chol = la::Cholesky::Factor(cov);
    ASSERT_TRUE(chol.ok());

    const uint64_t n = 2048;
    const SamplePool pool(*g, n, 909 + dim, PoolVariant::kPseudoRandom);

    // Identical stream, raw draws: GaussianDistribution::Sample consumes
    // exactly dim NextGaussian() per sample, in coordinate order.
    rng::Random z_random(909 + dim);
    std::vector<double> z(dim * n);
    for (uint64_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        z[j * n + i] = z_random.NextGaussian();
      }
    }

    la::Vector object(dim);
    for (size_t i = 0; i < dim; ++i) object[i] = 0.3 * static_cast<double>(i);

    std::vector<double> dist_sq;
    for (uint64_t i = 0; i < n; ++i) {
      double d2 = 0.0;
      for (size_t a = 0; a < dim; ++a) {
        const double t = pool.axis(a)[i] - object[a];
        d2 += t * t;
      }
      dist_sq.push_back(d2);
    }
    std::sort(dist_sq.begin(), dist_sq.end());

    const FusedCountFn fused = DispatchedFusedKernel();
    for (const size_t rank : {size_t{100}, size_t{1024}, size_t{2000}}) {
      const double delta_sq = 0.5 * (dist_sq[rank - 1] + dist_sq[rank]);
      ASSERT_GT(dist_sq[rank] - dist_sq[rank - 1], 1e-12);
      const uint64_t from_pool =
          pool.CountWithin(object, delta_sq, 0, pool.size());
      const uint64_t from_fused =
          fused(z.data(), n, dim, chol->lower().data(), g->mean().data(),
                object.data(), delta_sq, n);
      EXPECT_EQ(from_fused, from_pool) << "d=" << dim << " rank=" << rank;
      EXPECT_EQ(from_pool, rank);
    }
  }
}

TEST(SimdKernels, SamplePoolCountWithinMatchesBlockwiseScalar) {
  // The dispatched kernel behind CountWithin must be interchangeable with
  // the scalar reference applied block by block — the end-to-end form of
  // the bit-compatibility contract.
  const size_t dim = 3;
  la::Matrix cov = la::Matrix::Identity(dim) * 1.5;
  auto g = core::GaussianDistribution::Create(la::Vector(dim, 0.0), cov);
  ASSERT_TRUE(g.ok());
  const SamplePool pool(*g, 10000, 321, PoolVariant::kPseudoRandom);
  const la::Vector object{0.5, -0.25, 1.0};
  const CountFn scalar = CountKernel(KernelKind::kScalar);

  for (const double delta_sq : {0.5, 2.0, 6.0, 20.0}) {
    for (const auto& range :
         {std::pair<uint64_t, uint64_t>{0, 10000},
          std::pair<uint64_t, uint64_t>{1, 2047},
          std::pair<uint64_t, uint64_t>{2048, 6000},
          std::pair<uint64_t, uint64_t>{1777, 9999}}) {
      uint64_t expected = 0;
      for (uint64_t b = range.first; b < range.second; b += kKernelBlock) {
        const size_t len = static_cast<size_t>(
            std::min<uint64_t>(kKernelBlock, range.second - b));
        expected += scalar(pool.axis(0) + b, pool.size(), dim, object.data(),
                           delta_sq, len);
      }
      EXPECT_EQ(pool.CountWithin(object, delta_sq, range.first, range.second),
                expected)
          << "range=[" << range.first << "," << range.second
          << ") delta_sq=" << delta_sq;
    }
  }
}

TEST(SimdKernels, PoolDecisionsIdenticalUnderEveryKernel) {
  // Phase-3 decisions (hit counts at every block boundary, hence every
  // Wilson check) must not depend on which kernel counted. Each supported
  // kernel is run over the same pool slices the pool's own Decide consumes,
  // and the full running (hits, n) trajectory is compared.
  const size_t dim = 2;
  auto g = core::GaussianDistribution::Create(
      la::Vector(dim, 0.0), la::Matrix::Identity(dim) * 2.0);
  ASSERT_TRUE(g.ok());
  const SamplePool pool(*g, 20000, 777, PoolVariant::kPseudoRandom);
  const la::Vector object{1.0, -0.7};
  const double delta_sq = 3.1;

  std::vector<std::vector<uint64_t>> trajectories;
  for (const KernelKind kind : kAllKinds) {
    const CountFn kernel = CountKernel(kind);
    if (kernel == nullptr) continue;
    std::vector<uint64_t> running;
    uint64_t hits = 0;
    for (uint64_t b = 0; b < pool.size(); b += kKernelBlock) {
      const size_t len = static_cast<size_t>(
          std::min<uint64_t>(kKernelBlock, pool.size() - b));
      hits += kernel(pool.axis(0) + b, pool.size(), dim, object.data(),
                     delta_sq, len);
      running.push_back(hits);
    }
    trajectories.push_back(std::move(running));
  }
  ASSERT_GE(trajectories.size(), 1u);
  for (size_t k = 1; k < trajectories.size(); ++k) {
    EXPECT_EQ(trajectories[k], trajectories[0]);
  }
}

}  // namespace
}  // namespace gprq::mc::simd
