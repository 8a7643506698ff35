// Tests for the PRNG (the RANDLIB replacement feeding the Monte-Carlo
// integrator; GaussianDistribution::Sample is covered in gaussian_test).

#include <gtest/gtest.h>

#include <cmath>

#include "rng/random.h"

namespace gprq::rng {
namespace {

TEST(Random, DeterministicForSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(Random, DifferentSeedsDiverge) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Random, NextDoubleInUnitInterval) {
  Random random(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = random.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Random, UniformMoments) {
  Random random(11);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = random.NextDouble();
    sum += u;
    sum_sq += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.005);
  EXPECT_NEAR(sum_sq / n - (sum / n) * (sum / n), 1.0 / 12.0, 0.005);
}

TEST(Random, BoundedIntegerInRange) {
  Random random(5);
  int histogram[10] = {0};
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = random.NextUint64(10);
    ASSERT_LT(v, 10u);
    ++histogram[v];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, 10000, 600);  // ~6 sigma
  }
}

TEST(Random, GaussianMoments) {
  Random random(13);
  const int n = 400000;
  double sum = 0.0, sum_sq = 0.0, sum_cube = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = random.NextGaussian();
    sum += z;
    sum_sq += z * z;
    sum_cube += z * z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
  EXPECT_NEAR(sum_cube / n, 0.0, 0.05);  // symmetry
}

TEST(Random, ScaledGaussian) {
  Random random(17);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = random.NextGaussian(10.0, 3.0);
    sum += z;
    sum_sq += z * z;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(sum_sq / n - mean * mean, 9.0, 0.2);
}

}  // namespace
}  // namespace gprq::rng
