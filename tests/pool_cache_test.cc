// Tests for MonteCarloEvaluator's pool memo: a repeat request returns the
// very pool object, a kept pool equals a freshly drawn one sample for
// sample, canonically equal distributions share it while any other
// difference gets its own pool, concurrent requests build once, a
// different request releases the kept pool, and an executor stepping one
// distribution through θ draws its pool once with unchanged answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "exec/batch_executor.h"
#include "index/str_bulk_load.h"
#include "mc/monte_carlo.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace gprq::mc {
namespace {

core::GaussianDistribution MakeGaussian(la::Vector mean, la::Matrix cov) {
  auto g = core::GaussianDistribution::Create(std::move(mean),
                                              std::move(cov));
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

core::GaussianDistribution Oblique(double shift = 0.0) {
  return MakeGaussian(la::Vector{1.0 + shift, -2.0, 0.5},
                      la::Matrix{{4.0, 1.2, 0.3},
                                 {1.2, 2.0, -0.4},
                                 {0.3, -0.4, 1.0}});
}

uint64_t Counter(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name)->Value();
}

// The paper's pseudo-random pool, the default PrqOptions::pool_variant.
constexpr PoolVariant kIid = PoolVariant::kPseudoRandom;

std::vector<double> Axis(const SamplePool& pool, size_t a) {
  return std::vector<double>(pool.axis(a), pool.axis(a) + pool.size());
}

TEST(PoolMemo, HitReturnsTheSamePoolObject) {
  MonteCarloEvaluator evaluator({.samples = 3000, .seed = 11});
  const auto g = Oblique();
  const uint64_t hits = Counter("gprq.mc.pool_cache.hits");
  const uint64_t misses = Counter("gprq.mc.pool_cache.misses");
  const uint64_t builds = Counter("gprq.mc.pool_builds");
  const auto first = evaluator.MakeSamplePool(g, kIid);
  const auto second = evaluator.MakeSamplePool(g, kIid);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(Counter("gprq.mc.pool_cache.misses") - misses, 1u);
  EXPECT_EQ(Counter("gprq.mc.pool_cache.hits") - hits, 1u);
  EXPECT_EQ(Counter("gprq.mc.pool_builds") - builds, 1u);
  // Both counters reach STATS through the registry export.
  const std::string stats =
      obs::TextExporter::Json(obs::MetricRegistry::Global().Snapshot());
  EXPECT_NE(stats.find("gprq.mc.pool_cache.hits"), std::string::npos);
  EXPECT_NE(stats.find("gprq.mc.pool_cache.misses"), std::string::npos);
}

TEST(PoolMemo, KeptPoolEqualsAFreshPoolSampleForSample) {
  MonteCarloEvaluator evaluator({.samples = 3000, .seed = 11});
  const auto g = Oblique();
  for (const PoolVariant variant :
       {PoolVariant::kPseudoRandom, PoolVariant::kHalton}) {
    (void)evaluator.MakeSamplePool(g, variant);
    const auto kept = evaluator.MakeSamplePool(g, variant);
    // A new evaluator with the same options has nothing kept: it draws.
    MonteCarloEvaluator fresh_evaluator({.samples = 3000, .seed = 11});
    const auto fresh = fresh_evaluator.MakeSamplePool(g, variant);
    ASSERT_NE(kept.get(), fresh.get());
    ASSERT_EQ(kept->size(), fresh->size());
    for (size_t a = 0; a < g.dim(); ++a) {
      EXPECT_EQ(Axis(*kept, a), Axis(*fresh, a)) << "axis " << a;
    }
    const la::Vector object{2.0, -1.0, 0.0};
    for (const double theta : {0.0, 0.05, 0.2, 1.0}) {
      EXPECT_EQ(kept->DecideExact(object, 1.5, theta, {}).outcome,
                fresh->DecideExact(object, 1.5, theta, {}).outcome);
    }
  }
}

TEST(PoolMemo, NegativeAndPositiveZeroShareAPool) {
  MonteCarloEvaluator evaluator({.samples = 3000, .seed = 11});
  const la::Matrix cov{{2.0, 0.0}, {0.0, 1.0}};
  const la::Matrix negative_cov{{2.0, -0.0}, {-0.0, 1.0}};
  const auto positive =
      evaluator.MakeSamplePool(MakeGaussian(la::Vector{0.0, 3.0}, cov), kIid);
  const auto negative = evaluator.MakeSamplePool(
      MakeGaussian(la::Vector{-0.0, 3.0}, negative_cov), kIid);
  EXPECT_EQ(positive.get(), negative.get());
}

TEST(PoolMemo, AnyOtherKeyPartGetsItsOwnPool) {
  MonteCarloEvaluator evaluator({.samples = 3000, .seed = 11});
  const auto g = Oblique();
  const auto base = evaluator.MakeSamplePool(g, kIid);
  la::Matrix bumped = g.covariance();
  bumped(0, 0) = std::nextafter(bumped(0, 0), 10.0);  // one covariance bit
  const uint64_t builds = Counter("gprq.mc.pool_builds");
  const auto other_cov =
      evaluator.MakeSamplePool(MakeGaussian(g.mean(), bumped), kIid);
  const auto other_mean = evaluator.MakeSamplePool(Oblique(1e-12), kIid);
  const auto other_variant = evaluator.MakeSamplePool(g, PoolVariant::kHalton);
  // Only the last request is kept, so the base distribution draws again,
  // into the same samples.
  const auto again = evaluator.MakeSamplePool(g, kIid);
  EXPECT_EQ(Counter("gprq.mc.pool_builds") - builds, 4u);
  EXPECT_NE(again.get(), base.get());
  EXPECT_EQ(Axis(*again, 0), Axis(*base, 0));
  for (const auto& other : {other_cov, other_mean, other_variant}) {
    EXPECT_NE(Axis(*other, 0), Axis(*base, 0));
  }
  // Seed and n belong to the evaluator: another one draws other samples.
  MonteCarloEvaluator other_seed({.samples = 3000, .seed = 12});
  MonteCarloEvaluator other_n({.samples = 3001, .seed = 11});
  EXPECT_NE(Axis(*other_seed.MakeSamplePool(g, kIid), 0), Axis(*base, 0));
  EXPECT_EQ(other_n.MakeSamplePool(g, kIid)->size(), 3001u);
}

TEST(PoolMemo, ConcurrentRequestsBuildOnce) {
  MonteCarloEvaluator evaluator({.samples = 20000, .seed = 11});
  const auto g = Oblique();
  const uint64_t builds = Counter("gprq.mc.pool_builds");
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const SamplePool>> pools(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      pools[t] = evaluator.MakeSamplePool(g, kIid);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(Counter("gprq.mc.pool_builds") - builds, 1u);
  for (const auto& pool : pools) {
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool.get(), pools[0].get());
  }
}

TEST(PoolMemo, ADifferentRequestReleasesTheKeptPool) {
  std::weak_ptr<const SamplePool> last;
  std::shared_ptr<const SamplePool> held;
  {
    MonteCarloEvaluator evaluator({.samples = 3000, .seed = 11});
    const std::weak_ptr<const SamplePool> first =
        evaluator.MakeSamplePool(Oblique(), kIid);
    // No query holds it now; only the evaluator does, and serves it again.
    ASSERT_FALSE(first.expired());
    EXPECT_EQ(evaluator.MakeSamplePool(Oblique(), kIid).get(),
              first.lock().get());
    held = evaluator.MakeSamplePool(Oblique(1.0), kIid);
    EXPECT_TRUE(first.expired());
    // A pool a query still holds outlives the release.
    last = evaluator.MakeSamplePool(Oblique(2.0), kIid);
    EXPECT_NE(last.lock().get(), held.get());
    EXPECT_EQ(held->size(), 3000u);
  }
  // The evaluator's kept pool goes with it; the query's stays.
  EXPECT_TRUE(last.expired());
  EXPECT_EQ(held.use_count(), 1);
}

TEST(PoolMemo, ExecutorSteppingThroughThetaDrawsOncePerDistribution) {
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{1000.0, 1000.0});
  const auto dataset = workload::GenerateClustered(3000, extent, 14, 35.0, 7);
  auto tree = index::StrBulkLoader::Load(2, dataset.points);
  ASSERT_TRUE(tree.ok());
  const core::PrqEngine engine(&*tree);
  const auto factory = [](size_t w) -> std::unique_ptr<ProbabilityEvaluator> {
    return std::make_unique<MonteCarloEvaluator>(
        MonteCarloOptions{.samples = 4000, .seed = 100 + w});
  };
  auto stepping = exec::BatchExecutor::Create(&engine, factory, 2);
  ASSERT_TRUE(stepping.ok());
  auto g = core::GaussianDistribution::Create(
      dataset.points[123], workload::PaperCovariance2D(10.0));
  ASSERT_TRUE(g.ok());
  const uint64_t builds = Counter("gprq.mc.pool_builds");
  const uint64_t hits = Counter("gprq.mc.pool_cache.hits");
  const std::vector<double> thetas = {0.2, 0.4, 0.6};
  std::vector<std::vector<index::ObjectId>> answers;
  for (const double theta : thetas) {
    auto result = (*stepping)->Submit(core::PrqQuery{*g, 25.0, theta},
                                      core::PrqOptions());
    ASSERT_TRUE(result.ok());
    answers.push_back(std::move(*result));
  }
  EXPECT_EQ(Counter("gprq.mc.pool_builds") - builds, 1u);
  EXPECT_EQ(Counter("gprq.mc.pool_cache.hits") - hits, 2u);
  // Each answer equals that of an executor that draws its pool afresh.
  for (size_t i = 0; i < answers.size(); ++i) {
    auto fresh = exec::BatchExecutor::Create(&engine, factory, 2);
    ASSERT_TRUE(fresh.ok());
    auto result = (*fresh)->Submit(core::PrqQuery{*g, 25.0, thetas[i]},
                                   core::PrqOptions());
    ASSERT_TRUE(result.ok());
    std::sort(result->begin(), result->end());
    std::sort(answers[i].begin(), answers[i].end());
    EXPECT_EQ(*result, answers[i]) << "theta step " << i;
  }
  EXPECT_FALSE(answers[0].empty());
}

}  // namespace
}  // namespace gprq::mc
