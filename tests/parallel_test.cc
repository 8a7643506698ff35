// Tests for the BatchExecutor's Phase-3 fan-out across worker threads:
// identical results to sequential execution at any thread count, more
// threads than survivors, a single survivor, the proved-empty short
// circuit, and Monte-Carlo workers with distinct seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>

#include "core/engine.h"
#include "exec/batch_executor.h"
#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "workload/generators.h"

namespace gprq::exec {
namespace {

struct Fixture {
  workload::Dataset dataset;
  index::RStarTree tree;

  static Fixture Make(size_t n, uint64_t seed) {
    const geom::Rect extent(la::Vector{0.0, 0.0},
                            la::Vector{1000.0, 1000.0});
    auto dataset = workload::GenerateClustered(n, extent, 14, 35.0, seed);
    auto tree = index::StrBulkLoader::Load(2, dataset.points);
    EXPECT_TRUE(tree.ok());
    return Fixture{std::move(dataset), std::move(*tree)};
  }
};

core::PrqQuery MakeQuery(const Fixture& fixture, size_t center_index,
                         double gamma, double delta, double theta) {
  auto g = core::GaussianDistribution::Create(
      fixture.dataset.points[center_index % fixture.dataset.size()],
      workload::PaperCovariance2D(gamma));
  EXPECT_TRUE(g.ok());
  return core::PrqQuery{std::move(*g), delta, theta};
}

core::PrqEngine::EvaluatorFactory ExactFactory() {
  return [](size_t) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::ImhofEvaluator>();
  };
}

TEST(ParallelPhase3, MatchesSequentialWithExactEvaluatorAtAnyThreadCount) {
  auto fixture = Fixture::Make(4000, 2);
  const core::PrqEngine engine(&fixture.tree);
  const auto query = MakeQuery(fixture, 2000, 10.0, 25.0, 0.01);

  mc::ImhofEvaluator exact;
  core::PrqStats seq_stats;
  auto sequential =
      engine.Execute(query, core::PrqOptions(), &exact, &seq_stats);
  ASSERT_TRUE(sequential.ok());
  std::vector<index::ObjectId> expected = *sequential;
  std::sort(expected.begin(), expected.end());

  for (size_t threads : {1u, 2u, 3u, 8u}) {
    auto executor = BatchExecutor::Create(&engine, ExactFactory(), threads);
    ASSERT_TRUE(executor.ok()) << "threads=" << threads;
    core::PrqStats par_stats;
    auto parallel =
        (*executor)->Submit(query, core::PrqOptions(), &par_stats);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    std::vector<index::ObjectId> got = *parallel;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "threads=" << threads;
    EXPECT_EQ(par_stats.integration_candidates,
              seq_stats.integration_candidates);
    EXPECT_EQ(par_stats.result_size, expected.size());
  }
}

TEST(ParallelPhase3, MoreThreadsThanSurvivors) {
  auto fixture = Fixture::Make(50, 3);
  const core::PrqEngine engine(&fixture.tree);
  const auto query = MakeQuery(fixture, 25, 1.0, 10.0, 0.2);
  auto executor = BatchExecutor::Create(&engine, ExactFactory(), 64);
  ASSERT_TRUE(executor.ok());
  auto result = (*executor)->Submit(query, core::PrqOptions());
  ASSERT_TRUE(result.ok());
  mc::ImhofEvaluator exact;
  auto sequential = engine.Execute(query, core::PrqOptions(), &exact);
  ASSERT_TRUE(sequential.ok());
  std::vector<index::ObjectId> a = *result, b = *sequential;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(ParallelPhase3, ProvedEmptyShortCircuits) {
  auto fixture = Fixture::Make(100, 4);
  const core::PrqEngine engine(&fixture.tree);
  auto executor = BatchExecutor::Create(&engine, ExactFactory(), 4);
  ASSERT_TRUE(executor.ok());
  auto g = core::GaussianDistribution::Create(la::Vector{500.0, 500.0},
                                              la::Matrix::Identity(2) * 1e6);
  ASSERT_TRUE(g.ok());
  const core::PrqQuery query{std::move(*g), 1.0, 0.4};
  core::PrqOptions options;
  options.strategies = core::kStrategyBF;
  core::PrqStats stats;
  auto result = (*executor)->Submit(query, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_TRUE(stats.proved_empty);
}

TEST(ParallelPhase3, SingleSurvivorWithManyThreads) {
  // Three far-apart points; a tight query box around one of them with BF
  // disabled (no inner acceptance) leaves exactly one Phase-3 survivor.
  std::vector<la::Vector> points = {la::Vector{100.0, 100.0},
                                    la::Vector{500.0, 500.0},
                                    la::Vector{900.0, 900.0}};
  auto tree = index::StrBulkLoader::Load(2, points);
  ASSERT_TRUE(tree.ok());
  const core::PrqEngine engine(&*tree);
  auto executor = BatchExecutor::Create(&engine, ExactFactory(), 16);
  ASSERT_TRUE(executor.ok());
  auto g = core::GaussianDistribution::Create(la::Vector{500.0, 500.0},
                                              la::Matrix::Identity(2) * 4.0);
  ASSERT_TRUE(g.ok());
  const core::PrqQuery query{std::move(*g), 20.0, 0.3};
  core::PrqOptions options;
  options.strategies = core::kStrategyRR;

  core::PrqStats stats;
  auto result = (*executor)->Submit(query, options, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(stats.integration_candidates, 1u);
  EXPECT_EQ(*result, std::vector<index::ObjectId>{1});
}

TEST(ParallelPhase3, MonteCarloWorkersWithDistinctSeeds) {
  auto fixture = Fixture::Make(3000, 5);
  const core::PrqEngine engine(&fixture.tree);
  const auto query = MakeQuery(fixture, 1500, 10.0, 25.0, 0.01);

  const auto mc_factory =
      [](size_t worker) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::MonteCarloEvaluator>(
        mc::MonteCarloOptions{.samples = 20000, .seed = 1000 + worker});
  };
  auto executor = BatchExecutor::Create(&engine, mc_factory, 2);
  ASSERT_TRUE(executor.ok());
  auto parallel = (*executor)->Submit(query, core::PrqOptions());
  ASSERT_TRUE(parallel.ok());

  mc::ImhofEvaluator exact;
  auto reference = engine.Execute(query, core::PrqOptions(), &exact);
  ASSERT_TRUE(reference.ok());
  std::vector<index::ObjectId> a = *parallel, b = *reference;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<index::ObjectId> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff));
  EXPECT_LE(diff.size(), b.size() / 10 + 3);
}

}  // namespace
}  // namespace gprq::exec
