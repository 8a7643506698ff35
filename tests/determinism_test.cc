// Determinism regression: the same query stream through exec::BatchExecutor
// must return identical result sets — and the shared per-query pool must
// yield identical per-candidate probabilities — no matter how many worker
// threads serve Phase 3. Before the shared sample pool, Monte-Carlo results
// silently varied with the thread count, because each candidate was decided
// by whichever worker's RNG happened to pick its chunk.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "exec/batch_executor.h"
#include "index/str_bulk_load.h"
#include "mc/adaptive_monte_carlo.h"
#include "mc/monte_carlo.h"
#include "mc/sample_pool.h"
#include "workload/generators.h"

namespace gprq::exec {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

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

std::vector<core::PrqQuery> MakeQueries(const Fixture& fixture) {
  std::vector<core::PrqQuery> queries;
  for (size_t q = 0; q < 6; ++q) {
    auto g = core::GaussianDistribution::Create(
        fixture.dataset.points[(q * 433) % fixture.dataset.size()],
        workload::PaperCovariance2D(10.0));
    EXPECT_TRUE(g.ok());
    // θ = 0.03 keeps plenty of candidates near the decision boundary, where
    // sampling differences would actually flip answers.
    queries.push_back(core::PrqQuery{std::move(*g), 25.0, 0.03});
  }
  return queries;
}

// Submits each query in turn; answer i (sorted) belongs to queries[i].
std::vector<std::vector<index::ObjectId>> SubmitEach(
    BatchExecutor* executor, const std::vector<core::PrqQuery>& queries) {
  std::vector<std::vector<index::ObjectId>> results;
  for (const core::PrqQuery& query : queries) {
    auto result = executor->SubmitBounded(query, core::PrqOptions());
    EXPECT_TRUE(result.ok() && result->complete());
    std::vector<index::ObjectId> ids =
        result.ok() ? std::move(result->ids) : std::vector<index::ObjectId>{};
    std::sort(ids.begin(), ids.end());
    results.push_back(std::move(ids));
  }
  return results;
}

std::vector<std::vector<index::ObjectId>> RunStream(
    const Fixture& fixture, const core::PrqEngine::EvaluatorFactory& factory,
    size_t num_threads) {
  const core::PrqEngine engine(&fixture.tree);
  auto executor = BatchExecutor::Create(&engine, factory, num_threads);
  EXPECT_TRUE(executor.ok());
  return SubmitEach(executor->get(), MakeQueries(fixture));
}

// Factories mirror production use: every worker gets a distinct seed, so
// nothing about per-worker RNG streams can be accidentally identical.
core::PrqEngine::EvaluatorFactory FixedBudgetFactory() {
  return [](size_t worker) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::MonteCarloEvaluator>(
        mc::MonteCarloOptions{.samples = 20000, .seed = 1000 + worker});
  };
}

core::PrqEngine::EvaluatorFactory AdaptiveFactory() {
  return [](size_t worker) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::AdaptiveMonteCarloEvaluator>(
        mc::AdaptiveMonteCarloOptions{.max_samples = 20000,
                                      .seed = 1000 + worker});
  };
}

TEST(Determinism, FixedBudgetStreamIdenticalAcrossThreadCounts) {
  const auto fixture = Fixture::Make(3000, 1);
  const auto reference = RunStream(fixture, FixedBudgetFactory(), 1);
  size_t total = 0;
  for (const auto& ids : reference) total += ids.size();
  ASSERT_GT(total, 0u) << "degenerate workload decides nothing";
  for (const size_t threads : kThreadCounts) {
    EXPECT_EQ(RunStream(fixture, FixedBudgetFactory(), threads), reference)
        << "threads=" << threads;
  }
}

TEST(Determinism, AdaptiveStreamIdenticalAcrossThreadCounts) {
  const auto fixture = Fixture::Make(3000, 2);
  const auto reference = RunStream(fixture, AdaptiveFactory(), 1);
  for (const size_t threads : kThreadCounts) {
    EXPECT_EQ(RunStream(fixture, AdaptiveFactory(), threads), reference)
        << "threads=" << threads;
  }
}

TEST(Determinism, RepeatedSubmissionOnOneExecutorIsStable) {
  // The pool stream is a pure function of (evaluator seed, query
  // fingerprint) — not a persistent stream that advances per query — so
  // resubmitting the same queries to the *same* executor is bit-stable,
  // and a freshly created executor agrees with both.
  const auto fixture = Fixture::Make(3000, 3);
  const core::PrqEngine engine(&fixture.tree);
  auto executor = BatchExecutor::Create(&engine, FixedBudgetFactory(), 2);
  ASSERT_TRUE(executor.ok());
  const auto queries = MakeQueries(fixture);
  const auto first = SubmitEach(executor->get(), queries);
  const auto second = SubmitEach(executor->get(), queries);
  EXPECT_EQ(first, second);
  EXPECT_EQ(RunStream(fixture, FixedBudgetFactory(), 2), first);
}

TEST(Determinism, PerCandidateProbabilitiesComeFromTheQueryPool) {
  // The probabilities behind the decisions are a pure function of the
  // query pool, which evaluator 0 builds regardless of the worker count:
  // the pool built by a fresh factory(0) evaluator reproduces them exactly,
  // and no worker RNG can perturb them.
  const auto fixture = Fixture::Make(3000, 4);
  const core::PrqEngine engine(&fixture.tree);
  const auto queries = MakeQueries(fixture);

  std::vector<std::vector<double>> reference;
  for (const size_t threads : kThreadCounts) {
    // Same derivation the executor uses for any `threads`: evaluator 0.
    auto evaluator0 = FixedBudgetFactory()(0);
    std::vector<std::vector<double>> probabilities;
    for (const auto& query : queries) {
      core::PrqEngine::FilterOutcome outcome;
      core::PrqStats stats;
      ASSERT_TRUE(engine
                      .RunFilterPhases(query, core::PrqOptions(), &outcome,
                                       &stats)
                      .ok());
      const auto pool = evaluator0->MakeSamplePool(
          query.query_object, mc::PoolVariant::kPseudoRandom);
      ASSERT_NE(pool, nullptr);
      std::vector<double> per_candidate;
      for (const auto& [point, id] : outcome.survivors) {
        per_candidate.push_back(
            pool->EstimateProbability(point, query.delta).probability);
      }
      probabilities.push_back(std::move(per_candidate));
    }
    if (reference.empty()) {
      reference = std::move(probabilities);
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(probabilities, reference) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace gprq::exec
