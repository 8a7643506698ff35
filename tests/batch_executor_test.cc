// Tests for exec::BatchExecutor: creation contracts, evaluator reuse across
// a query stream, result parity with the sequential engine, worker-error
// propagation and per-query isolation, and throughput counters. The
// Phase-3 fan-out across thread counts is covered by parallel_test.

#include "exec/batch_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

#include "core/engine.h"
#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
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

/// Evaluator whose Phase-3 calls throw, to exercise error propagation.
class ThrowingEvaluator : public mc::ProbabilityEvaluator {
 public:
  double QualificationProbability(const core::GaussianDistribution&,
                                  const la::Vector&, double) override {
    throw std::runtime_error("evaluator boom");
  }
  const char* name() const override { return "throwing"; }
};

TEST(BatchExecutor, CreateValidatesArguments) {
  auto fixture = Fixture::Make(100, 1);
  const core::PrqEngine engine(&fixture.tree);
  EXPECT_FALSE(BatchExecutor::Create(nullptr, ExactFactory(), 2).ok());
  EXPECT_FALSE(BatchExecutor::Create(&engine, nullptr, 2).ok());
  EXPECT_FALSE(BatchExecutor::Create(&engine, ExactFactory(), 0).ok());
  const auto null_factory =
      [](size_t) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return nullptr;
  };
  EXPECT_FALSE(BatchExecutor::Create(&engine, null_factory, 2).ok());
  const auto throwing_factory =
      [](size_t) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    throw std::runtime_error("factory boom");
  };
  auto created = BatchExecutor::Create(&engine, throwing_factory, 2);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInternal);
}

TEST(BatchExecutor, ReusesEvaluatorsAcrossAHundredQueries) {
  auto fixture = Fixture::Make(2000, 2);
  const core::PrqEngine engine(&fixture.tree);

  std::atomic<size_t> factory_calls{0};
  const auto counting_factory =
      [&factory_calls](size_t) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    factory_calls.fetch_add(1);
    return std::make_unique<mc::ImhofEvaluator>();
  };
  auto executor = BatchExecutor::Create(&engine, counting_factory, 4);
  ASSERT_TRUE(executor.ok());
  // Seeded exactly once: one evaluator per worker, at construction.
  EXPECT_EQ(factory_calls.load(), 4u);

  for (size_t q = 0; q < 100; ++q) {
    const auto query = MakeQuery(fixture, q * 17, 10.0, 25.0, 0.01);
    auto result = (*executor)->Submit(query, core::PrqOptions());
    ASSERT_TRUE(result.ok()) << "query " << q;
  }
  // No per-query evaluator (or thread) construction happened.
  EXPECT_EQ(factory_calls.load(), 4u);
  const ExecStats stats = (*executor)->Snapshot();
  EXPECT_EQ(stats.queries, 100u);
  EXPECT_EQ(stats.num_workers, 4u);
}

TEST(BatchExecutor, SubmitMatchesSequentialExecute) {
  auto fixture = Fixture::Make(4000, 3);
  const core::PrqEngine engine(&fixture.tree);
  auto executor = BatchExecutor::Create(&engine, ExactFactory(), 4);
  ASSERT_TRUE(executor.ok());

  mc::ImhofEvaluator exact;
  for (size_t q = 0; q < 5; ++q) {
    const auto query = MakeQuery(fixture, q * 731, 10.0, 25.0, 0.01);
    core::PrqStats seq_stats;
    auto sequential =
        engine.Execute(query, core::PrqOptions(), &exact, &seq_stats);
    ASSERT_TRUE(sequential.ok());
    core::PrqStats exec_stats;
    auto submitted =
        (*executor)->Submit(query, core::PrqOptions(), &exec_stats);
    ASSERT_TRUE(submitted.ok());
    std::vector<index::ObjectId> expected = *sequential, got = *submitted;
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "query " << q;
    EXPECT_EQ(exec_stats.integration_candidates,
              seq_stats.integration_candidates);
    EXPECT_EQ(exec_stats.result_size, seq_stats.result_size);
  }
}

TEST(BatchExecutor, AnswersCarryNoCapacityForRejectedSurvivors) {
  // Phase 3 rejects some survivors; the returned ids must not keep the
  // capacity reserved for them, on the fan-out or the inline path.
  auto fixture = Fixture::Make(4000, 3);
  const core::PrqEngine engine(&fixture.tree);
  auto executor = BatchExecutor::Create(&engine, ExactFactory(), 2);
  ASSERT_TRUE(executor.ok());
  mc::ImhofEvaluator exact;
  size_t with_rejections = 0;
  for (size_t q = 0; q < 6; ++q) {
    const auto query = MakeQuery(fixture, q * 731, 10.0, 25.0, 0.3);
    core::PrqStats stats;
    auto submitted =
        (*executor)->SubmitBounded(query, core::PrqOptions(), &stats);
    ASSERT_TRUE(submitted.ok());
    auto inline_result =
        engine.ExecuteBounded(query, core::PrqOptions(), &exact);
    ASSERT_TRUE(inline_result.ok());
    if (stats.accepted_without_integration + stats.integration_candidates >
        submitted->ids.size()) {
      ++with_rejections;
    }
    EXPECT_EQ(submitted->ids.capacity(), submitted->ids.size()) << q;
    EXPECT_EQ(inline_result->ids.capacity(), inline_result->ids.size()) << q;
  }
  EXPECT_GT(with_rejections, 0u);
}

TEST(BatchExecutor, WorkerExceptionSurfacesAsInternalStatus) {
  auto fixture = Fixture::Make(3000, 6);
  const core::PrqEngine engine(&fixture.tree);
  const auto throwing_factory =
      [](size_t) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<ThrowingEvaluator>();
  };
  auto executor = BatchExecutor::Create(&engine, throwing_factory, 3);
  ASSERT_TRUE(executor.ok());

  const auto query = MakeQuery(fixture, 1500, 10.0, 25.0, 0.01);
  // The error only triggers if Phase 3 actually runs; make sure it does.
  mc::ImhofEvaluator exact;
  core::PrqStats pre_stats;
  ASSERT_TRUE(
      engine.Execute(query, core::PrqOptions(), &exact, &pre_stats).ok());
  ASSERT_GT(pre_stats.integration_candidates, 0u);

  auto result = (*executor)->Submit(query, core::PrqOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("evaluator boom"),
            std::string::npos);
  // The executor (and its pool) must stay serviceable after a failed query.
  auto again = (*executor)->Submit(query, core::PrqOptions());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInternal);
}

/// Throws only for queries carrying a magic delta — the tool for proving
/// one poisoned query cannot leak into the answers of the queries around
/// it on the same executor.
class SelectiveThrowingEvaluator : public mc::ProbabilityEvaluator {
 public:
  static constexpr double kPoisonDelta = 13.0;

  double QualificationProbability(const core::GaussianDistribution& query,
                                  const la::Vector& object,
                                  double delta) override {
    if (delta == kPoisonDelta) throw std::runtime_error("poisoned query");
    return inner_.QualificationProbability(query, object, delta);
  }
  const char* name() const override { return "selective-throwing"; }

 private:
  mc::ImhofEvaluator inner_;
};

TEST(BatchExecutor, WorkerExceptionIsIsolatedToItsQuery) {
  // One query's evaluator exception degrades only its own PrqResult; the
  // queries submitted before and after it on the same executor (same
  // workers, same evaluators) complete exactly.
  auto fixture = Fixture::Make(3000, 8);
  const core::PrqEngine engine(&fixture.tree);
  const auto factory =
      [](size_t) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<SelectiveThrowingEvaluator>();
  };
  auto executor = BatchExecutor::Create(&engine, factory, 3);
  ASSERT_TRUE(executor.ok());

  std::vector<core::PrqQuery> queries;
  for (size_t q = 0; q < 5; ++q) {
    queries.push_back(MakeQuery(fixture, q * 509, 10.0, 25.0, 0.01));
  }
  // The middle query triggers the throw on every Phase-3 evaluation.
  queries[2].delta = SelectiveThrowingEvaluator::kPoisonDelta;

  std::vector<core::PrqResult> results;
  for (const core::PrqQuery& query : queries) {
    auto result = (*executor)->SubmitBounded(query, core::PrqOptions());
    ASSERT_TRUE(result.ok());
    results.push_back(std::move(*result));
  }
  EXPECT_EQ(results[2].status.code(), StatusCode::kInternal);
  EXPECT_NE(results[2].status.message().find("poisoned query"),
            std::string::npos);

  mc::ImhofEvaluator exact;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (q == 2) continue;
    ASSERT_TRUE(results[q].complete()) << "query " << q << " was poisoned";
    auto sequential = engine.Execute(queries[q], core::PrqOptions(), &exact);
    ASSERT_TRUE(sequential.ok());
    std::vector<index::ObjectId> expected = *sequential,
                                 got = results[q].ids;
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "query " << q;
  }
  // The poisoned query's candidates are surfaced, not silently dropped.
  core::PrqStats stats;
  core::PrqEngine::FilterOutcome outcome;
  ASSERT_TRUE(engine
                  .RunFilterPhases(queries[2], core::PrqOptions(), &outcome,
                                   &stats)
                  .ok());
  EXPECT_EQ(results[2].undecided.size(), outcome.survivors.size());
}

TEST(BatchExecutor, SnapshotAggregatesThroughputCounters) {
  auto fixture = Fixture::Make(3000, 7);
  const core::PrqEngine engine(&fixture.tree);
  auto executor = BatchExecutor::Create(&engine, ExactFactory(), 4);
  ASSERT_TRUE(executor.ok());

  uint64_t expected_integrations = 0;
  uint64_t expected_results = 0;
  for (size_t q = 0; q < 10; ++q) {
    const auto query = MakeQuery(fixture, q * 123, 10.0, 25.0, 0.01);
    core::PrqStats stats;
    auto result = (*executor)->Submit(query, core::PrqOptions(), &stats);
    ASSERT_TRUE(result.ok());
    expected_integrations += stats.integration_candidates;
    expected_results += result->size();
  }
  const ExecStats stats = (*executor)->Snapshot();
  EXPECT_EQ(stats.queries, 10u);
  EXPECT_EQ(stats.integrations, expected_integrations);
  EXPECT_EQ(stats.results, expected_results);
  EXPECT_GT(stats.uptime_seconds, 0.0);
  EXPECT_GT(stats.queries_per_second(), 0.0);
  EXPECT_EQ(stats.queue_depth, 0u);
}

}  // namespace
}  // namespace gprq::exec
