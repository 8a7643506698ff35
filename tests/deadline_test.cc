// Deadline/cancellation battery: the QueryControl primitives, the engine's
// graceful-degradation contract (sound partial PrqResults — exact decided
// ids, explicit undecided remainder, never guesses), short-circuiting
// before any Phase-3 machinery is built, mixed-deadline batches where only
// the expired queries degrade, and mid-Phase-3 cancellation.

#include "common/deadline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/engine.h"
#include "exec/batch_executor.h"
#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "workload/generators.h"

namespace gprq::common {
namespace {

// ---- QueryControl primitives. ---------------------------------------------

TEST(Deadline, DefaultIsInfinite) {
  const Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(d.remaining_seconds() > 1e18);
}

TEST(Deadline, ExpiredAndNegativeDeadlinesFireImmediately) {
  EXPECT_TRUE(Deadline::Expired().expired());
  EXPECT_TRUE(Deadline::After(-1.0).expired());
  EXPECT_LE(Deadline::After(-1.0).remaining_seconds(), 0.0);
}

TEST(Deadline, FutureDeadlineHasNotExpired) {
  const Deadline d = Deadline::After(3600.0);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 3500.0);
}

TEST(Cancellation, DefaultTokenIsInert) {
  const CancellationToken token;
  EXPECT_FALSE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, SourceCancelsAllItsTokensStickily) {
  CancellationSource source;
  const CancellationToken token = source.token();
  EXPECT_TRUE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.token().cancelled());  // late tokens see it too
}

TEST(QueryControl, UnboundedOnlyWhenNothingIsSet) {
  EXPECT_TRUE(QueryControl().Unbounded());
  EXPECT_TRUE(QueryControl::Unlimited().Unbounded());
  EXPECT_FALSE(
      QueryControl::WithDeadline(Deadline::After(10.0)).Unbounded());
  CancellationSource source;
  QueryControl control;
  control.cancel = source.token();
  EXPECT_FALSE(control.Unbounded());
  EXPECT_FALSE(control.ShouldStop());
  source.Cancel();
  EXPECT_TRUE(control.ShouldStop());
}

TEST(QueryControl, StopStatusPrefersCancelledOverDeadline) {
  CancellationSource source;
  QueryControl control = QueryControl::WithDeadline(Deadline::Expired());
  EXPECT_EQ(control.StopStatus().code(), StatusCode::kDeadlineExceeded);
  control.cancel = source.token();
  source.Cancel();
  EXPECT_EQ(control.StopStatus().code(), StatusCode::kCancelled);
}

// ---- Engine-level degradation. --------------------------------------------

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
                         double delta = 25.0, double theta = 0.01) {
  auto g = core::GaussianDistribution::Create(
      fixture.dataset.points[center_index % fixture.dataset.size()],
      workload::PaperCovariance2D(10.0));
  EXPECT_TRUE(g.ok());
  return core::PrqQuery{std::move(*g), delta, theta};
}

/// Wraps an exact evaluator and counts every entry point, so tests can
/// prove an expired control never touched Phase-3 machinery.
class CountingEvaluator : public mc::ProbabilityEvaluator {
 public:
  double QualificationProbability(const core::GaussianDistribution& query,
                                  const la::Vector& object,
                                  double delta) override {
    ++probability_calls;
    return inner_.QualificationProbability(query, object, delta);
  }
  std::shared_ptr<const mc::SamplePool> MakeSamplePool(
      const core::GaussianDistribution& query,
      mc::PoolVariant variant) override {
    ++pool_calls;
    return inner_.MakeSamplePool(query, variant);
  }
  const char* name() const override { return "counting"; }

  size_t probability_calls = 0;
  size_t pool_calls = 0;

 private:
  mc::ImhofEvaluator inner_;
};

/// Cancels its source after `k` probability evaluations — the deterministic
/// way to make a control fire mid-Phase-3, between two decisions.
class CancelAfterK : public mc::ProbabilityEvaluator {
 public:
  CancelAfterK(CancellationSource* source, size_t k)
      : source_(source), k_(k) {}

  double QualificationProbability(const core::GaussianDistribution& query,
                                  const la::Vector& object,
                                  double delta) override {
    const double p = inner_.QualificationProbability(query, object, delta);
    if (++calls_ == k_) source_->Cancel();
    return p;
  }
  const char* name() const override { return "cancel-after-k"; }

 private:
  mc::ImhofEvaluator inner_;
  CancellationSource* source_;
  size_t k_;
  size_t calls_ = 0;
};

std::set<index::ObjectId> AsSet(const std::vector<index::ObjectId>& ids) {
  return {ids.begin(), ids.end()};
}

TEST(ExecuteBounded, UnlimitedControlMatchesExecute) {
  const auto fixture = Fixture::Make(3000, 11);
  const core::PrqEngine engine(&fixture.tree);
  const auto query = MakeQuery(fixture, 700);
  mc::ImhofEvaluator exact;

  auto complete = engine.Execute(query, core::PrqOptions(), &exact);
  ASSERT_TRUE(complete.ok());
  auto bounded =
      engine.ExecuteBounded(query, core::PrqOptions(), &exact);
  ASSERT_TRUE(bounded.ok());
  EXPECT_TRUE(bounded->complete());
  EXPECT_TRUE(bounded->undecided.empty());
  EXPECT_EQ(AsSet(bounded->ids), AsSet(*complete));
}

TEST(ExecuteBounded, ExpiredDeadlineShortCircuitsBeforePhase3Machinery) {
  const auto fixture = Fixture::Make(2000, 12);
  const core::PrqEngine engine(&fixture.tree);
  const auto query = MakeQuery(fixture, 100);

  CountingEvaluator counting;
  core::PrqOptions options;
  options.control = QueryControl::WithDeadline(Deadline::Expired());
  core::PrqStats stats;
  auto result = engine.ExecuteBounded(query, options, &counting, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(result->complete());
  // Fired before the index search: nothing was identified, so there is
  // nothing to report — and no pool was built, no probability evaluated.
  EXPECT_TRUE(result->ids.empty());
  EXPECT_TRUE(result->undecided.empty());
  EXPECT_EQ(counting.probability_calls, 0u);
  EXPECT_EQ(counting.pool_calls, 0u);
  EXPECT_EQ(stats.index_candidates, 0u);
}

TEST(ExecuteBounded, CompleteAnswerApisFailInsteadOfDroppingUndecided) {
  const auto fixture = Fixture::Make(2000, 13);
  const core::PrqEngine engine(&fixture.tree);
  const auto query = MakeQuery(fixture, 100);
  mc::ImhofEvaluator exact;

  core::PrqOptions options;
  options.control = QueryControl::WithDeadline(Deadline::Expired());
  auto execute = engine.Execute(query, options, &exact);
  ASSERT_FALSE(execute.ok());
  EXPECT_EQ(execute.status().code(), StatusCode::kDeadlineExceeded);

  auto executor = exec::BatchExecutor::Create(
      &engine,
      [](size_t) -> std::unique_ptr<mc::ProbabilityEvaluator> {
        return std::make_unique<mc::ImhofEvaluator>();
      },
      2);
  ASSERT_TRUE(executor.ok());
  auto parallel = (*executor)->Submit(query, options);
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ExecuteBounded, CancellationMidPhase3YieldsSoundPartialResult) {
  const auto fixture = Fixture::Make(4000, 14);
  const core::PrqEngine engine(&fixture.tree);
  const auto query = MakeQuery(fixture, 1500);

  // Reference: the complete answer and the Phase-3 candidate count.
  mc::ImhofEvaluator exact;
  core::PrqStats full_stats;
  auto full = engine.Execute(query, core::PrqOptions(), &exact, &full_stats);
  ASSERT_TRUE(full.ok());
  const size_t candidates = full_stats.integration_candidates;
  ASSERT_GT(candidates, 10u) << "workload too easy to interrupt";

  const size_t k = 5;
  CancellationSource source;
  CancelAfterK cancelling(&source, k);
  core::PrqOptions options;
  options.control.cancel = source.token();
  core::PrqStats stats;
  auto partial = engine.ExecuteBounded(query, options, &cancelling, &stats);
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->status.code(), StatusCode::kCancelled);

  // Sound partial answer: exactly the first k candidates were decided (the
  // cancel is observed between decisions), every decided id agrees with the
  // unbounded run, and the rest are surfaced — not guessed, not dropped.
  EXPECT_EQ(partial->undecided.size(), candidates - k);
  const auto full_set = AsSet(*full);
  const auto ids = AsSet(partial->ids);
  const auto undecided = AsSet(partial->undecided);
  for (const auto id : ids) {
    EXPECT_TRUE(full_set.count(id)) << "bounded run invented id " << id;
    EXPECT_FALSE(undecided.count(id)) << "id both decided and undecided";
  }
  for (const auto id : full_set) {
    EXPECT_TRUE(ids.count(id) || undecided.count(id))
        << "qualifier " << id << " silently dropped";
  }
}

// ---- Executor-level degradation. ------------------------------------------

core::PrqEngine::EvaluatorFactory McFactory() {
  return [](size_t worker) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::MonteCarloEvaluator>(
        mc::MonteCarloOptions{.samples = 20000, .seed = 1000 + worker});
  };
}

TEST(SubmitBounded, ExpiredControlDegradesAndExecutorStaysServiceable) {
  const auto fixture = Fixture::Make(2000, 15);
  const core::PrqEngine engine(&fixture.tree);
  auto executor = exec::BatchExecutor::Create(&engine, McFactory(), 2);
  ASSERT_TRUE(executor.ok());
  const auto query = MakeQuery(fixture, 300);

  core::PrqOptions expired;
  expired.control = QueryControl::WithDeadline(Deadline::Expired());
  auto degraded = (*executor)->SubmitBounded(query, expired);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(degraded->ids.empty());

  // The same executor still answers unbounded queries completely.
  auto complete = (*executor)->SubmitBounded(query, core::PrqOptions());
  ASSERT_TRUE(complete.ok());
  EXPECT_TRUE(complete->complete());
}

TEST(SubmitBounded, MixedDeadlinesDegradeOnlyTheExpiredQueries) {
  const auto fixture = Fixture::Make(3000, 16);
  const core::PrqEngine engine(&fixture.tree);

  std::vector<core::PrqQuery> queries;
  for (size_t q = 0; q < 6; ++q) {
    queries.push_back(MakeQuery(fixture, q * 433, 25.0, 0.03));
  }

  // Reference: the same queries, same executor configuration, no deadlines.
  auto reference_exec = exec::BatchExecutor::Create(&engine, McFactory(), 4);
  ASSERT_TRUE(reference_exec.ok());
  std::vector<std::vector<index::ObjectId>> reference;
  size_t total = 0;
  for (const core::PrqQuery& query : queries) {
    auto result = (*reference_exec)->Submit(query, core::PrqOptions());
    ASSERT_TRUE(result.ok());
    total += result->size();
    reference.push_back(std::move(*result));
  }
  ASSERT_GT(total, 0u) << "degenerate workload decides nothing";

  // Every other query expired, interleaved on one executor.
  auto executor = exec::BatchExecutor::Create(&engine, McFactory(), 4);
  ASSERT_TRUE(executor.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    core::PrqOptions options;
    if (q % 2 == 1) {
      options.control = QueryControl::WithDeadline(Deadline::Expired());
    }
    auto mixed = (*executor)->SubmitBounded(queries[q], options);
    ASSERT_TRUE(mixed.ok());
    if (q % 2 == 1) {
      EXPECT_EQ(mixed->status.code(), StatusCode::kDeadlineExceeded)
          << "query " << q;
      EXPECT_TRUE(mixed->ids.empty()) << "query " << q;
    } else {
      // Bit-identical to the no-deadline run: expired queries on the same
      // executor must not perturb the sampling of healthy ones.
      EXPECT_TRUE(mixed->complete()) << "query " << q;
      std::vector<index::ObjectId> got = mixed->ids;
      std::vector<index::ObjectId> expected = reference[q];
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(got, expected) << "query " << q;
    }
  }
}

}  // namespace
}  // namespace gprq::common
