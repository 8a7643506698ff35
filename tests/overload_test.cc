// Overload-protection battery: the OverloadPolicy spec parser, the
// LoadShedder's EWMA + hysteresis state machine under square-wave load,
// admission-control rejection semantics (cost budget, bounded queue,
// priorities — every rejection is ResourceExhausted with a retry-after
// hint, never a hang), brownout's differential exactness guarantee
// (returned ids match the unloaded run bit-for-bit; the shortfall is
// explicitly undecided), the circuit breaker's trip / fast-fail /
// half-open recovery cycle against failpoint-injected page faults, and a
// multi-threaded governed-submission hammer.

#include "exec/overload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "core/engine.h"
#include "exec/batch_executor.h"
#include "exec/worker_pool.h"
#include "fault/failpoint.h"
#include "index/paged_tree.h"
#include "index/str_bulk_load.h"
#include "mc/adaptive_monte_carlo.h"
#include "mc/monte_carlo.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace gprq::exec {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name)->Value();
}

std::set<index::ObjectId> AsSet(const std::vector<index::ObjectId>& ids) {
  return {ids.begin(), ids.end()};
}

// ---- OverloadPolicy spec parsing. -----------------------------------------

TEST(OverloadPolicyTest, DefaultsValidate) {
  EXPECT_TRUE(OverloadPolicy().Validate().ok());
}

TEST(OverloadPolicyTest, FromSpecParsesEveryKey) {
  auto policy = OverloadPolicy::FromSpec(
      "max_inflight_cost=500; max_queue_depth=3; max_queue_wait_ms=20;"
      "ewma_alpha=0.5; brownout_watermark_ms=5; shed_watermark_ms=40;"
      "hysteresis=0.25; brownout_deadline_ms=50; brownout_samples=1024;"
      "retry_after_ms=10; min_brownout_priority=1; min_shed_priority=2");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_DOUBLE_EQ(policy->max_inflight_cost, 500.0);
  EXPECT_EQ(policy->max_queue_depth, 3u);
  EXPECT_DOUBLE_EQ(policy->max_queue_wait_seconds, 0.020);
  EXPECT_DOUBLE_EQ(policy->ewma_alpha, 0.5);
  EXPECT_DOUBLE_EQ(policy->brownout_watermark_seconds, 0.005);
  EXPECT_DOUBLE_EQ(policy->shed_watermark_seconds, 0.040);
  EXPECT_DOUBLE_EQ(policy->hysteresis_ratio, 0.25);
  EXPECT_DOUBLE_EQ(policy->brownout_deadline_seconds, 0.050);
  EXPECT_EQ(policy->brownout_sample_budget, 1024u);
  EXPECT_DOUBLE_EQ(policy->retry_after_seconds, 0.010);
  EXPECT_EQ(policy->min_brownout_priority, 1);
  EXPECT_EQ(policy->min_shed_priority, 2);
}

TEST(OverloadPolicyTest, EmptySpecYieldsDefaults) {
  auto policy = OverloadPolicy::FromSpec("");
  ASSERT_TRUE(policy.ok());
  EXPECT_DOUBLE_EQ(policy->max_inflight_cost,
                   OverloadPolicy().max_inflight_cost);
}

TEST(OverloadPolicyTest, FromSpecRejectsUnknownKeysAndInvalidValues) {
  EXPECT_FALSE(OverloadPolicy::FromSpec("no_such_knob=1").ok());
  EXPECT_FALSE(OverloadPolicy::FromSpec("max_inflight_cost").ok());
  EXPECT_FALSE(OverloadPolicy::FromSpec("ewma_alpha=1.5").ok());
  EXPECT_FALSE(OverloadPolicy::FromSpec("max_inflight_cost=0").ok());
  // Watermarks must be ordered; priorities too.
  EXPECT_FALSE(
      OverloadPolicy::FromSpec("brownout_watermark_ms=50;shed_watermark_ms=5")
          .ok());
  EXPECT_FALSE(
      OverloadPolicy::FromSpec("min_brownout_priority=2;min_shed_priority=1")
          .ok());
}

TEST(OverloadPolicyTest, RetryAfterSecondsParsesTheHint) {
  EXPECT_DOUBLE_EQ(
      RetryAfterSeconds(Status::ResourceExhausted("x; retry_after_ms=75")),
      0.075);
  EXPECT_DOUBLE_EQ(RetryAfterSeconds(Status::ResourceExhausted("no hint"),
                                     0.2),
                   0.2);
}

TEST(OverloadPolicyTest, RetryAfterSecondsRejectsMalformedHints) {
  const double fallback = 0.25;
  const auto parse = [&](const char* message) {
    return RetryAfterSeconds(Status::ResourceExhausted(message), fallback);
  };
  // Grammar edges: the tag with no digits, non-digit garbage, a sign, or
  // whitespace after '=' must all yield the fallback — never 0, never a
  // partial parse of what follows.
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms="), fallback);
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms=abc"), fallback);
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms=-50"), fallback);
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms= 50"), fallback);
  // A zero hint would spin-retry; refuse it.
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms=0"), fallback);
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms=000"), fallback);
  // Values past the 1-hour sanity cap (including would-be overflows that
  // strtol would saturate) are bogus.
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms=3600001"), fallback);
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms=99999999"), fallback);
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms=18446744073709551617"),
                   fallback);
  // Valid hints still parse — at the boundaries and mid-message.
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms=1"), 0.001);
  EXPECT_DOUBLE_EQ(parse("shed; retry_after_ms=3600000"), 3600.0);
  EXPECT_DOUBLE_EQ(parse("retry_after_ms=250; queue full"), 0.25);
  // Digits terminate at the first non-digit; the prefix alone counts.
  EXPECT_DOUBLE_EQ(parse("retry_after_ms=75ms"), 0.075);
}

// ---- LoadShedder hysteresis. ----------------------------------------------

OverloadPolicy ShedderPolicy() {
  OverloadPolicy policy;
  policy.ewma_alpha = 1.0;  // EWMA == last observation: exact transitions
  policy.brownout_watermark_seconds = 0.010;
  policy.shed_watermark_seconds = 0.050;
  policy.hysteresis_ratio = 0.5;
  return policy;
}

TEST(LoadShedderTest, WalksTheFullStateMachine) {
  LoadShedder shedder(ShedderPolicy());
  EXPECT_EQ(shedder.state(), OverloadState::kAccept);
  EXPECT_EQ(shedder.Observe(0.005), OverloadState::kAccept);
  EXPECT_EQ(shedder.Observe(0.020), OverloadState::kBrownout);
  // Below the watermark but above hysteresis × watermark: stays put.
  EXPECT_EQ(shedder.Observe(0.008), OverloadState::kBrownout);
  EXPECT_EQ(shedder.Observe(0.004), OverloadState::kAccept);
  // Straight past both watermarks: Accept -> Shed in one observation.
  EXPECT_EQ(shedder.Observe(0.060), OverloadState::kShed);
  // Leaving Shed requires < 0.5 × 50 ms; 30 ms is not enough.
  EXPECT_EQ(shedder.Observe(0.030), OverloadState::kShed);
  // 10 ms clears Shed's exit but not Brownout's (>= 5 ms): lands in
  // Brownout, not Accept.
  EXPECT_EQ(shedder.Observe(0.010), OverloadState::kBrownout);
  EXPECT_EQ(shedder.Observe(0.004), OverloadState::kAccept);
  EXPECT_EQ(shedder.transitions(), 5u);
}

TEST(LoadShedderTest, SquareWaveAtTheWatermarkDoesNotFlap) {
  // The signal oscillates across the brownout watermark (11 ms / 6 ms).
  // Without hysteresis that is a transition per observation; with the
  // 0.5 ratio the exit threshold is 5 ms, so the shedder enters Brownout
  // once and stays.
  LoadShedder shedder(ShedderPolicy());
  for (int cycle = 0; cycle < 50; ++cycle) {
    shedder.Observe(0.011);
    shedder.Observe(0.006);
  }
  EXPECT_EQ(shedder.state(), OverloadState::kBrownout);
  EXPECT_EQ(shedder.transitions(), 1u);
}

TEST(LoadShedderTest, EwmaSmoothsASingleSpike) {
  OverloadPolicy policy = ShedderPolicy();
  policy.ewma_alpha = 0.1;  // heavy smoothing
  LoadShedder shedder(policy);
  for (int i = 0; i < 20; ++i) shedder.Observe(0.001);
  // One 60 ms outlier moves the EWMA by ~6 ms — no state change.
  EXPECT_EQ(shedder.Observe(0.060), OverloadState::kAccept);
  // A sustained 60 ms plateau does cross both watermarks.
  OverloadState state = shedder.state();
  for (int i = 0; i < 60; ++i) state = shedder.Observe(0.060);
  EXPECT_EQ(state, OverloadState::kShed);
}

// ---- Admission control. ---------------------------------------------------

TEST(OverloadControllerTest, QueueFullRejectsImmediatelyWithRetryAfter) {
  OverloadPolicy policy;
  policy.max_inflight_cost = 10.0;
  policy.max_queue_depth = 0;  // no waiting room: reject at the door
  policy.retry_after_seconds = 0.123;
  ASSERT_TRUE(policy.Validate().ok());
  OverloadController controller(policy);

  AdmissionTicket first =
      controller.Admit(10.0, core::kPriorityNormal,
                       common::QueryControl::Unlimited());
  ASSERT_TRUE(first.admitted);
  EXPECT_DOUBLE_EQ(controller.inflight_cost(), 10.0);

  AdmissionTicket second =
      controller.Admit(1.0, core::kPriorityNormal,
                       common::QueryControl::Unlimited());
  EXPECT_FALSE(second.admitted);
  EXPECT_EQ(second.rejection.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.rejection.message().find("retry_after_ms=123"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(RetryAfterSeconds(second.rejection), 0.123);

  controller.Release(first);
  EXPECT_DOUBLE_EQ(controller.inflight_cost(), 0.0);
  AdmissionTicket third =
      controller.Admit(1.0, core::kPriorityNormal,
                       common::QueryControl::Unlimited());
  EXPECT_TRUE(third.admitted);
  controller.Release(third);
}

TEST(OverloadControllerTest, BoundedQueueTimesOutAndFeedsTheShedder) {
  OverloadPolicy policy;
  policy.max_inflight_cost = 1.0;
  policy.max_queue_depth = 4;
  policy.max_queue_wait_seconds = 0.02;
  ASSERT_TRUE(policy.Validate().ok());
  OverloadController controller(policy);

  AdmissionTicket holder =
      controller.Admit(1.0, core::kPriorityNormal,
                       common::QueryControl::Unlimited());
  ASSERT_TRUE(holder.admitted);

  AdmissionTicket waited =
      controller.Admit(1.0, core::kPriorityNormal,
                       common::QueryControl::Unlimited());
  EXPECT_FALSE(waited.admitted);
  EXPECT_EQ(waited.rejection.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(waited.queue_wait_seconds, policy.max_queue_wait_seconds * 0.9);
  // The failed wait is still a load observation.
  EXPECT_GT(controller.smoothed_wait_seconds(), 0.0);
  controller.Release(holder);
}

TEST(OverloadControllerTest, QueuedQueryHonorsItsOwnDeadline) {
  OverloadPolicy policy;
  policy.max_inflight_cost = 1.0;
  policy.max_queue_wait_seconds = 10.0;  // the queue itself would wait long
  ASSERT_TRUE(policy.Validate().ok());
  OverloadController controller(policy);

  AdmissionTicket holder =
      controller.Admit(1.0, core::kPriorityNormal,
                       common::QueryControl::Unlimited());
  ASSERT_TRUE(holder.admitted);

  const auto start = std::chrono::steady_clock::now();
  AdmissionTicket expired = controller.Admit(
      1.0, core::kPriorityNormal,
      common::QueryControl::WithDeadline(common::Deadline::After(0.015)));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(expired.admitted);
  EXPECT_EQ(expired.rejection.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 1.0) << "queued query was stranded past its deadline";
  controller.Release(holder);
}

TEST(OverloadControllerTest, PriorityGatesFollowTheState) {
  // Tiny watermarks + alpha=1 let one observed wait drive the state.
  OverloadPolicy policy;
  policy.max_inflight_cost = 1.0;
  policy.max_queue_depth = 4;
  policy.max_queue_wait_seconds = 0.012;
  policy.ewma_alpha = 1.0;
  policy.brownout_watermark_seconds = 0.010;
  policy.shed_watermark_seconds = 0.010;  // brownout and shed together
  ASSERT_TRUE(policy.Validate().ok());
  OverloadController controller(policy);

  AdmissionTicket holder =
      controller.Admit(1.0, core::kPriorityCritical,
                       common::QueryControl::Unlimited());
  ASSERT_TRUE(holder.admitted);
  // This wait times out after 12 ms >= both watermarks: state -> Shed.
  AdmissionTicket timed_out =
      controller.Admit(1.0, core::kPriorityCritical,
                       common::QueryControl::Unlimited());
  ASSERT_FALSE(timed_out.admitted);
  ASSERT_EQ(controller.state(), OverloadState::kShed);

  // Shed admits only critical priority while the system is still busy
  // (the holder is in flight, so the idle-reset does not fire).
  AdmissionTicket normal =
      controller.Admit(1.0, core::kPriorityNormal,
                       common::QueryControl::Unlimited());
  EXPECT_FALSE(normal.admitted);
  EXPECT_EQ(normal.rejection.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(normal.rejection.message().find("load shed"), std::string::npos);
  EXPECT_EQ(controller.state(), OverloadState::kShed);
  controller.Release(holder);

  // Once the controller is fully idle the backpressure signal is provably
  // zero: the next arrival observes it and (alpha = 1) recovers the state,
  // so a drained spike cannot pin the gate shut forever.
  AdmissionTicket recovered =
      controller.Admit(1.0, core::kPriorityNormal,
                       common::QueryControl::Unlimited());
  EXPECT_TRUE(recovered.admitted);
  EXPECT_EQ(controller.state(), OverloadState::kAccept);
  controller.Release(recovered);
}

TEST(OverloadControllerTest, RefineFreesOverestimatedBudget) {
  OverloadPolicy policy;
  policy.max_inflight_cost = 100.0;
  ASSERT_TRUE(policy.Validate().ok());
  OverloadController controller(policy);

  AdmissionTicket ticket =
      controller.Admit(80.0, core::kPriorityNormal,
                       common::QueryControl::Unlimited());
  ASSERT_TRUE(ticket.admitted);
  EXPECT_DOUBLE_EQ(controller.inflight_cost(), 80.0);
  controller.Refine(&ticket, 5.0);
  EXPECT_DOUBLE_EQ(controller.inflight_cost(), 5.0);
  EXPECT_DOUBLE_EQ(ticket.cost, 5.0);
  controller.Release(ticket);
  EXPECT_DOUBLE_EQ(controller.inflight_cost(), 0.0);
}

TEST(OverloadControllerTest, ApplyBrownoutTightensOnlyLooserBudgets) {
  OverloadPolicy policy;
  policy.brownout_deadline_seconds = 0.1;
  policy.brownout_sample_budget = 4096;
  ASSERT_TRUE(policy.Validate().ok());
  OverloadController controller(policy);

  core::PrqOptions unbounded;
  controller.ApplyBrownout(&unbounded);
  EXPECT_FALSE(unbounded.control.deadline.is_infinite());
  EXPECT_LE(unbounded.control.deadline.remaining_seconds(), 0.1);
  EXPECT_EQ(unbounded.control.sample_budget, 4096u);

  // A query already promising less keeps its own budgets.
  core::PrqOptions tight;
  tight.control.deadline = common::Deadline::After(0.01);
  tight.control.sample_budget = 512;
  controller.ApplyBrownout(&tight);
  EXPECT_LE(tight.control.deadline.remaining_seconds(), 0.01);
  EXPECT_EQ(tight.control.sample_budget, 512u);
}

// ---- Engine fixture for the executor-level tests. -------------------------

struct EngineFixture {
  workload::Dataset dataset;
  index::RStarTree tree;

  /// A line of points marching away from (500, 500) in 0.5-unit steps,
  /// plus a far clump the filters prune. With Σ = 100·I and δ chosen so
  /// the at-mean qualification probability is ~0.9, the qualification
  /// probability slides continuously from 0.9 to ~0 along the line — by
  /// construction some candidates sit close enough to θ = 0.5 that one
  /// Wilson block cannot separate them (the brownout-undecided case)
  /// while the full pool can.
  static EngineFixture Make() {
    workload::Dataset dataset;
    dataset.dim = 2;
    for (int i = 0; i < 100; ++i) {
      dataset.points.push_back(la::Vector{500.0 + 0.5 * i, 500.0});
    }
    for (int i = 0; i < 50; ++i) {
      dataset.points.push_back(
          la::Vector{900.0 + 0.5 * i, 900.0});
    }
    auto tree = index::StrBulkLoader::Load(2, dataset.points);
    EXPECT_TRUE(tree.ok());
    return EngineFixture{std::move(dataset), std::move(*tree)};
  }

  core::PrqQuery AmbiguousQuery() const {
    auto g = core::GaussianDistribution::Create(
        la::Vector{500.0, 500.0}, la::Matrix::Identity(2) * 100.0);
    EXPECT_TRUE(g.ok());
    // delta² = 2σ²·ln(10) makes Pr(‖x − mean‖ <= delta) ≈ 0.9.
    return core::PrqQuery{std::move(*g), 21.46, 0.5};
  }
};

core::PrqEngine::EvaluatorFactory AdaptiveFactory(uint64_t max_samples) {
  return [max_samples](size_t worker)
             -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::AdaptiveMonteCarloEvaluator>(
        mc::AdaptiveMonteCarloOptions{.max_samples = max_samples,
                                      .seed = 7 + worker});
  };
}

// ---- Brownout differential exactness. -------------------------------------

TEST(BrownoutTest, CappedAnswersMatchTheUnloadedRunOrComeBackUndecided) {
  const auto fixture = EngineFixture::Make();
  const core::PrqEngine engine(&fixture.tree);
  const auto query = fixture.AmbiguousQuery();

  // Unloaded reference: same factory seeds, so the shared per-query sample
  // pool is bit-identical across both executors.
  auto full_exec =
      exec::BatchExecutor::Create(&engine, AdaptiveFactory(100000), 2);
  ASSERT_TRUE(full_exec.ok());
  auto full = (*full_exec)->SubmitBounded(query, core::PrqOptions());
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->complete());
  ASSERT_FALSE(full->ids.empty());

  // Browned-out run: one Wilson block (4096 samples) per candidate.
  auto capped_exec =
      exec::BatchExecutor::Create(&engine, AdaptiveFactory(100000), 2);
  ASSERT_TRUE(capped_exec.ok());
  core::PrqOptions capped_options;
  capped_options.control.sample_budget = 4096;
  const uint64_t exhausted_before =
      CounterValue("gprq.overload.sample_budget_exhausted");
  core::PrqStats stats;
  auto capped = (*capped_exec)->SubmitBounded(query, capped_options, &stats);
  ASSERT_TRUE(capped.ok());

  // The construction guarantees candidates within one Wilson half-width of
  // θ: the budget must actually have bitten.
  ASSERT_FALSE(capped->undecided.empty());
  EXPECT_EQ(capped->status.code(), StatusCode::kResourceExhausted);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(CounterValue("gprq.overload.sample_budget_exhausted"),
              exhausted_before);
  }

  // Differential exactness: every id the capped run returns is in the full
  // answer (never a guess), and everything it dropped is explicitly
  // undecided — the brownout answer shrinks, it never lies.
  const auto full_ids = AsSet(full->ids);
  const auto capped_ids = AsSet(capped->ids);
  const auto undecided = AsSet(capped->undecided);
  for (const auto id : capped_ids) {
    EXPECT_TRUE(full_ids.count(id)) << "capped run invented id " << id;
    EXPECT_FALSE(undecided.count(id)) << "id both decided and undecided";
  }
  for (const auto id : full_ids) {
    EXPECT_TRUE(capped_ids.count(id) || undecided.count(id))
        << "qualifier " << id << " silently dropped under brownout";
  }
}

core::PrqEngine::EvaluatorFactory FixedBudgetFactory(uint64_t samples) {
  return [samples](size_t worker)
             -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::MonteCarloEvaluator>(
        mc::MonteCarloOptions{.samples = samples, .seed = 7 + worker});
  };
}

/// The fixed-budget evaluator's brownout caps how many samples each
/// candidate's exact pruned count may examine. A candidate that settles
/// within the cap gets the unloaded answer; the rest are undecided.
TEST(BrownoutTest, FixedBudgetCappedAnswersMatchTheUnloadedRun) {
  const auto fixture = EngineFixture::Make();
  const core::PrqEngine engine(&fixture.tree);
  // θ = 0.1 on the fixture's line: θ·n = 10,000 hits, so candidates deep
  // inside settle well within the cap, and the ones near θ, whose δ-disks
  // reach far more samples than that, cannot.
  auto query = fixture.AmbiguousQuery();
  query.theta = 0.1;

  auto full_exec =
      exec::BatchExecutor::Create(&engine, FixedBudgetFactory(100000), 2);
  ASSERT_TRUE(full_exec.ok());
  auto full = (*full_exec)->SubmitBounded(query, core::PrqOptions());
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->complete());
  ASSERT_FALSE(full->ids.empty());

  auto capped_exec =
      exec::BatchExecutor::Create(&engine, FixedBudgetFactory(100000), 2);
  ASSERT_TRUE(capped_exec.ok());
  core::PrqOptions capped_options;
  capped_options.control.sample_budget = 12000;
  const uint64_t exhausted_before =
      CounterValue("gprq.overload.sample_budget_exhausted");
  auto capped = (*capped_exec)->SubmitBounded(query, capped_options);
  ASSERT_TRUE(capped.ok());
  ASSERT_FALSE(capped->ids.empty());
  ASSERT_FALSE(capped->undecided.empty());
  EXPECT_EQ(capped->status.code(), StatusCode::kResourceExhausted);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(CounterValue("gprq.overload.sample_budget_exhausted"),
              exhausted_before);
  }

  // Every decided candidate agrees with the unloaded run: included ids are
  // in the full answer, and every full-answer id the capped run did not
  // include is undecided (so none was decided excluded).
  const auto full_ids = AsSet(full->ids);
  const auto capped_ids = AsSet(capped->ids);
  const auto undecided = AsSet(capped->undecided);
  for (const auto id : capped_ids) {
    EXPECT_TRUE(full_ids.count(id)) << "capped run invented id " << id;
    EXPECT_FALSE(undecided.count(id)) << "id both decided and undecided";
  }
  for (const auto id : full_ids) {
    EXPECT_TRUE(capped_ids.count(id) || undecided.count(id))
        << "qualifier " << id << " decided excluded under brownout";
  }
}

// ---- Governed submission end to end. --------------------------------------

TEST(GovernedSubmitTest, UngovernedExecutorIsUnchanged) {
  const auto fixture = EngineFixture::Make();
  const core::PrqEngine engine(&fixture.tree);
  auto executor =
      exec::BatchExecutor::Create(&engine, AdaptiveFactory(50000), 2);
  ASSERT_TRUE(executor.ok());
  EXPECT_EQ((*executor)->overload(), nullptr);
  auto result =
      (*executor)->SubmitBounded(fixture.AmbiguousQuery(),
                                 core::PrqOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->complete());
}

TEST(GovernedSubmitTest, ShedQueryDoesNoWorkAndCarriesRetryAfter) {
  const auto fixture = EngineFixture::Make();
  const core::PrqEngine engine(&fixture.tree);

  OverloadPolicy policy;
  policy.max_inflight_cost = 1.0;
  policy.max_queue_depth = 0;
  ASSERT_TRUE(policy.Validate().ok());
  auto executor =
      exec::BatchExecutor::Create(&engine, AdaptiveFactory(50000), 2, policy);
  ASSERT_TRUE(executor.ok());
  ASSERT_NE((*executor)->overload(), nullptr);

  // Occupy the whole cost budget by hand, then submit.
  OverloadController* controller = (*executor)->overload();
  AdmissionTicket holder = controller->Admit(
      1.0, core::kPriorityCritical, common::QueryControl::Unlimited());
  ASSERT_TRUE(holder.admitted);

  core::PrqStats stats;
  obs::QueryTrace trace;
  auto rejected = (*executor)->SubmitBounded(
      fixture.AmbiguousQuery(), core::PrqOptions(), &stats, &trace);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rejected->ids.empty());
  EXPECT_TRUE(rejected->undecided.empty());
  EXPECT_TRUE(trace.shed);
  EXPECT_FALSE(trace.browned_out);
  EXPECT_EQ(stats.index_candidates, 0u) << "shed query still did Phase 1";
  EXPECT_GT(RetryAfterSeconds(rejected->status), 0.0);

  controller->Release(holder);
  auto admitted = (*executor)->SubmitBounded(fixture.AmbiguousQuery(),
                                             core::PrqOptions());
  ASSERT_TRUE(admitted.ok());
  EXPECT_TRUE(admitted->complete());
}

TEST(GovernedSubmitTest, ConcurrentClientsNeverHangOrCrash) {
  const auto fixture = EngineFixture::Make();
  const core::PrqEngine engine(&fixture.tree);

  OverloadPolicy policy;
  policy.max_inflight_cost = 1.0;  // one query at a time
  policy.max_queue_depth = 2;
  policy.max_queue_wait_seconds = 0.005;
  policy.ewma_alpha = 1.0;
  policy.brownout_watermark_seconds = 0.002;
  policy.shed_watermark_seconds = 0.004;
  ASSERT_TRUE(policy.Validate().ok());
  auto executor =
      exec::BatchExecutor::Create(&engine, AdaptiveFactory(50000), 2, policy);
  ASSERT_TRUE(executor.ok());

  // Reference answer for completeness checks.
  auto reference = (*executor)->SubmitBounded(fixture.AmbiguousQuery(),
                                              core::PrqOptions());
  ASSERT_TRUE(reference.ok());
  const auto reference_ids = AsSet(reference->ids);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 8;
  std::atomic<int> completed{0};
  std::atomic<int> degraded{0};
  std::atomic<int> rejected{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        core::PrqOptions options;
        options.priority =
            (c % 2 == 0) ? core::kPriorityCritical : core::kPriorityNormal;
        auto result = (*executor)->SubmitBounded(fixture.AmbiguousQuery(),
                                                 options);
        if (!result.ok()) {
          ++unexpected;
          continue;
        }
        switch (result->status.code()) {
          case StatusCode::kOk:
            // A complete answer must be exactly the reference.
            if (AsSet(result->ids) != reference_ids ||
                !result->undecided.empty()) {
              ++unexpected;
            } else {
              ++completed;
            }
            break;
          case StatusCode::kResourceExhausted:
            if (result->ids.empty() && result->undecided.empty()) {
              ++rejected;  // shed at admission
            } else {
              ++degraded;  // browned out mid-flight
            }
            break;
          case StatusCode::kDeadlineExceeded:
            ++degraded;
            break;
          default:
            ++unexpected;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(completed + degraded + rejected, kClients * kQueriesPerClient);
  // With a one-query budget and four clients, contention must have caused
  // at least one rejection, and someone must have finished.
  EXPECT_GT(completed.load(), 0);
  EXPECT_GT(rejected.load() + degraded.load(), 0);
}

// ---- Circuit breaker. -----------------------------------------------------

TEST(CircuitBreakerTest, TripsFastFailsAndRecoversThroughHalfOpen) {
  common::CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_seconds = 0.03;
  options.half_open_probes = 1;
  ASSERT_TRUE(options.Validate().ok());
  common::CircuitBreaker breaker(options, "test dependency");
  using State = common::CircuitBreaker::State;

  // Success resets the consecutive-failure count.
  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  EXPECT_EQ(breaker.state(), State::kClosed);

  // Three consecutive failures trip it.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);

  const Status rejected = breaker.Allow();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.message().find("test dependency"), std::string::npos);
  EXPECT_NE(rejected.message().find("retry_after_ms="), std::string::npos);

  // After open_seconds one probe is let through; a concurrent second call
  // is still rejected while the probe is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(breaker.Allow().ok());
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow().ok());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), State::kClosed);
  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordSuccess();

  // A failed probe slams it shut again.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow().ok());
    breaker.RecordFailure();
  }
  ASSERT_EQ(breaker.state(), State::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), State::kOpen);
  // Every transition to Open counts: two from Closed, one failed probe.
  EXPECT_EQ(breaker.trips(), 3u);
}

TEST(CircuitBreakerTest, ProtectsPagedTreeReadsFromInjectedFaults) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with GPRQ_FAULT=OFF";
  fault::FailpointRegistry::Global().DisarmAll();

  const std::string path = ::testing::TempDir() + "/overload_breaker.pages";
  const geom::Rect extent(la::Vector{0.0, 0.0}, la::Vector{1000.0, 1000.0});
  auto dataset = workload::GenerateClustered(800, extent, 8, 40.0, 31);
  index::RStarTreeOptions tree_options;
  tree_options.max_entries = 28;
  auto built = index::StrBulkLoader::Load(2, dataset.points, tree_options);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(index::TreeSnapshot::Write(*built, path, 1024).ok());
  auto paged = index::PagedRStarTree::Open(path, {.page_size = 1024});
  ASSERT_TRUE(paged.ok());

  common::CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 2;
  breaker_options.open_seconds = 0.03;
  common::CircuitBreaker breaker(breaker_options, "paged-tree reads");
  paged->set_circuit_breaker(&breaker);

  const geom::Rect box(la::Vector{0.0, 0.0}, la::Vector{1000.0, 1000.0});
  std::vector<index::ObjectId> out;
  ASSERT_TRUE(paged->RangeQuery(box, &out).ok());
  ASSERT_EQ(out.size(), dataset.size());

  // Persistent storage fault: each query exhausts the transient-retry
  // budget and counts one breaker failure; two of them trip it.
  paged->DropCache();
  fault::FailpointRegistry::Global().Arm("index.buffer_pool.get",
                                         fault::FailpointConfig());
  for (int i = 0; i < 2; ++i) {
    out.clear();
    const Status failed = paged->RangeQuery(box, &out);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
  }
  EXPECT_EQ(breaker.state(), common::CircuitBreaker::State::kOpen);

  // Open breaker fast-fails without touching storage: the armed failpoint
  // sees no further evaluations.
  const uint64_t evaluations_before =
      fault::FailpointRegistry::Global().Stats("index.buffer_pool.get")
          .evaluations;
  out.clear();
  const Status fast_failed = paged->RangeQuery(box, &out);
  ASSERT_FALSE(fast_failed.ok());
  EXPECT_EQ(fast_failed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fault::FailpointRegistry::Global()
                .Stats("index.buffer_pool.get")
                .evaluations,
            evaluations_before);

  // Storage heals; after open_seconds the half-open probe succeeds and the
  // breaker closes — the same tree serves complete answers again.
  fault::FailpointRegistry::Global().DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  out.clear();
  ASSERT_TRUE(paged->RangeQuery(box, &out).ok());
  EXPECT_EQ(out.size(), dataset.size());
  EXPECT_EQ(breaker.state(), common::CircuitBreaker::State::kClosed);
  std::remove(path.c_str());
}

// ---- Live queue-depth gauge (regression: Snapshot used to write it). ------

TEST(QueueDepthGaugeTest, TracksEnqueueAndDequeueLive) {
  if constexpr (!obs::kEnabled) GTEST_SKIP() << "built with GPRQ_OBS=OFF";
  obs::Gauge* gauge =
      obs::MetricRegistry::Global().GetGauge("gprq.exec.queue_depth");

  WorkerPool pool(1);
  std::mutex gate;
  gate.lock();
  CountdownLatch blocker_started(1);
  CountdownLatch all_done(4);
  // The blocker occupies the single worker while three tasks queue up.
  pool.Submit([&](size_t) {
    blocker_started.CountDown();
    std::lock_guard<std::mutex> wait(gate);
    all_done.CountDown();
  });
  blocker_started.Wait();
  for (int i = 0; i < 3; ++i) {
    pool.Submit([&](size_t) { all_done.CountDown(); });
  }
  // The gauge reflects the backlog *now*, without anyone calling
  // Snapshot() — it is maintained at enqueue/dequeue, not as a read
  // side-effect.
  EXPECT_DOUBLE_EQ(gauge->Value(), 3.0);
  EXPECT_EQ(pool.QueueDepth(), 3u);

  gate.unlock();
  all_done.Wait();
  // Dequeues brought it back down.
  for (int i = 0; i < 100 && gauge->Value() != 0.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
}

}  // namespace
}  // namespace gprq::exec
