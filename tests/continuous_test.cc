// Tests for the continuous PRQ monitor: every tick must return exactly the
// answer a fresh engine run would, while the buffer saves index work on
// overlapping consecutive queries.

#include "experiments/continuous.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "workload/generators.h"

namespace gprq::core {
namespace {

struct Fixture {
  workload::Dataset dataset;
  index::RStarTree tree;

  static Fixture Make(size_t n, uint64_t seed) {
    const geom::Rect extent(la::Vector{0.0, 0.0},
                            la::Vector{1000.0, 1000.0});
    auto dataset = workload::GenerateClustered(n, extent, 16, 35.0, seed);
    auto tree = index::StrBulkLoader::Load(2, dataset.points);
    EXPECT_TRUE(tree.ok());
    return Fixture{std::move(dataset), std::move(*tree)};
  }
};

PrqQuery QueryAt(double x, double y, double gamma, double delta,
                 double theta) {
  auto g = GaussianDistribution::Create(la::Vector{x, y},
                                        workload::PaperCovariance2D(gamma));
  EXPECT_TRUE(g.ok());
  return PrqQuery{std::move(*g), delta, theta};
}

TEST(ContinuousMonitor, ValidatesInput) {
  auto fixture = Fixture::Make(200, 1);
  ContinuousPrqMonitor monitor(&fixture.tree, {});
  mc::ImhofEvaluator exact;
  auto query = QueryAt(500, 500, 10.0, 25.0, 0.01);
  EXPECT_FALSE(monitor.Update(query, nullptr).ok());
  query.delta = 0.0;
  EXPECT_FALSE(monitor.Update(query, &exact).ok());
  query.delta = 25.0;
  query.theta = 0.0;
  EXPECT_FALSE(monitor.Update(query, &exact).ok());
}

TEST(ContinuousMonitor, MatchesFreshEngineAlongATrajectory) {
  auto fixture = Fixture::Make(6000, 2);
  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;

  for (StrategyMask mask : {kStrategyRR, kStrategyBF, kStrategyAll}) {
    ContinuousPrqMonitor::Options options;
    options.buffer_margin = 80.0;
    options.prq.strategies = mask;
    ContinuousPrqMonitor monitor(&fixture.tree, options);

    // Drift across the space; uncertainty oscillates.
    for (int tick = 0; tick < 15; ++tick) {
      const double x = 200.0 + 40.0 * tick;
      const double y = 300.0 + 25.0 * tick;
      const double gamma = (tick % 3 == 0) ? 2.0 : 10.0;
      const auto query = QueryAt(x, y, gamma, 25.0, 0.01);

      ContinuousPrqMonitor::TickStats tick_stats;
      auto monitored = monitor.Update(query, &exact, &tick_stats);
      ASSERT_TRUE(monitored.ok());
      PrqOptions engine_options;
      engine_options.strategies = mask;
      auto fresh = engine.Execute(query, engine_options, &exact);
      ASSERT_TRUE(fresh.ok());

      std::vector<index::ObjectId> a = *monitored, b = *fresh;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << StrategyName(mask) << " tick " << tick;
    }
    // With an 80-unit margin and 47-unit steps, a healthy share of ticks
    // must have reused the buffer.
    EXPECT_LT(monitor.monitor_stats().refetches,
              monitor.monitor_stats().ticks)
        << StrategyName(mask);
  }
}

TEST(ContinuousMonitor, MatchesFreshEngineUnderMonteCarlo) {
  // A sampling evaluator decides from its per-query pool, so the monitor
  // and a fresh engine agree only if both run the same Phase-3 body.
  auto fixture = Fixture::Make(6000, 2);
  const PrqEngine engine(&fixture.tree);

  for (double theta : {0.01, 0.1, 0.3}) {
    ContinuousPrqMonitor::Options options;
    options.buffer_margin = 80.0;
    ContinuousPrqMonitor monitor(&fixture.tree, options);
    mc::MonteCarloEvaluator monitor_mc({.samples = 30000, .seed = 7});
    mc::MonteCarloEvaluator engine_mc({.samples = 30000, .seed = 7});

    for (int tick = 0; tick < 15; ++tick) {
      const double x = 200.0 + 40.0 * tick;
      const double y = 300.0 + 25.0 * tick;
      const double gamma = (tick % 3 == 0) ? 2.0 : 10.0;
      const auto query = QueryAt(x, y, gamma, 25.0, theta);

      auto monitored = monitor.Update(query, &monitor_mc);
      ASSERT_TRUE(monitored.ok());
      auto fresh = engine.Execute(query, PrqOptions(), &engine_mc);
      ASSERT_TRUE(fresh.ok());

      std::vector<index::ObjectId> a = *monitored, b = *fresh;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "theta " << theta << " tick " << tick;
    }
  }
}

TEST(ContinuousMonitor, BufferSavesIndexWork) {
  auto fixture = Fixture::Make(20000, 3);
  mc::ImhofEvaluator exact;

  ContinuousPrqMonitor::Options options;
  options.buffer_margin = 150.0;
  ContinuousPrqMonitor monitor(&fixture.tree, options);

  uint64_t reused = 0;
  for (int tick = 0; tick < 20; ++tick) {
    // Small drift: nearly all ticks fit the buffer.
    const auto query = QueryAt(500.0 + 3.0 * tick, 500.0, 10.0, 25.0, 0.01);
    ContinuousPrqMonitor::TickStats stats;
    auto result = monitor.Update(query, &exact, &stats);
    ASSERT_TRUE(result.ok());
    if (!stats.refetched) {
      ++reused;
      EXPECT_EQ(stats.node_reads, 0u);
    }
  }
  EXPECT_GE(reused, 18u);
  EXPECT_LE(monitor.monitor_stats().refetches, 2u);
}

TEST(ContinuousMonitor, ZeroMarginRefetchesOnEveryMove) {
  auto fixture = Fixture::Make(2000, 4);
  mc::ImhofEvaluator exact;
  ContinuousPrqMonitor monitor(&fixture.tree, {});  // margin 0
  for (int tick = 0; tick < 5; ++tick) {
    const auto query = QueryAt(400.0 + 10.0 * tick, 400.0, 5.0, 20.0, 0.05);
    ASSERT_TRUE(monitor.Update(query, &exact).ok());
  }
  EXPECT_EQ(monitor.monitor_stats().refetches, 5u);
}

TEST(ContinuousMonitor, InvalidateForcesRefetch) {
  auto fixture = Fixture::Make(2000, 5);
  mc::ImhofEvaluator exact;
  ContinuousPrqMonitor::Options options;
  options.buffer_margin = 200.0;
  ContinuousPrqMonitor monitor(&fixture.tree, options);
  const auto query = QueryAt(500, 500, 10.0, 25.0, 0.01);
  ASSERT_TRUE(monitor.Update(query, &exact).ok());
  ContinuousPrqMonitor::TickStats stats;
  ASSERT_TRUE(monitor.Update(query, &exact, &stats).ok());
  EXPECT_FALSE(stats.refetched);
  monitor.Invalidate();
  ASSERT_TRUE(monitor.Update(query, &exact, &stats).ok());
  EXPECT_TRUE(stats.refetched);
}

TEST(ContinuousMonitor, ProvedEmptyTicks) {
  auto fixture = Fixture::Make(500, 6);
  mc::ImhofEvaluator exact;
  ContinuousPrqMonitor::Options options;
  options.prq.strategies = kStrategyBF;
  ContinuousPrqMonitor monitor(&fixture.tree, options);
  auto g = GaussianDistribution::Create(la::Vector{500.0, 500.0},
                                        la::Matrix::Identity(2) * 1e6);
  ASSERT_TRUE(g.ok());
  const PrqQuery query{std::move(*g), 1.0, 0.4};
  ContinuousPrqMonitor::TickStats stats;
  auto result = monitor.Update(query, &exact, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_TRUE(stats.proved_empty);
}

}  // namespace
}  // namespace gprq::core
