// Tests for the three-phase PRQ engine: input validation, statistics
// consistency, strategy interplay, and differential correctness against the
// brute-force oracle.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/naive.h"
#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "workload/generators.h"

namespace gprq::core {
namespace {

struct Fixture {
  workload::Dataset dataset;
  index::RStarTree tree;

  static Fixture Make(size_t n = 4000, uint64_t seed = 1) {
    const geom::Rect extent(la::Vector{0.0, 0.0},
                            la::Vector{1000.0, 1000.0});
    auto dataset = workload::GenerateClustered(n, extent, 20, 30.0, seed);
    auto tree = index::StrBulkLoader::Load(2, dataset.points);
    EXPECT_TRUE(tree.ok());
    return Fixture{std::move(dataset), std::move(*tree)};
  }
};

PrqQuery MakeQuery(double x, double y, double gamma, double delta,
                   double theta) {
  auto g = GaussianDistribution::Create(la::Vector{x, y},
                                        workload::PaperCovariance2D(gamma));
  EXPECT_TRUE(g.ok());
  return PrqQuery{std::move(*g), delta, theta};
}

TEST(Engine, ValidatesInputs) {
  auto fixture = Fixture::Make(100);
  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;
  PrqOptions options;

  auto query = MakeQuery(500, 500, 10.0, 25.0, 0.01);
  EXPECT_FALSE(engine.Execute(query, options, nullptr).ok());

  query.delta = 0.0;
  EXPECT_FALSE(engine.Execute(query, options, &exact).ok());
  query.delta = 25.0;

  for (double bad_theta : {0.0, 1.0, -0.5, 1.5}) {
    query.theta = bad_theta;
    EXPECT_FALSE(engine.Execute(query, options, &exact).ok())
        << "theta=" << bad_theta;
  }
  query.theta = 0.01;

  options.strategies = 0;
  EXPECT_FALSE(engine.Execute(query, options, &exact).ok());
  options.strategies = kStrategyAll;

  // Dimension mismatch.
  auto g3 = GaussianDistribution::Create(la::Vector(3),
                                         la::Matrix::Identity(3));
  ASSERT_TRUE(g3.ok());
  const PrqQuery bad_dim{std::move(*g3), 1.0, 0.1};
  EXPECT_FALSE(engine.Execute(bad_dim, options, &exact).ok());
}

TEST(Engine, StrategyNames) {
  EXPECT_EQ(StrategyName(kStrategyRR), "RR");
  EXPECT_EQ(StrategyName(kStrategyBF), "BF");
  EXPECT_EQ(StrategyName(kStrategyOR), "OR");
  EXPECT_EQ(StrategyName(kStrategyRR | kStrategyBF), "RR+BF");
  EXPECT_EQ(StrategyName(kStrategyRR | kStrategyOR), "RR+OR");
  EXPECT_EQ(StrategyName(kStrategyBF | kStrategyOR), "BF+OR");
  EXPECT_EQ(StrategyName(kStrategyAll), "ALL");
  EXPECT_EQ(StrategyName(0), "NONE");
}

TEST(Engine, StatsAreConsistent) {
  auto fixture = Fixture::Make();
  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;
  const auto query = MakeQuery(500, 500, 10.0, 25.0, 0.01);

  for (StrategyMask mask :
       {kStrategyRR, kStrategyBF, kStrategyAll,
        kStrategyRR | kStrategyOR}) {
    PrqOptions options;
    options.strategies = mask;
    PrqStats stats;
    auto result = engine.Execute(query, options, &exact, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(stats.result_size, result->size());
    // Phase 2 can only shrink the candidate set.
    EXPECT_LE(stats.integration_candidates + stats.accepted_without_integration,
              stats.index_candidates);
    // Everything in the result was either integrated or inner-accepted.
    EXPECT_LE(stats.result_size,
              stats.integration_candidates +
                  stats.accepted_without_integration);
    EXPECT_GE(stats.result_size, stats.accepted_without_integration);
    EXPECT_GT(stats.node_reads, 0u);
    EXPECT_FALSE(stats.proved_empty);
  }
}

TEST(Engine, CombinationsNeverIncreaseCandidates) {
  // Adding a filter can only shrink the integration set (the effect behind
  // the paper's Table II columns).
  auto fixture = Fixture::Make();
  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;
  const auto query = MakeQuery(480, 520, 10.0, 25.0, 0.01);

  const auto candidates_for = [&](StrategyMask mask) {
    PrqOptions options;
    options.strategies = mask;
    PrqStats stats;
    auto result = engine.Execute(query, options, &exact, &stats);
    EXPECT_TRUE(result.ok());
    return stats.integration_candidates;
  };

  const size_t rr = candidates_for(kStrategyRR);
  const size_t bf = candidates_for(kStrategyBF);
  const size_t rr_bf = candidates_for(kStrategyRR | kStrategyBF);
  const size_t rr_or = candidates_for(kStrategyRR | kStrategyOR);
  const size_t bf_or = candidates_for(kStrategyBF | kStrategyOR);
  const size_t all = candidates_for(kStrategyAll);

  EXPECT_LE(rr_bf, std::min(rr, bf));
  EXPECT_LE(rr_or, rr);
  EXPECT_LE(bf_or, bf);
  EXPECT_LE(all, std::min({rr_bf, rr_or, bf_or}));
}

TEST(Engine, TableCatalogsMatchExactResults) {
  // Conservative table rounding may only add integration candidates, never
  // change the answer.
  auto fixture = Fixture::Make();
  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;
  const auto query = MakeQuery(510, 490, 10.0, 25.0, 0.05);

  PrqOptions with_tables;
  with_tables.use_catalogs = true;
  PrqOptions exact_radii;
  exact_radii.use_catalogs = false;

  PrqStats stats_tables, stats_exact;
  auto r1 = engine.Execute(query, with_tables, &exact, &stats_tables);
  auto r2 = engine.Execute(query, exact_radii, &exact, &stats_exact);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  std::vector<index::ObjectId> a = *r1, b = *r2;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_GE(stats_tables.integration_candidates +
                stats_tables.accepted_without_integration,
            stats_exact.integration_candidates +
                stats_exact.accepted_without_integration -
                stats_exact.integration_candidates * 0);  // table >= exact
}

TEST(Engine, LargeThetaUsesHalfSpaceArgument) {
  // θ >= 0.5: the θ-region degenerates to the mean; results must still be
  // exactly the oracle's.
  auto fixture = Fixture::Make(1500, 3);
  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;
  const auto query = MakeQuery(500, 500, 1.0, 40.0, 0.6);

  auto oracle = NaivePrq(fixture.dataset.points, query, &exact);
  ASSERT_TRUE(oracle.ok());
  std::vector<index::ObjectId> expected = *oracle;
  std::sort(expected.begin(), expected.end());

  for (StrategyMask mask : {kStrategyRR, kStrategyBF, kStrategyAll}) {
    PrqOptions options;
    options.strategies = mask;
    auto result = engine.Execute(query, options, &exact);
    ASSERT_TRUE(result.ok());
    std::vector<index::ObjectId> got = *result;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << StrategyName(mask);
  }
}

TEST(Engine, ProvedEmptyShortCircuit) {
  // Huge uncertainty + small δ + demanding θ: the BF outer bound proves
  // emptiness without touching the index.
  auto fixture = Fixture::Make(500, 5);
  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;
  auto g = GaussianDistribution::Create(
      la::Vector{500.0, 500.0}, la::Matrix::Identity(2) * 1e6);
  ASSERT_TRUE(g.ok());
  const PrqQuery query{std::move(*g), 1.0, 0.4};

  PrqOptions options;
  options.strategies = kStrategyBF;
  PrqStats stats;
  auto result = engine.Execute(query, options, &exact, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_TRUE(stats.proved_empty);
  EXPECT_EQ(stats.node_reads, 0u);
}

TEST(Engine, PureOrModeWorks) {
  // Not one of the paper's six combos, but the library supports OR alone
  // via the oblique region's bounding box.
  auto fixture = Fixture::Make(2000, 7);
  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;
  const auto query = MakeQuery(500, 500, 10.0, 25.0, 0.01);

  auto oracle = NaivePrq(fixture.dataset.points, query, &exact);
  ASSERT_TRUE(oracle.ok());
  std::vector<index::ObjectId> expected = *oracle;
  std::sort(expected.begin(), expected.end());

  PrqOptions options;
  options.strategies = kStrategyOR;
  auto result = engine.Execute(query, options, &exact);
  ASSERT_TRUE(result.ok());
  std::vector<index::ObjectId> got = *result;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
}

TEST(Engine, PaperFaithfulFringeRestriction) {
  // fringe_filter_any_dim = false restricts the fringe filter to d = 2
  // (where it still applies); results must be unchanged either way.
  auto fixture = Fixture::Make(2000, 9);
  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;
  const auto query = MakeQuery(520, 480, 10.0, 25.0, 0.01);

  PrqOptions a;
  a.fringe_filter_any_dim = true;
  PrqOptions b;
  b.fringe_filter_any_dim = false;
  auto ra = engine.Execute(query, a, &exact);
  auto rb = engine.Execute(query, b, &exact);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  std::vector<index::ObjectId> va = *ra, vb = *rb;
  std::sort(va.begin(), va.end());
  std::sort(vb.begin(), vb.end());
  EXPECT_EQ(va, vb);
}

TEST(Engine, MonteCarloPhase3CloseToExact) {
  // With enough samples the MC decision differs from exact only on objects
  // whose probability is within sampling noise of θ.
  auto fixture = Fixture::Make(3000, 11);
  const PrqEngine engine(&fixture.tree);
  const auto query = MakeQuery(500, 500, 10.0, 25.0, 0.01);

  mc::ImhofEvaluator exact;
  mc::MonteCarloEvaluator monte({.samples = 50000, .seed = 2});
  auto r_exact = engine.Execute(query, PrqOptions(), &exact);
  auto r_mc = engine.Execute(query, PrqOptions(), &monte);
  ASSERT_TRUE(r_exact.ok());
  ASSERT_TRUE(r_mc.ok());

  std::vector<index::ObjectId> a = *r_exact, b = *r_mc;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<index::ObjectId> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff));
  // Borderline objects (p within ~4·stderr of θ) may flip; they are few.
  EXPECT_LE(diff.size(), a.size() / 20 + 3);
}

TEST(Engine, NaiveOracleValidation) {
  mc::ImhofEvaluator exact;
  std::vector<la::Vector> points = {la::Vector{0.0, 0.0}};
  auto g = GaussianDistribution::Create(la::Vector{0.0, 0.0},
                                        la::Matrix::Identity(2));
  ASSERT_TRUE(g.ok());
  PrqQuery query{std::move(*g), 1.0, 0.1};
  EXPECT_FALSE(NaivePrq(points, query, nullptr).ok());
  query.theta = 0.0;
  EXPECT_FALSE(NaivePrq(points, query, &exact).ok());
  query.theta = 0.1;
  query.delta = -1.0;
  EXPECT_FALSE(NaivePrq(points, query, &exact).ok());
  query.delta = 1.0;
  auto result = NaivePrq(points, query, &exact);
  ASSERT_TRUE(result.ok());
  // Ball of radius 1 centered at the mean holds 39% > 10%.
  EXPECT_EQ(result->size(), 1u);
}

}  // namespace
}  // namespace gprq::core
