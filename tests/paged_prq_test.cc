// Tests for the paged PRQ path: identical answers to the in-memory engine
// over the same snapshot, catalog validation, and I/O accounting.

#include "core/paged_prq.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "workload/generators.h"

namespace gprq::core {
namespace {

struct PagedFixture {
  workload::Dataset dataset;
  index::RStarTree tree;
  std::string path;

  ~PagedFixture() { std::remove(path.c_str()); }

  static PagedFixture Make(size_t n, uint64_t seed) {
    const geom::Rect extent(la::Vector{0.0, 0.0},
                            la::Vector{1000.0, 1000.0});
    auto dataset = workload::GenerateClustered(n, extent, 12, 30.0, seed);
    index::RStarTreeOptions options;
    options.max_entries = 28;  // fits the paper's 1 KB pages in 2-D
    auto tree = index::StrBulkLoader::Load(2, dataset.points, options);
    EXPECT_TRUE(tree.ok());
    std::string path = ::testing::TempDir() + "/paged_prq_test.pages";
    EXPECT_TRUE(index::TreeSnapshot::Write(*tree, path, 1024).ok());
    return PagedFixture{std::move(dataset), std::move(*tree),
                        std::move(path)};
  }
};

PrqQuery MakeQuery(const PagedFixture& fixture, double gamma, double delta,
                   double theta) {
  auto g = GaussianDistribution::Create(
      fixture.dataset.points[fixture.dataset.size() / 3],
      workload::PaperCovariance2D(gamma));
  EXPECT_TRUE(g.ok());
  return PrqQuery{std::move(*g), delta, theta};
}

TEST(PagedPrq, MatchesInMemoryEngineAcrossCombos) {
  auto fixture = PagedFixture::Make(5000, 1);
  index::PagedRStarTree::OpenOptions open_options;
  open_options.page_size = 1024;
  auto paged = index::PagedRStarTree::Open(fixture.path, open_options);
  ASSERT_TRUE(paged.ok());

  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;
  const auto query = MakeQuery(fixture, 10.0, 25.0, 0.01);

  const StrategyMask combos[] = {kStrategyRR, kStrategyBF, kStrategyOR,
                                 kStrategyAll};
  for (StrategyMask mask : combos) {
    PrqOptions options;
    options.strategies = mask;
    options.use_catalogs = false;  // exact radii need no prebuilt tables

    auto expected = engine.Execute(query, options, &exact);
    ASSERT_TRUE(expected.ok());
    PrqStats stats;
    auto got = ExecutePagedPrq(*paged, query, options, &exact, nullptr,
                               nullptr, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();

    std::vector<index::ObjectId> a = *expected, b = *got;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(b, a) << StrategyName(mask);
    EXPECT_GT(stats.node_reads, 0u);
  }
}

TEST(PagedPrq, MonteCarloMatchesInMemoryEngineAcrossCombos) {
  // The paged path runs the engine's Phase 3 — one per-query pool, the same
  // batched decision — so a sampling evaluator gives identical id sets too,
  // not just the exact one. A small pool makes boundary candidates common,
  // so any per-candidate sampling would show up as a differing id.
  auto fixture = PagedFixture::Make(5000, 5);
  index::PagedRStarTree::OpenOptions open_options;
  open_options.page_size = 1024;
  auto paged = index::PagedRStarTree::Open(fixture.path, open_options);
  ASSERT_TRUE(paged.ok());
  const PrqEngine engine(&fixture.tree);

  const StrategyMask combos[] = {kStrategyRR, kStrategyBF, kStrategyOR,
                                 kStrategyAll};
  for (StrategyMask mask : combos) {
    PrqOptions options;
    options.strategies = mask;
    options.use_catalogs = false;
    for (const double theta : {0.05, 0.3}) {
      const auto query = MakeQuery(fixture, 10.0, 25.0, theta);
      mc::MonteCarloEvaluator in_memory({.samples = 500, .seed = 7});
      mc::MonteCarloEvaluator on_pages({.samples = 500, .seed = 7});
      auto expected = engine.Execute(query, options, &in_memory);
      ASSERT_TRUE(expected.ok());
      auto got = ExecutePagedPrq(*paged, query, options, &on_pages, nullptr,
                                 nullptr);
      ASSERT_TRUE(got.ok()) << got.status().ToString();

      std::vector<index::ObjectId> a = *expected, b = *got;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(b, a) << StrategyName(mask) << " theta=" << theta;
    }
  }
}

TEST(PagedPrq, CatalogModeMatchesEngine) {
  auto fixture = PagedFixture::Make(3000, 2);
  index::PagedRStarTree::OpenOptions open_options;
  open_options.page_size = 1024;
  auto paged = index::PagedRStarTree::Open(fixture.path, open_options);
  ASSERT_TRUE(paged.ok());

  const PrqEngine engine(&fixture.tree);
  mc::ImhofEvaluator exact;
  const auto query = MakeQuery(fixture, 10.0, 25.0, 0.05);

  PrqOptions options;  // use_catalogs = true
  auto expected = engine.Execute(query, options, &exact);
  ASSERT_TRUE(expected.ok());
  auto got = ExecutePagedPrq(*paged, query, options, &exact,
                             &engine.radius_catalog(),
                             &engine.alpha_catalog());
  ASSERT_TRUE(got.ok());
  std::vector<index::ObjectId> a = *expected, b = *got;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(b, a);
}

TEST(PagedPrq, ValidatesCatalogArguments) {
  auto fixture = PagedFixture::Make(200, 3);
  index::PagedRStarTree::OpenOptions open_options;
  open_options.page_size = 1024;
  auto paged = index::PagedRStarTree::Open(fixture.path, open_options);
  ASSERT_TRUE(paged.ok());
  mc::ImhofEvaluator exact;
  const auto query = MakeQuery(fixture, 10.0, 25.0, 0.01);
  PrqOptions options;  // use_catalogs = true, but no catalogs supplied
  EXPECT_FALSE(
      ExecutePagedPrq(*paged, query, options, &exact, nullptr, nullptr)
          .ok());
  EXPECT_FALSE(ExecutePagedPrq(*paged, query, options, nullptr, nullptr,
                               nullptr)
                   .ok());
}

TEST(PagedPrq, WarmCacheReducesPhysicalIo) {
  auto fixture = PagedFixture::Make(20000, 4);
  index::PagedRStarTree::OpenOptions open_options;
  open_options.page_size = 1024;
  open_options.buffer_pages = 4096;  // everything fits once warmed
  auto paged = index::PagedRStarTree::Open(fixture.path, open_options);
  ASSERT_TRUE(paged.ok());
  mc::ImhofEvaluator exact;
  const auto query = MakeQuery(fixture, 10.0, 25.0, 0.01);
  PrqOptions options;
  options.use_catalogs = false;

  ASSERT_TRUE(ExecutePagedPrq(*paged, query, options, &exact, nullptr,
                              nullptr)
                  .ok());
  const uint64_t cold_misses = paged->pool_stats().misses;
  paged->ResetPoolStats();
  ASSERT_TRUE(ExecutePagedPrq(*paged, query, options, &exact, nullptr,
                              nullptr)
                  .ok());
  EXPECT_EQ(paged->pool_stats().misses, 0u);
  EXPECT_GT(cold_misses, 0u);
}

}  // namespace
}  // namespace gprq::core
