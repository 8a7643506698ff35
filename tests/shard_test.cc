// Scatter-gather correctness battery for the sharded execution path: the
// differential contract (sharded decided ids set-identical to the
// single-tree engine at K ∈ {1, 2, 4, 8}, including under deadlines,
// brownout sample budgets and the QMC pool variant), MBR routing
// selectivity, the manifest's bit-exact round-trip, ReloadShard's cache
// region invalidation, and the detached executor's guard rails.

#include "shard/sharded_engine.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "common/deadline.h"
#include "core/engine.h"
#include "exec/batch_executor.h"
#include "index/dataset_file.h"
#include "index/str_bulk_load.h"
#include "mc/monte_carlo.h"
#include "shard/shard_builder.h"
#include "shard/shard_manifest.h"
#include "workload/generators.h"

namespace gprq::shard {
namespace {

constexpr uint64_t kSamples = 4000;

/// Creates (if needed) and returns a scratch directory. A relative name
/// lands under the gtest temp dir; a path from a previous call is used
/// as-is, so `TempDir(dir + "_k4")` derives sibling directories.
std::string TempDir(const std::string& name) {
  const std::string dir =
      name.front() == '/' ? name : ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// A clustered dataset, its single in-memory reference tree (ids are row
/// numbers — exactly what BuildShards stores), and its on-disk .gprq file.
struct Fixture {
  workload::Dataset dataset;
  index::RStarTree tree;
  std::string dataset_path;

  static Fixture Make(const std::string& dir, size_t n, uint64_t seed) {
    const geom::Rect extent(la::Vector{0.0, 0.0},
                            la::Vector{1000.0, 1000.0});
    auto dataset = workload::GenerateClustered(n, extent, 14, 35.0, seed);
    auto tree = index::StrBulkLoader::Load(2, dataset.points);
    EXPECT_TRUE(tree.ok());

    const std::string path = dir + "/points.gprq";
    auto writer = index::DatasetFileWriter::Create(path, 2);
    EXPECT_TRUE(writer.ok());
    for (const la::Vector& point : dataset.points) {
      EXPECT_TRUE(writer->Append(point).ok());
    }
    EXPECT_TRUE(writer->Finish().ok());
    return Fixture{std::move(dataset), std::move(*tree), path};
  }

  /// Shards the dataset into `shards` under `dir` and returns the manifest
  /// path the engine opens.
  std::string Shard(const std::string& dir, size_t shards) const {
    auto mapped = index::MmapDataset::Open(dataset_path);
    EXPECT_TRUE(mapped.ok());
    ShardBuildOptions options;
    options.num_shards = shards;
    auto manifest = BuildShards(*mapped, dataset_path, dir, options);
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_EQ(manifest->shards.size(), shards);
    EXPECT_EQ(manifest->total_points(), dataset.size());
    return dir + "/shards.manifest";
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

core::PrqEngine::EvaluatorFactory McFactory() {
  return [](size_t worker) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::MonteCarloEvaluator>(
        mc::MonteCarloOptions{.samples = kSamples, .seed = 7 + worker});
  };
}

std::set<index::ObjectId> AsSet(const std::vector<index::ObjectId>& ids) {
  return {ids.begin(), ids.end()};
}

// ---- Differential: sharded == single-tree. ---------------------------------

/// The core contract: for any shard count, the sharded scatter-gather
/// decides exactly the ids the single-tree engine decides. Phase 3 runs
/// over the same deterministic per-query pool in both paths, and shards
/// partition the points, so the results must be set-identical — for the
/// pseudo-random pool and for the QMC variant.
TEST(ShardDifferential, SetIdenticalToSingleTreeAcrossShardCounts) {
  const std::string dir = TempDir("shard_diff");
  const auto fixture = Fixture::Make(dir, 4000, 31);
  const core::PrqEngine single(&fixture.tree);
  mc::MonteCarloEvaluator evaluator(
      mc::MonteCarloOptions{.samples = kSamples, .seed = 7});

  for (const mc::PoolVariant variant :
       {mc::PoolVariant::kPseudoRandom, mc::PoolVariant::kHalton}) {
    core::PrqOptions options;
    options.pool_variant = variant;
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      const std::string shard_dir =
          TempDir(dir + "_k" + std::to_string(shards) +
                  (variant == mc::PoolVariant::kHalton ? "_qmc" : ""));
      const std::string manifest = fixture.Shard(shard_dir, shards);
      auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 4);
      ASSERT_TRUE(executor.ok());
      auto engine = ShardedPrqEngine::Open(manifest, executor->get());
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ((*engine)->num_shards(), shards);
      EXPECT_EQ((*engine)->total_points(), fixture.dataset.size());

      for (const size_t center : {size_t{100}, size_t{1700}, size_t{3333}}) {
        const auto query = MakeQuery(fixture, center);
        auto expected = single.Execute(query, options, &evaluator);
        ASSERT_TRUE(expected.ok());
        obs::QueryTrace trace;
        auto actual = (*engine)->Execute(query, options, nullptr, &trace);
        ASSERT_TRUE(actual.ok()) << actual.status().ToString();
        EXPECT_EQ(AsSet(*actual), AsSet(*expected))
            << "K=" << shards << " center=" << center;
        EXPECT_FALSE(expected->empty());  // non-vacuous differential
        EXPECT_EQ(trace.shards_total, shards);
        EXPECT_GE(trace.shards_routed, 1u);
      }
    }
  }
}

/// Brownout composes: QueryControl::sample_budget caps each candidate's
/// prefix of the shared pool — a per-candidate, order-independent rule —
/// so the degraded decided/undecided split is also set-identical.
TEST(ShardDifferential, BrownoutSampleBudgetIsSetIdentical) {
  const std::string dir = TempDir("shard_brownout");
  const auto fixture = Fixture::Make(dir, 3000, 32);
  const core::PrqEngine single(&fixture.tree);
  mc::MonteCarloEvaluator evaluator(
      mc::MonteCarloOptions{.samples = kSamples, .seed = 7});

  const std::string manifest = fixture.Shard(TempDir(dir + "_k4"), 4);
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 4);
  ASSERT_TRUE(executor.ok());
  auto engine = ShardedPrqEngine::Open(manifest, executor->get());
  ASSERT_TRUE(engine.ok());

  core::PrqOptions options;
  options.control.sample_budget = 256;  // well under the pool size
  const auto query = MakeQuery(fixture, 900);

  auto expected = single.ExecuteBounded(query, options, &evaluator);
  ASSERT_TRUE(expected.ok());
  auto actual = (*engine)->ExecuteBounded(query, options);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(AsSet(actual->ids), AsSet(expected->ids));
  EXPECT_EQ(AsSet(actual->undecided), AsSet(expected->undecided));
  EXPECT_EQ(actual->status.code(), expected->status.code());
}

/// A deadline generous enough to never fire must leave the bounded path
/// indistinguishable from the unbounded one.
TEST(ShardDifferential, GenerousDeadlineMatchesUnlimited) {
  const std::string dir = TempDir("shard_deadline");
  const auto fixture = Fixture::Make(dir, 2000, 33);
  const std::string manifest = fixture.Shard(TempDir(dir + "_k4"), 4);
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 4);
  ASSERT_TRUE(executor.ok());
  auto engine = ShardedPrqEngine::Open(manifest, executor->get());
  ASSERT_TRUE(engine.ok());

  const auto query = MakeQuery(fixture, 400);
  auto unlimited = (*engine)->ExecuteBounded(query, core::PrqOptions());
  ASSERT_TRUE(unlimited.ok());
  EXPECT_TRUE(unlimited->complete());

  core::PrqOptions bounded_options;
  bounded_options.control =
      common::QueryControl::WithDeadline(common::Deadline::After(3600.0));
  auto bounded = (*engine)->ExecuteBounded(query, bounded_options);
  ASSERT_TRUE(bounded.ok());
  EXPECT_TRUE(bounded->complete());
  EXPECT_EQ(AsSet(bounded->ids), AsSet(unlimited->ids));
}

/// A control that is already stopped short-circuits before touching any
/// shard — same contract as the single-tree engine's expired-on-entry path.
TEST(ShardDifferential, ExpiredOnEntryShortCircuits) {
  const std::string dir = TempDir("shard_expired");
  const auto fixture = Fixture::Make(dir, 1000, 34);
  const std::string manifest = fixture.Shard(TempDir(dir + "_k2"), 2);
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 2);
  ASSERT_TRUE(executor.ok());
  auto engine = ShardedPrqEngine::Open(manifest, executor->get());
  ASSERT_TRUE(engine.ok());

  core::PrqOptions options;
  options.control =
      common::QueryControl::WithDeadline(common::Deadline::Expired());
  obs::QueryTrace trace;
  auto result =
      (*engine)->ExecuteBounded(MakeQuery(fixture, 10), options, nullptr,
                                &trace);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result->ids.empty());
  EXPECT_TRUE(trace.deadline_expired);
}

// ---- Routing. --------------------------------------------------------------

TEST(ShardRouting, LocalQueryRoutesToFewerShardsThanExist) {
  const std::string dir = TempDir("shard_route");
  const auto fixture = Fixture::Make(dir, 4000, 35);
  const std::string manifest = fixture.Shard(TempDir(dir + "_k8"), 8);
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 2);
  ASSERT_TRUE(executor.ok());
  auto engine = ShardedPrqEngine::Open(manifest, executor->get());
  ASSERT_TRUE(engine.ok());

  // A tight query around one data point: its search box is a small region
  // of the extent, and the STR tiling gives shards compact MBRs, so it must
  // skip at least one shard.
  const auto query = MakeQuery(fixture, 123, /*delta=*/20.0, /*theta=*/0.05);
  auto routed = (*engine)->Route(query, core::PrqOptions());
  ASSERT_TRUE(routed.ok());
  EXPECT_GE(routed->size(), 1u);
  EXPECT_LT(routed->size(), 8u);
}

TEST(ShardRouting, QueryOutsideEveryShardReturnsEmpty) {
  const std::string dir = TempDir("shard_route_miss");
  const auto fixture = Fixture::Make(dir, 1000, 36);
  const std::string manifest = fixture.Shard(TempDir(dir + "_k4"), 4);
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 2);
  ASSERT_TRUE(executor.ok());
  auto engine = ShardedPrqEngine::Open(manifest, executor->get());
  ASSERT_TRUE(engine.ok());

  // Far outside the [0, 1000]² data extent: the search box misses every
  // shard MBR, zero shards are scanned, and the answer is a complete empty.
  auto g = core::GaussianDistribution::Create(
      la::Vector{50000.0, 50000.0}, workload::PaperCovariance2D(10.0));
  ASSERT_TRUE(g.ok());
  const core::PrqQuery query{std::move(*g), 25.0, 0.01};

  auto routed = (*engine)->Route(query, core::PrqOptions());
  ASSERT_TRUE(routed.ok());
  EXPECT_TRUE(routed->empty());

  obs::QueryTrace trace;
  auto result =
      (*engine)->ExecuteBounded(query, core::PrqOptions(), nullptr, &trace);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->status.ok());
  EXPECT_TRUE(result->ids.empty());
  EXPECT_EQ(trace.shards_routed, 0u);
}

// ---- Manifest. -------------------------------------------------------------

TEST(ShardManifestIo, RoundTripsBitExactly) {
  const std::string dir = TempDir("shard_manifest");
  const auto fixture = Fixture::Make(dir, 1500, 37);
  auto mapped = index::MmapDataset::Open(fixture.dataset_path);
  ASSERT_TRUE(mapped.ok());
  ShardBuildOptions options;
  options.num_shards = 3;
  auto built = BuildShards(*mapped, fixture.dataset_path, dir, options);
  ASSERT_TRUE(built.ok());

  auto loaded = ShardManifest::Load(dir + "/shards.manifest");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dim, built->dim);
  EXPECT_EQ(loaded->dataset_file, built->dataset_file);
  ASSERT_EQ(loaded->shards.size(), built->shards.size());
  for (size_t k = 0; k < built->shards.size(); ++k) {
    EXPECT_EQ(loaded->shards[k].tree_file, built->shards[k].tree_file);
    EXPECT_EQ(loaded->shards[k].count, built->shards[k].count);
    for (size_t a = 0; a < built->dim; ++a) {
      // Hexfloat serialization: the routing MBRs must survive the text
      // round-trip bit-for-bit, not to 17 significant digits.
      EXPECT_EQ(loaded->shards[k].mbr.lo()[a], built->shards[k].mbr.lo()[a]);
      EXPECT_EQ(loaded->shards[k].mbr.hi()[a], built->shards[k].mbr.hi()[a]);
    }
  }
}

TEST(ShardManifestIo, LoadRejectsMissingFile) {
  auto loaded = ShardManifest::Load(::testing::TempDir() + "/nope.manifest");
  EXPECT_FALSE(loaded.ok());
}

// ---- Reload + cache invalidation. ------------------------------------------

/// ReloadShard must drop exactly the cached answers whose search box
/// touches the shard's extent: the entry overlapping shard 0 goes, the
/// far-away entry survives.
TEST(ShardReload, InvalidatesOverlappingCacheEntriesOnly) {
  const std::string dir = TempDir("shard_reload");
  const auto fixture = Fixture::Make(dir, 2000, 38);
  const std::string manifest = fixture.Shard(TempDir(dir + "_k2"), 2);
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 2);
  ASSERT_TRUE(executor.ok());
  auto engine = ShardedPrqEngine::Open(manifest, executor->get());
  ASSERT_TRUE(engine.ok());

  cache::ResultCache cache{cache::ResultCacheOptions{}};
  (*engine)->AttachResultCache(&cache);
  EXPECT_EQ((*engine)->result_cache(), &cache);

  const geom::Rect shard0 = (*engine)->manifest().shards[0].mbr;
  // Entry A: search box overlapping shard 0's MBR.
  const geom::Rect box_a(shard0.lo(), shard0.lo() + la::Vector{1.0, 1.0});
  // Entry B: disjoint from every shard (data lives in [0, 1000]²).
  const geom::Rect box_b(la::Vector{5000.0, 5000.0},
                         la::Vector{5100.0, 5100.0});

  const auto query_a = MakeQuery(fixture, 10);
  const auto query_b = MakeQuery(fixture, 20);
  cache.Insert(query_a, 0, box_a, {}, {1, 2, 3});
  cache.Insert(query_b, 0, box_b, {}, {4, 5});
  ASSERT_EQ(cache.entries(), 2u);

  ASSERT_TRUE((*engine)->ReloadShard(0).ok());
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.Find(query_b, 0).kind,
            cache::ResultCache::HitKind::kExact);
  EXPECT_EQ(cache.Find(query_a, 0).kind,
            cache::ResultCache::HitKind::kMiss);
}

TEST(ShardReload, ServesIdenticalResultsAfterReload) {
  const std::string dir = TempDir("shard_reload_serve");
  const auto fixture = Fixture::Make(dir, 2000, 39);
  const std::string manifest = fixture.Shard(TempDir(dir + "_k4"), 4);
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 4);
  ASSERT_TRUE(executor.ok());
  auto engine = ShardedPrqEngine::Open(manifest, executor->get());
  ASSERT_TRUE(engine.ok());

  const auto query = MakeQuery(fixture, 777);
  auto before = (*engine)->Execute(query, core::PrqOptions());
  ASSERT_TRUE(before.ok());
  for (size_t k = 0; k < 4; ++k) {
    ASSERT_TRUE((*engine)->ReloadShard(k).ok());
  }
  auto after = (*engine)->Execute(query, core::PrqOptions());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(AsSet(*after), AsSet(*before));
}

TEST(ShardReload, RejectsOutOfRangeShard) {
  const std::string dir = TempDir("shard_reload_range");
  const auto fixture = Fixture::Make(dir, 500, 40);
  const std::string manifest = fixture.Shard(TempDir(dir + "_k2"), 2);
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 2);
  ASSERT_TRUE(executor.ok());
  auto engine = ShardedPrqEngine::Open(manifest, executor->get());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->ReloadShard(7).code(), StatusCode::kInvalidArgument);
}

// ---- Detached executor guard rails. ----------------------------------------

/// A detached executor has no engine to run Phases 1-2 with; the
/// single-engine entry points must refuse loudly instead of crashing.
TEST(DetachedExecutor, RefusesEngineEntryPoints) {
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(), 2);
  ASSERT_TRUE(executor.ok());

  auto g = core::GaussianDistribution::Create(
      la::Vector{0.0, 0.0}, workload::PaperCovariance2D(10.0));
  ASSERT_TRUE(g.ok());
  const core::PrqQuery query{std::move(*g), 25.0, 0.01};

  auto submitted = (*executor)->Submit(query, core::PrqOptions());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  auto bounded = (*executor)->SubmitBounded(query, core::PrqOptions());
  EXPECT_EQ(bounded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*executor)->SetOverloadPolicy(exec::OverloadPolicy{}).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardOpen, RejectsNullExecutor) {
  auto engine = ShardedPrqEngine::Open("anything.manifest", nullptr);
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gprq::shard
