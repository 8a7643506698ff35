// Tests for per-query tracing: the QueryTrace an end-to-end query produces
// must exactly reconcile with the PrqStats the engine reports, with the
// ExecStats view of the serving layer, and with the deltas the query left
// in the global metric registry — on the executor, live and sharded
// surfaces alike. This is the acceptance gate for the obs subsystem —
// traces, stats, and registry aggregates can never drift apart.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "core/engine.h"
#include "exec/batch_executor.h"
#include "index/dataset_file.h"
#include "index/str_bulk_load.h"
#include "mc/monte_carlo.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "shard/shard_builder.h"
#include "shard/sharded_engine.h"
#include "storage/live_engine.h"
#include "storage/storage_engine.h"
#include "workload/generators.h"

namespace gprq::obs {
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

core::PrqEngine::EvaluatorFactory McFactory(uint64_t samples) {
  return [samples](size_t worker) {
    return std::make_unique<mc::MonteCarloEvaluator>(
        mc::MonteCarloOptions{.samples = samples, .seed = 9 + worker});
  };
}

/// Asserts the cross-layer identities one (query trace, stats) pair must
/// satisfy after a completed query.
void ExpectTraceMatchesStats(const QueryTrace& trace,
                             const core::PrqStats& stats) {
  EXPECT_EQ(trace.index_visits, stats.node_reads);
  EXPECT_EQ(trace.index_candidates, stats.index_candidates);
  EXPECT_EQ(trace.pruned_rr_fringe, stats.pruned_rr_fringe);
  EXPECT_EQ(trace.pruned_bf_outer, stats.pruned_bf_outer);
  EXPECT_EQ(trace.pruned_or, stats.pruned_or);
  EXPECT_EQ(trace.pruned_marginal, stats.pruned_marginal);
  EXPECT_EQ(trace.accepted_bf_inner, stats.accepted_without_integration);
  EXPECT_EQ(trace.phase3_candidates, stats.integration_candidates);
  EXPECT_EQ(trace.result_size, stats.result_size);
  EXPECT_EQ(trace.proved_empty, stats.proved_empty);
  // The Phase-2 ledger balances: every index candidate is pruned by exactly
  // one filter, accepted outright, or handed to Phase 3.
  EXPECT_EQ(trace.pruned_total() + trace.accepted_bf_inner +
                trace.phase3_candidates,
            trace.index_candidates);
}

TEST(QueryTrace, SubmitReconcilesWithPrqStats) {
  auto fixture = Fixture::Make(2000, 11);
  const core::PrqEngine engine(&fixture.tree);
  auto executor = exec::BatchExecutor::Create(&engine, McFactory(2000), 2);
  ASSERT_TRUE(executor.ok());

  // γ spread: vague queries integrate a lot, tight ones almost never.
  for (double gamma : {1.0, 10.0, 100.0}) {
    const auto query = MakeQuery(fixture, 7, gamma, 25.0, 0.05);
    core::PrqStats stats;
    QueryTrace trace;
    auto result =
        (*executor)->Submit(query, core::PrqOptions(), &stats, &trace);
    ASSERT_TRUE(result.ok());

    ExpectTraceMatchesStats(trace, stats);
    EXPECT_EQ(trace.result_size, result->size());
    // Every Phase-3 survivor got exactly one integration decision.
    EXPECT_EQ(trace.integrations, trace.phase3_candidates);
    if (trace.integrations > 0) {
      // Fixed-budget evaluator: every decision consumes the full pool.
      EXPECT_EQ(trace.samples_used, trace.integrations * 2000u);
    }
  }
}

TEST(QueryTrace, TraceMirrorsRegistryDeltasAcrossSubmit) {
  auto fixture = Fixture::Make(1500, 23);
  const core::PrqEngine engine(&fixture.tree);
  auto executor = exec::BatchExecutor::Create(&engine, McFactory(1000), 2);
  ASSERT_TRUE(executor.ok());
  const auto query = MakeQuery(fixture, 3, 50.0, 25.0, 0.05);

  MetricRegistry& global = MetricRegistry::Global();
  const RegistrySnapshot before = global.Snapshot();
  core::PrqStats stats;
  QueryTrace trace;
  auto result =
      (*executor)->Submit(query, core::PrqOptions(), &stats, &trace);
  ASSERT_TRUE(result.ok());
  const RegistrySnapshot after = global.Snapshot();

  // The published trace is the registry delta, counter by counter.
  EXPECT_EQ(after.counter("gprq.engine.queries") -
                before.counter("gprq.engine.queries"),
            1u);
  EXPECT_EQ(after.counter("gprq.engine.index_candidates") -
                before.counter("gprq.engine.index_candidates"),
            trace.index_candidates);
  EXPECT_EQ(after.counter("gprq.engine.pruned.rr_fringe") -
                before.counter("gprq.engine.pruned.rr_fringe"),
            trace.pruned_rr_fringe);
  EXPECT_EQ(after.counter("gprq.engine.pruned.bf_outer") -
                before.counter("gprq.engine.pruned.bf_outer"),
            trace.pruned_bf_outer);
  EXPECT_EQ(after.counter("gprq.engine.pruned.or") -
                before.counter("gprq.engine.pruned.or"),
            trace.pruned_or);
  EXPECT_EQ(after.counter("gprq.engine.pruned.marginal") -
                before.counter("gprq.engine.pruned.marginal"),
            trace.pruned_marginal);
  EXPECT_EQ(after.counter("gprq.engine.accepted.bf_inner") -
                before.counter("gprq.engine.accepted.bf_inner"),
            trace.accepted_bf_inner);
  EXPECT_EQ(after.counter("gprq.engine.phase3_candidates") -
                before.counter("gprq.engine.phase3_candidates"),
            trace.phase3_candidates);
  EXPECT_EQ(after.counter("gprq.exec.integrations") -
                before.counter("gprq.exec.integrations"),
            trace.integrations);
  EXPECT_EQ(after.counter("gprq.mc.samples_used") -
                before.counter("gprq.mc.samples_used"),
            trace.samples_used);
}

/// The `gprq.engine.*` filter-phase ledger: between two registry snapshots
/// bracketing one query, every counter moved by exactly what its trace
/// reports — whichever surface ran the query.
void ExpectEngineLedgerMatches(const RegistrySnapshot& before,
                               const RegistrySnapshot& after,
                               const QueryTrace& trace) {
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_EQ(delta("gprq.engine.queries"), 1u);
  EXPECT_EQ(delta("gprq.engine.index_candidates"), trace.index_candidates);
  EXPECT_EQ(delta("gprq.engine.pruned.rr_fringe"), trace.pruned_rr_fringe);
  EXPECT_EQ(delta("gprq.engine.pruned.bf_outer"), trace.pruned_bf_outer);
  EXPECT_EQ(delta("gprq.engine.pruned.or"), trace.pruned_or);
  EXPECT_EQ(delta("gprq.engine.pruned.marginal"), trace.pruned_marginal);
  EXPECT_EQ(delta("gprq.engine.accepted.bf_inner"), trace.accepted_bf_inner);
  EXPECT_EQ(delta("gprq.engine.phase3_candidates"), trace.phase3_candidates);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A mutable store holding the fixture's points (ids are row numbers).
std::unique_ptr<storage::StorageEngine> LoadStore(const Fixture& fixture,
                                                  const std::string& dir) {
  auto store = storage::StorageEngine::Create(FreshDir(dir), 2);
  EXPECT_TRUE(store.ok());
  for (size_t i = 0; i < fixture.dataset.size(); ++i) {
    EXPECT_TRUE(
        (*store)->Insert(fixture.dataset.points[i], static_cast<uint32_t>(i))
            .ok());
  }
  EXPECT_TRUE((*store)->Flush().ok());
  return std::move(*store);
}

TEST(QueryTrace, TraceMirrorsRegistryDeltasOnLiveEngine) {
  auto fixture = Fixture::Make(1500, 23);
  auto store = LoadStore(fixture, "trace_live_ledger");
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(1000), 2);
  ASSERT_TRUE(executor.ok());
  storage::LivePrqEngine live(store.get(), executor->get());
  const auto query = MakeQuery(fixture, 3, 50.0, 25.0, 0.05);

  MetricRegistry& global = MetricRegistry::Global();
  const RegistrySnapshot before = global.Snapshot();
  core::PrqStats stats;
  QueryTrace trace;
  auto result = live.ExecuteBounded(query, core::PrqOptions(), &stats, &trace);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->complete());
  ExpectEngineLedgerMatches(before, global.Snapshot(), trace);
  ExpectTraceMatchesStats(trace, stats);
  EXPECT_GT(trace.index_candidates, 0u);
}

TEST(QueryTrace, TraceMirrorsRegistryDeltasOnShardedEngine) {
  auto fixture = Fixture::Make(1500, 29);
  const std::string dir = FreshDir("trace_shard_ledger");
  const std::string dataset_path = dir + "/points.gprq";
  {
    auto writer = index::DatasetFileWriter::Create(dataset_path, 2);
    ASSERT_TRUE(writer.ok());
    for (const la::Vector& point : fixture.dataset.points) {
      ASSERT_TRUE(writer->Append(point).ok());
    }
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto mapped = index::MmapDataset::Open(dataset_path);
  ASSERT_TRUE(mapped.ok());
  shard::ShardBuildOptions build;
  build.num_shards = 4;
  ASSERT_TRUE(shard::BuildShards(*mapped, dataset_path, dir, build).ok());
  auto executor = exec::BatchExecutor::CreateDetached(McFactory(1000), 2);
  ASSERT_TRUE(executor.ok());
  auto engine = shard::ShardedPrqEngine::Open(dir + "/shards.manifest",
                                              executor->get());
  ASSERT_TRUE(engine.ok());
  const auto query = MakeQuery(fixture, 3, 50.0, 25.0, 0.05);

  MetricRegistry& global = MetricRegistry::Global();
  const RegistrySnapshot before = global.Snapshot();
  core::PrqStats stats;
  QueryTrace trace;
  auto result =
      (*engine)->ExecuteBounded(query, core::PrqOptions(), &stats, &trace);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->complete());
  ExpectEngineLedgerMatches(before, global.Snapshot(), trace);
  ExpectTraceMatchesStats(trace, stats);
  EXPECT_GT(trace.index_candidates, 0u);
  EXPECT_GT(trace.shards_routed, 0u);
}

TEST(QueryTrace, SemanticHitTimesItsGatherAsPhase1) {
  // A semantic cache hit replaces the index search with a scan of the
  // cached candidates; that scan is this query's Phase 1 on every surface.
  auto fixture = Fixture::Make(1500, 37);
  const core::PrqEngine engine(&fixture.tree);
  auto executor = exec::BatchExecutor::Create(&engine, McFactory(1000), 2);
  ASSERT_TRUE(executor.ok());
  ASSERT_TRUE((*executor)->EnableResultCache(cache::ResultCacheOptions()).ok());
  auto store = LoadStore(fixture, "trace_live_semantic");
  auto detached = exec::BatchExecutor::CreateDetached(McFactory(1000), 2);
  ASSERT_TRUE(detached.ok());
  storage::LivePrqEngine live(store.get(), detached->get());
  ASSERT_TRUE(live.EnableResultCache(cache::ResultCacheOptions()).ok());

  // θ = 0.05 fills the cache; θ = 0.3 is narrower, so it is served by
  // containment from the wider entry.
  const auto wide = MakeQuery(fixture, 3, 50.0, 25.0, 0.05);
  const auto narrow = MakeQuery(fixture, 3, 50.0, 25.0, 0.3);
  QueryTrace trace;
  ASSERT_TRUE((*executor)->SubmitBounded(wide, core::PrqOptions()).ok());
  ASSERT_TRUE(
      (*executor)->SubmitBounded(narrow, core::PrqOptions(), nullptr, &trace)
          .ok());
  EXPECT_TRUE(trace.cache_hit_semantic);
  EXPECT_GT(trace.phase_nanos[QueryTrace::kPhase1], 0u);

  ASSERT_TRUE(live.ExecuteBounded(wide, core::PrqOptions()).ok());
  ASSERT_TRUE(
      live.ExecuteBounded(narrow, core::PrqOptions(), nullptr, &trace).ok());
  EXPECT_TRUE(trace.cache_hit_semantic);
  EXPECT_GT(trace.phase_nanos[QueryTrace::kPhase1], 0u);
}

TEST(QueryTrace, ExecStatsSnapshotReconcilesWithTraces) {
  auto fixture = Fixture::Make(1500, 31);
  const core::PrqEngine engine(&fixture.tree);
  auto executor = exec::BatchExecutor::Create(&engine, McFactory(1000), 2);
  ASSERT_TRUE(executor.ok());

  uint64_t total_integrations = 0;
  uint64_t total_accepted = 0;
  uint64_t total_results = 0;
  constexpr size_t kQueries = 6;
  for (size_t i = 0; i < kQueries; ++i) {
    const auto query = MakeQuery(fixture, i * 13, 20.0, 25.0, 0.05);
    QueryTrace trace;
    auto result =
        (*executor)->Submit(query, core::PrqOptions(), nullptr, &trace);
    ASSERT_TRUE(result.ok());
    total_integrations += trace.integrations;
    total_accepted += trace.accepted_bf_inner;
    total_results += trace.result_size;
  }

  // ExecStats is a baseline-diffed view over the same registry counters the
  // traces were published to, so the sums must agree exactly.
  const exec::ExecStats stats = (*executor)->Snapshot();
  EXPECT_EQ(stats.queries, kQueries);
  EXPECT_EQ(stats.integrations, total_integrations);
  EXPECT_EQ(stats.accepted_without_integration, total_accepted);
  EXPECT_EQ(stats.results, total_results);
}

TEST(QueryTrace, EngineExecutePublishesSameShape) {
  auto fixture = Fixture::Make(1000, 41);
  const core::PrqEngine engine(&fixture.tree);
  mc::MonteCarloEvaluator evaluator(
      mc::MonteCarloOptions{.samples = 500, .seed = 5});
  const auto query = MakeQuery(fixture, 5, 10.0, 25.0, 0.05);

  core::PrqStats stats;
  auto result = engine.Execute(query, core::PrqOptions(), &evaluator, &stats);
  ASSERT_TRUE(result.ok());
  // The sequential path fills the same PrqStats ledger.
  EXPECT_EQ(stats.pruned_rr_fringe + stats.pruned_bf_outer + stats.pruned_or +
                stats.pruned_marginal + stats.accepted_without_integration +
                stats.integration_candidates,
            stats.index_candidates);
}

TEST(QueryTrace, SpanAccumulatesAndNullTraceIsNoOp) {
  QueryTrace trace;
  {
    QueryTrace::Span span(&trace, QueryTrace::kPhase1);
  }
  {
    QueryTrace::Span span(nullptr, QueryTrace::kPhase2);  // must not crash
  }
  // A span's duration is non-negative and lands in its phase slot only.
  EXPECT_EQ(trace.phase_nanos[QueryTrace::kPhase2], 0u);
  EXPECT_EQ(trace.phase_nanos[QueryTrace::kPhase3], 0u);
}

}  // namespace
}  // namespace gprq::obs
