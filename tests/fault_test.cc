// Fault-injection battery: the FailpointRegistry itself (trigger
// accounting, count/probability gating, spec parsing), every injection
// site in the serving path (page-file read/write, buffer-pool get, worker
// dispatch latency, batch-executor chunks), the paged tree's bounded
// retry-with-backoff for transient reads, and graceful degradation when
// injected latency makes a deadline fire mid-Phase-3.

#include "fault/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "core/engine.h"
#include "exec/batch_executor.h"
#include "index/paged_tree.h"
#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "obs/metrics.h"
#include "workload/generators.h"

namespace gprq::fault {
namespace {

/// Every test disarms everything on entry and exit: the registry is
/// process-global and a leaked armed site would poison unrelated tests.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kEnabled) GTEST_SKIP() << "built with GPRQ_FAULT=OFF";
    FailpointRegistry::Global().DisarmAll();
  }
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

uint64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name)->Value();
}

// ---- Registry semantics. --------------------------------------------------

TEST_F(FaultTest, DisarmedSiteCostsNothingAndReturnsOk) {
  EXPECT_TRUE(GPRQ_FAILPOINT("test.nowhere.op").ok());
  EXPECT_TRUE(FailpointRegistry::Global().Armed().empty());
  EXPECT_EQ(FailpointRegistry::Global().Stats("test.nowhere.op").triggers,
            0u);
}

TEST_F(FaultTest, ArmedSiteInjectsConfiguredErrorNamingTheSite) {
  FailpointConfig config;
  config.code = StatusCode::kInternal;
  config.message = "chaos";
  FailpointRegistry::Global().Arm("test.site.a", config);
  const Status injected = GPRQ_FAILPOINT("test.site.a");
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.code(), StatusCode::kInternal);
  EXPECT_NE(injected.message().find("test.site.a"), std::string::npos);
  EXPECT_NE(injected.message().find("chaos"), std::string::npos);
  // Other sites are unaffected.
  EXPECT_TRUE(GPRQ_FAILPOINT("test.site.b").ok());
  FailpointRegistry::Global().Disarm("test.site.a");
  EXPECT_TRUE(GPRQ_FAILPOINT("test.site.a").ok());
}

TEST_F(FaultTest, MaxTriggersModelsATransientFault) {
  FailpointConfig config;
  config.max_triggers = 1;
  FailpointRegistry::Global().Arm("test.site.transient", config);
  EXPECT_FALSE(GPRQ_FAILPOINT("test.site.transient").ok());  // fails once
  EXPECT_TRUE(GPRQ_FAILPOINT("test.site.transient").ok());   // recovered
  EXPECT_TRUE(GPRQ_FAILPOINT("test.site.transient").ok());
  const FailpointStats stats =
      FailpointRegistry::Global().Stats("test.site.transient");
  EXPECT_EQ(stats.evaluations, 3u);
  EXPECT_EQ(stats.triggers, 1u);
}

TEST_F(FaultTest, SkipDelaysTheFirstTrigger) {
  FailpointConfig config;
  config.skip = 2;
  FailpointRegistry::Global().Arm("test.site.skip", config);
  EXPECT_TRUE(GPRQ_FAILPOINT("test.site.skip").ok());
  EXPECT_TRUE(GPRQ_FAILPOINT("test.site.skip").ok());
  EXPECT_FALSE(GPRQ_FAILPOINT("test.site.skip").ok());  // the 3rd fails
}

TEST_F(FaultTest, ZeroProbabilityNeverTriggers) {
  FailpointConfig config;
  config.probability = 0.0;
  FailpointRegistry::Global().Arm("test.site.never", config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(GPRQ_FAILPOINT("test.site.never").ok());
  }
  EXPECT_EQ(FailpointRegistry::Global().Stats("test.site.never").triggers,
            0u);
}

TEST_F(FaultTest, ArmFromSpecParsesSitesAndRejectsMalformedSpecsAtomically) {
  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry
                  .ArmFromSpec("a.b.read=error(io,max=1);"
                               "c.d.task=delay(10)")
                  .ok());
  EXPECT_EQ(registry.Armed(),
            (std::vector<std::string>{"a.b.read", "c.d.task"}));
  EXPECT_FALSE(GPRQ_FAILPOINT("a.b.read").ok());
  EXPECT_TRUE(GPRQ_FAILPOINT("a.b.read").ok());  // max=1 consumed
  EXPECT_TRUE(GPRQ_FAILPOINT("c.d.task").ok());  // delay-only never errors

  registry.DisarmAll();
  // One bad entry arms nothing, even when earlier entries were valid.
  EXPECT_FALSE(registry.ArmFromSpec("a.b.read=error(io);oops").ok());
  EXPECT_FALSE(registry.ArmFromSpec("a.b.read=error(nosuchcode)").ok());
  EXPECT_FALSE(registry.ArmFromSpec("a.b.read=delay(0)").ok());
  EXPECT_TRUE(registry.Armed().empty());
}

TEST_F(FaultTest, ArmFromEnvReadsTheSpecVariable) {
  auto& registry = FailpointRegistry::Global();
  // Unset (or empty) variable arms nothing and is not an error.
  ::unsetenv("GPRQ_FAULT_TEST_SPEC");
  EXPECT_TRUE(registry.ArmFromEnv("GPRQ_FAULT_TEST_SPEC").ok());
  EXPECT_TRUE(registry.Armed().empty());

  ::setenv("GPRQ_FAULT_TEST_SPEC", "x.y.read=error(io,max=1)", 1);
  EXPECT_TRUE(registry.ArmFromEnv("GPRQ_FAULT_TEST_SPEC").ok());
  EXPECT_EQ(registry.Armed(), (std::vector<std::string>{"x.y.read"}));
  EXPECT_FALSE(GPRQ_FAILPOINT("x.y.read").ok());

  registry.DisarmAll();
  ::setenv("GPRQ_FAULT_TEST_SPEC", "x.y.read=error(nosuchcode)", 1);
  EXPECT_FALSE(registry.ArmFromEnv("GPRQ_FAULT_TEST_SPEC").ok());
  EXPECT_TRUE(registry.Armed().empty());
  ::unsetenv("GPRQ_FAULT_TEST_SPEC");
}

// ---- Index-layer sites. ---------------------------------------------------

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST_F(FaultTest, PageFileReadSiteInjectsThenRecovers) {
  const std::string path = TempPath("fault_pf_read.pages");
  auto file = index::PageFile::Create(path, 256);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Allocate().ok());

  FailpointConfig config;
  config.max_triggers = 1;
  FailpointRegistry::Global().Arm("index.page_file.read", config);
  std::vector<uint8_t> buffer;
  const Status injected = file->ReadPage(0, &buffer);
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.code(), StatusCode::kIoError);
  EXPECT_TRUE(file->ReadPage(0, &buffer).ok());  // transient: recovered
  std::remove(path.c_str());
}

TEST_F(FaultTest, PageFileWriteSiteFailsSnapshotWritesCleanly) {
  const auto dataset = workload::GenerateUniform(
      200, geom::Rect(la::Vector{0.0, 0.0}, la::Vector{100.0, 100.0}), 21);
  index::RStarTreeOptions options;
  options.max_entries = 28;  // fits the paper's 1 KB pages in 2-D
  auto tree = index::StrBulkLoader::Load(2, dataset.points, options);
  ASSERT_TRUE(tree.ok());

  const std::string path = TempPath("fault_pf_write.snapshot");
  FailpointRegistry::Global().Arm("index.page_file.write", FailpointConfig());
  const Status failed = index::TreeSnapshot::Write(*tree, path, 1024);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);

  FailpointRegistry::Global().DisarmAll();
  ASSERT_TRUE(index::TreeSnapshot::Write(*tree, path, 1024).ok());
  std::remove(path.c_str());
}

TEST_F(FaultTest, BufferPoolGetSiteHitsCachedPagesToo) {
  const std::string path = TempPath("fault_bp_get.pages");
  auto file = index::PageFile::Create(path, 256);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Allocate().ok());
  index::BufferPool pool(&*file, 4);
  ASSERT_TRUE(pool.GetPage(0).ok());  // now cached

  FailpointRegistry::Global().Arm("index.buffer_pool.get", FailpointConfig());
  auto faulted = pool.GetPage(0);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kIoError);
  FailpointRegistry::Global().DisarmAll();
  EXPECT_TRUE(pool.GetPage(0).ok());
  std::remove(path.c_str());
}

// ---- Paged-tree retry policy. ---------------------------------------------

struct PagedFixture {
  std::string path;
  workload::Dataset dataset;
  index::PagedRStarTree tree;

  static PagedFixture Make(const char* name, uint64_t seed) {
    const std::string path = TempPath(name);
    const geom::Rect extent(la::Vector{0.0, 0.0},
                            la::Vector{1000.0, 1000.0});
    auto dataset = workload::GenerateClustered(800, extent, 8, 40.0, seed);
    index::RStarTreeOptions options;
    options.max_entries = 28;  // fits the paper's 1 KB pages in 2-D
    auto built = index::StrBulkLoader::Load(2, dataset.points, options);
    EXPECT_TRUE(built.ok());
    EXPECT_TRUE(index::TreeSnapshot::Write(*built, path, 1024).ok());
    auto paged = index::PagedRStarTree::Open(path, {.page_size = 1024});
    EXPECT_TRUE(paged.ok());
    return PagedFixture{path, std::move(dataset), std::move(*paged)};
  }
};

TEST_F(FaultTest, TransientReadFaultIsRetriedAndTheQuerySucceeds) {
  auto fixture = PagedFixture::Make("fault_retry_ok.snapshot", 22);
  const geom::Rect box(la::Vector{0.0, 0.0}, la::Vector{1000.0, 1000.0});
  std::vector<index::ObjectId> expected;
  ASSERT_TRUE(fixture.tree.RangeQuery(box, &expected).ok());
  ASSERT_EQ(expected.size(), fixture.dataset.size());

  fixture.tree.DropCache();  // every page read goes to the (armed) file
  FailpointConfig config;
  config.max_triggers = 1;
  FailpointRegistry::Global().Arm("index.page_file.read", config);
  const uint64_t retries_before =
      CounterValue("gprq.fault.page_read_retries");
  std::vector<index::ObjectId> got;
  ASSERT_TRUE(fixture.tree.RangeQuery(box, &got).ok());
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  if constexpr (obs::kEnabled) {
    EXPECT_GE(CounterValue("gprq.fault.page_read_retries"),
              retries_before + 1);
  }
  std::remove(fixture.path.c_str());
}

TEST_F(FaultTest, RetryExhaustionSurfacesACleanIoError) {
  auto fixture = PagedFixture::Make("fault_retry_dead.snapshot", 23);
  fixture.tree.DropCache();
  FailpointRegistry::Global().Arm("index.page_file.read",
                                  FailpointConfig());  // persistent fault
  const uint64_t exhausted_before =
      CounterValue("gprq.fault.page_read_retry_exhausted");
  const geom::Rect box(la::Vector{0.0, 0.0}, la::Vector{1000.0, 1000.0});
  std::vector<index::ObjectId> out;
  const Status failed = fixture.tree.RangeQuery(box, &out);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  if constexpr (obs::kEnabled) {
    EXPECT_GE(CounterValue("gprq.fault.page_read_retry_exhausted"),
              exhausted_before + 1);
  }
  // Disarm: the tree was not corrupted by the faulted traversal.
  FailpointRegistry::Global().DisarmAll();
  out.clear();
  ASSERT_TRUE(fixture.tree.RangeQuery(box, &out).ok());
  EXPECT_EQ(out.size(), fixture.dataset.size());
  std::remove(fixture.path.c_str());
}

// ---- Phase-3 degradation under injected faults. ---------------------------

struct EngineFixture {
  workload::Dataset dataset;
  index::RStarTree tree;

  static EngineFixture Make(size_t n, uint64_t seed) {
    const geom::Rect extent(la::Vector{0.0, 0.0},
                            la::Vector{1000.0, 1000.0});
    auto dataset = workload::GenerateClustered(n, extent, 14, 35.0, seed);
    auto tree = index::StrBulkLoader::Load(2, dataset.points);
    EXPECT_TRUE(tree.ok());
    return EngineFixture{std::move(dataset), std::move(*tree)};
  }
};

core::PrqQuery MakeQuery(const EngineFixture& fixture, size_t center_index) {
  auto g = core::GaussianDistribution::Create(
      fixture.dataset.points[center_index % fixture.dataset.size()],
      workload::PaperCovariance2D(10.0));
  EXPECT_TRUE(g.ok());
  return core::PrqQuery{std::move(*g), 25.0, 0.01};
}

core::PrqEngine::EvaluatorFactory ExactFactory() {
  return [](size_t) -> std::unique_ptr<mc::ProbabilityEvaluator> {
    return std::make_unique<mc::ImhofEvaluator>();
  };
}

std::set<index::ObjectId> AsSet(const std::vector<index::ObjectId>& ids) {
  return {ids.begin(), ids.end()};
}

/// The partial-result soundness invariant every degraded answer must obey:
/// decided ∪ undecided covers all candidates, the two are disjoint, and
/// every decided id agrees with the complete run (no guesses).
void ExpectSoundPartial(const core::PrqResult& partial,
                        const std::vector<index::ObjectId>& full,
                        const core::PrqStats& stats) {
  const auto ids = AsSet(partial.ids);
  const auto undecided = AsSet(partial.undecided);
  const auto full_set = AsSet(full);
  EXPECT_EQ(ids.size() + undecided.size(),
            partial.ids.size() + partial.undecided.size())
      << "duplicate ids in the partial result";
  for (const auto id : ids) {
    EXPECT_TRUE(full_set.count(id)) << "degraded run invented id " << id;
    EXPECT_FALSE(undecided.count(id)) << "id both decided and undecided";
  }
  for (const auto id : full_set) {
    EXPECT_TRUE(ids.count(id) || undecided.count(id))
        << "qualifier " << id << " silently dropped";
  }
  // Ledger: decided + undecided accounts for every Phase-3 candidate plus
  // the inner-accepted ids (excluded candidates are "decided" too — they
  // are simply not part of `ids`).
  EXPECT_LE(partial.undecided.size(), stats.integration_candidates);
}

TEST_F(FaultTest, ChunkFaultDegradesToUndecidedWithInternalStatus) {
  const auto fixture = EngineFixture::Make(3000, 24);
  const core::PrqEngine engine(&fixture.tree);
  const auto query = MakeQuery(fixture, 900);

  mc::ImhofEvaluator exact;
  core::PrqStats full_stats;
  auto full = engine.Execute(query, core::PrqOptions(), &exact, &full_stats);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full_stats.integration_candidates, 0u);

  auto executor = exec::BatchExecutor::Create(&engine, ExactFactory(), 2);
  ASSERT_TRUE(executor.ok());
  FailpointRegistry::Global().Arm("exec.batch_executor.chunk",
                                  FailpointConfig());
  core::PrqStats stats;
  auto degraded = (*executor)->SubmitBounded(query, core::PrqOptions(),
                                             &stats);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->status.code(), StatusCode::kInternal);
  EXPECT_EQ(degraded->undecided.size(), stats.integration_candidates);
  ExpectSoundPartial(*degraded, *full, stats);

  // Disarm: same executor completes the same query exactly.
  FailpointRegistry::Global().DisarmAll();
  auto recovered = (*executor)->SubmitBounded(query, core::PrqOptions());
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->complete());
  EXPECT_EQ(AsSet(recovered->ids), AsSet(*full));
}

TEST_F(FaultTest, ChunkFaultIsolatesToOneQueryOfAStream) {
  const auto fixture = EngineFixture::Make(3000, 25);
  const core::PrqEngine engine(&fixture.tree);
  std::vector<core::PrqQuery> queries;
  for (size_t q = 0; q < 4; ++q) {
    queries.push_back(MakeQuery(fixture, q * 613));
  }

  auto reference_exec = exec::BatchExecutor::Create(&engine, ExactFactory(), 2);
  ASSERT_TRUE(reference_exec.ok());
  std::vector<core::PrqResult> reference;
  for (const core::PrqQuery& query : queries) {
    auto result = (*reference_exec)->SubmitBounded(query, core::PrqOptions());
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->complete());
    reference.push_back(std::move(*result));
  }

  // skip=2: with 2 workers each query contributes 2 chunks, so the fault
  // fires inside the second query's chunks and exhausts before the rest.
  auto executor = exec::BatchExecutor::Create(&engine, ExactFactory(), 2);
  ASSERT_TRUE(executor.ok());
  FailpointConfig config;
  config.skip = 2;
  config.max_triggers = 2;
  FailpointRegistry::Global().Arm("exec.batch_executor.chunk", config);
  std::vector<core::PrqResult> stream;
  for (const core::PrqQuery& query : queries) {
    auto result = (*executor)->SubmitBounded(query, core::PrqOptions());
    ASSERT_TRUE(result.ok());
    stream.push_back(std::move(*result));
  }

  size_t degraded_queries = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (!stream[q].status.ok()) {
      EXPECT_EQ(stream[q].status.code(), StatusCode::kInternal);
      EXPECT_FALSE(stream[q].undecided.empty());
      ++degraded_queries;
      continue;
    }
    EXPECT_TRUE(stream[q].complete()) << "query " << q;
    EXPECT_EQ(AsSet(stream[q].ids), AsSet(reference[q].ids))
        << "healthy query " << q << " was perturbed by another's fault";
  }
  // The two triggers land in chunks of at most two distinct queries; the
  // rest of the stream must have completed untouched.
  EXPECT_GE(degraded_queries, 1u);
  EXPECT_LE(degraded_queries, 2u);
}

TEST_F(FaultTest, InjectedWorkerLatencyMakesTheDeadlineFireMidPhase3) {
  const auto fixture = EngineFixture::Make(3000, 26);
  const core::PrqEngine engine(&fixture.tree);
  const auto query = MakeQuery(fixture, 1200);

  mc::ImhofEvaluator exact;
  core::PrqStats full_stats;
  auto full = engine.Execute(query, core::PrqOptions(), &exact, &full_stats);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full_stats.integration_candidates, 0u);

  auto executor = exec::BatchExecutor::Create(&engine, ExactFactory(), 2);
  ASSERT_TRUE(executor.ok());
  // Every dispatched task sleeps well past the deadline: the control fires
  // while Phase 3 is in flight, after the fan-out began.
  FailpointConfig config;
  config.fail = false;
  config.latency_micros = 100000;  // 100 ms
  FailpointRegistry::Global().Arm("exec.worker_pool.task", config);
  const uint64_t delays_before = CounterValue("gprq.fault.injected_delays");

  core::PrqOptions options;
  options.control =
      common::QueryControl::WithDeadline(common::Deadline::After(0.03));
  core::PrqStats stats;
  auto degraded = (*executor)->SubmitBounded(query, options, &stats);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(degraded->undecided.empty());
  ExpectSoundPartial(*degraded, *full, stats);
  if constexpr (obs::kEnabled) {
    EXPECT_GE(CounterValue("gprq.fault.injected_delays"), delays_before + 1);
  }

  // The executor serves complete answers again once the latency is gone.
  FailpointRegistry::Global().DisarmAll();
  auto recovered = (*executor)->SubmitBounded(query, core::PrqOptions());
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->complete());
  EXPECT_EQ(AsSet(recovered->ids), AsSet(*full));
}

}  // namespace
}  // namespace gprq::fault
