// engine-2d and feedback-9d: closed-loop query streams through one
// in-process exec::BatchExecutor (1 submitter, 2 Phase-3 workers) with
// the semantic result cache on.
//
//  * engine-2d — the paper's 2-D grid on TIGER, every query distinct, so
//    every cache lookup misses and Phase 3 does nearly all the work.
//  * feedback-9d — Table III pseudo-feedback sessions on Corel, drawn by
//    Zipf popularity, each visit refining θ across the grid from 0.2 up
//    to 0.6: a popular session still cached hits exactly, a cold one
//    misses once and is then served by θ-containment (semantic) hits.
//    The distinct keys outnumber the cache's max_entries, so it evicts.
//    The shape (200 sessions, Zipf 0.8, 64 entries) puts about 20% of
//    queries on exact hits, 65% on semantic hits and 15% on misses.
#include <functional>
#include <map>
#include <memory>

#include "exec/batch_executor.h"
#include "harness.h"
#include "layers.h"
#include "queries.h"
#include "rng/random.h"
#include "workloads.h"

namespace perfbench {

namespace core = gprq::core;
namespace exec = gprq::exec;

namespace {

// feedback-9d shape: 200 sessions × 5 θ = 1000 distinct keys against a
// 64-entry cache.
constexpr size_t kSessions = 200;
constexpr double kZipfExponent = 0.8;
constexpr size_t kFeedbackCacheEntries = 64;
// The session set and its popularity order are fixed; the run seed draws
// the sequence of visits.
constexpr uint64_t kSessionSeed = 1999;

struct StaticSetup {
  gprq::workload::Dataset dataset;
  std::unique_ptr<gprq::index::RStarTree> tree;
  std::unique_ptr<core::PrqEngine> engine;
  std::unique_ptr<exec::BatchExecutor> executor;
  std::vector<FeedbackSession> sessions;
};

Result<std::unique_ptr<StaticSetup>> SetUp(bool feedback, uint64_t seed) {
  auto setup = std::make_unique<StaticSetup>();
  setup->dataset = feedback ? CorelDataset() : TigerDataset();
  auto tree = BuildTree(setup->dataset);
  if (!tree.ok()) return tree.status();
  setup->tree = std::make_unique<gprq::index::RStarTree>(std::move(*tree));
  setup->engine = std::make_unique<core::PrqEngine>(setup->tree.get());
  // The lazy U-catalogs are built here, not by the first timed query.
  setup->engine->radius_catalog();
  setup->engine->alpha_catalog();
  auto executor = exec::BatchExecutor::Create(setup->engine.get(), McFactory(),
                                              kPhase3Workers);
  if (!executor.ok()) return executor.status();
  setup->executor = std::move(*executor);
  gprq::cache::ResultCacheOptions cache_options;
  if (feedback) cache_options.max_entries = kFeedbackCacheEntries;
  GPRQ_RETURN_NOT_OK(setup->executor->EnableResultCache(cache_options));

  // Warm-up queries (first pools, evaluator scratch) whose keys the
  // measured stream never asks for: θ = 0.95 can serve no grid θ by
  // containment, and the 2-D warm-up stream has its own seed.
  std::vector<core::PrqQuery> warmups;
  if (feedback) {
    setup->sessions =
        MakeSessions(setup->dataset, *setup->tree, kSessions, kSessionSeed);
    warmups.push_back(SessionQuery(setup->sessions[0], 0.95));
  } else {
    const Query2dStream warm(&setup->dataset, ~seed);
    for (uint64_t i = 0; i < 4; ++i) warmups.push_back(warm.At(i));
  }
  for (const core::PrqQuery& query : warmups) {
    auto result = setup->executor->SubmitBounded(query, core::PrqOptions{});
    if (!result.ok()) return result.status();
  }
  return setup;
}

struct Item {
  uint64_t key = 0;
  core::PrqQuery query;
};
using Stream = std::function<Item(uint64_t)>;

Stream Engine2dStream(const StaticSetup& setup, uint64_t seed) {
  auto stream = std::make_shared<Query2dStream>(&setup.dataset, seed);
  return [stream](uint64_t i) { return Item{i, stream->At(i)}; };
}

// Visit v of the feedback stream is one Zipf-drawn session asked at all
// five θ in ascending order: query i is visit i / 5 at θ index i % 5.
Stream FeedbackStream(const StaticSetup& setup, uint64_t seed) {
  auto zipf = std::make_shared<Zipf>(setup.sessions.size(), kZipfExponent);
  const std::vector<FeedbackSession>* sessions = &setup.sessions;
  return [zipf, sessions, seed](uint64_t i) {
    const uint64_t visit = i / 5;
    gprq::rng::Random random(Mix(seed, visit));
    const size_t session = zipf->Sample(random.NextUint64());
    const size_t theta = i % 5;
    return Item{session * 5 + theta,
                SessionQuery((*sessions)[session], kFeedbackThetas[theta])};
  };
}

struct LoopResult {
  Samples latency;           // every query
  TimedSamples timed;        // every query, stamped at completion
  double start = 0.0;
  Samples traced_latency;    // trace mode: every second query
  Samples untraced_latency;  // trace mode: the others
  TraceTally tally;          // trace mode: the traced queries
  RegistryDelta delta;
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<uint64_t> keys;
  std::vector<std::vector<ObjectId>> answers;
  std::vector<char> ok;  // false: an error or an incomplete answer
  uint64_t failed = 0;
};

// Closed loop, one client: submit, wait, repeat until `seconds` pass. In
// trace mode every second query carries an obs::QueryTrace.
LoopResult ClosedLoop(exec::BatchExecutor* executor, const Stream& stream,
                      double seconds, bool trace) {
  LoopResult loop;
  const gprq::obs::RegistrySnapshot before = RegistryNow();
  const double cpu0 = SelfCpuSeconds();
  const double start = Now();
  loop.start = start;
  for (uint64_t i = 0; Now() - start < seconds; ++i) {
    Item item = stream(i);
    const bool traced = trace && (i % 2 == 1);
    gprq::obs::QueryTrace query_trace;
    const double t0 = Now();
    auto result = executor->SubmitBounded(item.query, core::PrqOptions{},
                                          nullptr,
                                          traced ? &query_trace : nullptr);
    const double t1 = Now();
    const double latency = t1 - t0;
    loop.latency.Add(latency);
    loop.timed.Add(t1, latency);
    if (traced) {
      loop.traced_latency.Add(latency);
      loop.tally.Add(query_trace, latency);
    } else {
      loop.untraced_latency.Add(latency);
    }
    loop.keys.push_back(item.key);
    const bool ok = result.ok() && result->complete();
    loop.ok.push_back(ok);
    loop.answers.push_back(ok ? Sorted(std::move(result->ids))
                              : std::vector<ObjectId>{});
    loop.failed += ok ? 0 : 1;
  }
  loop.wall = Now() - start;
  loop.cpu = SelfCpuSeconds() - cpu0;
  loop.delta = RegistryDelta(before, RegistryNow());
  return loop;
}

}  // namespace

Status RunStatic(const RunConfig& config, bool feedback, Report* report) {
  Samples setup_times;
  std::unique_ptr<StaticSetup> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup.reset();
    const double t0 = Now();
    auto made = SetUp(feedback, config.seed);
    if (!made.ok()) return made.status();
    setup_times.Add(Now() - t0);
    setup = std::move(*made);
  }
  const Stream stream = feedback ? FeedbackStream(*setup, config.seed)
                                 : Engine2dStream(*setup, config.seed);
  LoopResult loop = ClosedLoop(setup->executor.get(), stream, config.seconds,
                               config.trace);
  const double n = static_cast<double>(loop.latency.size());

  report->Set("setup_s", setup_times.Quantile(0.5), "s");
  const double end = loop.start + loop.wall;
  report->Set("query_p50_ms",
              loop.timed.SliceQuantile(loop.start, end, 0.5) * 1e3, "ms");
  report->Set("query_p99_ms", loop.latency.Quantile(0.99) * 1e3, "ms");
  report->Set("queries_per_s", n / loop.wall, "q/s");
  report->Set("cpu_ms_per_query", loop.cpu * 1e3 / n, "ms");
  report->Set("peak_rss_mb", SelfPeakRssMb(), "MiB");
  report->Set("run.queries", n, "count");
  if (config.trace) {
    SetEngineLayers(loop.tally, loop.delta, n, loop.wall, loop.cpu, report);
    SetTraceOverhead(loop.traced_latency, loop.untraced_latency, report);
  }

  // The oracle: every distinct key answered once through the plain path,
  // every measured answer compared with it as a set.
  std::map<uint64_t, size_t> slot;
  std::vector<core::PrqQuery> distinct;
  for (uint64_t i = 0; i < loop.keys.size(); ++i) {
    if (slot.emplace(loop.keys[i], distinct.size()).second) {
      distinct.push_back(stream(i).query);
    }
  }
  const double oracle_start = Now();
  auto reference =
      ReferenceAnswers(setup->engine.get(), distinct, kOracleThreads);
  if (!reference.ok()) return reference.status();
  uint64_t mismatches = 0;
  for (size_t i = 0; i < loop.keys.size(); ++i) {
    if (loop.ok[i] && loop.answers[i] != (*reference)[slot[loop.keys[i]]]) {
      ++mismatches;
    }
  }
  report->attempted += loop.keys.size();
  report->failed += loop.failed;
  report->mismatches += mismatches;
  Log("%s: %.0f queries in %.2f s (%zu distinct), oracle %.2f s, "
      "%llu failed, %llu differ from the reference",
      config.workload.c_str(), n, loop.wall, distinct.size(),
      Now() - oracle_start, static_cast<unsigned long long>(loop.failed),
      static_cast<unsigned long long>(mismatches));
  return Status::OK();
}

}  // namespace perfbench
