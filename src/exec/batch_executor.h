#ifndef GPRQ_EXEC_BATCH_EXECUTOR_H_
#define GPRQ_EXEC_BATCH_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "exec/overload.h"
#include "exec/worker_pool.h"
#include "mc/probability_evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gprq::exec {

/// Executor-level throughput counters, aggregated over every query an
/// executor has served. PrqStats describes one query; ExecStats describes
/// the serving process — the figure of merit for a sustained query stream
/// (Bernecker et al. / von Looz & Meyerhenke measure their probabilistic
/// query engines the same way).
///
/// Since the obs subsystem landed, this struct is a *view* over the global
/// obs::MetricRegistry (`gprq.exec.*` counters): Snapshot() reads the
/// registry and subtracts the values captured at executor construction, so
/// the numbers stay per-executor while the registry remains the single
/// source of truth for exporters and benches.
struct ExecStats {
  /// Queries completed (Submit counts 1, SubmitBatch counts its size).
  uint64_t queries = 0;
  /// Phase-3 numerical integrations performed across all queries.
  uint64_t integrations = 0;
  /// Objects accepted via the BF inner radius, i.e. integrations avoided.
  uint64_t accepted_without_integration = 0;
  /// Total result cardinality across all queries.
  uint64_t results = 0;
  /// Seconds since the executor was constructed.
  double uptime_seconds = 0.0;
  /// Phase-3 tasks waiting in the pool queue when the snapshot was taken.
  size_t queue_depth = 0;
  /// Worker threads (and evaluators) owned by the executor.
  size_t num_workers = 0;

  double queries_per_second() const {
    return uptime_seconds > 0.0 ? static_cast<double>(queries) / uptime_seconds
                                : 0.0;
  }
  double integrations_per_second() const {
    return uptime_seconds > 0.0
               ? static_cast<double>(integrations) / uptime_seconds
               : 0.0;
  }
};

/// Persistent Phase-3 executor for query streams.
///
/// Construction starts a WorkerPool and builds exactly one evaluator per
/// worker through the factory (seeded once, e.g. with the worker index);
/// both live until the executor is destroyed. The evaluator-lifetime
/// contract: evaluator `w` is only ever touched by pool worker `w`, one
/// task at a time, so evaluators keep their mutable state (RNG streams,
/// adaptive-sampling statistics) across queries without synchronization —
/// and a Monte-Carlo worker's stream advances across the whole query
/// stream instead of being re-seeded per query.
///
/// Submit runs Phases 1-2 on the calling thread (they are cheap — the paper
/// attributes >= 97% of query time to Phase 3) and fans the surviving
/// integrations across the pool. SubmitBatch does the same for a whole
/// batch, interleaving every query's Phase-3 chunks in one fan-out so the
/// pool never idles between queries.
///
/// Phase 3 is pooled: before the fan-out, evaluator 0 builds one read-only
/// mc::SamplePool per query on the submitting thread (sampling evaluators
/// only; exact evaluators return none), and every candidate chunk is decided
/// with one batched DecideBatchBounded call against that shared pool. The
/// O(samples · d²) Gaussian draw is paid once per query instead of once per
/// candidate, and — since the samples no longer come from whichever worker's
/// RNG happens to evaluate a candidate — Phase-3 results are bit-identical
/// regardless of the worker count (see tests/determinism_test.cc).
///
/// An exception thrown by an evaluator inside a worker is captured and
/// surfaced as Status::Internal from the submitting call; it never reaches
/// std::terminate.
///
/// Thread-compatible: one thread submits at a time (the workers are the
/// parallelism). Snapshot() may be called concurrently with submissions.
/// Exception: with an OverloadPolicy installed, Submit/SubmitBounded are
/// fully thread-safe — admission control serializes execution internally
/// (clients blocked at admission are exactly the bounded submission
/// queue), so any number of client threads may call them concurrently.
class BatchExecutor {
 public:
  /// Builds the pool and one evaluator per worker. Fails with
  /// InvalidArgument if the factory is null, returns a null evaluator, or
  /// `num_threads` is 0, and with Internal if the factory throws.
  static Result<std::unique_ptr<BatchExecutor>> Create(
      const core::PrqEngine* engine,
      const core::PrqEngine::EvaluatorFactory& factory, size_t num_threads);

  /// Like Create, but with overload protection installed from the start:
  /// Submit/SubmitBounded go through admission control (see overload.h).
  /// Fails with InvalidArgument if the policy does not validate.
  static Result<std::unique_ptr<BatchExecutor>> Create(
      const core::PrqEngine* engine,
      const core::PrqEngine::EvaluatorFactory& factory, size_t num_threads,
      const OverloadPolicy& policy);

  /// An executor with no engine of its own: the pool, evaluators and the
  /// source-parameterised entry points (ExecuteBounded,
  /// IntegrateOutcomeBounded, RunTasks) work as usual, but the
  /// engine-routed entry points (Submit*/SetOverloadPolicy) fail with
  /// InvalidArgument. The sharded and live engines use this form — they
  /// own their candidate sources and the executor only supplies shared
  /// workers and per-worker evaluators.
  static Result<std::unique_ptr<BatchExecutor>> CreateDetached(
      const core::PrqEngine::EvaluatorFactory& factory, size_t num_threads);

  /// Runs one query: SubmitBounded with the answer required complete
  /// (core::RequireComplete) — a degraded, shed or browned-out run surfaces
  /// as its status. Result-set semantics identical to PrqEngine::Execute
  /// with an equivalent evaluator (order may differ; compare as sets).
  ///
  /// If `trace` is non-null it receives the full per-query record: filter
  /// phase spans and prune breakdown from the engine, plus the Phase-3
  /// integration count, result size, and sampling counters. The sampling
  /// fields (samples_used / early_stops / undecided) are measured as
  /// registry deltas around the fan-out, so they are exact when this
  /// executor is the only sampler in flight (the serving configuration:
  /// one submitter per executor, one executor per process).
  Result<std::vector<index::ObjectId>> Submit(
      const core::PrqQuery& query, const core::PrqOptions& options,
      core::PrqStats* stats = nullptr, obs::QueryTrace* trace = nullptr);

  /// Deadline/cancellation-aware Submit: honors options.control and
  /// degrades to a sound partial core::PrqResult when it fires (decided
  /// candidates are exact, the unresolved remainder is listed in
  /// `undecided`, `status` carries DeadlineExceeded/Cancelled). A worker
  /// exception degrades the same way: the failing chunk's candidates
  /// surface as undecided with status Internal. An error Result is returned
  /// only for invalid queries.
  ///
  /// With an OverloadPolicy installed this is the governed, thread-safe
  /// entry point: the query passes admission control first and may come
  /// back immediately with `status` ResourceExhausted (shed or rejected —
  /// the message carries a retry_after_ms hint, see
  /// exec::RetryAfterSeconds), or run with brownout-degraded budgets, in
  /// which case unresolved candidates are listed in `undecided` and
  /// `status` is ResourceExhausted while `ids` stay exact.
  Result<core::PrqResult> SubmitBounded(const core::PrqQuery& query,
                                        const core::PrqOptions& options,
                                        core::PrqStats* stats = nullptr,
                                        obs::QueryTrace* trace = nullptr);

  /// Runs a batch; `results[i]` answers `queries[i]`. All queries' Phase-3
  /// chunks share one fan-out. If `stats` is non-null it is resized to the
  /// batch and `(*stats)[i]` receives query i's filter-phase timings and
  /// counts; phase3_seconds reports the shared fan-out's wall time (the
  /// per-query attribution does not exist when chunks interleave). Fails
  /// fast on the first query whose validation fails.
  Result<std::vector<std::vector<index::ObjectId>>> SubmitBatch(
      const std::vector<core::PrqQuery>& queries,
      const core::PrqOptions& options,
      std::vector<core::PrqStats>* stats = nullptr);

  /// Deadline/cancellation-aware batch with per-query fault isolation:
  /// `results[i]` answers `queries[i]`, and one query failing — invalid
  /// arguments, an evaluator exception in one of its chunks, its deadline
  /// firing — degrades only that query's PrqResult (status non-OK,
  /// unresolved candidates in `undecided`) while every other query
  /// completes exactly as if submitted alone. `controls` (optional) gives
  /// each query its own deadline/cancellation, overriding options.control;
  /// it must match `queries` in size. All queries still share one Phase-3
  /// fan-out. An error Result is returned only for a malformed call
  /// (mismatched `controls` size), never for a per-query failure.
  ///
  /// Batch submission bypasses admission control: a batch comes from one
  /// trusted caller that already chose its size, and per-query admission
  /// inside a shared fan-out would tear the batch apart. Open-loop query
  /// streams that need overload protection submit per query.
  Result<std::vector<core::PrqResult>> SubmitBatchBounded(
      const std::vector<core::PrqQuery>& queries,
      const core::PrqOptions& options,
      const std::vector<common::QueryControl>* controls = nullptr,
      std::vector<core::PrqStats>* stats = nullptr);

  /// The one cached bounded query body of every fanned-out surface
  /// (SubmitBounded, storage::LivePrqEngine, shard::ShardedPrqEngine):
  ///
  ///   1. `cache` lookup at `epoch` (skipped when `cache` is null): an exact
  ///      hit is served verbatim, before any stop check;
  ///   2. the filter pass (core::RunFilterPhases) over `source` — or, on a
  ///      semantic hit, over the cached candidate superset;
  ///   3. the Phase-3 fan-out under options.control
  ///      (IntegrateOutcomeBounded);
  ///   4. publication of a complete answer into `cache`, keyed at `epoch`.
  ///
  /// `epoch` is the pinned snapshot epoch the cache validates lookups and
  /// inserts against (0 for a static dataset). `ticket`, when non-null,
  /// gets its admission cost refined with the true survivor count. Same
  /// result contract as SubmitBounded.
  Result<core::PrqResult> ExecuteBounded(
      const core::PrqQuery& query, const core::PrqOptions& options,
      size_t dim, const core::Catalogs& catalogs,
      const core::CandidateSource& source, cache::ResultCache* cache,
      uint64_t epoch, core::PrqStats* stats, obs::QueryTrace* trace,
      AdmissionTicket* ticket = nullptr);

  /// Fans Phase 3 of an already-filtered query across the pool under
  /// `control` and returns a (possibly partial) core::PrqResult instead of
  /// failing the whole query on a deadline or worker error. `stats` (if
  /// non-null) receives phase3_seconds and result_size on top of whatever
  /// the filter pass already wrote; `trace` (if non-null) receives the
  /// Phase-3 fields the same way. Used by ExecuteBounded and
  /// PrqEngine::ExecuteParallel.
  Result<core::PrqResult> IntegrateOutcomeBounded(
      const core::PrqQuery& query, core::PrqEngine::FilterOutcome outcome,
      const common::QueryControl& control, core::PrqStats* stats = nullptr,
      obs::QueryTrace* trace = nullptr,
      mc::PoolVariant pool_variant = mc::PoolVariant::kPseudoRandom);

  /// Runs arbitrary tasks on the worker pool and blocks until all have
  /// finished. Each task receives its worker index; a task that throws is
  /// captured (first error wins, the rest still run) and surfaced as
  /// Status::Internal. The caller must not have a Phase-3 fan-out in
  /// flight, and the tasks must not touch the per-worker evaluators —
  /// this is the scatter primitive the sharded engine uses to run its
  /// per-shard Phase-1 searches on the same threads that later run Phase 3.
  Status RunTasks(std::vector<WorkerPool::Task> tasks);

  /// Point-in-time throughput counters.
  ExecStats Snapshot() const;

  size_t num_workers() const { return pool_.num_workers(); }

  /// The engine Submit* routes through, or null for a detached executor.
  /// The network front-end reads dataset facts (dim, size) through it.
  const core::PrqEngine* engine() const { return engine_; }

  /// Drain hook for serving front-ends: blocks until every governed
  /// submission admitted through the OverloadController has been released
  /// (trivially immediate for an ungoverned executor, whose callers are
  /// the in-flight tracker). Returns DeadlineExceeded when queries are
  /// still in flight after `timeout_seconds`.
  Status Drain(double timeout_seconds = 5.0);

  /// Installs (or replaces) the overload policy after construction. Not
  /// safe to call while submissions are in flight; meant for startup
  /// configuration (tools, tests). Fails if the policy does not validate.
  Status SetOverloadPolicy(const OverloadPolicy& policy);

  /// Installs the semantic result cache (see cache::ResultCache). Like
  /// SetOverloadPolicy, a startup knob — not safe while submissions are in
  /// flight. Once enabled, Submit/SubmitBounded run ExecuteBounded with it:
  /// the cache is consulted before the filter phases and every complete
  /// answer is published into it; cached
  /// answers (exact or containment-served) are set-identical to fresh
  /// execution because Phase-3 sample pools are a pure function of
  /// (evaluator seed, query). Batch submissions bypass the cache — a batch
  /// shares one fan-out and its queries are typically all distinct.
  /// The executor owns the cache; it is valid for this executor's dataset
  /// and evaluator configuration only.
  Status EnableResultCache(const cache::ResultCacheOptions& options);

  /// The result cache, or null when not enabled. Exposed for observability
  /// and invalidation (the future online-update path calls
  /// result_cache()->Invalidate(region) after a dataset mutation).
  cache::ResultCache* result_cache() const { return cache_.get(); }

  /// The admission controller, or null when no policy is installed.
  /// Exposed for observability (state, in-flight cost) — benches and the
  /// CLI read it; clients should not Admit/Release through it directly.
  OverloadController* overload() const { return overload_.get(); }

 private:
  BatchExecutor(const core::PrqEngine* engine,
                std::vector<std::unique_ptr<mc::ProbabilityEvaluator>>
                    evaluators);

  /// Captures the first worker error of a fan-out.
  struct ErrorCollector {
    std::mutex mutex;
    bool failed = false;
    std::string message;

    void Record(std::string msg);
    Status ToStatus() const;
  };

  /// Per-query Phase-3 state of one fan-out. Each query gets its own slot —
  /// its own merge lock, undecided list, and error collector — so one
  /// query's worker exception or deadline can never poison the answers of
  /// the other queries sharing the fan-out.
  struct QuerySlot {
    std::vector<index::ObjectId> merged;
    std::vector<index::ObjectId> undecided;
    std::mutex merge_mutex;
    ErrorCollector errors;
  };

  /// Enqueues the Phase-3 chunk tasks for one query's survivors. `pool` is
  /// the query's shared sample pool from MakeQueryPool (may be null); each
  /// chunk task holds a reference until it finishes. Qualifying ids are
  /// appended to slot->merged and unresolved candidates (control fired,
  /// chunk failpoint, evaluator exception — the whole chunk in the latter
  /// two cases) to slot->undecided, both under slot->merge_mutex; counts
  /// `latch` down once per chunk (Phase3ChunkCount(survivors.size())
  /// chunks total).
  void EnqueuePhase3(
      const core::PrqQuery& query,
      const std::vector<std::pair<la::Vector, index::ObjectId>>& survivors,
      std::shared_ptr<const mc::SamplePool> pool,
      const common::QueryControl& control, QuerySlot* slot,
      CountdownLatch* latch);

  /// Builds the query's shared read-only sample pool through evaluator 0
  /// (null for evaluators that don't sample). Must run on the submitting
  /// thread while no fan-out is in flight: it advances evaluator 0's
  /// dedicated pool stream, and the task-queue handoff orders that write
  /// before any worker touches the pool. Because the pool — not a worker's
  /// RNG — supplies every sample of the query, Phase-3 results are
  /// bit-identical for any GPRQ_THREADS.
  std::shared_ptr<const mc::SamplePool> MakeQueryPool(
      const core::PrqQuery& query, mc::PoolVariant pool_variant);

  size_t Phase3ChunkCount(size_t survivors) const;

  /// Registry-backed executor metrics (`gprq.exec.*`), resolved once at
  /// construction. `baseline_*` hold the counter values at construction so
  /// Snapshot() can report this executor's own traffic even though the
  /// counters are process-wide.
  struct Metrics {
    obs::Counter* queries;
    obs::Counter* integrations;
    obs::Counter* accepted_without_integration;
    obs::Counter* results;
    obs::Gauge* num_workers;
    obs::Histogram* phase3_nanos;
    // Per-worker integration counters (`gprq.exec.worker.<w>.integrations`
    // — the load-balance view the static chunk partition is judged by).
    std::vector<obs::Counter*> worker_integrations;
    uint64_t baseline_queries = 0;
    uint64_t baseline_integrations = 0;
    uint64_t baseline_accepted = 0;
    uint64_t baseline_results = 0;
  };

  const core::PrqEngine* engine_;
  WorkerPool pool_;
  // One per worker; evaluators_[w] is touched only by pool worker w.
  std::vector<std::unique_ptr<mc::ProbabilityEvaluator>> evaluators_;

  // Overload protection (null until a policy is installed). submit_mutex_
  // serializes governed submissions so concurrent clients respect the
  // single-submitter evaluator contract; the wait happens *after*
  // admission, so shed queries never contend for it.
  std::unique_ptr<OverloadController> overload_;
  std::mutex submit_mutex_;
  double dataset_density_ = 0.0;

  // Semantic result cache (null until enabled).
  std::unique_ptr<cache::ResultCache> cache_;

  Stopwatch uptime_;
  Metrics metrics_;
};

}  // namespace gprq::exec

#endif  // GPRQ_EXEC_BATCH_EXECUTOR_H_
