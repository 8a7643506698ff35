#ifndef GPRQ_STORAGE_LIVE_ENGINE_H_
#define GPRQ_STORAGE_LIVE_ENGINE_H_

// PRQ execution over a *mutable* dataset: the three-phase pipeline of the
// paper run against StorageEngine epochs instead of a frozen index.
//
// A query pins the current epoch at admission (one shared_ptr copy) and
// runs Phase 1 over that snapshot — concurrent writers commit freely and
// are simply not visible to queries already in flight, which is exactly
// the isolation level a consistent range query needs (no phantoms, no
// half-applied batches; tests/storage_snapshot_test.cc proves it under
// TSan). Everything after the pin is the shared query body
// (exec::BatchExecutor::ExecuteBounded): cache lookup, the filter pass of
// core/filter_pipeline with the snapshot as its candidate source, the
// Phase-3 fan-out on the caller's executor (a detached executor: this
// engine owns the candidate source, the executor supplies workers,
// evaluators and per-query sample pools) and cache publication — so the
// differential suite can compare the mutable path id-for-id against a
// freshly bulk-loaded R*-tree, and an exact cache hit is served before
// the stop check exactly as on the executor.
//
// The semantic result cache composes with updates: EnableResultCache
// attaches the cache to the storage engine, whose commits invalidate
// cached answers by dirtied region — a cached answer survives updates that
// cannot affect it and is dropped the moment one could. Lookups and
// publications carry the query's pinned snapshot epoch, and commits
// advance the cache's epoch (atomically with their region drop, before
// publishing their snapshot), so a commit racing a query can neither
// serve it a not-yet-invalidated entry nor let it install an answer
// computed against the pre-commit tree (see cache::ResultCache).

#include <memory>
#include <vector>

#include "cache/result_cache.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/prq.h"
#include "exec/batch_executor.h"
#include "obs/trace.h"
#include "storage/storage_engine.h"

namespace gprq::storage {

class LivePrqEngine {
 public:
  /// Both pointers are borrowed and must outlive the engine. The executor
  /// must be detached (CreateDetached) or otherwise dedicated: this engine
  /// runs its queries through ExecuteBounded.
  LivePrqEngine(StorageEngine* storage, exec::BatchExecutor* executor);

  /// Creates the semantic result cache and attaches it to the storage
  /// engine for commit-time region invalidation. A startup knob, not safe
  /// once queries or writes are in flight.
  Status EnableResultCache(const cache::ResultCacheOptions& options);

  cache::ResultCache* result_cache() const { return cache_.get(); }

  /// Deadline/cancellation-aware PRQ against the epoch current at
  /// admission. Result-set semantics identical to PrqEngine::Execute over
  /// an R*-tree holding the same points (compare as sets).
  ///
  /// Thread-compatible like BatchExecutor: one submitting thread at a time
  /// (writers and snapshot readers are unrestricted).
  Result<core::PrqResult> ExecuteBounded(const core::PrqQuery& query,
                                         const core::PrqOptions& options,
                                         core::PrqStats* stats = nullptr,
                                         obs::QueryTrace* trace = nullptr);

  /// Complete-answer convenience: ExecuteBounded through
  /// core::RequireComplete.
  Result<std::vector<index::ObjectId>> Execute(
      const core::PrqQuery& query, const core::PrqOptions& options,
      core::PrqStats* stats = nullptr, obs::QueryTrace* trace = nullptr);

 private:
  StorageEngine* storage_;
  exec::BatchExecutor* executor_;
  std::unique_ptr<cache::ResultCache> cache_;
  // Touched only by the submitting thread.
  core::Catalogs catalogs_;
};

}  // namespace gprq::storage

#endif  // GPRQ_STORAGE_LIVE_ENGINE_H_
