#ifndef GPRQ_SHARD_SHARDED_ENGINE_H_
#define GPRQ_SHARD_SHARDED_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/prq.h"
#include "core/query_backend.h"
#include "exec/batch_executor.h"
#include "index/paged_tree.h"
#include "obs/trace.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"

namespace gprq::shard {

struct ShardedEngineOptions {
  /// Buffer-pool capacity per shard, in pages. Shards have disjoint pools,
  /// so the deployment's total cache is num_shards × buffer_pages.
  size_t buffer_pages = 128;
  size_t page_size = 4096;
  /// >= 0 opens only that manifest position: the single-shard-backend mode
  /// `gprq_server --shard-only` uses so one process serves one shard of a
  /// multi-process deployment. The engine then sees a one-shard manifest
  /// (num_shards() == 1, total_points() == that shard's count); ReloadShard
  /// is unsupported in this mode (the on-disk manifest keeps every shard).
  int64_t only_shard = -1;
};

/// Scatter-gather PRQ execution over a sharded dataset (BuildShards): each
/// shard is an independent paged R*-tree with its own buffer pool, a query
/// is routed to only the shards whose MBR intersects its Phase-1 search
/// box, and Phase 1 runs shard-parallel on the executor's worker pool. The
/// per-shard candidates merge by concatenation in shard order — shards
/// partition the points, so no deduplication is needed. That scatter is
/// this engine's candidate source for the shared query body
/// (exec::BatchExecutor::ExecuteBounded, with no cache): Phase 2 runs once
/// over the union and Phase 3 through the executor's normal fan-out with
/// the shared per-query sample pool, so decided ids are set-identical to a
/// single-tree engine over the same points, for any shard count.
///
/// Deadline/brownout semantics are the shared body's: a control that
/// fires during the scatter leaves the unscanned shards out and every
/// scanned candidate undecided (sound — filtering only removes certain
/// non-qualifiers), exactly like the single-tree engine's expired filter
/// pass. A shard read error fails the query with its status.
///
/// Threading: one submitter at a time (the workers are the parallelism),
/// matching BatchExecutor's contract — as a core::QueryBackend its
/// concurrent_submitters() is false. Each scatter task touches exactly
/// one shard, so the per-shard BufferPool needs no locking.
class ShardedPrqEngine : public core::QueryBackend {
 public:
  /// Opens every shard listed in the manifest. `executor` (non-null, not
  /// owned, typically BatchExecutor::CreateDetached) supplies the worker
  /// pool and per-worker evaluators; it must outlive the engine.
  static Result<std::unique_ptr<ShardedPrqEngine>> Open(
      const std::string& manifest_path, exec::BatchExecutor* executor,
      const ShardedEngineOptions& options = {});

  /// The shards the query must visit: those whose MBR intersects its
  /// search box. Empty when the filters prove the result empty. This is
  /// the routing decision ExecuteBounded makes, exposed for tests and the
  /// scaling bench.
  Result<std::vector<size_t>> Route(const core::PrqQuery& query,
                                    const core::PrqOptions& options) const;

  /// Scatter-gather PRQ under options.control; same result contract as
  /// PrqEngine::ExecuteBounded / BatchExecutor::SubmitBounded.
  Result<core::PrqResult> ExecuteBounded(const core::PrqQuery& query,
                                         const core::PrqOptions& options,
                                         core::PrqStats* stats = nullptr,
                                         obs::QueryTrace* trace = nullptr);

  /// Complete-answer wrapper: ExecuteBounded through core::RequireComplete.
  Result<std::vector<index::ObjectId>> Execute(
      const core::PrqQuery& query, const core::PrqOptions& options,
      core::PrqStats* stats = nullptr, obs::QueryTrace* trace = nullptr);

  // core::QueryBackend — lets gprq_server serve a sharded deployment.
  Result<core::BackendInfo> Describe() const override;
  Result<core::PrqResult> ExecuteQueryBounded(const core::PrqQuery& query,
                                              const core::PrqOptions& options,
                                              core::PrqStats* stats) override {
    return ExecuteBounded(query, options, stats);
  }

  /// Attaches a semantic result cache (not owned; may be null to detach).
  /// The engine does not *serve* from the cache — the single-submitter
  /// serving layer does — but it owns invalidation: ReloadShard drops
  /// every cached answer whose search box touched the shard's old or new
  /// extent. This is the region-invalidation hook for shard reloads.
  void AttachResultCache(cache::ResultCache* cache) { cache_ = cache; }
  cache::ResultCache* result_cache() const { return cache_; }

  /// Re-reads the manifest entry for `shard` and reopens its snapshot —
  /// the shard-replacement path (a rebuilt or re-balanced shard swapped in
  /// under the same manifest). Cached results overlapping the shard's old
  /// or new MBR are invalidated through the attached cache.
  Status ReloadShard(size_t shard);

  size_t num_shards() const { return shards_.size(); }
  size_t dim() const { return manifest_.dim; }
  uint64_t total_points() const { return manifest_.total_points(); }
  const ShardManifest& manifest() const { return manifest_; }
  const index::PagedRStarTree& shard_tree(size_t shard) const {
    return *shards_[shard];
  }

 private:
  ShardedPrqEngine(ShardManifest manifest, std::string manifest_path,
                   exec::BatchExecutor* executor,
                   const ShardedEngineOptions& options);

  /// Opens shard k's snapshot per the current manifest entry.
  Result<index::PagedRStarTree> OpenShardTree(size_t shard) const;

  ShardManifest manifest_;
  std::string manifest_path_;
  std::string manifest_dir_;
  exec::BatchExecutor* executor_;
  ShardedEngineOptions options_;
  /// Validation + geometry prep + MBR routing, shared with the remote
  /// coordinator so both route identically.
  ShardRouter router_;
  /// unique_ptr per shard: scatter tasks and reloads swap whole trees
  /// without moving a tree another task might reference.
  std::vector<std::unique_ptr<index::PagedRStarTree>> shards_;
  cache::ResultCache* cache_ = nullptr;
};

}  // namespace gprq::shard

#endif  // GPRQ_SHARD_SHARDED_ENGINE_H_
