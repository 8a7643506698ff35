#include "shard/sharded_engine.h"

#include <utility>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace gprq::shard {
namespace {

// Shard-layer metrics, resolved once (the obs resolve-once idiom).
// `gprq.shard.shards_routed / gprq.shard.shards_considered` is the routing
// selectivity the scaling bench asserts on: < 1 means MBR routing is
// actually skipping shards.
struct ShardMetrics {
  obs::Counter* queries;
  obs::Counter* shards_routed;
  obs::Counter* shards_considered;
  obs::Counter* reloads;
  obs::Counter* cache_invalidated;
  obs::Histogram* scatter_nanos;

  static const ShardMetrics& Get() {
    static const ShardMetrics metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return ShardMetrics{r.GetCounter("gprq.shard.queries"),
                          r.GetCounter("gprq.shard.shards_routed"),
                          r.GetCounter("gprq.shard.shards_considered"),
                          r.GetCounter("gprq.shard.reloads"),
                          r.GetCounter("gprq.shard.cache_invalidated"),
                          r.GetHistogram("gprq.shard.scatter_nanos")};
    }();
    return metrics;
  }
};

}  // namespace

ShardedPrqEngine::ShardedPrqEngine(ShardManifest manifest,
                                   std::string manifest_path,
                                   exec::BatchExecutor* executor,
                                   const ShardedEngineOptions& options)
    : manifest_(std::move(manifest)),
      manifest_path_(std::move(manifest_path)),
      manifest_dir_(ManifestDirectory(manifest_path_)),
      executor_(executor),
      options_(options),
      router_(&manifest_) {}

Result<index::PagedRStarTree> ShardedPrqEngine::OpenShardTree(
    size_t shard) const {
  index::PagedRStarTree::OpenOptions open;
  open.page_size = options_.page_size;
  open.buffer_pages = options_.buffer_pages;
  return index::PagedRStarTree::Open(
      manifest_dir_ + manifest_.shards[shard].tree_file, open);
}

Result<std::unique_ptr<ShardedPrqEngine>> ShardedPrqEngine::Open(
    const std::string& manifest_path, exec::BatchExecutor* executor,
    const ShardedEngineOptions& options) {
  if (executor == nullptr) {
    return Status::InvalidArgument("sharded engine needs an executor");
  }
  Result<ShardManifest> manifest = ShardManifest::Load(manifest_path);
  if (!manifest.ok()) return manifest.status();
  if (options.only_shard >= 0) {
    // Single-shard-backend mode: narrow the manifest to that one entry so
    // the rest of the engine — routing, scatter, WELCOME facts — sees a
    // one-shard deployment holding exactly this shard's points.
    const size_t only = static_cast<size_t>(options.only_shard);
    if (only >= manifest->shards.size()) {
      return Status::InvalidArgument(
          "only_shard " + std::to_string(only) + " out of range (manifest has " +
          std::to_string(manifest->shards.size()) + " shards)");
    }
    manifest->shards = {manifest->shards[only]};
  }

  std::unique_ptr<ShardedPrqEngine> engine(new ShardedPrqEngine(
      std::move(*manifest), manifest_path, executor, options));
  for (size_t k = 0; k < engine->manifest_.shards.size(); ++k) {
    Result<index::PagedRStarTree> tree = engine->OpenShardTree(k);
    if (!tree.ok()) return tree.status();
    if (tree->dim() != engine->manifest_.dim) {
      return Status::IoError("shard tree dimension disagrees with manifest");
    }
    engine->shards_.push_back(
        std::make_unique<index::PagedRStarTree>(std::move(*tree)));
  }
  return engine;
}

Result<std::vector<size_t>> ShardedPrqEngine::Route(
    const core::PrqQuery& query, const core::PrqOptions& options) const {
  Result<RoutingDecision> decision = router_.Route(query, options);
  if (!decision.ok()) return decision.status();
  return std::move(decision->routed);
}

Result<core::PrqResult> ShardedPrqEngine::ExecuteBounded(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats, obs::QueryTrace* trace) {
  const ShardMetrics& metrics = ShardMetrics::Get();
  metrics.queries->Add(1);
  metrics.shards_considered->Add(shards_.size());
  const common::QueryControl& control = options.control;

  // Phase 1 is a scatter: one range search per routed shard, one task per
  // shard so each shard's buffer pool is touched by exactly one thread,
  // concatenated in shard order (shards partition the points, so the
  // union needs no deduplication). Phase 2 then runs once over the union.
  const core::CandidateSource scatter =
      [this, &metrics, &control](
          const geom::Rect& search_box,
          std::vector<std::pair<la::Vector, index::ObjectId>>* candidates,
          obs::QueryTrace* tr) {
        const std::vector<size_t> routed = router_.RouteBox(search_box);
        metrics.shards_routed->Add(routed.size());
        tr->shards_routed = routed.size();
        std::vector<std::vector<std::pair<la::Vector, index::ObjectId>>>
            found(routed.size());
        std::vector<Status> statuses(routed.size());
        std::vector<exec::WorkerPool::Task> tasks;
        tasks.reserve(routed.size());
        for (size_t i = 0; i < routed.size(); ++i) {
          tasks.push_back([&, i](size_t) {
            // A shard the control stops before is never scanned; the
            // filter pass sees the fired control after Phase 1 and
            // degrades, so the missing candidates cannot pass for an
            // answer.
            if (!control.Unbounded() && control.ShouldStop()) return;
            statuses[i] = shards_[routed[i]]->RangeQuery(
                search_box, [&found, i](const la::Vector& point,
                                        index::ObjectId id) {
                  found[i].emplace_back(point, id);
                });
          });
        }
        Stopwatch watch;
        GPRQ_RETURN_NOT_OK(executor_->RunTasks(std::move(tasks)));
        metrics.scatter_nanos->Record(watch.ElapsedNanos());
        for (size_t i = 0; i < routed.size(); ++i) {
          GPRQ_RETURN_NOT_OK(statuses[i]);
          candidates->insert(candidates->end(),
                             std::make_move_iterator(found[i].begin()),
                             std::make_move_iterator(found[i].end()));
        }
        return Status::OK();
      };
  // No cache serving here (the serving layer above owns that); Phase 3
  // runs once over the union with the shared per-query pool, so decided
  // ids are set-identical to a single-tree engine's for any shard count.
  Result<core::PrqResult> result = executor_->ExecuteBounded(
      query, options, manifest_.dim, router_.catalogs(), scatter, nullptr, 0,
      stats, trace);
  if (trace != nullptr) trace->shards_total = shards_.size();
  return result;
}

Result<core::BackendInfo> ShardedPrqEngine::Describe() const {
  core::BackendInfo info;
  info.dim = static_cast<uint32_t>(dim());
  info.points = total_points();
  info.sharded = true;
  info.num_shards = static_cast<uint32_t>(num_shards());
  return info;
}

Result<std::vector<index::ObjectId>> ShardedPrqEngine::Execute(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats, obs::QueryTrace* trace) {
  return core::RequireComplete(ExecuteBounded(query, options, stats, trace));
}

Status ShardedPrqEngine::ReloadShard(size_t shard) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (options_.only_shard >= 0) {
    return Status::InvalidArgument(
        "ReloadShard is unsupported in single-shard (only_shard) mode");
  }
  Result<ShardManifest> reloaded = ShardManifest::Load(manifest_path_);
  if (!reloaded.ok()) return reloaded.status();
  if (reloaded->dim != manifest_.dim ||
      reloaded->shards.size() != manifest_.shards.size()) {
    return Status::InvalidArgument(
        "manifest shape changed; reopen the engine instead of reloading");
  }
  const ShardInfo old_info = manifest_.shards[shard];
  manifest_.shards[shard] = reloaded->shards[shard];
  Result<index::PagedRStarTree> tree = OpenShardTree(shard);
  if (!tree.ok()) {
    manifest_.shards[shard] = old_info;  // keep serving the old shard
    return tree.status();
  }
  shards_[shard] =
      std::make_unique<index::PagedRStarTree>(std::move(*tree));

  const ShardMetrics& metrics = ShardMetrics::Get();
  metrics.reloads->Add(1);
  if (cache_ != nullptr) {
    // Region invalidation: any cached answer whose search box touched the
    // shard's old or new extent may now be stale. Everything else survives.
    size_t dropped = 0;
    if (old_info.count > 0) dropped += cache_->Invalidate(old_info.mbr);
    const ShardInfo& new_info = manifest_.shards[shard];
    if (new_info.count > 0 && !(old_info.count > 0 &&
                                old_info.mbr == new_info.mbr)) {
      dropped += cache_->Invalidate(new_info.mbr);
    }
    metrics.cache_invalidated->Add(dropped);
  }
  return Status::OK();
}

}  // namespace gprq::shard
