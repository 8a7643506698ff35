#include "storage/live_engine.h"

#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace gprq::storage {

LivePrqEngine::LivePrqEngine(StorageEngine* storage,
                             exec::BatchExecutor* executor)
    : storage_(storage), executor_(executor), catalogs_(storage->dim()) {}

Status LivePrqEngine::EnableResultCache(
    const cache::ResultCacheOptions& options) {
  if (options.max_entries == 0) {
    return Status::InvalidArgument("cache max_entries must be >= 1");
  }
  if (options.max_bytes == 0) {
    return Status::InvalidArgument("cache max_bytes must be >= 1");
  }
  cache_ = std::make_unique<cache::ResultCache>(options);
  storage_->AttachResultCache(cache_.get());
  return Status::OK();
}

Result<core::PrqResult> LivePrqEngine::ExecuteBounded(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats, obs::QueryTrace* trace) {
  static obs::Counter* const queries =
      obs::MetricRegistry::Global().GetCounter("gprq.storage.live.queries");
  queries->Add(1);

  // Pin the epoch at admission: every later phase — including cache
  // decisions and Phase 3 — answers against this tree version, however
  // many commits land while the query runs. The cache is attached to the
  // storage engine: every commit drops dirtied entries and advances the
  // cache's epoch *before* publishing its snapshot, and the body passes
  // this pinned epoch to the cache's lookup and insert — so a hit is an
  // entry whose invalidation history matches the pinned tree version
  // exactly, and an answer computed against a superseded pin is never
  // installed.
  const std::shared_ptr<const StorageSnapshot> snapshot =
      storage_->PinSnapshot();
  const core::CandidateSource pinned =
      [&snapshot](const geom::Rect& search_box,
                  std::vector<std::pair<la::Vector, index::ObjectId>>*
                      candidates,
                  obs::QueryTrace*) {
        snapshot->RangeQuery(search_box, [candidates](const la::Vector& point,
                                                      index::ObjectId id) {
          candidates->emplace_back(point, id);
        });
        return Status::OK();
      };
  return executor_->ExecuteBounded(query, options, storage_->dim(), catalogs_,
                                   pinned, cache_.get(), snapshot->epoch(),
                                   stats, trace);
}

Result<std::vector<index::ObjectId>> LivePrqEngine::Execute(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats, obs::QueryTrace* trace) {
  return core::RequireComplete(ExecuteBounded(query, options, stats, trace));
}

}  // namespace gprq::storage
