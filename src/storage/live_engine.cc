#include "storage/live_engine.h"

#include <utility>

#include "common/stopwatch.h"
#include "core/filter_pipeline.h"
#include "obs/metrics.h"

namespace gprq::storage {

namespace {

struct LiveMetrics {
  obs::Counter* queries;
  obs::Counter* proved_empty;

  static const LiveMetrics& Get() {
    static const LiveMetrics metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return LiveMetrics{r.GetCounter("gprq.storage.live.queries"),
                         r.GetCounter("gprq.storage.live.proved_empty")};
    }();
    return metrics;
  }
};

}  // namespace

LivePrqEngine::LivePrqEngine(StorageEngine* storage,
                             exec::BatchExecutor* executor)
    : storage_(storage), executor_(executor) {}

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

const core::RadiusCatalog* LivePrqEngine::radius_catalog() const {
  if (radius_catalog_ == nullptr) {
    radius_catalog_ = std::make_unique<core::RadiusCatalog>(
        core::RadiusCatalog::Build(storage_->dim()));
  }
  return radius_catalog_.get();
}

const core::AlphaCatalog* LivePrqEngine::alpha_catalog() const {
  if (alpha_catalog_ == nullptr) {
    alpha_catalog_ = std::make_unique<core::AlphaCatalog>(
        core::AlphaCatalog::Build(storage_->dim()));
  }
  return alpha_catalog_.get();
}

Result<core::PrqResult> LivePrqEngine::ExecuteBounded(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats, obs::QueryTrace* trace) {
  const size_t dim = storage_->dim();
  GPRQ_RETURN_NOT_OK(core::ValidatePrq(query, options, dim));
  core::PrqStats local_stats;
  core::PrqStats& out_stats = (stats != nullptr) ? *stats : local_stats;
  out_stats = core::PrqStats();
  if (trace != nullptr) *trace = obs::QueryTrace();
  LiveMetrics::Get().queries->Add(1);

  // Pin the epoch at admission: every later phase — including cache
  // decisions and Phase 3 — answers against this tree version, however
  // many commits land while the query runs.
  const std::shared_ptr<const StorageSnapshot> snapshot =
      storage_->PinSnapshot();

  const common::QueryControl& control = options.control;
  if (!control.Unbounded() && control.ShouldStop()) {
    core::PrqResult result;
    result.status = control.StopStatus();
    if (trace != nullptr) trace->deadline_expired = true;
    return result;
  }

  const uint64_t config_bits =
      (cache_ != nullptr) ? cache::FilterConfigBits(options) : 0;
  if (cache_ != nullptr) {
    // The cache is attached to the storage engine: every commit drops
    // dirtied entries and advances the cache's epoch *before* publishing
    // its snapshot, and the lookup below passes our pinned epoch — so a
    // hit is an entry whose invalidation history matches the pinned tree
    // version exactly (a pin behind the cache's epoch is a miss).
    const cache::ResultCache::Lookup hit =
        cache_->Find(query, config_bits, snapshot->epoch());
    if (hit.kind == cache::ResultCache::HitKind::kExact) {
      core::PrqResult result;
      result.ids = hit.entry->ids;
      out_stats.result_size = result.ids.size();
      if (trace != nullptr) {
        trace->cache_hit_exact = true;
        trace->result_size = result.ids.size();
      }
      return result;
    }
    if (hit.kind == cache::ResultCache::HitKind::kSemantic) {
      // Containment serve: re-filter the cached wider candidate superset
      // at this query's θ — no snapshot scan at all.
      core::QueryGeometry geometry;
      {
        obs::QueryTrace::Span span(trace, obs::QueryTrace::kPrep);
        Stopwatch watch;
        geometry = core::PrepareQueryGeometry(
            query, options, dim,
            options.use_catalogs ? radius_catalog() : nullptr,
            options.use_catalogs ? alpha_catalog() : nullptr);
        out_stats.prep_seconds = watch.ElapsedSeconds();
      }
      geom::Rect search_box = geom::Rect::Empty(dim);
      if (geometry.proved_empty ||
          !core::ComputeSearchBox(geometry, query, dim, &search_box)) {
        out_stats.proved_empty = true;
        if (trace != nullptr) trace->proved_empty = true;
        LiveMetrics::Get().proved_empty->Add(1);
        return core::PrqResult{};
      }
      core::PrqEngine::FilterOutcome outcome;
      outcome.search_box = search_box;
      core::Phase2Counts counts;
      {
        obs::QueryTrace::Span span(trace, obs::QueryTrace::kPhase2);
        Stopwatch watch;
        // Phase 1 over the cached superset: keep the points inside this
        // query's search box, exactly what the snapshot's range query
        // would return, and materialize vectors only for those.
        std::vector<std::pair<la::Vector, index::ObjectId>> kept;
        hit.entry->candidates.GatherContained(search_box, &kept);
        out_stats.index_candidates = kept.size();
        core::RunPhase2(query, options, geometry, std::move(kept), &outcome,
                        &counts);
        out_stats.phase2_seconds = watch.ElapsedSeconds();
      }
      out_stats.pruned_rr_fringe = counts.pruned_rr_fringe;
      out_stats.pruned_bf_outer = counts.pruned_bf_outer;
      out_stats.pruned_or = counts.pruned_or;
      out_stats.pruned_marginal = counts.pruned_marginal;
      out_stats.accepted_without_integration = outcome.accepted.size();
      out_stats.integration_candidates = outcome.survivors.size();
      if (trace != nullptr) {
        trace->cache_hit_semantic = true;
        trace->index_candidates = out_stats.index_candidates;
        trace->accepted_bf_inner = outcome.accepted.size();
        trace->phase3_candidates = outcome.survivors.size();
      }
      return IntegrateAndPublish(query, options, config_bits,
                                 snapshot->epoch(), std::move(outcome),
                                 &out_stats, trace);
    }
  }

  // ---- Prep.
  core::QueryGeometry geometry;
  {
    obs::QueryTrace::Span span(trace, obs::QueryTrace::kPrep);
    Stopwatch watch;
    geometry = core::PrepareQueryGeometry(
        query, options, dim,
        options.use_catalogs ? radius_catalog() : nullptr,
        options.use_catalogs ? alpha_catalog() : nullptr);
    out_stats.prep_seconds = watch.ElapsedSeconds();
  }
  geom::Rect search_box = geom::Rect::Empty(dim);
  if (geometry.proved_empty ||
      !core::ComputeSearchBox(geometry, query, dim, &search_box)) {
    out_stats.proved_empty = true;
    if (trace != nullptr) trace->proved_empty = true;
    LiveMetrics::Get().proved_empty->Add(1);
    return core::PrqResult{};
  }

  // ---- Phase 1: range search over the pinned snapshot.
  std::vector<std::pair<la::Vector, index::ObjectId>> candidates;
  {
    obs::QueryTrace::Span span(trace, obs::QueryTrace::kPhase1);
    Stopwatch watch;
    snapshot->RangeQuery(search_box, [&candidates](const la::Vector& point,
                                                   index::ObjectId id) {
      candidates.emplace_back(point, id);
    });
    out_stats.phase1_seconds = watch.ElapsedSeconds();
  }
  out_stats.index_candidates = candidates.size();

  core::PrqEngine::FilterOutcome outcome;
  outcome.search_box = search_box;
  if (!control.Unbounded() && control.ShouldStop()) {
    // Fired between the phases: skip Phase 2, surface every scanned
    // candidate as a survivor (the engine's expired-filter rule); the
    // bounded integration below lists them as undecided.
    outcome.survivors = std::move(candidates);
    outcome.expired = true;
    if (trace != nullptr) trace->deadline_expired = true;
  } else {
    core::Phase2Counts counts;
    obs::QueryTrace::Span span(trace, obs::QueryTrace::kPhase2);
    Stopwatch watch;
    core::RunPhase2(query, options, geometry, std::move(candidates),
                    &outcome, &counts);
    out_stats.phase2_seconds = watch.ElapsedSeconds();
    out_stats.pruned_rr_fringe = counts.pruned_rr_fringe;
    out_stats.pruned_bf_outer = counts.pruned_bf_outer;
    out_stats.pruned_or = counts.pruned_or;
    out_stats.pruned_marginal = counts.pruned_marginal;
  }
  out_stats.accepted_without_integration = outcome.accepted.size();
  out_stats.integration_candidates = outcome.survivors.size();
  if (trace != nullptr) {
    trace->index_candidates = out_stats.index_candidates;
    trace->pruned_rr_fringe = out_stats.pruned_rr_fringe;
    trace->pruned_bf_outer = out_stats.pruned_bf_outer;
    trace->pruned_or = out_stats.pruned_or;
    trace->pruned_marginal = out_stats.pruned_marginal;
    trace->accepted_bf_inner = outcome.accepted.size();
    trace->phase3_candidates = outcome.survivors.size();
  }
  return IntegrateAndPublish(query, options, config_bits, snapshot->epoch(),
                             std::move(outcome), &out_stats, trace);
}

Result<core::PrqResult> LivePrqEngine::IntegrateAndPublish(
    const core::PrqQuery& query, const core::PrqOptions& options,
    uint64_t config_bits, uint64_t pinned_epoch,
    core::PrqEngine::FilterOutcome outcome, core::PrqStats* stats,
    obs::QueryTrace* trace) {
  const bool cacheable = cache_ != nullptr && !outcome.expired;
  core::FlatCandidates candidates;
  geom::Rect search_box;
  if (cacheable) {
    candidates.Append(outcome.accepted);
    candidates.Append(outcome.survivors);
    search_box = outcome.search_box;
  }
  Result<core::PrqResult> result = executor_->IntegrateOutcomeBounded(
      query, std::move(outcome), options.control, stats, trace,
      options.pool_variant);
  if (cacheable && result.ok() && result->status.ok() &&
      result->undecided.empty()) {
    // Only complete answers are published. The insert is epoch-validated
    // inside the cache: a commit landing during the query advances the
    // cache's epoch (under the cache's own lock, before its snapshot
    // publishes), so this answer — computed against the pre-commit pin —
    // is rejected there rather than installed stale. An engine-side
    // epoch recheck here could not close that race: a commit between the
    // check and the insert would run its invalidation before the entry
    // exists.
    cache_->Insert(query, config_bits, search_box, std::move(candidates),
                   result->ids, pinned_epoch);
  }
  return result;
}

Result<std::vector<index::ObjectId>> LivePrqEngine::Execute(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats, obs::QueryTrace* trace) {
  Result<core::PrqResult> bounded =
      ExecuteBounded(query, options, stats, trace);
  if (!bounded.ok()) return bounded.status();
  if (!bounded->status.ok()) return bounded->status;
  return std::move(bounded->ids);
}

}  // namespace gprq::storage
