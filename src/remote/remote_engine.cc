#include "remote/remote_engine.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "core/engine.h"
#include "obs/metrics.h"

namespace gprq::remote {
namespace {

// Buffer pool of the lazily opened fallback trees (FallbackEnumerate).
constexpr size_t kFallbackBufferPages = 64;
constexpr size_t kFallbackPageSize = 4096;

struct RemoteMetrics {
  obs::Counter* queries;
  obs::Counter* degraded_shards;
  obs::Counter* fallback_candidates;
  obs::Histogram* scatter_nanos;

  static const RemoteMetrics& Get() {
    static const RemoteMetrics metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return RemoteMetrics{r.GetCounter("gprq.remote.queries"),
                           r.GetCounter("gprq.remote.degraded_shards"),
                           r.GetCounter("gprq.remote.fallback_candidates"),
                           r.GetHistogram("gprq.remote.scatter_nanos")};
    }();
    return metrics;
  }
};

/// Per-shard scatter state; slot i is written only by routed shard i's
/// task (the sharded-engine idiom — no locking).
struct RemoteSlot {
  Status call_status = Status::OK();  // transport-level RPC outcome
  net::ResponseFrame response;        // valid iff call_status.ok()
  RpcStats rpc;
  bool skipped = false;  // the query control fired before this shard's RPC
  bool fallback_ran = false;
  Status fallback_status = Status::OK();
  std::vector<index::ObjectId> fallback_ids;
};

}  // namespace

RemoteShardedEngine::RemoteShardedEngine(shard::ShardManifest manifest,
                                         std::string manifest_dir,
                                         exec::BatchExecutor* executor,
                                         const RemoteEngineOptions& options)
    : manifest_(std::move(manifest)),
      manifest_dir_(std::move(manifest_dir)),
      executor_(executor),
      options_(options),
      router_(&manifest_) {}

Result<std::unique_ptr<RemoteShardedEngine>> RemoteShardedEngine::Open(
    const std::string& manifest_path, std::vector<BackendAddress> backends,
    exec::BatchExecutor* executor, const RemoteEngineOptions& options) {
  if (executor == nullptr) {
    return Status::InvalidArgument("remote engine needs an executor");
  }
  GPRQ_RETURN_NOT_OK(options.Validate());
  Result<shard::ShardManifest> manifest = shard::ShardManifest::Load(
      manifest_path);
  if (!manifest.ok()) return manifest.status();
  if (backends.size() != manifest->shards.size()) {
    return Status::InvalidArgument(
        "manifest lists " + std::to_string(manifest->shards.size()) +
        " shards but " + std::to_string(backends.size()) +
        " backend addresses were given");
  }

  std::unique_ptr<RemoteShardedEngine> engine(new RemoteShardedEngine(
      std::move(*manifest), shard::ManifestDirectory(manifest_path), executor,
      options));
  const size_t num_shards = engine->manifest_.shards.size();
  engine->channels_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    engine->channels_.push_back(std::make_unique<BackendChannel>(
        k, std::move(backends[k]), &engine->options_.policy,
        static_cast<uint32_t>(engine->manifest_.dim),
        engine->manifest_.shards[k].count));
  }
  engine->fallback_trees_.resize(num_shards);

  if (options.probe_on_open) {
    for (size_t k = 0; k < num_shards; ++k) {
      const Status probed = engine->channels_[k]->Probe();
      // A *mis-wired* backend (wrong dataset dimension, wrong shard) is a
      // configuration error worth failing fast on; an unreachable one is
      // exactly what this engine exists to survive.
      if (!probed.ok() && probed.code() == StatusCode::kInvalidArgument) {
        return probed;
      }
    }
  }
  return engine;
}

Result<std::vector<size_t>> RemoteShardedEngine::Route(
    const core::PrqQuery& query, const core::PrqOptions& options) const {
  Result<shard::RoutingDecision> decision = router_.Route(query, options);
  if (!decision.ok()) return decision.status();
  return std::move(decision->routed);
}

Status RemoteShardedEngine::FallbackEnumerate(
    size_t shard, const geom::Rect& search_box,
    std::vector<index::ObjectId>* out) {
  if (fallback_trees_[shard] == nullptr) {
    index::PagedRStarTree::OpenOptions open;
    open.page_size = kFallbackPageSize;
    open.buffer_pages = kFallbackBufferPages;
    Result<index::PagedRStarTree> tree = index::PagedRStarTree::Open(
        manifest_dir_ + manifest_.shards[shard].tree_file, open);
    if (!tree.ok()) return tree.status();
    fallback_trees_[shard] =
        std::make_unique<index::PagedRStarTree>(std::move(*tree));
  }
  return fallback_trees_[shard]->RangeQuery(
      search_box, [out](const la::Vector&, index::ObjectId id) {
        out->push_back(id);
      });
}

Result<core::PrqResult> RemoteShardedEngine::ExecuteBounded(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats, obs::QueryTrace* trace,
    RemoteQueryReport* report) {
  GPRQ_RETURN_NOT_OK(core::ValidatePrq(query, options, manifest_.dim));
  const RemoteMetrics& metrics = RemoteMetrics::Get();
  core::PrqStats local_stats;
  core::PrqStats& out_stats = (stats != nullptr) ? *stats : local_stats;
  out_stats = core::PrqStats();
  if (trace != nullptr) {
    *trace = obs::QueryTrace();
    trace->shards_total = manifest_.shards.size();
  }
  if (report != nullptr) *report = RemoteQueryReport();
  metrics.queries->Add(1);

  const common::QueryControl& control = options.control;
  if (!control.Unbounded() && control.ShouldStop()) {
    core::PrqResult result;
    result.status = control.StopStatus();
    if (trace != nullptr) trace->deadline_expired = true;
    return result;
  }

  // ---- Route: the same decision the in-process engine makes.
  shard::RoutingDecision decision;
  {
    obs::QueryTrace::Span span(trace, obs::QueryTrace::kPrep);
    Stopwatch watch;
    Result<shard::RoutingDecision> routed_result = router_.Route(query,
                                                                 options);
    if (!routed_result.ok()) return routed_result.status();
    decision = std::move(*routed_result);
    out_stats.prep_seconds = watch.ElapsedSeconds();
  }
  if (decision.proved_empty) {
    out_stats.proved_empty = true;
    if (trace != nullptr) trace->proved_empty = true;
    return core::PrqResult{};
  }
  const geom::Rect& search_box = decision.search_box;
  const std::vector<size_t>& routed = decision.routed;
  if (trace != nullptr) trace->shards_routed = routed.size();
  if (report != nullptr) report->shards_routed = routed.size();

  // ---- Scatter: one RPC task per routed shard. Tasks never throw (a
  // throw would fail the whole scatter with Internal); every failure lands
  // in the slot.
  net::QueryFrame base_frame = net::QueryFrame::FromQuery(0, query, options);
  base_frame.option_flags |= net::kOptionShardSubquery;
  std::vector<RemoteSlot> slots(routed.size());
  {
    Stopwatch watch;
    obs::QueryTrace::Span span(trace, obs::QueryTrace::kPhase1);
    std::vector<exec::WorkerPool::Task> tasks;
    tasks.reserve(routed.size());
    for (size_t i = 0; i < routed.size(); ++i) {
      const size_t shard = routed[i];
      RemoteSlot* slot = &slots[i];
      RemoteShardedEngine* self = this;
      tasks.push_back([self, &base_frame, &control, &search_box, shard,
                       slot](size_t) {
        if (!control.Unbounded() && control.ShouldStop()) {
          // No budget left for this shard's RPC; like the in-process
          // scatter, it degrades without being scanned — and without
          // burning the remaining shards' time on fallback enumeration.
          slot->skipped = true;
          slot->call_status = control.StopStatus();
          return;
        }
        const double remaining = control.deadline.remaining_seconds();
        net::QueryFrame frame = base_frame;
        // The backend-side budget: the query's remaining time, clamped to
        // the per-attempt RPC timeout so a straggling backend degrades
        // *itself* (sound partial answer) rather than being cut off blind.
        const double wire_budget = std::min(
            {remaining, self->options_.policy.rpc_timeout_seconds, 1.0e9});
        frame.deadline_micros =
            std::max<uint64_t>(1, static_cast<uint64_t>(wire_budget * 1e6));
        slot->call_status = self->channels_[shard]->Call(
            frame, remaining, &slot->response, &slot->rpc);
        if (!slot->call_status.ok() && self->options_.local_fallback) {
          // The backend never answered: enumerate the shard's candidates
          // locally so they can be reported as undecided instead of
          // silently missing.
          slot->fallback_ran = true;
          slot->fallback_status = self->FallbackEnumerate(
              shard, search_box, &slot->fallback_ids);
        }
      });
    }
    GPRQ_RETURN_NOT_OK(executor_->RunTasks(std::move(tasks)));
    const uint64_t scatter_nanos = watch.ElapsedNanos();
    metrics.scatter_nanos->Record(scatter_nanos);
    out_stats.phase1_seconds = scatter_nanos * 1e-9;
  }

  // ---- Gather: set union in shard order; per-shard failures become
  // explicit undecided candidates plus a recorded (shard, status) pair.
  core::PrqResult result;
  Status degraded = Status::OK();  // first failed shard's verdict
  Status backend_status = Status::OK();  // first backend-reported non-OK
  bool any_skipped = false;
  for (size_t i = 0; i < routed.size(); ++i) {
    const size_t shard = routed[i];
    RemoteSlot& slot = slots[i];
    if (slot.call_status.ok()) {
      result.ids.insert(result.ids.end(), slot.response.ids.begin(),
                        slot.response.ids.end());
      result.undecided.insert(result.undecided.end(),
                              slot.response.undecided.begin(),
                              slot.response.undecided.end());
      out_stats.integration_candidates += slot.response.integrations;
      if (slot.response.status_code !=
          static_cast<uint8_t>(StatusCode::kOk)) {
        // The backend answered with its own degraded (but sound) partial
        // result — its undecided list is already explicit above.
        if (trace != nullptr) {
          trace->remote_shard_errors.emplace_back(
              static_cast<uint32_t>(shard), slot.response.status_code);
        }
        if (backend_status.ok()) {
          backend_status = Status(
              static_cast<StatusCode>(slot.response.status_code),
              "shard " + std::to_string(shard) + ": " +
                  slot.response.message);
        }
      }
    } else {
      any_skipped = any_skipped || slot.skipped;
      metrics.degraded_shards->Add(1);
      if (trace != nullptr) {
        trace->shards_degraded += 1;
        trace->remote_shard_errors.emplace_back(
            static_cast<uint32_t>(shard),
            static_cast<uint8_t>(slot.call_status.code()));
      }
      if (report != nullptr) report->shards_degraded += 1;
      std::string note = "shard " + std::to_string(shard) +
                         " backend unavailable: " +
                         slot.call_status.message();
      if (slot.fallback_ran && slot.fallback_status.ok()) {
        result.undecided.insert(result.undecided.end(),
                                slot.fallback_ids.begin(),
                                slot.fallback_ids.end());
        metrics.fallback_candidates->Add(slot.fallback_ids.size());
        note += "; its " + std::to_string(slot.fallback_ids.size()) +
                " candidates are reported undecided";
      } else if (!slot.skipped) {
        // No fallback (disabled or itself failed): the shard's candidates
        // are *unknown*, and the status must say so — never a silent gap.
        note += slot.fallback_ran
                    ? "; its candidates could not be enumerated (" +
                          slot.fallback_status.message() + ")"
                    : "; its candidates were not enumerated "
                      "(local fallback disabled)";
      }
      if (degraded.ok()) {
        degraded = Status(slot.call_status.code(), note);
      }
    }
    if (trace != nullptr) {
      trace->remote_retries += static_cast<uint64_t>(slot.rpc.retries);
      trace->remote_hedges += static_cast<uint64_t>(slot.rpc.hedges);
    }
    if (report != nullptr) {
      report->rpc_attempts += slot.rpc.attempts;
      report->rpc_retries += slot.rpc.retries;
      report->rpc_hedges += slot.rpc.hedges;
    }
  }

  // Status priority: a fired control explains every truncation at once;
  // otherwise the first failed shard; otherwise the first backend-reported
  // degradation.
  if (any_skipped || (!control.Unbounded() && control.ShouldStop())) {
    result.status = control.StopStatus();
    if (trace != nullptr) trace->deadline_expired = true;
  } else if (!degraded.ok()) {
    result.status = degraded;
  } else if (!backend_status.ok()) {
    result.status = backend_status;
  }
  if (trace != nullptr) {
    trace->result_size = result.ids.size();
    trace->phase3_candidates = out_stats.integration_candidates;
  }
  return result;
}

Result<std::vector<index::ObjectId>> RemoteShardedEngine::Execute(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats, obs::QueryTrace* trace) {
  return core::RequireComplete(ExecuteBounded(query, options, stats, trace));
}

Result<core::BackendInfo> RemoteShardedEngine::Describe() const {
  core::BackendInfo info;
  info.dim = static_cast<uint32_t>(manifest_.dim);
  info.points = manifest_.total_points();
  info.sharded = true;
  info.num_shards = static_cast<uint32_t>(manifest_.shards.size());
  return info;
}

Result<core::PrqResult> RemoteShardedEngine::ExecuteQueryBounded(
    const core::PrqQuery& query, const core::PrqOptions& options,
    core::PrqStats* stats) {
  return ExecuteBounded(query, options, stats, nullptr, nullptr);
}

}  // namespace gprq::remote
