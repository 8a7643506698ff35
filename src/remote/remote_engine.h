#ifndef GPRQ_REMOTE_REMOTE_ENGINE_H_
#define GPRQ_REMOTE_REMOTE_ENGINE_H_

// The remote-shard coordinator: shard::ShardedPrqEngine's scatter-gather,
// with each shard behind a gprq_server process instead of an in-process
// tree. Routing is byte-identical to the in-process engine (the shared
// shard::ShardRouter over the same manifest); the scatter sends one QUERY
// frame per routed shard through that shard's BackendChannel (retries,
// hedging, circuit breaker — see backend_channel.h) and the gather merges
// the per-shard PrqResults by set union in shard order.
//
// The partial-answer contract, extended across processes: every backend
// runs the same deterministic per-query sample pool (seed ^ salt ^
// QueryFingerprint), so a healthy fan-out's decided ids are set-identical
// to the in-process engine over the same manifest. A shard whose backend
// cannot answer within budget contributes NOTHING silently: its routed
// candidate set is enumerated from the shard's tree file (the coordinator
// holds the manifest, so it can read the shard read-only) and folded into
// `undecided`, the per-shard failure is recorded in
// QueryTrace::remote_shard_errors, and the merged status is non-OK. When
// fallback enumeration is disabled or itself fails, the status says the
// candidates could not be enumerated — degradation is always explicit.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/prq.h"
#include "core/query_backend.h"
#include "exec/batch_executor.h"
#include "index/paged_tree.h"
#include "obs/trace.h"
#include "remote/backend_channel.h"
#include "remote/remote_policy.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"

namespace gprq::remote {

struct RemoteEngineOptions {
  RemotePolicy policy;
  /// When a shard's backend fails, enumerate that shard's candidates from
  /// its tree file so they can be reported as undecided (the sound partial
  /// answer). Requires the shard files to be readable where the
  /// coordinator runs; off, a degraded shard's candidates are *unknown*
  /// and the merged status says so.
  bool local_fallback = true;
  /// Probe every backend at Open (connect + WELCOME validation). A
  /// mis-wired backend (wrong dim / wrong shard) fails Open; an
  /// *unreachable* one is tolerated — surviving backend loss is the point
  /// of this engine, and the breaker handles it at query time.
  bool probe_on_open = false;

  Status Validate() const { return policy.Validate(); }
};

/// Per-query coordinator summary beyond what QueryTrace records; exposed
/// for tests and the chaos bench.
struct RemoteQueryReport {
  size_t shards_routed = 0;
  size_t shards_degraded = 0;
  int rpc_attempts = 0;
  int rpc_retries = 0;
  int rpc_hedges = 0;
};

class RemoteShardedEngine : public core::QueryBackend {
 public:
  /// `backends[k]` serves manifest shard k (one address per shard, same
  /// order); `executor` (non-null, not owned) supplies the scatter worker
  /// pool — size its pool to >= the shard count or scatter RPCs serialize.
  static Result<std::unique_ptr<RemoteShardedEngine>> Open(
      const std::string& manifest_path,
      std::vector<BackendAddress> backends, exec::BatchExecutor* executor,
      const RemoteEngineOptions& options = {});

  /// The same routing decision the in-process engine makes (shared
  /// ShardRouter); exposed for the differential tests.
  Result<std::vector<size_t>> Route(const core::PrqQuery& query,
                                    const core::PrqOptions& options) const;

  /// Scatter-gather over the remote backends; same result contract as
  /// ShardedPrqEngine::ExecuteBounded. Single submitter at a time (the
  /// scatter tasks are the parallelism).
  Result<core::PrqResult> ExecuteBounded(const core::PrqQuery& query,
                                         const core::PrqOptions& options,
                                         core::PrqStats* stats = nullptr,
                                         obs::QueryTrace* trace = nullptr,
                                         RemoteQueryReport* report = nullptr);

  /// Complete-answer wrapper: a degraded run surfaces as its status.
  Result<std::vector<index::ObjectId>> Execute(
      const core::PrqQuery& query, const core::PrqOptions& options,
      core::PrqStats* stats = nullptr, obs::QueryTrace* trace = nullptr);

  // core::QueryBackend — lets gprq_coordinator serve GPRQ/1 directly.
  // Single submitter (concurrent_submitters() is false).
  Result<core::BackendInfo> Describe() const override;
  Result<core::PrqResult> ExecuteQueryBounded(const core::PrqQuery& query,
                                              const core::PrqOptions& options,
                                              core::PrqStats* stats) override;

  size_t num_shards() const { return manifest_.shards.size(); }
  size_t dim() const { return manifest_.dim; }
  uint64_t total_points() const { return manifest_.total_points(); }
  const shard::ShardManifest& manifest() const { return manifest_; }
  BackendChannel& channel(size_t shard) { return *channels_[shard]; }

 private:
  RemoteShardedEngine(shard::ShardManifest manifest, std::string manifest_dir,
                      exec::BatchExecutor* executor,
                      const RemoteEngineOptions& options);

  /// Enumerates shard k's candidates in `search_box` from its tree file
  /// (read-only; tree opened lazily and kept). Appends ids to *out.
  Status FallbackEnumerate(size_t shard, const geom::Rect& search_box,
                           std::vector<index::ObjectId>* out);

  shard::ShardManifest manifest_;
  std::string manifest_dir_;
  exec::BatchExecutor* executor_;
  RemoteEngineOptions options_;
  shard::ShardRouter router_;
  std::vector<std::unique_ptr<BackendChannel>> channels_;
  /// Lazily opened fallback trees, slot k touched only by shard k's
  /// scatter task (tasks are per-shard; submissions are serialized).
  std::vector<std::unique_ptr<index::PagedRStarTree>> fallback_trees_;
};

}  // namespace gprq::remote

#endif  // GPRQ_REMOTE_REMOTE_ENGINE_H_
