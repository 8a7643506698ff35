#ifndef GPRQ_CORE_QUERY_BACKEND_H_
#define GPRQ_CORE_QUERY_BACKEND_H_

#include <cstdint>

#include "common/status.h"
#include "core/engine.h"
#include "core/prq.h"

namespace gprq::core {

/// Dataset facts a serving front-end advertises (the GPRQ/1 WELCOME frame).
struct BackendInfo {
  uint32_t dim = 0;
  uint64_t points = 0;
  bool sharded = false;
  uint32_t num_shards = 0;
};

/// Anything that answers whole PRQ queries behind a serving front-end
/// (net::Server): the single-tree executor (exec::BatchExecutor), the
/// sharded engine (shard::ShardedPrqEngine) and the remote coordinator
/// (remote::RemoteShardedEngine). It lives in core/ so those layers
/// implement it directly and net/ depends on none of them.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// Dataset facts, or an error when this backend cannot serve whole
  /// queries (a detached executor has no dataset of its own).
  virtual Result<BackendInfo> Describe() const = 0;

  /// Blocking bounded execution: returned ids exact, cut-off work in
  /// `undecided`, `status` reports why (see PrqResult). An error Result
  /// only for invalid queries. `stats` may be null.
  virtual Result<PrqResult> ExecuteQueryBounded(const PrqQuery& query,
                                                const PrqOptions& options,
                                                PrqStats* stats) = 0;

  /// The one submitter rule: true when ExecuteQueryBounded tolerates
  /// concurrent callers. When false, a front-end calls it from one thread.
  virtual bool concurrent_submitters() const { return false; }
};

}  // namespace gprq::core

#endif  // GPRQ_CORE_QUERY_BACKEND_H_
