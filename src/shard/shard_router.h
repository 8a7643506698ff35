#ifndef GPRQ_SHARD_SHARD_ROUTER_H_
#define GPRQ_SHARD_SHARD_ROUTER_H_

// The shard-routing decision, extracted from ShardedPrqEngine so the
// in-process scatter-gather engine and the remote coordinator
// (remote::RemoteShardedEngine) route queries *identically*: validate,
// prepare the query geometry (θ-region radii via the per-dimension
// catalogs), compute the Phase-1 search box, and keep exactly the shards
// whose manifest MBR intersects it (empty shards never route). Identical
// routing is what makes the remote differential tests meaningful — any
// decided-set difference is then a fault-handling bug, not a routing one.

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/filter_pipeline.h"
#include "core/prq.h"
#include "geom/rect.h"
#include "shard/shard_manifest.h"

namespace gprq::shard {

/// One query's routing outcome.
struct RoutingDecision {
  /// The filters proved the answer empty before touching any shard;
  /// search_box and routed are meaningless.
  bool proved_empty = false;
  /// Phase-1 search box (valid iff !proved_empty).
  geom::Rect search_box;
  /// Manifest positions of the shards the query must visit, ascending.
  std::vector<size_t> routed;
};

/// Stateless routing over a manifest, plus the lazily built per-dimension
/// catalogs the geometry preparation wants. The manifest is referenced,
/// not copied — MBR swaps from ShardedPrqEngine::ReloadShard are picked up
/// on the next Route. Thread-compatible (the lazily built catalogs make
/// const Route non-reentrant during first use); both engines call it from
/// their single submitter.
class ShardRouter {
 public:
  /// `manifest` must outlive the router.
  explicit ShardRouter(const ShardManifest* manifest)
      : manifest_(manifest), catalogs_(manifest->dim) {}

  /// Validates the query and routes it.
  Result<RoutingDecision> Route(const core::PrqQuery& query,
                                const core::PrqOptions& options) const;

  /// Manifest positions (ascending) of the non-empty shards whose MBR
  /// intersects `search_box`.
  std::vector<size_t> RouteBox(const geom::Rect& search_box) const;

  const core::Catalogs& catalogs() const { return catalogs_; }

 private:
  const ShardManifest* manifest_;
  core::Catalogs catalogs_;
};

}  // namespace gprq::shard

#endif  // GPRQ_SHARD_SHARD_ROUTER_H_
