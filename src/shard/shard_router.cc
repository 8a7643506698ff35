#include "shard/shard_router.h"

namespace gprq::shard {

Result<RoutingDecision> ShardRouter::Route(
    const core::PrqQuery& query, const core::PrqOptions& options) const {
  const size_t dim = manifest_->dim;
  GPRQ_RETURN_NOT_OK(core::ValidatePrq(query, options, dim));
  const core::QueryGeometry geometry = core::PrepareQueryGeometry(
      query, options, dim,
      options.use_catalogs ? &catalogs_.radius() : nullptr,
      options.use_catalogs ? &catalogs_.alpha() : nullptr);

  RoutingDecision decision;
  decision.search_box = geom::Rect::Empty(dim);
  if (geometry.proved_empty ||
      !core::ComputeSearchBox(geometry, query, dim, &decision.search_box)) {
    decision.proved_empty = true;
    return decision;
  }
  decision.routed = RouteBox(decision.search_box);
  return decision;
}

std::vector<size_t> ShardRouter::RouteBox(const geom::Rect& search_box) const {
  std::vector<size_t> routed;
  for (size_t k = 0; k < manifest_->shards.size(); ++k) {
    if (manifest_->shards[k].count == 0) continue;
    if (manifest_->shards[k].mbr.Intersects(search_box)) routed.push_back(k);
  }
  return routed;
}

}  // namespace gprq::shard
