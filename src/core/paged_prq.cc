#include "core/paged_prq.h"

namespace gprq::core {

Result<std::vector<index::ObjectId>> ExecutePagedPrq(
    const index::PagedRStarTree& tree, const PrqQuery& query,
    const PrqOptions& options, mc::ProbabilityEvaluator* evaluator,
    const RadiusCatalog* radius_catalog, const AlphaCatalog* alpha_catalog,
    PrqStats* stats) {
  if (options.use_catalogs &&
      (radius_catalog == nullptr || alpha_catalog == nullptr)) {
    return Status::InvalidArgument(
        "use_catalogs requires prebuilt radius and alpha catalogs");
  }
  const Catalogs catalogs(tree.dim(), radius_catalog, alpha_catalog);
  const CandidateSource paged =
      [&tree](const geom::Rect& search_box,
              std::vector<std::pair<la::Vector, index::ObjectId>>* candidates,
              obs::QueryTrace* trace) {
        const uint64_t misses_before = tree.pool_stats().misses;
        const uint64_t hits_before = tree.pool_stats().hits;
        GPRQ_RETURN_NOT_OK(tree.RangeQuery(
            search_box, [candidates](const la::Vector& point,
                                     index::ObjectId id) {
              candidates->emplace_back(point, id);
            }));
        // Logical node accesses = pool hits + misses during the query.
        trace->index_visits = (tree.pool_stats().misses - misses_before) +
                              (tree.pool_stats().hits - hits_before);
        return Status::OK();
      };
  return RequireComplete(ExecuteInline(tree.dim(), catalogs, paged, query,
                                       options, evaluator, stats));
}

}  // namespace gprq::core
