#include "experiments/continuous.h"

#include <utility>

namespace gprq::core {

ContinuousPrqMonitor::ContinuousPrqMonitor(const index::RStarTree* tree,
                                           Options options)
    : tree_(tree), options_(options), catalogs_(tree->dim()) {}

Result<std::vector<index::ObjectId>> ContinuousPrqMonitor::Update(
    const PrqQuery& query, mc::ProbabilityEvaluator* evaluator,
    TickStats* stats) {
  TickStats local;
  TickStats& out = (stats != nullptr) ? *stats : local;
  out = TickStats();

  // Phase 1 from the buffer: refill it around the search box when the box
  // escapes it, then gather what the box contains — the points a fresh
  // index search would return.
  const CandidateSource source =
      [this, &out](const geom::Rect& search_box,
                   std::vector<std::pair<la::Vector, index::ObjectId>>*
                       candidates,
                   obs::QueryTrace* trace) {
        if (!buffer_valid_ || !buffer_box_.Contains(search_box)) {
          buffer_box_ = search_box.Inflated(options_.buffer_margin);
          std::vector<std::pair<la::Vector, index::ObjectId>> points;
          const uint64_t reads_before = tree_->stats().node_reads;
          tree_->RangeQuery(buffer_box_, [&points](const la::Vector& point,
                                                   index::ObjectId id) {
            points.emplace_back(point, id);
          });
          trace->index_visits = tree_->stats().node_reads - reads_before;
          buffer_ = FlatCandidates(points);
          buffer_valid_ = true;
          out.refetched = true;
        }
        out.buffered_candidates = buffer_.size();
        buffer_.GatherContained(search_box, candidates);
        return Status::OK();
      };

  auto result = ExecuteInline(tree_->dim(), catalogs_, source, query,
                              options_.prq, evaluator, &out);
  if (!result.ok()) return result.status();
  ++monitor_stats_.ticks;
  if (out.refetched) {
    ++monitor_stats_.refetches;
    monitor_stats_.node_reads += out.node_reads;
  }
  return RequireComplete(std::move(result));
}

}  // namespace gprq::core
