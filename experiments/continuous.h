#ifndef GPRQ_EXPERIMENTS_CONTINUOUS_H_
#define GPRQ_EXPERIMENTS_CONTINUOUS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/prq.h"
#include "geom/rect.h"
#include "index/rstar_tree.h"
#include "mc/probability_evaluator.h"

namespace gprq::core {

/// Continuous PRQ monitoring — the moving-object scenario from the paper's
/// introduction ("when we monitor the movement status of a number of
/// moving objects, frequent updates of locations generate a high
/// processing load"). The monitored object re-issues PRQ(q_t, δ, θ) as its
/// Gaussian location estimate drifts; consecutive queries overlap heavily,
/// so re-running Phase 1 from the root every tick is wasted work.
///
/// The monitor keeps a *buffered candidate set*: Phase 1 fetches the
/// candidates of the current search box inflated by `buffer_margin`.
/// While the next query's search box stays inside the buffered region,
/// Phase 1 gathers from the buffer with no index access at all; once the
/// box escapes, the buffer is refreshed. Every tick is core::ExecuteInline
/// over that buffer as its CandidateSource, so the filters, the per-query
/// sample pool and the Phase-3 decisions are the engine's: a tick answers
/// exactly as a fresh PrqEngine::Execute with an evaluator in the same
/// state (the buffer gathers the same points the index would).
class ContinuousPrqMonitor {
 public:
  struct Options {
    /// Extra margin (in data units) added around the search box when the
    /// buffer is (re)fetched. Larger margins mean fewer refetches but more
    /// buffered points to scan per tick.
    double buffer_margin = 0.0;
    /// Engine options applied to every tick.
    PrqOptions prq;
  };

  struct TickStats : PrqStats {
    /// True when this tick re-fetched the buffer from the index.
    bool refetched = false;
    /// Points in the buffer Phase 1 gathered from this tick.
    size_t buffered_candidates = 0;
  };

  struct MonitorStats {
    size_t ticks = 0;
    size_t refetches = 0;
    uint64_t node_reads = 0;
  };

  /// The monitor references (not owns) the engine's tree.
  ContinuousPrqMonitor(const index::RStarTree* tree, Options options);

  /// Processes one location update: runs PRQ(g, δ, θ) for the new Gaussian
  /// and returns the qualifying ids, reusing the buffer when the query's
  /// search box is still covered. Fails like PrqEngine::Execute.
  Result<std::vector<index::ObjectId>> Update(
      const PrqQuery& query, mc::ProbabilityEvaluator* evaluator,
      TickStats* stats = nullptr);

  const MonitorStats& monitor_stats() const { return monitor_stats_; }

  /// Drops the buffer (e.g. after the indexed data changes — the buffer
  /// does not observe tree updates).
  void Invalidate() { buffer_valid_ = false; }

 private:
  const index::RStarTree* tree_;
  Options options_;
  Catalogs catalogs_;

  bool buffer_valid_ = false;
  geom::Rect buffer_box_;
  FlatCandidates buffer_;
  MonitorStats monitor_stats_;
};

}  // namespace gprq::core

#endif  // GPRQ_EXPERIMENTS_CONTINUOUS_H_
