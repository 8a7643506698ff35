#ifndef GPRQ_CORE_PRQ_H_
#define GPRQ_CORE_PRQ_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/gaussian.h"
#include "index/rstar_tree.h"

namespace gprq::core {

/// A probabilistic range query PRQ(q, δ, θ) (paper Definition 2): return
/// every object whose qualification probability Pr(‖x − o‖² <= δ²) is at
/// least θ, where x ~ N(q, Σ) is the imprecise query location.
struct PrqQuery {
  GaussianDistribution query_object;
  double delta = 0.0;  // distance threshold, > 0
  double theta = 0.0;  // probability threshold, in (0, 1)
};

/// Filtering strategies of Section IV, combinable as a bitmask. The paper
/// evaluates RR, BF, RR+BF, RR+OR, BF+OR and ALL (OR is only useful as a
/// filter, so it never appears alone in the paper; this library additionally
/// supports a pure-OR mode that searches the oblique region's bounding box).
using StrategyMask = uint32_t;

// rectilinear θ-region box + Minkowski fringe
inline constexpr StrategyMask kStrategyRR = 1u << 0;
// oblique (eigen-frame) box filter
inline constexpr StrategyMask kStrategyOR = 1u << 1;
// spherical bounding-function radii α∥ / α⊥
inline constexpr StrategyMask kStrategyBF = 1u << 2;

inline constexpr StrategyMask kStrategyAll =
    kStrategyRR | kStrategyOR | kStrategyBF;

/// "RR", "BF", "RR+BF", "RR+OR", "BF+OR", "ALL", ...
std::string StrategyName(StrategyMask mask);

/// Answer of a deadline/cancellation-aware PRQ — possibly partial, always
/// *sound*: `ids` holds only objects whose qualification was actually
/// proven (never guesses), and when the query's QueryControl stopped it
/// early, the candidates it never resolved are surfaced in `undecided`
/// instead of being silently dropped or misclassified.
///
/// `status` annotates how the query ended: OK for a complete answer,
/// DeadlineExceeded / Cancelled for a degraded one, Internal when a worker
/// failed mid-batch (its chunk's candidates are in `undecided`). A control
/// that fires before the index search yields an empty degraded result —
/// nothing was identified, so there are no candidates to report undecided.
struct PrqResult {
  std::vector<index::ObjectId> ids;        // proven qualifiers (unordered)
  std::vector<index::ObjectId> undecided;  // unresolved when stopped
  Status status;                           // OK iff the answer is complete

  bool complete() const { return status.ok() && undecided.empty(); }
};

/// The complete-answer view of a bounded run, shared by every surface's
/// Execute/Submit: an error Result stays an error, and a degraded answer
/// surfaces as its status (the complete-answer APIs cannot mark the
/// unresolved remainder and must not guess).
inline Result<std::vector<index::ObjectId>> RequireComplete(
    Result<PrqResult> bounded) {
  if (!bounded.ok()) return bounded.status();
  if (!bounded->status.ok()) return bounded->status;
  return std::move(bounded->ids);
}

/// Per-query execution statistics, the quantities reported in the paper's
/// Tables I-III.
struct PrqStats {
  /// Candidates returned by the Phase-1 index search.
  size_t index_candidates = 0;
  /// Candidates remaining after Phase-2 filtering — the number of numerical
  /// integrations Phase 3 must perform (the paper's Table II/III metric).
  size_t integration_candidates = 0;
  /// Objects accepted without integration via the BF inner radius α⊥.
  size_t accepted_without_integration = 0;

  /// Phase-2 prune breakdown: which filter dropped each index candidate.
  /// A candidate counts against the *first* filter that rejects it (the
  /// engine applies RR-fringe, then BF, then OR, then the marginal
  /// extension), so the four counts plus accepted_without_integration plus
  /// integration_candidates always sum to index_candidates.
  size_t pruned_rr_fringe = 0;
  size_t pruned_bf_outer = 0;
  size_t pruned_or = 0;
  size_t pruned_marginal = 0;
  /// Final result cardinality (the paper's ANS column).
  size_t result_size = 0;
  /// R*-tree node reads during Phase 1.
  uint64_t node_reads = 0;
  /// True when the BF outer lookup proved the result empty without search.
  bool proved_empty = false;

  /// Per-query preparation (θ-region radius, BF radii; includes the
  /// one-time lazy U-catalog construction on an engine's first query).
  double prep_seconds = 0.0;
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  double phase3_seconds = 0.0;
  double total_seconds() const {
    return prep_seconds + phase1_seconds + phase2_seconds + phase3_seconds;
  }
};

}  // namespace gprq::core

#endif  // GPRQ_CORE_PRQ_H_
