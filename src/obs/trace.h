#ifndef GPRQ_OBS_TRACE_H_
#define GPRQ_OBS_TRACE_H_

// Per-query tracing: one QueryTrace records where a single PRQ spent its
// time and what each filter stage did to the candidate set — the paper's
// per-stage cost story (Tables I-III) as a live, per-query record instead
// of a bench aggregate. The shared filter pass (core::RunFilterPhases)
// fills the filter-phase fields (RAII Span timings, Phase-2 prunes broken
// out per filter) on every surface; the Phase-3 driver
// (exec::BatchExecutor or core::ExecuteInline) fills the integration and
// sampling fields. PublishFilterPhases/PublishPhase3 fold a trace into the
// global MetricRegistry so per-query truth and serving aggregates can never
// drift apart — the registry totals are sums of published traces.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace gprq::obs {

struct QueryTrace {
  enum Phase : size_t {
    kPrep = 0,   // filter geometry (θ-region radius, BF radii, catalogs)
    kPhase1,     // index search
    kPhase2,     // analytical filtering
    kPhase3,     // numerical integration
    kPhaseCount,
  };

  /// RAII phase span: adds the scope's duration to trace->phase_nanos.
  /// A null trace makes the span a no-op.
  class Span {
   public:
    Span(QueryTrace* trace, Phase phase) : trace_(trace), phase_(phase) {}
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (trace_ != nullptr) {
        trace_->phase_nanos[phase_] += watch_.ElapsedNanos();
      }
    }

   private:
    QueryTrace* trace_;
    Phase phase_;
    Stopwatch watch_;
  };

  uint64_t phase_nanos[kPhaseCount] = {};

  // ---- Phase 1: index search. ----
  uint64_t index_visits = 0;      // R*-tree node reads
  uint64_t index_candidates = 0;  // points returned by the range search

  // ---- Phase 2: analytical filtering, prunes per filter. A candidate is
  // attributed to the *first* filter that dropped it (the engine applies
  // RR-fringe, then BF, then OR, then the marginal extension). ----
  uint64_t pruned_rr_fringe = 0;  // failed the RR Minkowski-fringe test
  uint64_t pruned_bf_outer = 0;   // outside the BF outer radius (BF-reject)
  uint64_t pruned_or = 0;         // outside the oblique region
  uint64_t pruned_marginal = 0;   // failed the marginal-filter extension
  uint64_t accepted_bf_inner = 0; // BF-accept: qualified without integration

  // ---- Phase 3: numerical integration. ----
  uint64_t phase3_candidates = 0;  // survivors handed to the integrator
  uint64_t integrations = 0;       // decisions actually computed
  uint64_t samples_used = 0;       // MC samples consumed by the decisions
  uint64_t early_stops = 0;        // decisions settled before pool end
  uint64_t undecided = 0;          // pool exhausted with θ still inside CI

  uint64_t result_size = 0;
  bool proved_empty = false;  // BF outer lookup proved the result empty

  // ---- Graceful degradation: deadline/cancellation. ----
  // The query's QueryControl fired mid-flight; the result is a sound
  // partial answer (result_size proven qualifiers, deadline_undecided
  // candidates left unresolved). Filled by the Phase-3 driver, published
  // with PublishPhase3 under `gprq.deadline.*`.
  bool deadline_expired = false;
  uint64_t deadline_undecided = 0;

  // ---- Overload protection (set by the governed exec path). ----
  bool shed = false;         // rejected at admission; no work was done
  bool browned_out = false;  // admitted with degraded budgets
  uint64_t admission_wait_nanos = 0;  // time in the bounded admission queue
  double cost_estimate = 0.0;         // final admission cost (post-refine)

  // ---- Sharded scatter-gather (set by shard::ShardedPrqEngine). ----
  // Deliberately NOT folded by PublishFilterPhases/PublishPhase3: the
  // shard engine publishes its own `gprq.shard.*` series. (Its filter
  // phases are folded into `gprq.engine.*` like every other surface's.)
  uint64_t shards_routed = 0;  // shards whose MBR met the search box
  uint64_t shards_total = 0;   // shards in the deployment (0 = unsharded)

  // ---- Remote scatter-gather (set by remote::RemoteShardedEngine, on top
  // of the shard fields above; same ledger exemption). ----
  /// Routed shards whose backend could not answer within budget — their
  /// candidates were folded into `undecided` (the partial-answer contract).
  uint64_t shards_degraded = 0;
  uint64_t remote_retries = 0;  // RPC attempts beyond the first, all shards
  uint64_t remote_hedges = 0;   // hedged requests issued
  /// (shard, StatusCode) for every routed shard that ended non-OK, in
  /// shard order — the per-shard status record the degradation contract
  /// promises. Codes are the wire encoding (uint8_t of StatusCode).
  std::vector<std::pair<uint32_t, uint8_t>> remote_shard_errors;

  // ---- Semantic result cache (set by the cache-aware exec path). ----
  // Exact hit: the stored complete answer was served verbatim — no filter
  // phases, no Phase 3, so the phase spans above stay zero. Semantic hit:
  // Phases 1-2 ran as a containment re-filter over the cached candidate
  // set (no index visits) and Phase 3 ran normally over the survivors.
  bool cache_hit_exact = false;
  bool cache_hit_semantic = false;

  double phase_seconds(Phase phase) const {
    return static_cast<double>(phase_nanos[phase]) * 1e-9;
  }
  uint64_t pruned_total() const {
    return pruned_rr_fringe + pruned_bf_outer + pruned_or + pruned_marginal;
  }
};

/// Folds a trace's filter-phase fields (prep/phase1/phase2 spans, index
/// visits, per-filter prunes) into the global registry under the
/// `gprq.engine.*` names. Called once per query by core::RunFilterPhases,
/// so it counts every surface's queries; the Phase-3 fields are published
/// separately by the driver.
void PublishFilterPhases(const QueryTrace& trace);

/// Folds a trace's Phase-3 fields (span, integrations, result size) into
/// the global registry (`gprq.engine.phase.phase3_nanos`,
/// `gprq.engine.results`). The sampling counters (`gprq.mc.*`) are recorded
/// at the source by mc::SamplePool and the evaluators, not here.
void PublishPhase3(const QueryTrace& trace);

}  // namespace gprq::obs

#endif  // GPRQ_OBS_TRACE_H_
