#ifndef GPRQ_CORE_FILTER_PIPELINE_H_
#define GPRQ_CORE_FILTER_PIPELINE_H_

// The query body shared by every execution surface. The paper's processor
// (Section III-B) is one algorithm — prep, Phase 1 on a search box, Phase 2
// filters, Phase 3 integration — and so is this library's: RunFilterPhases
// below is the only code that validates a query, checks its QueryControl at
// phase boundaries, times the prep/phase1/phase2 spans, derives PrqStats
// from the trace and publishes `gprq.engine.*`. What differs between the
// surfaces is only where Phase-1 candidates come from, passed in as a
// core::CandidateSource:
//
//   PrqEngine              the in-memory R*-tree
//   ExecutePagedPrq        the paged tree, through its buffer pool
//   LivePrqEngine          the pinned storage::StorageSnapshot
//   ShardedPrqEngine       a parallel Phase-1 scatter over the routed shards
//   result-cache hit       the cached FlatCandidates superset
//   ContinuousPrqMonitor   a buffered superset of the last search box,
//                          refilled when the box escapes it
//                          (experiments/continuous.h)
//
// Phase 3 then runs either inline (core::ExecuteInline: PrqEngine, paged,
// the continuous monitor) or fanned out by
// exec::BatchExecutor::ExecuteBounded, which also owns the result-cache
// front (executor, live and sharded surfaces).
// The geometry helpers stay public because the remote coordinator routes
// with the same search box (shard::ShardRouter).

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/alpha_catalog.h"
#include "core/engine.h"
#include "core/filters.h"
#include "core/prq.h"
#include "core/radius_catalog.h"
#include "geom/rect.h"
#include "index/rstar_tree.h"
#include "la/vector.h"
#include "obs/trace.h"

namespace gprq::core {

/// The argument checks every execution path performs before touching an
/// index: dimension match, δ > 0, θ ∈ (0, 1), at least one strategy.
Status ValidatePrq(const PrqQuery& query, const PrqOptions& options,
                   size_t dim);

/// Per-query filter geometry: which strategies are active and their
/// precomputed regions. Built once per query by PrepareQueryGeometry; read
/// concurrently by any number of shard tasks (immutable after build).
struct QueryGeometry {
  bool use_rr = false;
  bool use_or = false;
  bool use_bf = false;
  RrRegion rr;
  OrRegion oreg;
  BfBounds bf;
  /// The BF lower bound proved nothing can qualify — before any index
  /// access (Algorithm 2's early exit).
  bool proved_empty = false;
};

/// Computes the per-query regions for the enabled strategies. Catalogs are
/// consulted only when options.use_catalogs (pass null otherwise); a null
/// catalog with use_catalogs falls back to the exact solve, matching
/// PrqEngine::EffectiveThetaRadius's contract of never dereferencing a
/// catalog it was not given.
QueryGeometry PrepareQueryGeometry(const PrqQuery& query,
                                   const PrqOptions& options, size_t dim,
                                   const RadiusCatalog* radius_catalog,
                                   const AlphaCatalog* alpha_catalog);

/// The Phase-1 search region (paper Algorithms 1-2): the RR box when RR is
/// enabled — intersected with the BF outer box when both are on, since both
/// are supersets of the qualifying set — the BF outer box for BF-only, and
/// the oblique region's bounding box for pure OR. Returns false when the RR
/// and BF boxes are disjoint (nothing can qualify; `search_box` is then
/// meaningless). This box is also the shard-routing primitive: a shard
/// whose MBR misses it cannot contribute a candidate.
bool ComputeSearchBox(const QueryGeometry& geometry, const PrqQuery& query,
                      size_t dim, geom::Rect* search_box);

/// The filter pass of every surface: validation, preparation, Phase 1 over
/// `source` within the query's search box, and Phase 2. Fills `outcome`
/// with the inner-accepted objects and the survivors Phase 3 must decide,
/// and `stats` with the prep/phase1/phase2 timings, candidate counts and
/// per-filter prune breakdown (derived from the trace, so the two cannot
/// disagree). Catalogs are consulted only when options.use_catalogs.
///
/// options.control is checked on entry and after prep and Phase 1; when it
/// has fired the pass degrades (outcome->expired — see FilterOutcome) and
/// still returns OK. Every call that gets past validation publishes its
/// filter-phase counters and timings to the global obs::MetricRegistry
/// (`gprq.engine.*`). If `trace` is non-null it is reset and receives the
/// same per-query record, with the Phase-3 fields left for the driver.
Status RunFilterPhases(size_t dim, const Catalogs& catalogs,
                       const CandidateSource& source, const PrqQuery& query,
                       const PrqOptions& options,
                       PrqEngine::FilterOutcome* outcome, PrqStats* stats,
                       obs::QueryTrace* trace = nullptr);

}  // namespace gprq::core

#endif  // GPRQ_CORE_FILTER_PIPELINE_H_
