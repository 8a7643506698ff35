#include "core/filter_pipeline.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace gprq::core {
namespace {

// Deadline counters not derivable from published traces: short-circuited
// queries never reach Phase 3, so they are counted at the check site.
// (gprq.deadline.expired_queries / .undecided_candidates come from the
// Phase-3 drivers.)
struct DeadlineMetrics {
  obs::Counter* short_circuits;

  static const DeadlineMetrics& Get() {
    static const DeadlineMetrics metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return DeadlineMetrics{r.GetCounter("gprq.deadline.short_circuits")};
    }();
    return metrics;
  }
};

// Per-filter prune attribution of one Phase-2 pass; a candidate counts
// toward the *first* filter that dropped it (RR-fringe, BF-outer, OR,
// marginal — the engine's order).
struct Phase2Counts {
  uint64_t pruned_rr_fringe = 0;
  uint64_t pruned_bf_outer = 0;
  uint64_t pruned_or = 0;
  uint64_t pruned_marginal = 0;
  uint64_t accepted_bf_inner = 0;
};

// The Phase-2 analytical filter loop: moves each candidate into
// outcome->accepted (BF inner radius — certain qualifier, no integration
// needed) or outcome->survivors (needs Phase 3), or drops it.
void RunPhase2(const PrqQuery& query, const PrqOptions& options,
               const QueryGeometry& geometry,
               std::vector<std::pair<la::Vector, index::ObjectId>>&& candidates,
               PrqEngine::FilterOutcome* outcome, Phase2Counts* counts) {
  const GaussianDistribution& g = query.query_object;
  const double delta = query.delta;
  const size_t d = g.dim();
  outcome->survivors.reserve(outcome->survivors.size() + candidates.size());
  const bool apply_fringe =
      geometry.use_rr && (options.fringe_filter_any_dim || d == 2);
  const MarginalFilter marginal =
      MarginalFilter::Compute(delta, query.theta);

  for (auto& [point, id] : candidates) {
    if (apply_fringe && !geometry.rr.PassesFringe(point, delta)) {
      ++counts->pruned_rr_fringe;
      continue;
    }
    if (geometry.use_bf) {
      const double dist_sq = la::SquaredDistance(point, g.mean());
      if (dist_sq > geometry.bf.alpha_outer * geometry.bf.alpha_outer) {
        ++counts->pruned_bf_outer;
        continue;
      }
      if (geometry.bf.has_inner &&
          dist_sq <= geometry.bf.alpha_inner * geometry.bf.alpha_inner) {
        // Guaranteed qualifier (lower-bounding function): accept without
        // numerical integration (Algorithm 2, line 9).
        outcome->accepted.emplace_back(point, id);
        ++counts->accepted_bf_inner;
        continue;
      }
    }
    if (geometry.use_or && !geometry.oreg.Contains(g, point)) {
      ++counts->pruned_or;
      continue;
    }
    if (options.use_marginal_filter && !marginal.Passes(g, point)) {
      ++counts->pruned_marginal;
      continue;
    }
    outcome->survivors.emplace_back(std::move(point), id);
  }
}

}  // namespace

Status ValidatePrq(const PrqQuery& query, const PrqOptions& options,
                   size_t dim) {
  if (query.query_object.dim() != dim) {
    return Status::InvalidArgument("query dimension does not match index");
  }
  if (!(query.delta > 0.0)) {
    return Status::InvalidArgument("delta must be > 0");
  }
  if (!(query.theta > 0.0 && query.theta < 1.0)) {
    // θ = 0 would select every object (a Gaussian has infinite spread);
    // θ = 1 can never be met (Section III-A).
    return Status::InvalidArgument("theta must be in (0, 1)");
  }
  if ((options.strategies & kStrategyAll) == 0) {
    return Status::InvalidArgument("at least one strategy must be enabled");
  }
  return Status::OK();
}

QueryGeometry PrepareQueryGeometry(const PrqQuery& query,
                                   const PrqOptions& options, size_t dim,
                                   const RadiusCatalog* radius_catalog,
                                   const AlphaCatalog* alpha_catalog) {
  const GaussianDistribution& g = query.query_object;
  QueryGeometry geometry;
  geometry.use_rr = options.strategies & kStrategyRR;
  geometry.use_or = options.strategies & kStrategyOR;
  geometry.use_bf = options.strategies & kStrategyBF;

  double r_theta = 0.0;
  if (query.theta < 0.5) {
    r_theta = (options.use_catalogs && radius_catalog != nullptr)
                  ? radius_catalog->LookupRadius(query.theta)
                  : RadiusCatalog::ExactRadius(dim, query.theta);
  }
  if (geometry.use_rr || geometry.use_or) {
    geometry.rr = RrRegion::Compute(g, query.delta, r_theta);
  }
  if (geometry.use_or) {
    geometry.oreg = OrRegion::Compute(g, query.delta, r_theta);
  }
  if (geometry.use_bf) {
    geometry.bf =
        BfBounds::Compute(g, query.delta, query.theta,
                          options.use_catalogs ? alpha_catalog : nullptr);
    if (geometry.bf.nothing_qualifies) geometry.proved_empty = true;
  }
  return geometry;
}

bool ComputeSearchBox(const QueryGeometry& geometry, const PrqQuery& query,
                      size_t dim, geom::Rect* search_box) {
  const GaussianDistribution& g = query.query_object;
  if (geometry.use_rr) {
    *search_box = geometry.rr.search_box;
    if (geometry.use_bf) {
      const geom::Rect bf_box =
          geom::Rect::CenteredUniform(g.mean(), geometry.bf.alpha_outer);
      la::Vector lo(dim), hi(dim);
      for (size_t i = 0; i < dim; ++i) {
        lo[i] = std::max(search_box->lo()[i], bf_box.lo()[i]);
        hi[i] = std::min(search_box->hi()[i], bf_box.hi()[i]);
        if (lo[i] > hi[i]) {
          // Disjoint boxes: nothing can qualify.
          return false;
        }
      }
      *search_box = geom::Rect(std::move(lo), std::move(hi));
    }
  } else if (geometry.use_bf) {
    *search_box =
        geom::Rect::CenteredUniform(g.mean(), geometry.bf.alpha_outer);
  } else {
    *search_box = geometry.oreg.BoundingBox(g);
  }
  return true;
}

Status RunFilterPhases(size_t dim, const Catalogs& catalogs,
                       const CandidateSource& source, const PrqQuery& query,
                       const PrqOptions& options,
                       PrqEngine::FilterOutcome* outcome, PrqStats* stats,
                       obs::QueryTrace* trace) {
  GPRQ_RETURN_NOT_OK(ValidatePrq(query, options, dim));

  // The trace is the single per-query record; `stats` is derived from it
  // at the end, so the two can never disagree. The registry aggregates are
  // sums of published traces — the reconciliation tests rely on this.
  obs::QueryTrace local_trace;
  obs::QueryTrace& tr = (trace != nullptr) ? *trace : local_trace;
  tr = obs::QueryTrace();

  const auto finish = [&] {
    stats->proved_empty = tr.proved_empty;
    stats->node_reads = tr.index_visits;
    stats->index_candidates = tr.index_candidates;
    stats->pruned_rr_fringe = tr.pruned_rr_fringe;
    stats->pruned_bf_outer = tr.pruned_bf_outer;
    stats->pruned_or = tr.pruned_or;
    stats->pruned_marginal = tr.pruned_marginal;
    stats->accepted_without_integration = tr.accepted_bf_inner;
    stats->integration_candidates = tr.phase3_candidates;
    stats->prep_seconds = tr.phase_seconds(obs::QueryTrace::kPrep);
    stats->phase1_seconds = tr.phase_seconds(obs::QueryTrace::kPhase1);
    stats->phase2_seconds = tr.phase_seconds(obs::QueryTrace::kPhase2);
    obs::PublishFilterPhases(tr);
  };

  // Phase-boundary deadline/cancellation checks. `bounded` is false for
  // default options, so unbounded queries pay one flag check per boundary
  // and never read the clock.
  const common::QueryControl& control = options.control;
  const bool bounded = !control.Unbounded();

  // Already stopped on entry: short-circuit before the filter geometry is
  // even prepared (and before any driver builds evaluators or pools).
  if (bounded && control.ShouldStop()) {
    DeadlineMetrics::Get().short_circuits->Add(1);
    outcome->expired = true;
    finish();
    return Status::OK();
  }

  // ---- Preparation: per-query filter geometry. --------------------------
  QueryGeometry geometry;
  {
    obs::QueryTrace::Span span(&tr, obs::QueryTrace::kPrep);
    geometry = PrepareQueryGeometry(
        query, options, dim,
        options.use_catalogs ? &catalogs.radius() : nullptr,
        options.use_catalogs ? &catalogs.alpha() : nullptr);
    if (geometry.proved_empty) tr.proved_empty = true;
  }
  if (tr.proved_empty) {
    outcome->proved_empty = true;
    finish();
    return Status::OK();
  }
  if (bounded && control.ShouldStop()) {
    outcome->expired = true;
    finish();
    return Status::OK();
  }

  // ---- Phase 1: candidate search. ----------------------------------------
  // The search region follows the paper: Algorithm 1 (RR box, Fig. 4) when
  // RR is enabled, otherwise Algorithm 2 (BF outer box); pure-OR mode uses
  // the oblique region's bounding box. When both RR and BF are enabled we
  // intersect the two boxes — both are supersets of the qualifying set.
  std::vector<std::pair<la::Vector, index::ObjectId>> candidates;
  {
    obs::QueryTrace::Span span(&tr, obs::QueryTrace::kPhase1);
    geom::Rect search_box = geom::Rect::Empty(dim);
    if (!ComputeSearchBox(geometry, query, dim, &search_box)) {
      tr.proved_empty = true;
    } else {
      outcome->search_box = search_box;
      GPRQ_RETURN_NOT_OK(source(search_box, &candidates, &tr));
      tr.index_candidates = candidates.size();
    }
  }
  if (tr.proved_empty) {
    outcome->proved_empty = true;
    finish();
    return Status::OK();
  }
  if (bounded && control.ShouldStop()) {
    // Degrade before Phase 2: every Phase-1 candidate becomes an
    // unresolved survivor. Skipping the filters is sound — they only
    // remove certain non-qualifiers — and the driver surfaces the
    // survivors as undecided instead of integrating them.
    outcome->expired = true;
    outcome->survivors = std::move(candidates);
    tr.phase3_candidates = outcome->survivors.size();
    finish();
    return Status::OK();
  }

  // ---- Phase 2: analytical filtering. ------------------------------------
  // Each rejected candidate is attributed to the first filter that drops
  // it, so the trace's prune breakdown partitions the index candidates.
  {
    obs::QueryTrace::Span span(&tr, obs::QueryTrace::kPhase2);
    Phase2Counts counts;
    RunPhase2(query, options, geometry, std::move(candidates), outcome,
              &counts);
    tr.pruned_rr_fringe = counts.pruned_rr_fringe;
    tr.pruned_bf_outer = counts.pruned_bf_outer;
    tr.pruned_or = counts.pruned_or;
    tr.pruned_marginal = counts.pruned_marginal;
    tr.accepted_bf_inner = counts.accepted_bf_inner;
    tr.phase3_candidates = outcome->survivors.size();
  }
  finish();
  return Status::OK();
}

}  // namespace gprq::core
