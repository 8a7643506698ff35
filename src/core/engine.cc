#include "core/engine.h"

#include <cassert>
#include <cmath>

#include "common/stopwatch.h"
#include "core/filter_pipeline.h"
#include "exec/batch_executor.h"
#include "mc/sample_pool.h"

namespace gprq::core {
namespace {

// Deadline counters not derivable from published traces: short-circuited
// queries never reach Phase 3, so they are counted at the check site.
// (gprq.deadline.expired_queries / .undecided_candidates come from
// PublishPhase3.)
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

}  // namespace

std::string StrategyName(StrategyMask mask) {
  if (mask == kStrategyAll) return "ALL";
  std::string name;
  const auto append = [&name](const char* part) {
    if (!name.empty()) name += "+";
    name += part;
  };
  if (mask & kStrategyRR) append("RR");
  if (mask & kStrategyBF) append("BF");
  if (mask & kStrategyOR) append("OR");
  if (name.empty()) name = "NONE";
  return name;
}

PrqEngine::PrqEngine(const index::RStarTree* tree) : tree_(tree) {
  assert(tree_ != nullptr);
}

const RadiusCatalog& PrqEngine::radius_catalog() const {
  if (radius_catalog_ == nullptr) {
    radius_catalog_ =
        std::make_unique<RadiusCatalog>(RadiusCatalog::Build(tree_->dim()));
  }
  return *radius_catalog_;
}

const AlphaCatalog& PrqEngine::alpha_catalog() const {
  if (alpha_catalog_ == nullptr) {
    alpha_catalog_ =
        std::make_unique<AlphaCatalog>(AlphaCatalog::Build(tree_->dim()));
  }
  return *alpha_catalog_;
}

double PrqEngine::EffectiveThetaRadius(double theta,
                                       bool use_catalogs) const {
  if (theta >= 0.5) return 0.0;
  return use_catalogs ? radius_catalog().LookupRadius(theta)
                      : RadiusCatalog::ExactRadius(tree_->dim(), theta);
}

Status PrqEngine::RunFilterPhases(const PrqQuery& query,
                                  const PrqOptions& options,
                                  FilterOutcome* outcome, PrqStats* stats,
                                  obs::QueryTrace* trace) const {
  return RunFilterPhasesImpl(
      query, options,
      [this](const geom::Rect& search_box,
             std::vector<std::pair<la::Vector, index::ObjectId>>* candidates,
             obs::QueryTrace* tr) {
        const uint64_t node_reads_before = tree_->stats().node_reads;
        tree_->RangeQuery(search_box,
                          [candidates](const la::Vector& point,
                                       index::ObjectId id) {
                            candidates->emplace_back(point, id);
                          });
        tr->index_visits = tree_->stats().node_reads - node_reads_before;
      },
      outcome, stats, trace);
}

FlatCandidates::FlatCandidates(
    const std::vector<std::pair<la::Vector, index::ObjectId>>& points) {
  Append(points);
}

void FlatCandidates::Append(
    const std::vector<std::pair<la::Vector, index::ObjectId>>& points) {
  if (points.empty()) return;
  if (ids.empty()) dim = points.front().first.dim();
  coords.reserve(coords.size() + points.size() * dim);
  ids.reserve(ids.size() + points.size());
  for (const auto& [point, id] : points) {
    assert(point.dim() == dim);
    coords.insert(coords.end(), point.data(), point.data() + dim);
    ids.push_back(id);
  }
}

void FlatCandidates::GatherContained(
    const geom::Rect& box,
    std::vector<std::pair<la::Vector, index::ObjectId>>* kept) const {
  for (size_t i = 0; i < ids.size(); ++i) {
    const double* point = coords.data() + i * dim;
    if (box.Contains(point)) {
      kept->emplace_back(
          la::Vector(std::vector<double>(point, point + dim)), ids[i]);
    }
  }
}

Status PrqEngine::FilterCandidateSet(const PrqQuery& query,
                                     const PrqOptions& options,
                                     const FlatCandidates& candidates,
                                     FilterOutcome* outcome, PrqStats* stats,
                                     obs::QueryTrace* trace) const {
  return RunFilterPhasesImpl(
      query, options,
      [&candidates](
          const geom::Rect& search_box,
          std::vector<std::pair<la::Vector, index::ObjectId>>* kept,
          obs::QueryTrace*) {
        // No index visit: Phase 1 is a containment scan over the supplied
        // superset. Rect::Contains is inclusive, exactly like RangeQuery's
        // region test, so the kept set equals the index answer whenever
        // `candidates` covers the box.
        candidates.GatherContained(search_box, kept);
      },
      outcome, stats, trace);
}

Status PrqEngine::RunFilterPhasesImpl(const PrqQuery& query,
                                      const PrqOptions& options,
                                      const CandidateGatherer& gather,
                                      FilterOutcome* outcome, PrqStats* stats,
                                      obs::QueryTrace* trace) const {
  GPRQ_RETURN_NOT_OK(ValidatePrq(query, options, tree_->dim()));
  const size_t d = tree_->dim();

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
        query, options, d, options.use_catalogs ? &radius_catalog() : nullptr,
        options.use_catalogs ? &alpha_catalog() : nullptr);
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

  // ---- Phase 1: index-based search. --------------------------------------
  // The search region follows the paper: Algorithm 1 (RR box, Fig. 4) when
  // RR is enabled, otherwise Algorithm 2 (BF outer box); pure-OR mode uses
  // the oblique region's bounding box. When both RR and BF are enabled we
  // intersect the two boxes — both are supersets of the qualifying set.
  std::vector<std::pair<la::Vector, index::ObjectId>> candidates;
  {
    obs::QueryTrace::Span span(&tr, obs::QueryTrace::kPhase1);
    geom::Rect search_box = geom::Rect::Empty(d);
    if (!ComputeSearchBox(geometry, query, d, &search_box)) {
      tr.proved_empty = true;
    } else {
      outcome->search_box = search_box;
      gather(search_box, &candidates, &tr);
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

Result<PrqResult> PrqEngine::ExecuteBounded(const PrqQuery& query,
                                            const PrqOptions& options,
                                            mc::ProbabilityEvaluator* evaluator,
                                            PrqStats* stats) const {
  if (evaluator == nullptr) {
    return Status::InvalidArgument("evaluator must not be null");
  }
  PrqStats local_stats;
  PrqStats& out_stats = (stats != nullptr) ? *stats : local_stats;
  out_stats = PrqStats();
  const common::QueryControl& control = options.control;

  FilterOutcome outcome;
  obs::QueryTrace trace;
  GPRQ_RETURN_NOT_OK(
      RunFilterPhases(query, options, &outcome, &out_stats, &trace));

  PrqResult result;
  if (outcome.proved_empty) return result;  // complete, empty

  result.ids.reserve(outcome.accepted.size());
  for (const auto& [point, id] : outcome.accepted) result.ids.push_back(id);

  if (outcome.expired) {
    // The control fired during the filter phases; every survivor (possibly
    // the whole unfiltered candidate set) is unresolved. Inner-accepted
    // objects stay in the answer — their membership was proven before the
    // stop.
    result.undecided.reserve(outcome.survivors.size());
    for (const auto& [point, id] : outcome.survivors) {
      result.undecided.push_back(id);
    }
    result.status = control.StopStatus();
    if (result.status.ok()) {
      result.status = Status::Internal("filter phases degraded without a "
                                       "stop condition");
    }
  } else if (!outcome.survivors.empty()) {
    obs::QueryTrace::Span span(&trace, obs::QueryTrace::kPhase3);
    if (control.ShouldStop()) {
      // Fired between Phase 2 and pool construction: degrade without
      // drawing a single sample.
      result.undecided.reserve(outcome.survivors.size());
      for (const auto& [point, id] : outcome.survivors) {
        result.undecided.push_back(id);
      }
      result.status = control.StopStatus();
    } else {
      const auto pool =
          evaluator->MakeSamplePool(query.query_object, options.pool_variant);
      const size_t n = outcome.survivors.size();
      std::vector<const la::Vector*> objects;
      objects.reserve(n);
      for (const auto& [point, id] : outcome.survivors) {
        objects.push_back(&point);
      }
      std::vector<char> states(n, mc::kDecideUndecided);
      evaluator->DecideBatchBounded(query.query_object, objects.data(), n,
                                    query.delta, query.theta, pool.get(),
                                    control, states.data());
      size_t decided = 0;
      for (size_t i = 0; i < n; ++i) {
        if (states[i] == mc::kDecideIncluded) {
          result.ids.push_back(outcome.survivors[i].second);
          ++decided;
        } else if (states[i] == mc::kDecideExcluded) {
          ++decided;
        } else {
          result.undecided.push_back(outcome.survivors[i].second);
        }
      }
      trace.integrations = decided;
      if (!result.undecided.empty()) {
        result.status = control.StopStatus();
        if (result.status.ok() && control.sample_budget > 0) {
          // Brownout degradation: the per-candidate sample budget ran out
          // before the confidence interval separated. The decided ids are
          // still exact; the remainder is explicitly undecided.
          result.status = Status::ResourceExhausted(
              "Phase-3 sample budget exhausted; undecided candidates "
              "remain");
        }
        if (result.status.ok()) {
          result.status = Status::Internal(
              "bounded decide left candidates undecided without a stop "
              "condition");
        }
      }
    }
  }

  trace.deadline_expired = !result.status.ok();
  trace.deadline_undecided = result.undecided.size();
  trace.result_size = result.ids.size();
  obs::PublishPhase3(trace);
  out_stats.phase3_seconds = trace.phase_seconds(obs::QueryTrace::kPhase3);
  out_stats.result_size = result.ids.size();
  return result;
}

Result<std::vector<index::ObjectId>> PrqEngine::Execute(
    const PrqQuery& query, const PrqOptions& options,
    mc::ProbabilityEvaluator* evaluator, PrqStats* stats) const {
  if (evaluator == nullptr) {
    return Status::InvalidArgument("evaluator must not be null");
  }
  if (!options.control.Unbounded()) {
    // The complete-answer API cannot express a partial result. Decided
    // candidates are bit-identical either way; a degraded run surfaces as
    // its stop status instead of silently dropping the undecided remainder.
    Result<PrqResult> bounded =
        ExecuteBounded(query, options, evaluator, stats);
    if (!bounded.ok()) return bounded.status();
    if (!bounded->status.ok()) return bounded->status;
    return std::move(bounded->ids);
  }
  PrqStats local_stats;
  PrqStats& out_stats = (stats != nullptr) ? *stats : local_stats;
  out_stats = PrqStats();

  FilterOutcome outcome;
  obs::QueryTrace trace;
  GPRQ_RETURN_NOT_OK(
      RunFilterPhases(query, options, &outcome, &out_stats, &trace));
  if (outcome.proved_empty) return std::vector<index::ObjectId>{};

  // ---- Phase 3: probability computation. ---------------------------------
  // Batched: sampling evaluators build one shared per-query pool (the
  // O(samples · d²) draw happens once, not once per candidate) and decide
  // every survivor against it; evaluators without a pool fall back to the
  // per-candidate loop inside the default DecideBatch.
  std::vector<index::ObjectId> result;
  {
    obs::QueryTrace::Span span(&trace, obs::QueryTrace::kPhase3);
    result.reserve(outcome.accepted.size());
    for (const auto& [point, id] : outcome.accepted) result.push_back(id);
    if (!outcome.survivors.empty()) {
      const auto pool =
          evaluator->MakeSamplePool(query.query_object, options.pool_variant);
      const size_t n = outcome.survivors.size();
      std::vector<const la::Vector*> objects;
      objects.reserve(n);
      for (const auto& [point, id] : outcome.survivors) {
        objects.push_back(&point);
      }
      std::vector<char> decisions(n, 0);
      evaluator->DecideBatch(query.query_object, objects.data(), n,
                             query.delta, query.theta, pool.get(),
                             decisions.data());
      for (size_t i = 0; i < n; ++i) {
        if (decisions[i]) result.push_back(outcome.survivors[i].second);
      }
      trace.integrations = n;
    }
  }
  trace.result_size = result.size();
  obs::PublishPhase3(trace);
  out_stats.phase3_seconds = trace.phase_seconds(obs::QueryTrace::kPhase3);
  out_stats.result_size = result.size();
  return result;
}

Result<std::vector<std::pair<index::ObjectId, double>>>
PrqEngine::ExecuteScored(const PrqQuery& query, const PrqOptions& options,
                         mc::ProbabilityEvaluator* evaluator,
                         PrqStats* stats) const {
  if (evaluator == nullptr) {
    return Status::InvalidArgument("evaluator must not be null");
  }
  PrqStats local_stats;
  PrqStats& out_stats = (stats != nullptr) ? *stats : local_stats;
  out_stats = PrqStats();

  FilterOutcome outcome;
  obs::QueryTrace trace;
  GPRQ_RETURN_NOT_OK(
      RunFilterPhases(query, options, &outcome, &out_stats, &trace));
  if (outcome.expired) {
    // Scored results carry no undecided channel; a degraded run is an
    // error, not a silently truncated ranking.
    return options.control.StopStatus();
  }
  std::vector<std::pair<index::ObjectId, double>> scored;
  if (outcome.proved_empty) return scored;

  {
    obs::QueryTrace::Span span(&trace, obs::QueryTrace::kPhase3);
    const GaussianDistribution& g = query.query_object;
    // Inner-accepted objects definitely qualify; they are evaluated anyway
    // to report their probability (membership was already certain).
    for (const auto& [point, id] : outcome.accepted) {
      scored.emplace_back(
          id, evaluator->QualificationProbability(g, point, query.delta));
    }
    for (const auto& [point, id] : outcome.survivors) {
      const double probability =
          evaluator->QualificationProbability(g, point, query.delta);
      if (probability >= query.theta) scored.emplace_back(id, probability);
    }
    trace.integrations = outcome.accepted.size() + outcome.survivors.size();
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
  }
  trace.result_size = scored.size();
  obs::PublishPhase3(trace);
  out_stats.phase3_seconds = trace.phase_seconds(obs::QueryTrace::kPhase3);
  out_stats.result_size = scored.size();
  return scored;
}

Result<std::vector<index::ObjectId>> PrqEngine::ExecuteParallel(
    const PrqQuery& query, const PrqOptions& options,
    const EvaluatorFactory& factory, size_t num_threads,
    PrqStats* stats) const {
  if (!factory) {
    return Status::InvalidArgument("evaluator factory must not be null");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  PrqStats local_stats;
  PrqStats& out_stats = (stats != nullptr) ? *stats : local_stats;
  out_stats = PrqStats();

  FilterOutcome outcome;
  GPRQ_RETURN_NOT_OK(RunFilterPhases(query, options, &outcome, &out_stats));
  if (outcome.expired) {
    // Like Execute: this API promises a complete answer, so a control that
    // fired during the filter phases surfaces as its stop status.
    return options.control.StopStatus();
  }
  if (outcome.proved_empty) return std::vector<index::ObjectId>{};

  // Nothing survived to Phase 3: return the inner-accepted objects without
  // constructing evaluators or waking a single worker thread.
  if (outcome.survivors.empty()) {
    std::vector<index::ObjectId> result;
    result.reserve(outcome.accepted.size());
    for (const auto& [point, id] : outcome.accepted) result.push_back(id);
    out_stats.result_size = result.size();
    return result;
  }

  // ---- Phase 3, delegated to a one-shot worker pool. ----------------------
  // More workers than survivors would only idle; cap at one per survivor.
  const size_t workers = std::min(num_threads, outcome.survivors.size());
  auto executor = exec::BatchExecutor::Create(this, factory, workers);
  if (!executor.ok()) return executor.status();
  if (!options.control.Unbounded()) {
    // Honor the control between Phase-3 decisions too; a degraded run
    // surfaces as its stop status (this API cannot mark the unresolved
    // remainder — ExecuteBounded or SubmitBounded can).
    auto bounded = (*executor)->IntegrateOutcomeBounded(
        query, std::move(outcome), options.control, &out_stats, nullptr,
        options.pool_variant);
    if (!bounded.ok()) return bounded.status();
    if (!bounded->status.ok()) return bounded->status;
    return std::move(bounded->ids);
  }
  return (*executor)->IntegrateOutcome(query, std::move(outcome), &out_stats,
                                       nullptr, options.pool_variant);
}

}  // namespace gprq::core
