#include "core/engine.h"

#include <cassert>
#include <cmath>

#include "core/filter_pipeline.h"
#include "exec/batch_executor.h"
#include "mc/sample_pool.h"

namespace gprq::core {

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

const RadiusCatalog& Catalogs::radius() const {
  if (radius_ == nullptr) {
    owned_radius_ =
        std::make_unique<RadiusCatalog>(RadiusCatalog::Build(dim_));
    radius_ = owned_radius_.get();
  }
  return *radius_;
}

const AlphaCatalog& Catalogs::alpha() const {
  if (alpha_ == nullptr) {
    owned_alpha_ = std::make_unique<AlphaCatalog>(AlphaCatalog::Build(dim_));
    alpha_ = owned_alpha_.get();
  }
  return *alpha_;
}

PrqEngine::PrqEngine(const index::RStarTree* tree)
    : tree_(tree), catalogs_(tree->dim()) {
  assert(tree_ != nullptr);
}

double PrqEngine::EffectiveThetaRadius(double theta,
                                       bool use_catalogs) const {
  if (theta >= 0.5) return 0.0;
  return use_catalogs ? radius_catalog().LookupRadius(theta)
                      : RadiusCatalog::ExactRadius(tree_->dim(), theta);
}

CandidateSource PrqEngine::IndexSource() const {
  return [this](const geom::Rect& search_box,
                std::vector<std::pair<la::Vector, index::ObjectId>>*
                    candidates,
                obs::QueryTrace* trace) {
    const uint64_t node_reads_before = tree_->stats().node_reads;
    tree_->RangeQuery(search_box, [candidates](const la::Vector& point,
                                               index::ObjectId id) {
      candidates->emplace_back(point, id);
    });
    trace->index_visits = tree_->stats().node_reads - node_reads_before;
    return Status::OK();
  };
}

Status PrqEngine::RunFilterPhases(const PrqQuery& query,
                                  const PrqOptions& options,
                                  FilterOutcome* outcome, PrqStats* stats,
                                  obs::QueryTrace* trace) const {
  return core::RunFilterPhases(tree_->dim(), catalogs_, IndexSource(), query,
                               options, outcome, stats, trace);
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

Status DegradedStatus(const common::QueryControl& control) {
  Status status = control.StopStatus();
  if (!status.ok()) return status;
  if (control.sample_budget > 0) {
    // Brownout: the per-candidate sample budget ran out before the
    // confidence interval separated. Decided ids are exact; the remainder
    // is explicit.
    return Status::ResourceExhausted(
        "Phase-3 sample budget exhausted; undecided candidates remain");
  }
  return Status::Internal(
      "candidates left undecided without a stop condition");
}

Result<PrqResult> ExecuteInline(size_t dim, const Catalogs& catalogs,
                                const CandidateSource& source,
                                const PrqQuery& query,
                                const PrqOptions& options,
                                mc::ProbabilityEvaluator* evaluator,
                                PrqStats* stats) {
  if (evaluator == nullptr) {
    return Status::InvalidArgument("evaluator must not be null");
  }
  PrqStats local_stats;
  PrqStats& out_stats = (stats != nullptr) ? *stats : local_stats;
  out_stats = PrqStats();
  const common::QueryControl& control = options.control;

  PrqEngine::FilterOutcome outcome;
  obs::QueryTrace trace;
  GPRQ_RETURN_NOT_OK(RunFilterPhases(dim, catalogs, source, query, options,
                                     &outcome, &out_stats, &trace));

  PrqResult result;
  if (outcome.proved_empty) return result;  // complete, empty

  // Inner-accepted objects stay in the answer even when the query stops —
  // their membership was proven before the stop.
  result.ids.reserve(outcome.accepted.size());
  for (const auto& [point, id] : outcome.accepted) result.ids.push_back(id);

  if (!outcome.survivors.empty()) {
    obs::QueryTrace::Span span(&trace, obs::QueryTrace::kPhase3);
    const size_t n = outcome.survivors.size();
    std::vector<char> states(n, mc::kDecideUndecided);
    // A control that fired during the filter phases (the survivors may be
    // the whole unfiltered candidate set) or before pool construction
    // leaves every survivor undecided without drawing a single sample.
    if (!outcome.expired && !control.ShouldStop()) {
      const auto pool =
          evaluator->MakeSamplePool(query.query_object, options.pool_variant);
      std::vector<const la::Vector*> objects;
      objects.reserve(n);
      for (const auto& [point, id] : outcome.survivors) {
        objects.push_back(&point);
      }
      evaluator->DecideBatchBounded(query.query_object, objects.data(), n,
                                    query.delta, query.theta, pool.get(),
                                    control, states.data());
    }
    for (size_t i = 0; i < n; ++i) {
      if (states[i] == mc::kDecideIncluded) {
        result.ids.push_back(outcome.survivors[i].second);
      } else if (states[i] == mc::kDecideUndecided) {
        result.undecided.push_back(outcome.survivors[i].second);
      }
    }
    trace.integrations = n - result.undecided.size();
  }
  if (outcome.expired || !result.undecided.empty()) {
    result.status = DegradedStatus(control);
  }

  trace.deadline_expired = !result.status.ok();
  trace.deadline_undecided = result.undecided.size();
  trace.result_size = result.ids.size();
  obs::PublishPhase3(trace);
  out_stats.phase3_seconds = trace.phase_seconds(obs::QueryTrace::kPhase3);
  out_stats.result_size = result.ids.size();
  return result;
}

Result<PrqResult> PrqEngine::ExecuteBounded(const PrqQuery& query,
                                            const PrqOptions& options,
                                            mc::ProbabilityEvaluator* evaluator,
                                            PrqStats* stats) const {
  return ExecuteInline(tree_->dim(), catalogs_, IndexSource(), query, options,
                       evaluator, stats);
}

Result<std::vector<index::ObjectId>> PrqEngine::Execute(
    const PrqQuery& query, const PrqOptions& options,
    mc::ProbabilityEvaluator* evaluator, PrqStats* stats) const {
  return RequireComplete(ExecuteBounded(query, options, evaluator, stats));
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
  // The control is honored between Phase-3 decisions too; a degraded run
  // surfaces as its stop status (this API cannot mark the unresolved
  // remainder — ExecuteBounded or SubmitBounded can).
  return RequireComplete((*executor)->IntegrateOutcomeBounded(
      query, std::move(outcome), options.control, &out_stats, nullptr,
      options.pool_variant));
}

}  // namespace gprq::core
