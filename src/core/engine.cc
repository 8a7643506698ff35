#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/filter_pipeline.h"
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

  std::vector<char> states(outcome.survivors.size(), mc::kDecideUndecided);
  if (!outcome.survivors.empty()) {
    obs::QueryTrace::Span span(&trace, obs::QueryTrace::kPhase3);
    const size_t n = outcome.survivors.size();
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
  }
  // Inner-accepted objects stay in the answer even when the query stops —
  // their membership was proven before the stop. The answer is sized to
  // itself, with no room kept for the survivors Phase 3 rejected.
  result.ids.reserve(outcome.accepted.size() +
                     std::count(states.begin(), states.end(),
                                mc::kDecideIncluded));
  for (const auto& [point, id] : outcome.accepted) result.ids.push_back(id);
  for (size_t i = 0; i < states.size(); ++i) {
    if (states[i] == mc::kDecideIncluded) {
      result.ids.push_back(outcome.survivors[i].second);
    } else if (states[i] == mc::kDecideUndecided) {
      result.undecided.push_back(outcome.survivors[i].second);
    }
  }
  trace.integrations = states.size() - result.undecided.size();
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

}  // namespace gprq::core
