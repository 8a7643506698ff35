#include "core/continuous.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "core/filter_pipeline.h"
#include "core/filters.h"
#include "core/radius_catalog.h"

namespace gprq::core {

ContinuousPrqMonitor::ContinuousPrqMonitor(const index::RStarTree* tree,
                                           Options options)
    : tree_(tree), options_(options), engine_(tree) {}

Result<geom::Rect> ContinuousPrqMonitor::SearchBox(const PrqQuery& query,
                                                   bool* proved_empty) {
  *proved_empty = false;
  const GaussianDistribution& g = query.query_object;
  const size_t d = tree_->dim();
  const bool use_rr = options_.prq.strategies & kStrategyRR;
  const bool use_bf = options_.prq.strategies & kStrategyBF;
  const double r_theta =
      engine_.EffectiveThetaRadius(query.theta, options_.prq.use_catalogs);

  geom::Rect box = geom::Rect::Empty(d);
  BfBounds bf;
  if (use_bf) {
    bf = BfBounds::Compute(g, query.delta, query.theta,
                           options_.prq.use_catalogs ? &engine_.alpha_catalog()
                                                     : nullptr);
    if (bf.nothing_qualifies) {
      *proved_empty = true;
      return box;
    }
  }
  if (use_rr) {
    box = RrRegion::Compute(g, query.delta, r_theta).search_box;
    if (use_bf) {
      const geom::Rect bf_box =
          geom::Rect::CenteredUniform(g.mean(), bf.alpha_outer);
      la::Vector lo(d), hi(d);
      for (size_t i = 0; i < d; ++i) {
        lo[i] = std::max(box.lo()[i], bf_box.lo()[i]);
        hi[i] = std::min(box.hi()[i], bf_box.hi()[i]);
        if (lo[i] > hi[i]) {
          *proved_empty = true;
          return geom::Rect::Empty(d);
        }
      }
      box = geom::Rect(std::move(lo), std::move(hi));
    }
  } else if (use_bf) {
    box = geom::Rect::CenteredUniform(g.mean(), bf.alpha_outer);
  } else {
    box = OrRegion::Compute(g, query.delta, r_theta).BoundingBox(g);
  }
  return box;
}

Result<std::vector<index::ObjectId>> ContinuousPrqMonitor::Update(
    const PrqQuery& query, mc::ProbabilityEvaluator* evaluator,
    TickStats* stats) {
  if (evaluator == nullptr) {
    return Status::InvalidArgument("evaluator must not be null");
  }
  if (query.query_object.dim() != tree_->dim()) {
    return Status::InvalidArgument("query dimension does not match index");
  }
  if (!(query.delta > 0.0)) {
    return Status::InvalidArgument("delta must be > 0");
  }
  if (!(query.theta > 0.0 && query.theta < 1.0)) {
    return Status::InvalidArgument("theta must be in (0, 1)");
  }
  if ((options_.prq.strategies & kStrategyAll) == 0) {
    return Status::InvalidArgument("at least one strategy must be enabled");
  }
  TickStats local;
  TickStats& out = (stats != nullptr) ? *stats : local;
  out = TickStats();
  ++monitor_stats_.ticks;

  Stopwatch phase_timer;
  bool proved_empty = false;
  auto box = SearchBox(query, &proved_empty);
  if (!box.ok()) return box.status();
  if (proved_empty) {
    out.proved_empty = true;
    return std::vector<index::ObjectId>{};
  }
  out.prep_seconds = phase_timer.ElapsedSeconds();
  phase_timer.Reset();

  // ---- Phase 1: buffer reuse or refetch. ----------------------------------
  if (!buffer_valid_ || !buffer_box_.Contains(*box)) {
    buffer_box_ = box->Inflated(options_.buffer_margin);
    buffer_.clear();
    const uint64_t reads_before = tree_->stats().node_reads;
    tree_->RangeQuery(buffer_box_,
                      [this](const la::Vector& point, index::ObjectId id) {
                        buffer_.emplace_back(point, id);
                      });
    out.node_reads = tree_->stats().node_reads - reads_before;
    monitor_stats_.node_reads += out.node_reads;
    buffer_valid_ = true;
    out.refetched = true;
    ++monitor_stats_.refetches;
  }
  out.buffered_candidates = buffer_.size();

  // Restrict the buffer to the current search region: this reproduces
  // exactly what a fresh Phase-1 index search would have returned.
  std::vector<std::pair<la::Vector, index::ObjectId>> candidates;
  for (const auto& [point, id] : buffer_) {
    if (box->Contains(point)) candidates.emplace_back(point, id);
  }
  out.index_candidates = candidates.size();
  out.phase1_seconds = phase_timer.ElapsedSeconds();
  phase_timer.Reset();

  // ---- Phases 2-3: identical to the engine's. ------------------------------
  const GaussianDistribution& g = query.query_object;
  const size_t d = tree_->dim();
  const bool use_rr = options_.prq.strategies & kStrategyRR;
  const bool use_or = options_.prq.strategies & kStrategyOR;
  const bool use_bf = options_.prq.strategies & kStrategyBF;
  const double r_theta =
      engine_.EffectiveThetaRadius(query.theta, options_.prq.use_catalogs);

  RrRegion rr;
  OrRegion oreg;
  BfBounds bf;
  if (use_rr || use_or) rr = RrRegion::Compute(g, query.delta, r_theta);
  if (use_or) oreg = OrRegion::Compute(g, query.delta, r_theta);
  if (use_bf) {
    bf = BfBounds::Compute(g, query.delta, query.theta,
                           options_.prq.use_catalogs ? &engine_.alpha_catalog()
                                                     : nullptr);
  }
  const bool apply_fringe =
      use_rr && (options_.prq.fringe_filter_any_dim || d == 2);
  const MarginalFilter marginal =
      MarginalFilter::Compute(query.delta, query.theta);

  std::vector<index::ObjectId> result;
  std::vector<std::pair<la::Vector, index::ObjectId>> survivors;
  for (auto& [point, id] : candidates) {
    if (apply_fringe && !rr.PassesFringe(point, query.delta)) continue;
    if (use_bf) {
      const double dist_sq = la::SquaredDistance(point, g.mean());
      if (dist_sq > bf.alpha_outer * bf.alpha_outer) continue;
      if (bf.has_inner && dist_sq <= bf.alpha_inner * bf.alpha_inner) {
        result.push_back(id);
        ++out.accepted_without_integration;
        continue;
      }
    }
    if (use_or && !oreg.Contains(g, point)) continue;
    if (options_.prq.use_marginal_filter && !marginal.Passes(g, point)) {
      continue;
    }
    survivors.emplace_back(std::move(point), id);
  }
  out.integration_candidates = survivors.size();
  out.phase2_seconds = phase_timer.ElapsedSeconds();
  phase_timer.Reset();

  for (const auto& [point, id] : survivors) {
    if (evaluator->QualificationDecision(g, point, query.delta,
                                         query.theta)) {
      result.push_back(id);
    }
  }
  out.phase3_seconds = phase_timer.ElapsedSeconds();
  out.result_size = result.size();
  return result;
}

}  // namespace gprq::core
