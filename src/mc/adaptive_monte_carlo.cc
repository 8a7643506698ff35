#include "mc/adaptive_monte_carlo.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "mc/sample_pool.h"
#include "obs/metrics.h"

namespace gprq::mc {
namespace {

constexpr uint64_t kPoolStreamSalt = 0x9E3779B97F4A7C15ULL;

// Same `gprq.mc.*` counters SamplePool records into — the registry hands
// back the same instances — so per-candidate fallback decisions and pooled
// decisions aggregate identically.
struct DecisionMetrics {
  obs::Counter* decisions;
  obs::Counter* samples_used;
  obs::Counter* early_stops;
  obs::Counter* undecided;

  static const DecisionMetrics& Get() {
    static const DecisionMetrics metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return DecisionMetrics{r.GetCounter("gprq.mc.decisions"),
                             r.GetCounter("gprq.mc.samples_used"),
                             r.GetCounter("gprq.mc.early_stops"),
                             r.GetCounter("gprq.mc.undecided")};
    }();
    return metrics;
  }
};

}  // namespace

AdaptiveMonteCarloEvaluator::AdaptiveMonteCarloEvaluator(Options options)
    : options_(options), random_(options.seed) {}

double AdaptiveMonteCarloEvaluator::QualificationProbability(
    const core::GaussianDistribution& query, const la::Vector& object,
    double delta) {
  assert(object.dim() == query.dim());
  const double delta_sq = delta * delta;
  const uint64_t n = options_.max_samples;
  uint64_t hits = 0;
  for (uint64_t i = 0; i < n; ++i) {
    query.Sample(random_, scratch_);
    if (la::SquaredDistance(scratch_, object) <= delta_sq) ++hits;
  }
  total_samples_ += n;
  return static_cast<double>(hits) / static_cast<double>(n);
}

bool AdaptiveMonteCarloEvaluator::QualificationDecision(
    const core::GaussianDistribution& query, const la::Vector& object,
    double delta, double theta) {
  assert(object.dim() == query.dim());
  assert(theta > 0.0 && theta < 1.0);
  const DecisionMetrics& metrics = DecisionMetrics::Get();
  metrics.decisions->Add(1);
  const double delta_sq = delta * delta;

  uint64_t n = 0;
  uint64_t hits = 0;
  while (n < options_.max_samples) {
    const uint64_t target = (n == 0)
                                ? options_.min_samples
                                : std::min(n + options_.batch_samples,
                                           options_.max_samples);
    for (; n < target; ++n) {
      query.Sample(random_, scratch_);
      if (la::SquaredDistance(scratch_, object) <= delta_sq) ++hits;
    }
    const int cmp = WilsonCompare(hits, n, theta, options_.confidence_z);
    if (cmp != 0) {
      total_samples_ += n;
      metrics.samples_used->Add(n);
      if (n < options_.max_samples) metrics.early_stops->Add(1);
      return cmp > 0;
    }
  }
  // Budget exhausted with θ inside the interval: fall back to the point
  // estimate, as a fixed-budget sampler would.
  total_samples_ += n;
  ++undecided_fallbacks_;
  metrics.samples_used->Add(n);
  metrics.undecided->Add(1);
  return static_cast<double>(hits) >= theta * static_cast<double>(n);
}

std::shared_ptr<const SamplePool> AdaptiveMonteCarloEvaluator::MakeSamplePool(
    const core::GaussianDistribution& query) {
  // A fresh stream per pool, keyed by the query itself: the pool is a pure
  // function of (seed, query), never of pool-construction order.
  rng::Random pool_random(options_.seed ^ kPoolStreamSalt ^
                          QueryFingerprint(query));
  return std::make_shared<const SamplePool>(query, options_.max_samples,
                                            pool_random);
}

std::shared_ptr<const SamplePool>
AdaptiveMonteCarloEvaluator::MakeSamplePool(
    const core::GaussianDistribution& query, PoolVariant variant) {
  const uint64_t stream_seed =
      options_.seed ^ kPoolStreamSalt ^ QueryFingerprint(query);
  return std::make_shared<const SamplePool>(query, options_.max_samples,
                                            stream_seed, variant);
}

void AdaptiveMonteCarloEvaluator::DecideBatchBounded(
    const core::GaussianDistribution& query, const la::Vector* const* objects,
    size_t count, double delta, double theta, const SamplePool* pool,
    const common::QueryControl& control, char* states) {
  if (pool == nullptr) {
    ProbabilityEvaluator::DecideBatchBounded(query, objects, count, delta,
                                             theta, pool, control, states);
    return;
  }
  SamplePool::DecideOptions decide;
  decide.confidence_z = options_.confidence_z;
  // Keep the pool's large vectorization blocks even if the per-candidate
  // path checks more often; never check before min_samples' worth.
  decide.block_samples = std::max(
      {decide.block_samples, options_.min_samples, options_.batch_samples});
  decide.control = &control;
  decide.max_samples = control.sample_budget;
  for (size_t i = 0; i < count; ++i) {
    const SamplePool::Decision d =
        pool->Decide(*objects[i], delta, theta, decide);
    total_samples_ += d.samples_used;
    if (d.interrupted) {
      // The interrupted candidate resolved nothing; it and everything after
      // it surface as undecided.
      for (size_t j = i; j < count; ++j) states[j] = kDecideUndecided;
      return;
    }
    if (d.budget_exhausted) {
      // The brownout sample budget is per candidate, not per query: this
      // candidate stays undecided but the next one still gets its own
      // capped attempt (many separate well under the cap).
      states[i] = kDecideUndecided;
      continue;
    }
    if (d.undecided) ++undecided_fallbacks_;
    states[i] = d.qualifies ? kDecideIncluded : kDecideExcluded;
  }
}

}  // namespace gprq::mc
