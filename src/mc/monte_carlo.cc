#include "mc/monte_carlo.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "mc/sample_pool.h"
#include "obs/metrics.h"

namespace gprq::mc {
namespace {

// Salt for the pool stream so it is decorrelated from the per-candidate
// stream even though both derive from options.seed.
constexpr uint64_t kPoolStreamSalt = 0x9E3779B97F4A7C15ULL;

// Same `gprq.mc.*` counters the adaptive paths record into. A fixed-budget
// decision rests on the whole pool, so samples_used grows by n per decision
// and early_stops stays flat — the budget-utilization contrast the adaptive
// evaluator is measured against. samples_examined is what the pruned count
// actually touched.
struct FixedBudgetMetrics {
  obs::Counter* decisions;
  obs::Counter* samples_used;
  obs::Counter* samples_examined;
  obs::Counter* interrupted;
  obs::Counter* budget_exhausted;
  obs::Counter* pool_hits;    // MakeSamplePool served the kept pool
  obs::Counter* pool_misses;  // MakeSamplePool drew a pool

  static const FixedBudgetMetrics& Get() {
    static const FixedBudgetMetrics metrics = [] {
      obs::MetricRegistry& r = obs::MetricRegistry::Global();
      return FixedBudgetMetrics{
          r.GetCounter("gprq.mc.decisions"),
          r.GetCounter("gprq.mc.samples_used"),
          r.GetCounter("gprq.mc.samples_examined"),
          r.GetCounter("gprq.deadline.interrupted_decisions"),
          r.GetCounter("gprq.overload.sample_budget_exhausted"),
          r.GetCounter("gprq.mc.pool_cache.hits"),
          r.GetCounter("gprq.mc.pool_cache.misses")};
    }();
    return metrics;
  }
};

// Everything a pool depends on besides the evaluator's own seed and n: the
// variant and the distribution's canonical bits (-0.0 = +0.0, as in
// QueryFingerprint). Compared in full, so distinct distributions never
// share a pool.
std::vector<uint64_t> PoolKeyBits(const core::GaussianDistribution& query,
                                  PoolVariant variant) {
  const size_t d = query.dim();
  std::vector<uint64_t> key;
  key.reserve(1 + d + d * d);
  key.push_back(static_cast<uint64_t>(variant));
  for (size_t i = 0; i < d; ++i) {
    key.push_back(CanonicalDoubleBits(query.mean()[i]));
  }
  const la::Matrix& cov = query.covariance();
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      key.push_back(CanonicalDoubleBits(cov(i, j)));
    }
  }
  return key;
}

}  // namespace

MonteCarloEvaluator::MonteCarloEvaluator(Options options)
    : options_(options), random_(options.seed), scratch_(options.dim) {}

uint64_t MonteCarloEvaluator::CountHits(
    const core::GaussianDistribution& query, const la::Vector& object,
    double delta_sq, uint64_t n) {
  uint64_t hits = 0;
  for (uint64_t i = 0; i < n; ++i) {
    query.Sample(random_, scratch_);
    if (la::SquaredDistance(scratch_, object) <= delta_sq) ++hits;
  }
  return hits;
}

MonteCarloEvaluator::Estimate MonteCarloEvaluator::EstimateWithError(
    const core::GaussianDistribution& query, const la::Vector& object,
    double delta) {
  assert(object.dim() == query.dim());
  assert(delta >= 0.0);
  const uint64_t n = options_.samples;
  const uint64_t hits = CountHits(query, object, delta * delta, n);
  Estimate est;
  est.samples = n;
  est.probability = static_cast<double>(hits) / static_cast<double>(n);
  est.std_error = std::sqrt(est.probability * (1.0 - est.probability) /
                            static_cast<double>(n));
  return est;
}

double MonteCarloEvaluator::QualificationProbability(
    const core::GaussianDistribution& query, const la::Vector& object,
    double delta) {
  assert(object.dim() == query.dim());
  assert(delta >= 0.0);
  // No std-error here: callers of this entry point discard it, so the
  // sqrt per call would be wasted.
  const uint64_t n = options_.samples;
  return static_cast<double>(CountHits(query, object, delta * delta, n)) /
         static_cast<double>(n);
}

std::shared_ptr<const SamplePool> MonteCarloEvaluator::MakeSamplePool(
    const core::GaussianDistribution& query, PoolVariant variant) {
  // A fresh stream per pool, keyed by the query itself: the pool is a pure
  // function of (seed, query), never of pool-construction order. The
  // variant only selects how the pool turns it into samples; the cell
  // layout only reorders them for the pruned count. Being a pure function,
  // the last one is served again to a query on the same distribution (a
  // feedback session stepping through θ) instead of being drawn again.
  const FixedBudgetMetrics& metrics = FixedBudgetMetrics::Get();
  std::vector<uint64_t> key = PoolKeyBits(query, variant);
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (last_pool_ != nullptr && key == pool_key_) {
    metrics.pool_hits->Add(1);
    return last_pool_;
  }
  // Another distribution: let the kept pool go (unless a query still
  // holds it) before drawing the next.
  last_pool_.reset();
  metrics.pool_misses->Add(1);
  const uint64_t stream_seed =
      options_.seed ^ kPoolStreamSalt ^ QueryFingerprint(query);
  last_pool_ = std::make_shared<const SamplePool>(
      query, options_.samples, stream_seed, variant, PoolLayout::kCells);
  pool_key_ = std::move(key);
  return last_pool_;
}

void MonteCarloEvaluator::DecideBatchBounded(
    const core::GaussianDistribution& query, const la::Vector* const* objects,
    size_t count, double delta, double theta, const SamplePool* pool,
    const common::QueryControl& control, char* states) {
  if (pool == nullptr) {
    ProbabilityEvaluator::DecideBatchBounded(query, objects, count, delta,
                                             theta, pool, control, states);
    return;
  }
  // A brownout sample budget caps the samples each candidate may examine.
  // The pruned count is exact whenever it settles, so a capped candidate
  // either gets the unloaded answer bit-for-bit or stays undecided.
  SamplePool::ExactOptions exact;
  if (!control.Unbounded()) {
    exact.control = &control;
    exact.max_examined = control.sample_budget;
  }
  DecidePooled(*pool, objects, count, delta, theta, exact, states);
}

void MonteCarloEvaluator::DecidePooled(const SamplePool& pool,
                                       const la::Vector* const* objects,
                                       size_t count, double delta,
                                       double theta,
                                       const SamplePool::ExactOptions& exact,
                                       char* states) {
  const FixedBudgetMetrics& metrics = FixedBudgetMetrics::Get();
  uint64_t decided = 0;
  uint64_t examined = 0;
  uint64_t exhausted = 0;
  for (size_t i = 0; i < count; ++i) {
    const SamplePool::ExactDecision d =
        pool.DecideExact(*objects[i], delta, theta, exact);
    examined += d.examined;
    if (d.outcome == SamplePool::ExactDecision::kInterrupted) {
      // The interrupted candidate resolved nothing; it and everything
      // after it surface as undecided.
      metrics.interrupted->Add(1);
      for (size_t j = i; j < count; ++j) states[j] = kDecideUndecided;
      break;
    }
    if (d.outcome == SamplePool::ExactDecision::kBudgetExhausted) {
      // The budget is per candidate: the next one gets its own attempt.
      ++exhausted;
      states[i] = kDecideUndecided;
      continue;
    }
    ++decided;
    states[i] = d.outcome == SamplePool::ExactDecision::kQualifies
                    ? kDecideIncluded
                    : kDecideExcluded;
  }
  metrics.decisions->Add(decided);
  metrics.samples_used->Add(pool.size() * decided);
  metrics.samples_examined->Add(examined);
  if (exhausted > 0) metrics.budget_exhausted->Add(exhausted);
}

}  // namespace gprq::mc
