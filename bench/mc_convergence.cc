// Ablation: Monte-Carlo sample budget vs accuracy and cost, against the
// exact Imhof evaluator as ground truth. Replicates the paper's setup note
// ("for each numerical integration, 100,000 random numbers were generated
// and it took about 0.05 seconds ... per object") and quantifies the
// error/time trade-off that motivates the filtering strategies.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "mc/sample_pool.h"
#include "workload/generators.h"

namespace gprq {
namespace {

core::GaussianDistribution Gaussian2D() {
  auto g = core::GaussianDistribution::Create(
      la::Vector{0.0, 0.0}, workload::PaperCovariance2D(10.0));
  return std::move(*g);
}

core::GaussianDistribution Gaussian9D() {
  auto g = core::GaussianDistribution::Create(
      la::Vector(9), workload::RandomRotatedCovariance(
                         la::Vector{0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.8,
                                    1.0, 1.3},
                         5));
  return std::move(*g);
}

void BM_MonteCarloIntegration2D(benchmark::State& state) {
  const auto g = Gaussian2D();
  mc::MonteCarloEvaluator mc(
      {.samples = static_cast<uint64_t>(state.range(0)), .seed = 3});
  mc::ImhofEvaluator exact;
  const la::Vector object{20.0, 5.0};
  const double truth = exact.QualificationProbability(g, object, 25.0);
  double worst_error = 0.0;
  for (auto _ : state) {
    const double p = mc.QualificationProbability(g, object, 25.0);
    worst_error = std::max(worst_error, std::abs(p - truth));
    benchmark::DoNotOptimize(p);
  }
  state.counters["max_abs_err"] = worst_error;
}
BENCHMARK(BM_MonteCarloIntegration2D)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_MonteCarloIntegration9D(benchmark::State& state) {
  const auto g = Gaussian9D();
  mc::MonteCarloEvaluator mc(
      {.samples = static_cast<uint64_t>(state.range(0)), .seed = 4});
  mc::ImhofEvaluator exact;
  la::Vector object(9);
  object[0] = 0.5;
  object[3] = -0.7;
  const double truth = exact.QualificationProbability(g, object, 2.0);
  double worst_error = 0.0;
  for (auto _ : state) {
    const double p = mc.QualificationProbability(g, object, 2.0);
    worst_error = std::max(worst_error, std::abs(p - truth));
    benchmark::DoNotOptimize(p);
  }
  state.counters["max_abs_err"] = worst_error;
}
BENCHMARK(BM_MonteCarloIntegration9D)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Randomized-Halton QMC: each iteration draws a kHalton pool and takes its
// whole-pool estimate, so the time includes the quantile transform.
void BM_QuasiMonteCarlo2D(benchmark::State& state) {
  const auto g = Gaussian2D();
  const auto samples = static_cast<uint64_t>(state.range(0));
  mc::ImhofEvaluator exact;
  const la::Vector object{20.0, 5.0};
  const double truth = exact.QualificationProbability(g, object, 25.0);
  double worst_error = 0.0;
  for (auto _ : state) {
    const double p =
        mc::SamplePool(g, samples, /*seed=*/3, mc::PoolVariant::kHalton)
            .EstimateProbability(object, 25.0)
            .probability;
    worst_error = std::max(worst_error, std::abs(p - truth));
    benchmark::DoNotOptimize(p);
  }
  state.counters["max_abs_err"] = worst_error;
}
BENCHMARK(BM_QuasiMonteCarlo2D)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_ImhofIntegration2D(benchmark::State& state) {
  const auto g = Gaussian2D();
  mc::ImhofEvaluator exact;
  // Sweep over objects at different distances: the integrand decays faster
  // for distant objects, so cost varies.
  const double dist = static_cast<double>(state.range(0));
  const la::Vector object{dist, dist * 0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exact.QualificationProbability(g, object, 25.0));
  }
}
BENCHMARK(BM_ImhofIntegration2D)->Arg(0)->Arg(20)->Arg(60)
    ->Unit(benchmark::kMicrosecond);

void BM_ImhofIntegration9D(benchmark::State& state) {
  const auto g = Gaussian9D();
  mc::ImhofEvaluator exact;
  la::Vector object(9);
  object[0] = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact.QualificationProbability(g, object, 2.0));
  }
}
BENCHMARK(BM_ImhofIntegration9D)->Arg(0)->Arg(10)->Arg(30)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace gprq

BENCHMARK_MAIN();
