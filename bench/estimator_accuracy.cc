// Ablation: accuracy and speed of the histogram-based candidate estimator
// against the engine's measured counts — can Phase-3 work be predicted
// before running the query (and hence budgeted / strategy-planned)?

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "experiments/histogram.h"
#include "mc/exact_evaluator.h"
#include "rng/random.h"
#include "workload/tiger_synthetic.h"

namespace gprq {
namespace {

void Run() {
  const uint64_t queries = bench::EnvOr("GPRQ_TRIALS", 20);
  const double delta = 25.0;
  const double theta = 0.01;

  std::printf("Ablation: candidate-count estimator accuracy "
              "(TIGER, gamma=10, delta=%.0f, theta=%.2f, %llu queries)\n\n",
              delta, theta, static_cast<unsigned long long>(queries));

  const auto dataset = workload::GenerateTigerSynthetic();
  const auto tree = bench::BuildTree(dataset);
  const core::PrqEngine engine(&tree);
  mc::ImhofEvaluator exact;

  rng::Random random(42);
  std::vector<la::Vector> centers;
  for (uint64_t t = 0; t < queries; ++t) {
    centers.push_back(dataset.points[random.NextUint64(dataset.size())]);
  }
  const la::Matrix cov = workload::PaperCovariance2D(10.0);

  std::printf("%-12s%14s%16s%16s%16s\n", "cells/dim", "build (ms)",
              "estimate (us)", "mean rel err", "p90 rel err");
  bench::Rule(74);
  for (size_t cells : {16u, 32u, 64u, 128u, 256u}) {
    Stopwatch build_timer;
    auto histogram = core::GridHistogram::Build(dataset.points, cells);
    if (!histogram.ok()) std::abort();
    const double build_ms = build_timer.ElapsedMillis();

    std::vector<double> errors;
    double estimate_us = 0.0;
    for (const auto& center : centers) {
      auto g = core::GaussianDistribution::Create(center, cov);
      Stopwatch timer;
      auto estimate = core::EstimatePrqCandidates(*histogram, *g, delta,
                                                  theta, core::kStrategyAll);
      estimate_us += timer.ElapsedSeconds() * 1e6;
      if (!estimate.ok()) std::abort();

      auto gq = core::GaussianDistribution::Create(center, cov);
      const core::PrqQuery query{std::move(*gq), delta, theta};
      core::PrqOptions options;
      options.use_catalogs = false;
      core::PrqStats stats;
      auto result = engine.Execute(query, options, &exact, &stats);
      if (!result.ok()) std::abort();
      const double actual =
          static_cast<double>(stats.integration_candidates);
      if (actual >= 5.0) {
        errors.push_back(
            std::abs(estimate->integration_candidates - actual) / actual);
      }
    }
    std::sort(errors.begin(), errors.end());
    double mean = 0.0;
    for (double e : errors) mean += e;
    mean /= std::max<size_t>(errors.size(), 1);
    const double p90 =
        errors.empty() ? 0.0 : errors[errors.size() * 9 / 10];
    std::printf("%-12zu%14.1f%16.1f%15.1f%%%15.1f%%\n", cells, build_ms,
                estimate_us / static_cast<double>(queries), mean * 100.0,
                p90 * 100.0);
  }
  std::printf("\nexpected shape: error shrinks with resolution and the "
              "estimate costs microseconds vs milliseconds-to-seconds for "
              "the query itself.\n");
}

}  // namespace
}  // namespace gprq

int main() {
  gprq::Run();
  return 0;
}
