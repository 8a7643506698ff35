// Ablation: Phase-3 backend comparison on the full Table-I workload — the
// paper's Monte-Carlo importance sampling vs our exact Imhof evaluator.
// Shows that (a) with MC, filtering dominates total cost exactly as the
// paper argues, and (b) an exact evaluator shifts the trade-off: Phase 3
// gets so cheap that the filtering strategies matter less for wall-clock
// time (but still bound the work).

#include <cstdio>

#include "bench/bench_util.h"
#include "experiments/slice_evaluator.h"
#include "mc/exact_evaluator.h"
#include "mc/monte_carlo.h"
#include "rng/random.h"
#include "workload/tiger_synthetic.h"

namespace gprq {
namespace {

void Run() {
  const uint64_t samples = bench::EnvOr("GPRQ_MC_SAMPLES", 20000);
  const uint64_t trials = bench::EnvOr("GPRQ_TRIALS", 5);
  const double delta = 25.0;
  const double theta = 0.01;
  const double gamma = 10.0;

  std::printf("Ablation: Phase-3 evaluator comparison "
              "(gamma=%.0f, delta=%.0f, theta=%.2f, MC samples=%llu)\n\n",
              gamma, delta, theta,
              static_cast<unsigned long long>(samples));

  const auto dataset = workload::GenerateTigerSynthetic();
  const auto tree = bench::BuildTree(dataset);
  const core::PrqEngine engine(&tree);
  engine.radius_catalog();
  engine.alpha_catalog();

  rng::Random random(42);
  std::vector<la::Vector> centers;
  for (uint64_t t = 0; t < trials; ++t) {
    centers.push_back(dataset.points[random.NextUint64(dataset.size())]);
  }
  const la::Matrix cov = workload::PaperCovariance2D(gamma);

  std::printf("%-14s%12s%14s%14s%12s\n", "evaluator", "strategy",
              "total (ms)", "phase3 (ms)", "phase3 %");
  bench::Rule(66);

  for (int backend = 0; backend < 3; ++backend) {
    for (auto mask : {core::kStrategyRR, core::kStrategyAll}) {
      double total = 0.0, phase3 = 0.0;
      size_t result_check = 0;
      for (const auto& center : centers) {
        auto g = core::GaussianDistribution::Create(center, cov);
        const core::PrqQuery query{std::move(*g), delta, theta};
        core::PrqOptions options;
        options.strategies = mask;
        core::PrqStats stats;
        mc::MonteCarloEvaluator monte({.samples = samples, .seed = 7});
        mc::ImhofEvaluator imhof;
        mc::Slice2DEvaluator slice;
        mc::ProbabilityEvaluator* evaluator =
            (backend == 0)
                ? static_cast<mc::ProbabilityEvaluator*>(&monte)
                : (backend == 1)
                      ? static_cast<mc::ProbabilityEvaluator*>(&imhof)
                      : &slice;
        auto result = engine.Execute(query, options, evaluator, &stats);
        if (!result.ok()) std::abort();
        total += stats.total_seconds() * 1e3;
        phase3 += stats.phase3_seconds * 1e3;
        result_check += result->size();
      }
      const char* names[] = {"monte-carlo", "imhof", "slice-2d"};
      std::printf("%-14s%12s%14.2f%14.2f%11.0f%%\n", names[backend],
                  core::StrategyName(mask).c_str(),
                  total / static_cast<double>(trials),
                  phase3 / static_cast<double>(trials),
                  100.0 * phase3 / std::max(total, 1e-9));
      (void)result_check;
    }
  }
  std::printf("\nexpected shape: with Monte-Carlo Phase 3 takes >90%% of "
              "the time (the paper reports >=97%% at 100k samples), so ALL "
              "beats RR roughly in proportion to its candidate reduction; "
              "with the exact evaluator Phase 3 shrinks dramatically.\n");
}

}  // namespace
}  // namespace gprq

int main() {
  gprq::Run();
  return 0;
}
