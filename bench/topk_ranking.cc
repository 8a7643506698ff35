// Extension bench: top-k probability ranking (threshold-free probabilistic
// NN, the paper's Section VII future work). Measures how far the
// incremental-NN stream has to run and how many exact evaluations are
// needed as k grows, against the brute-force alternative of evaluating all
// n objects.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "experiments/ranking.h"
#include "mc/exact_evaluator.h"
#include "rng/random.h"
#include "workload/tiger_synthetic.h"

namespace gprq {
namespace {

void Run() {
  const uint64_t trials = bench::EnvOr("GPRQ_TRIALS", 5);
  const double delta = 25.0;
  const double gamma = 10.0;

  std::printf("Extension: top-k most-probable range members "
              "(gamma=%.0f, delta=%.0f, %llu trials, n=50747)\n\n",
              gamma, delta, static_cast<unsigned long long>(trials));

  const auto dataset = workload::GenerateTigerSynthetic();
  const auto tree = bench::BuildTree(dataset);
  mc::ImhofEvaluator exact;
  rng::Random random(42);
  std::vector<la::Vector> centers;
  for (uint64_t t = 0; t < trials; ++t) {
    centers.push_back(dataset.points[random.NextUint64(dataset.size())]);
  }
  const la::Matrix cov = workload::PaperCovariance2D(gamma);

  std::printf("%-8s%12s%14s%14s%14s\n", "k", "streamed", "evaluations",
              "time (ms)", "kth prob");
  bench::Rule(62);
  for (size_t k : {1u, 10u, 50u, 200u, 1000u}) {
    double streamed = 0.0, evals = 0.0, ms = 0.0, kth = 0.0;
    for (const auto& center : centers) {
      auto g = core::GaussianDistribution::Create(center, cov);
      core::RankingStats stats;
      auto ranked =
          core::TopKProbableRangeMembers(tree, *g, delta, k, &exact, &stats);
      if (!ranked.ok()) std::abort();
      streamed += static_cast<double>(stats.objects_streamed);
      evals += static_cast<double>(stats.evaluations);
      ms += stats.seconds * 1e3;
      kth += ranked->empty() ? 0.0 : ranked->back().probability;
    }
    std::printf("%-8zu%12.0f%14.0f%14.2f%14.4f\n", k,
                streamed / static_cast<double>(trials),
                evals / static_cast<double>(trials),
                ms / static_cast<double>(trials),
                kth / static_cast<double>(trials));
  }
  std::printf("\nbrute force would evaluate all %zu objects per query.\n",
              dataset.size());
  std::printf("expected shape: evaluations grow roughly with k plus a "
              "boundary band, far below n for small k.\n");
}

}  // namespace
}  // namespace gprq

int main() {
  gprq::Run();
  return 0;
}
