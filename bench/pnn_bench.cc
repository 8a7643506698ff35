// Extension bench: probabilistic nearest-neighbor queries (paper Section
// VII future work) on the TIGER dataset. Reports how the candidate set and
// the top-1 confidence behave as the location uncertainty grows, and the
// cost per sample budget.

#include <cstdio>

#include "bench/bench_util.h"
#include "experiments/pnn.h"
#include "rng/random.h"
#include "workload/tiger_synthetic.h"

namespace gprq {
namespace {

void Run() {
  const uint64_t samples = bench::EnvOr("GPRQ_PNN_SAMPLES", 20000);

  std::printf("Extension: probabilistic nearest neighbor "
              "(n=50747, %llu samples per query)\n\n",
              static_cast<unsigned long long>(samples));

  const auto dataset = workload::GenerateTigerSynthetic();
  const auto tree = bench::BuildTree(dataset);
  rng::Random random(42);
  const la::Vector center = dataset.points[random.NextUint64(dataset.size())];

  std::printf("%-10s%14s%14s%14s%14s%14s\n", "gamma", "candidates",
              "top-1 prob", "top-3 mass", "node reads", "time (ms)");
  bench::Rule(80);
  for (double gamma : {0.1, 1.0, 10.0, 100.0}) {
    auto g = core::GaussianDistribution::Create(
        center, workload::PaperCovariance2D(gamma));
    if (!g.ok()) std::abort();
    core::PnnStats stats;
    auto result =
        core::ProbabilisticNearestNeighbor(tree, *g, samples, 7, &stats);
    if (!result.ok()) std::abort();
    double top3 = 0.0;
    for (size_t i = 0; i < std::min<size_t>(3, result->size()); ++i) {
      top3 += (*result)[i].probability;
    }
    std::printf("%-10.1f%14zu%14.3f%14.3f%14llu%14.1f\n", gamma,
                result->size(), (*result)[0].probability, top3,
                static_cast<unsigned long long>(stats.node_reads),
                stats.seconds * 1e3);
  }
  std::printf("\nexpected shape: with a precise location one object "
              "dominates; as the location gets vaguer the NN probability "
              "spreads over many candidates and the top-1 confidence "
              "collapses.\n");
}

}  // namespace
}  // namespace gprq

int main() {
  gprq::Run();
  return 0;
}
