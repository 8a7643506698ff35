#include "experiments/pnn.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/stopwatch.h"
#include "rng/random.h"

namespace gprq::core {

Result<std::vector<PnnCandidate>> ProbabilisticNearestNeighbor(
    const index::RStarTree& tree, const GaussianDistribution& query,
    uint64_t samples, uint64_t seed, PnnStats* stats) {
  if (query.dim() != tree.dim()) {
    return Status::InvalidArgument("query dimension does not match index");
  }
  if (samples == 0) {
    return Status::InvalidArgument("samples must be >= 1");
  }
  if (tree.empty()) {
    return Status::InvalidArgument("PNN over an empty dataset is undefined");
  }
  PnnStats local;
  PnnStats& out = (stats != nullptr) ? *stats : local;
  out = PnnStats();
  Stopwatch timer;
  const uint64_t node_reads_before = tree.stats().node_reads;

  rng::Random random(seed);
  la::Vector x;
  std::vector<std::pair<double, index::ObjectId>> nearest;
  std::unordered_map<index::ObjectId, uint64_t> wins;
  for (uint64_t i = 0; i < samples; ++i) {
    query.Sample(random, x);
    tree.KnnQuery(x, 1, &nearest);
    ++wins[nearest.front().second];
  }

  std::vector<PnnCandidate> result;
  result.reserve(wins.size());
  const double n = static_cast<double>(samples);
  for (const auto& [id, count] : wins) {
    PnnCandidate candidate;
    candidate.id = id;
    candidate.probability = static_cast<double>(count) / n;
    candidate.std_error = std::sqrt(
        candidate.probability * (1.0 - candidate.probability) / n);
    result.push_back(candidate);
  }
  std::sort(result.begin(), result.end(),
            [](const PnnCandidate& a, const PnnCandidate& b) {
              if (a.probability != b.probability) {
                return a.probability > b.probability;
              }
              return a.id < b.id;  // deterministic tie order
            });

  out.samples = samples;
  out.node_reads = tree.stats().node_reads - node_reads_before;
  out.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace gprq::core
