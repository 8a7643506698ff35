// Inputs and the correctness oracle of the repository benchmark.
//
// Datasets are the paper's synthetic stand-ins with their fixed seeds
// (TIGER Long Beach, 50,747 2-D points; Corel Color Moments, 68,040 9-D
// points), so every run measures the same data. The run seed drives
// everything a user would vary: query centres, the (γ, δ, θ) draws, the
// feedback sessions and their popularity, and the writer's operations.
#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/prq.h"
#include "index/rstar_tree.h"
#include "la/matrix.h"
#include "la/vector.h"
#include "workload/generators.h"

namespace perfbench {

using gprq::index::ObjectId;

/// Phase 3 everywhere: the paper's fixed-budget Monte-Carlo evaluator,
/// one sample budget, evaluator w seeded 7 + w — the seeding gprq_server
/// uses, so in-process, backend and reference pools are identical.
inline constexpr uint64_t kMcSamples = 30000;
/// Phase-3 workers of every executor under test (plus one submitter).
inline constexpr size_t kPhase3Workers = 2;

gprq::core::PrqEngine::EvaluatorFactory McFactory();
/// The same factory as gprq_server command-line flags.
std::vector<std::string> McServerFlags();

gprq::workload::Dataset TigerDataset();
gprq::workload::Dataset CorelDataset();

/// Builds an STR-packed R*-tree (ids = row positions) or fails.
gprq::Result<gprq::index::RStarTree> BuildTree(
    const gprq::workload::Dataset& dataset);

/// A per-(seed, index) generator, so a stream is reproducible without
/// storing it.
uint64_t Mix(uint64_t seed, uint64_t index);

/// The 2-D query stream on TIGER: centre taken from the dataset (plus a
/// sub-unit jitter, so no two queries share a cache key), Σ = γ·[[7, 2√3],
/// [2√3, 3]], and (γ, δ, θ) cycling through the paper's grid γ ∈ {1, 10,
/// 100}, δ ∈ {5, 10, 25, 50, 100}, θ ∈ {0.001, 0.01, 0.05, 0.1, 0.3}.
class Query2dStream {
 public:
  Query2dStream(const gprq::workload::Dataset* dataset, uint64_t seed);
  gprq::core::PrqQuery At(uint64_t index) const;

 private:
  const gprq::workload::Dataset* dataset_;
  uint64_t seed_;
  std::vector<gprq::la::Matrix> covariances_;
};

/// A Table III pseudo-feedback session on Corel: a centre object, its 20
/// nearest neighbours as the user's feedback, Σ = Σ̃ + κI with κ =
/// |Σ̃|^{1/9}, δ = 0.7.
struct FeedbackSession {
  gprq::la::Vector center;
  gprq::la::Matrix covariance;
};
inline constexpr double kFeedbackThetas[5] = {0.2, 0.3, 0.4, 0.5, 0.6};

std::vector<FeedbackSession> MakeSessions(
    const gprq::workload::Dataset& dataset,
    const gprq::index::RStarTree& tree, size_t count, uint64_t seed);
gprq::core::PrqQuery SessionQuery(const FeedbackSession& session,
                                  double theta);

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(uint64_t uniform_bits) const;

 private:
  std::vector<double> cdf_;
};

/// Reference answers through the plain path: for each worker thread a
/// fresh single-worker exec::BatchExecutor over `engine` — no result
/// cache, no overload policy, the same Monte-Carlo configuration as every
/// executor and server under test. `threads` such executors split the
/// queries between them. Each answer is sorted; a query whose reference
/// run fails is an error.
gprq::Result<std::vector<std::vector<ObjectId>>> ReferenceAnswers(
    const gprq::core::PrqEngine* engine,
    const std::vector<gprq::core::PrqQuery>& queries, size_t threads);

/// Threads the oracle uses: it runs after the timed window, never during.
inline constexpr size_t kOracleThreads = 4;

/// Sorts `ids` in place and returns it (answers compare as sets).
std::vector<ObjectId> Sorted(std::vector<ObjectId> ids);

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
