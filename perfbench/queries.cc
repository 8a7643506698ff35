#include "queries.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>

#include "exec/batch_executor.h"
#include "index/str_bulk_load.h"
#include "la/eigen_sym.h"
#include "mc/monte_carlo.h"
#include "rng/random.h"
#include "workload/corel_synthetic.h"
#include "workload/tiger_synthetic.h"

namespace perfbench {

using gprq::Result;
using gprq::Status;
namespace core = gprq::core;
namespace la = gprq::la;

core::PrqEngine::EvaluatorFactory McFactory() {
  return [](size_t worker) -> std::unique_ptr<gprq::mc::ProbabilityEvaluator> {
    return std::make_unique<gprq::mc::MonteCarloEvaluator>(
        gprq::mc::MonteCarloOptions{.samples = kMcSamples, .seed = 7 + worker});
  };
}

std::vector<std::string> McServerFlags() {
  return {"--evaluator", "mc", "--samples", std::to_string(kMcSamples),
          "--threads", std::to_string(kPhase3Workers)};
}

gprq::workload::Dataset TigerDataset() {
  return gprq::workload::GenerateTigerSynthetic();
}

gprq::workload::Dataset CorelDataset() {
  return gprq::workload::GenerateCorelSynthetic();
}

Result<gprq::index::RStarTree> BuildTree(
    const gprq::workload::Dataset& dataset) {
  return gprq::index::StrBulkLoader::Load(dataset.dim, dataset.points);
}

uint64_t Mix(uint64_t seed, uint64_t index) {
  // splitmix64 over the pair: distinct (seed, index) give unrelated
  // streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
constexpr double kGammas[3] = {1.0, 10.0, 100.0};
constexpr double kDeltas[5] = {5.0, 10.0, 25.0, 50.0, 100.0};
constexpr double kThetas[5] = {0.001, 0.01, 0.05, 0.1, 0.3};
}  // namespace

Query2dStream::Query2dStream(const gprq::workload::Dataset* dataset,
                             uint64_t seed)
    : dataset_(dataset), seed_(seed) {
  for (double gamma : kGammas) {
    covariances_.push_back(gprq::workload::PaperCovariance2D(gamma));
  }
}

core::PrqQuery Query2dStream::At(uint64_t index) const {
  // Centres walk the dataset on a Weyl sequence from a seeded offset, so
  // every run samples each region of the map in proportion to its points
  // (and each grid cell's queries, index ≡ cell mod 75, do too).
  constexpr double kGolden = 0.6180339887498949;
  gprq::rng::Random random(Mix(seed_, index));
  const double offset = static_cast<double>(Mix(seed_, ~0ULL) >> 11) * 0x1.0p-53;
  const double u = std::fmod(offset + static_cast<double>(index) * kGolden, 1.0);
  la::Vector center = dataset_->points[std::min<size_t>(
      static_cast<size_t>(u * static_cast<double>(dataset_->size())),
      dataset_->size() - 1)];
  for (size_t d = 0; d < center.dim(); ++d) {
    center[d] += random.NextDouble(-0.5, 0.5);
  }
  // Every block of 75 consecutive queries covers the (γ, δ, θ) grid once,
  // so the cost mix is the same for every seed; only the centres vary.
  const uint64_t cell = index % 75;
  const la::Matrix& cov = covariances_[cell / 25];
  const double delta = kDeltas[(cell / 5) % 5];
  const double theta = kThetas[cell % 5];
  auto gaussian = core::GaussianDistribution::Create(std::move(center), cov);
  return core::PrqQuery{std::move(*gaussian), delta, theta};
}

std::vector<FeedbackSession> MakeSessions(
    const gprq::workload::Dataset& dataset,
    const gprq::index::RStarTree& tree, size_t count, uint64_t seed) {
  constexpr size_t kFeedback = 20;
  const size_t d = dataset.dim;
  gprq::rng::Random random(Mix(seed, 0xFEEDBAC));
  std::vector<FeedbackSession> sessions;
  while (sessions.size() < count) {
    const la::Vector& center = dataset.points[random.NextUint64(dataset.size())];
    std::vector<std::pair<double, ObjectId>> knn;
    tree.KnnQuery(center, kFeedback, &knn);
    la::Vector mean(d);
    for (const auto& [dist, id] : knn) mean += dataset.points[id];
    mean *= 1.0 / static_cast<double>(knn.size());
    la::Matrix sigma(d, d);
    for (const auto& [dist, id] : knn) {
      const la::Vector diff = dataset.points[id] - mean;
      for (size_t a = 0; a < d; ++a) {
        for (size_t b = 0; b < d; ++b) sigma(a, b) += diff[a] * diff[b];
      }
    }
    sigma *= 1.0 / static_cast<double>(knn.size());
    auto eigen = la::DecomposeSymmetric(sigma);
    if (!eigen.ok()) continue;
    double log_det = 0.0;
    bool singular = false;
    for (size_t i = 0; i < d; ++i) {
      if (eigen->eigenvalues[i] <= 0.0) singular = true;
      else log_det += std::log(eigen->eigenvalues[i]);
    }
    if (singular) continue;  // duplicate feedback points: draw again
    const double kappa = std::exp(log_det / static_cast<double>(d));
    sessions.push_back(
        {center, sigma + la::Matrix::Identity(d) * kappa});
  }
  return sessions;
}

core::PrqQuery SessionQuery(const FeedbackSession& session, double theta) {
  auto gaussian =
      core::GaussianDistribution::Create(session.center, session.covariance);
  return core::PrqQuery{std::move(*gaussian), 0.7, theta};
}

Zipf::Zipf(size_t n, double s) {
  double total = 0.0;
  for (size_t k = 1; k <= n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(uint64_t uniform_bits) const {
  const double u = static_cast<double>(uniform_bits >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

Result<std::vector<std::vector<ObjectId>>> ReferenceAnswers(
    const core::PrqEngine* engine, const std::vector<core::PrqQuery>& queries,
    size_t threads) {
  threads = std::max<size_t>(1, std::min(threads, queries.size()));
  std::vector<std::vector<ObjectId>> answers(queries.size());
  std::vector<Status> errors(threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto executor = gprq::exec::BatchExecutor::Create(engine, McFactory(), 1);
      if (!executor.ok()) {
        errors[t] = executor.status();
        return;
      }
      for (size_t i = t; i < queries.size(); i += threads) {
        auto result =
            (*executor)->SubmitBounded(queries[i], core::PrqOptions{});
        if (!result.ok()) {
          errors[t] = result.status();
          return;
        }
        if (!result->complete()) {
          errors[t] = Status::Internal("reference answer incomplete: " +
                                       result->status.ToString());
          return;
        }
        answers[i] = Sorted(std::move(result->ids));
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (const Status& error : errors) {
    if (!error.ok()) return error;
  }
  return answers;
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace perfbench
