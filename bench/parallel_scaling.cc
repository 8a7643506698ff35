// Ablation: Phase-3 thread scaling. Numerical integrations are independent
// per candidate, and Phase 3 dominates query time with Monte-Carlo
// integration (paper: >= 97%), so parallel Phase 3 should scale close to
// linearly in the worker count.
//
// Each thread count gets one persistent exec::BatchExecutor — the serving
// configuration: threads and evaluators stay alive across the whole query
// stream. The same executor first reports per-query Phase-3 latency, then
// sustained throughput over a repeated stream.

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "exec/batch_executor.h"
#include "mc/monte_carlo.h"
#include "rng/random.h"
#include "workload/tiger_synthetic.h"

namespace gprq {
namespace {

core::PrqEngine::EvaluatorFactory McFactory(uint64_t samples) {
  return [samples](size_t worker) {
    return std::make_unique<mc::MonteCarloEvaluator>(
        mc::MonteCarloOptions{.samples = samples, .seed = 100 + worker});
  };
}

void Run() {
  const uint64_t samples = bench::EnvOr("GPRQ_MC_SAMPLES", 20000);
  const uint64_t trials = bench::EnvOr("GPRQ_TRIALS", 3);
  const double delta = 25.0;
  const double theta = 0.01;
  const double gamma = 100.0;  // vaguest setting = most integrations

  std::printf("Ablation: Phase-3 thread scaling "
              "(gamma=%.0f, delta=%.0f, theta=%.2f, %llu MC samples; "
              "machine has %u hardware threads)\n\n",
              gamma, delta, theta,
              static_cast<unsigned long long>(samples),
              std::thread::hardware_concurrency());

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

  // The same query stream (each center repeated) for the throughput leg.
  std::vector<core::PrqQuery> stream;
  constexpr size_t kRounds = 4;
  for (size_t r = 0; r < kRounds; ++r) {
    for (const auto& center : centers) {
      auto g = core::GaussianDistribution::Create(center, cov);
      stream.push_back(core::PrqQuery{std::move(*g), delta, theta});
    }
  }

  std::printf("%-10s%14s%14s%10s%14s%18s\n", "threads", "phase3 (ms)",
              "total (ms)", "speedup", "stream (q/s)", "integr./s");
  bench::Rule(80);
  bench::JsonReport report;
  double baseline = 0.0;
  for (size_t threads : {1u, 2u, 4u}) {
    auto executor =
        exec::BatchExecutor::Create(&engine, McFactory(samples), threads);
    if (!executor.ok()) std::abort();

    double phase3 = 0.0, total = 0.0;
    for (const auto& center : centers) {
      auto g = core::GaussianDistribution::Create(center, cov);
      const core::PrqQuery query{std::move(*g), delta, theta};
      core::PrqStats stats;
      auto result = (*executor)->Submit(query, core::PrqOptions(), &stats);
      if (!result.ok()) std::abort();
      phase3 += stats.phase3_seconds * 1e3;
      total += stats.total_seconds() * 1e3;
    }
    if (threads == 1) baseline = phase3;

    Stopwatch stream_timer;
    for (const auto& query : stream) {
      auto result = (*executor)->Submit(query, core::PrqOptions());
      if (!result.ok()) std::abort();
    }
    const double qps =
        stream.size() / std::max(stream_timer.ElapsedSeconds(), 1e-9);
    const exec::ExecStats stats = (*executor)->Snapshot();

    std::printf("%-10zu%14.1f%14.1f%9.2fx%14.2f%18.0f\n", threads,
                phase3 / trials, total / trials,
                baseline / std::max(phase3, 1e-9), qps,
                stats.integrations_per_second());

    bench::JsonValue record = bench::ServingRecord(stats);
    record.SetFront("qps", bench::JsonValue(qps));
    record.SetFront("threads",
                    bench::JsonValue(static_cast<double>(threads)));
    report.Add("parallel_scaling_serving", std::move(record));
  }
  std::printf("\nexpected shape: near-linear speedup and stream throughput "
              "up to the physical core count (%zu-query stream).\n",
              stream.size());

  // Serving telemetry per thread count, each record carrying the registry
  // snapshot as of that run (GPRQ_BENCH_JSON overrides the path).
  const char* json_env = std::getenv("GPRQ_BENCH_JSON");
  const std::string json_path = (json_env != nullptr && *json_env != '\0')
                                    ? json_env
                                    : "BENCH_serving.json";
  if (report.WriteFile(json_path)) {
    std::printf("\nserving telemetry written to %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace gprq

int main() {
  gprq::Run();
  return 0;
}
