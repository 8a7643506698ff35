// Phase-3 throughput: per-candidate Monte Carlo (the paper's approach —
// every candidate redraws the full sample budget) vs the shared per-query
// SamplePool (draw once, count per candidate) vs the pool with block-wise
// Wilson early termination vs the cell-ordered pool's exact pruned count
// (the fixed-budget decision counting only the samples a candidate's δ-ball
// can reach) — plus the kernel-level roofline (scalar reference vs the
// dispatched SIMD kernel, plain and fused transform-and-count) — plus the
// pruned count on a 9-D oblique query. Emits BENCH_phase3.json, headed by
// the machine and build facts (cores, dispatched kernel, build type and
// options), so the perf trajectory is machine-trackable across PRs.
//
// Env overrides: GPRQ_MC_SAMPLES (default 100000), GPRQ_BENCH_CANDIDATES
// (default 100), GPRQ_TRIALS (default 3), GPRQ_BENCH_JSON (output path,
// default BENCH_phase3.json).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "mc/monte_carlo.h"
#include "mc/sample_pool.h"
#include "mc/simd/kernels.h"
#include "rng/random.h"
#include "workload/generators.h"

#ifndef GPRQ_BUILD_TYPE
#define GPRQ_BUILD_TYPE "unknown"  // the build defines it for bench targets
#endif

namespace gprq {
namespace {

// The build options the report's machine entry records (1 = ON).
#ifdef GPRQ_SIMD_DISABLED
constexpr double kSimd = 0.0;
#else
constexpr double kSimd = 1.0;
#endif
#ifdef GPRQ_OBS_DISABLED
constexpr double kObs = 0.0;
#else
constexpr double kObs = 1.0;
#endif
#ifdef GPRQ_FAULT_DISABLED
constexpr double kFault = 0.0;
#else
constexpr double kFault = 1.0;
#endif

// Kernel-level roofline: raw count throughput of the scalar reference vs
// the dispatched SIMD kernel (and the fused transform-and-count variant)
// over resident block-sized slices — the Phase-3 inner loop with everything
// but the arithmetic stripped away. Emitted into the same JSON so the
// scalar-vs-dispatched speedup is machine-trackable per host.
void RunKernelBench(bench::JsonReport& report, uint64_t trials) {
  using mc::simd::KernelKind;
  const uint64_t n = 1u << 18;  // samples per measured sweep
  std::printf("\nkernel-level count throughput (n=%llu per sweep)\n",
              static_cast<unsigned long long>(n));
  std::printf("%-26s%10s%18s%12s\n", "kernel", "dim", "samples/sec",
              "speedup");
  bench::Rule(66);

  for (const size_t dim : {size_t{2}, size_t{9}}) {
    rng::Random random(41 + dim);
    std::vector<double> data(dim * n);
    for (double& v : data) v = random.NextDouble(-3.0, 3.0);
    std::vector<double> object(dim, 0.25);
    std::vector<double> chol(dim * dim, 0.0);
    for (size_t a = 0; a < dim; ++a) {
      for (size_t j = 0; j <= a; ++j) chol[a * dim + j] = (a == j) ? 1.0 : 0.1;
    }
    std::vector<double> mean(dim, 0.0);
    const double delta_sq = 2.0 * static_cast<double>(dim);

    // Sweep the full data set blockwise, like SamplePool::CountWithin does;
    // trial 0 is an untimed warm-up. The kernels are called through opaque
    // function pointers, so the compiler cannot elide the sweeps; `sink`
    // keeps the accumulation honest.
    uint64_t sink = 0;
    const auto time_count = [&](mc::simd::CountFn fn) {
      double seconds = 0.0;
      for (uint64_t t = 0; t <= trials; ++t) {
        Stopwatch timer;
        for (uint64_t b = 0; b < n; b += mc::simd::kKernelBlock) {
          const size_t len = static_cast<size_t>(
              std::min<uint64_t>(mc::simd::kKernelBlock, n - b));
          sink += fn(data.data() + b, n, dim, object.data(), delta_sq, len);
        }
        if (t > 0) seconds += timer.ElapsedSeconds();
      }
      return static_cast<double>(n * trials) / seconds;
    };
    const auto time_fused = [&](mc::simd::FusedCountFn fn) {
      double seconds = 0.0;
      for (uint64_t t = 0; t <= trials; ++t) {
        Stopwatch timer;
        for (uint64_t b = 0; b < n; b += mc::simd::kKernelBlock) {
          const size_t len = static_cast<size_t>(
              std::min<uint64_t>(mc::simd::kKernelBlock, n - b));
          sink += fn(data.data() + b, n, dim, chol.data(), mean.data(),
                     object.data(), delta_sq, len);
        }
        if (t > 0) seconds += timer.ElapsedSeconds();
      }
      return static_cast<double>(n * trials) / seconds;
    };

    double scalar_rate = 0.0, fused_scalar_rate = 0.0;
    for (const KernelKind kind : {KernelKind::kScalar, mc::simd::DispatchedKind()}) {
      const double count_rate = time_count(mc::simd::CountKernel(kind));
      const double fused_rate = time_fused(mc::simd::FusedKernel(kind));
      if (kind == KernelKind::kScalar) {
        scalar_rate = count_rate;
        fused_scalar_rate = fused_rate;
      }
      (void)sink;
      const std::string label =
          std::string("kernel-d") + std::to_string(dim) + "-" +
          mc::simd::KernelName(kind);
      std::printf("%-26s%10zu%18.3g%11.1fx\n", label.c_str(), dim, count_rate,
                  count_rate / scalar_rate);
      report.Add(label, {{"dim", static_cast<double>(dim)},
                         {"samples_per_sec", count_rate},
                         {"speedup_vs_scalar", count_rate / scalar_rate}});
      const std::string fused_label =
          std::string("kernel-d") + std::to_string(dim) + "-fused-" +
          mc::simd::KernelName(kind);
      std::printf("%-26s%10zu%18.3g%11.1fx\n", fused_label.c_str(), dim,
                  fused_rate, fused_rate / fused_scalar_rate);
      report.Add(fused_label,
                 {{"dim", static_cast<double>(dim)},
                  {"samples_per_sec", fused_rate},
                  {"speedup_vs_scalar", fused_rate / fused_scalar_rate}});
      if (kind == mc::simd::DispatchedKind() && kind == KernelKind::kScalar) {
        break;  // scalar is the dispatched kernel; nothing else to measure
      }
    }
  }
}

// The pruned count in 9-D: a query Σ at a random orientation with the
// axis scales of a relevance-feedback session (0.09–0.6), δ = 0.7 above all
// of them, θ = 0.2, and candidates drawn from N(q, 1.5²Σ) like that
// session's Phase-2 survivors. The eigenframe grid and its ρ slabs are
// what this row measures: samples examined per decision and decisions per
// second, with answers checked against the full-pool count.
void RunNineDimBench(bench::JsonReport& report, uint64_t samples,
                     uint64_t candidates, uint64_t trials) {
  constexpr size_t d = 9;
  const la::Vector scales{0.09, 0.09, 0.09, 0.11, 0.13,
                          0.21, 0.40, 0.53, 0.60};
  auto g = core::GaussianDistribution::Create(
      la::Vector(d), workload::RandomRotatedCovariance(scales, 1));
  if (!g.ok()) std::abort();
  const double delta = 0.7;
  const double theta = 0.2;
  rng::Random placement(9);
  std::vector<la::Vector> objects;
  for (uint64_t i = 0; i < candidates; ++i) {
    la::Vector o(d);
    g->Sample(placement, o);
    for (size_t a = 0; a < d; ++a) o[a] *= 1.5;
    objects.push_back(std::move(o));
  }

  double seconds = 0.0;
  uint64_t examined = 0;
  size_t qualifying = 0;
  bool agrees = true;
  for (uint64_t t = 0; t < trials; ++t) {
    const mc::SamplePool pool(*g, samples, 100 + t,
                              mc::PoolVariant::kPseudoRandom,
                              mc::PoolLayout::kCells);
    std::vector<char> decided(objects.size());
    Stopwatch timer;
    for (size_t i = 0; i < objects.size(); ++i) {
      const auto decision = pool.DecideExact(objects[i], delta, theta, {});
      decided[i] =
          decision.outcome == mc::SamplePool::ExactDecision::kQualifies;
      examined += decision.examined;
    }
    seconds += timer.ElapsedSeconds();
    qualifying = 0;
    for (size_t i = 0; i < objects.size(); ++i) {
      const uint64_t hits =
          pool.CountWithin(objects[i], delta * delta, 0, pool.size());
      const bool full = static_cast<double>(hits) >=
                        theta * static_cast<double>(pool.size());
      agrees = agrees && (full == (decided[i] != 0));
      qualifying += decided[i];
    }
  }
  const double decisions = static_cast<double>(candidates * trials);
  const double per_decision = static_cast<double>(examined) / decisions;
  std::printf("\n9-D oblique pooled+pruned (n=%llu, %llu candidates, "
              "delta=%.1f, theta=%.1f)\n",
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(candidates), delta, theta);
  std::printf("  samples examined per decision %.0f (%.1f%% of the pool), "
              "%.0f decisions/sec, answers %s the full count\n",
              per_decision,
              100.0 * per_decision / static_cast<double>(samples),
              decisions / seconds, agrees ? "match" : "DIFFER FROM");
  report.Add("pooled+pruned-d9",
             {{"dim", static_cast<double>(d)},
              {"candidates", static_cast<double>(candidates)},
              {"samples", static_cast<double>(samples)},
              {"samples_per_decision", per_decision},
              {"decisions_per_sec", decisions / seconds},
              {"qualifying", static_cast<double>(qualifying)},
              {"matches_full_count", agrees ? 1.0 : 0.0}});
}

struct Mode {
  const char* name;
  double seconds = 0.0;
  double samples_per_candidate = 0.0;
  size_t qualifying = 0;
};

void Run() {
  const uint64_t samples = bench::EnvOr("GPRQ_MC_SAMPLES", 100000);
  const uint64_t candidates = bench::EnvOr("GPRQ_BENCH_CANDIDATES", 100);
  const uint64_t trials = bench::EnvOr("GPRQ_TRIALS", 3);
  const char* json_env = std::getenv("GPRQ_BENCH_JSON");
  const std::string json_path =
      (json_env != nullptr && *json_env != '\0') ? json_env
                                                 : "BENCH_phase3.json";
  const double delta = 25.0;
  const double theta = 0.01;

  std::printf("Phase-3 sampling: per-candidate vs shared pool vs "
              "pool + early stop\n");
  std::printf("(d=2, candidates=%llu, n=%llu samples, delta=%.0f, "
              "theta=%.2f, trials=%llu)\n\n",
              static_cast<unsigned long long>(candidates),
              static_cast<unsigned long long>(samples), delta, theta,
              static_cast<unsigned long long>(trials));

  auto g = core::GaussianDistribution::Create(
      la::Vector{500.0, 500.0}, workload::PaperCovariance2D(10.0));
  if (!g.ok()) std::abort();

  // Candidates spread from inside the δ-ball to well past it, like the
  // survivor set Phase 2 hands to Phase 3 (a mix of clear accepts, clear
  // rejects, and a boundary band).
  rng::Random placement(7);
  std::vector<la::Vector> objects;
  for (uint64_t i = 0; i < candidates; ++i) {
    const double radius = placement.NextDouble(0.0, 3.0 * delta);
    const double angle = placement.NextDouble(0.0, 6.283185307179586);
    objects.push_back(la::Vector{500.0 + radius * std::cos(angle),
                                 500.0 + radius * std::sin(angle)});
  }

  Mode per_candidate{"per-candidate"};
  Mode pooled{"pooled"};
  Mode pooled_early{"pooled+early-stop"};
  Mode pooled_pruned{"pooled+pruned"};

  for (uint64_t t = 0; t < trials; ++t) {
    // Per-candidate: the paper's cost model — each candidate redraws the
    // full budget (candidates × n O(d²) transforms per query).
    {
      mc::MonteCarloEvaluator evaluator(
          {.samples = samples, .seed = 100 + t, .dim = 2});
      size_t qualifying = 0;
      Stopwatch timer;
      for (const auto& o : objects) {
        qualifying +=
            evaluator.QualificationDecision(*g, o, delta, theta) ? 1 : 0;
      }
      per_candidate.seconds += timer.ElapsedSeconds();
      per_candidate.samples_per_candidate += static_cast<double>(samples);
      per_candidate.qualifying = qualifying;
    }
    // Pooled: draw once per query, full-pool count per candidate.
    {
      size_t qualifying = 0;
      Stopwatch timer;
      const mc::SamplePool pool(*g, samples, 100 + t,
                                mc::PoolVariant::kPseudoRandom);
      const double delta_sq = delta * delta;
      for (const auto& o : objects) {
        const uint64_t hits = pool.CountWithin(o, delta_sq, 0, pool.size());
        qualifying += static_cast<double>(hits) >=
                              theta * static_cast<double>(pool.size())
                          ? 1
                          : 0;
      }
      pooled.seconds += timer.ElapsedSeconds();
      pooled.samples_per_candidate += static_cast<double>(samples);
      pooled.qualifying = qualifying;
    }
    // Pooled + early stop: draw once, stop each candidate at CI separation.
    {
      size_t qualifying = 0;
      uint64_t used = 0;
      Stopwatch timer;
      const mc::SamplePool pool(*g, samples, 100 + t,
                                mc::PoolVariant::kPseudoRandom);
      for (const auto& o : objects) {
        const auto decision = pool.Decide(o, delta, theta);
        qualifying += decision.qualifies ? 1 : 0;
        used += decision.samples_used;
      }
      pooled_early.seconds += timer.ElapsedSeconds();
      pooled_early.samples_per_candidate +=
          static_cast<double>(used) / static_cast<double>(candidates);
      pooled_early.qualifying = qualifying;
    }
    // Pooled + pruned: the same draws laid out in grid cells; each
    // candidate's fixed-budget decision counts only the cells its δ-ball
    // reaches and stops once hits ≥ θ·n or can no longer get there —
    // bit-identical to the full-pool count above.
    {
      size_t qualifying = 0;
      uint64_t examined = 0;
      Stopwatch timer;
      const mc::SamplePool pool(*g, samples, 100 + t,
                                mc::PoolVariant::kPseudoRandom,
                                mc::PoolLayout::kCells);
      for (const auto& o : objects) {
        const auto decision = pool.DecideExact(o, delta, theta, {});
        qualifying +=
            decision.outcome == mc::SamplePool::ExactDecision::kQualifies;
        examined += decision.examined;
      }
      pooled_pruned.seconds += timer.ElapsedSeconds();
      pooled_pruned.samples_per_candidate +=
          static_cast<double>(examined) / static_cast<double>(candidates);
      pooled_pruned.qualifying = qualifying;
    }
  }

  const double tf = static_cast<double>(trials);
  const double base_throughput =
      static_cast<double>(candidates) * tf / per_candidate.seconds;
  bench::JsonReport report;
  const unsigned cores = std::thread::hardware_concurrency();
  const char* kernel = mc::simd::KernelName(mc::simd::DispatchedKind());
  std::printf("machine: %u cores, dispatched kernel %s\n\n", cores, kernel);
  report.Add("machine", bench::JsonValue::Object()
                            .Set("nproc", bench::JsonValue(
                                              static_cast<double>(cores)))
                            .Set("kernel", bench::JsonValue(kernel))
                            .Set("build_type",
                                 bench::JsonValue(GPRQ_BUILD_TYPE))
                            .Set("GPRQ_SIMD", bench::JsonValue(kSimd))
                            .Set("GPRQ_OBS", bench::JsonValue(kObs))
                            .Set("GPRQ_FAULT", bench::JsonValue(kFault)));
  std::printf("%-22s%14s%18s%14s%12s\n", "phase-3 path", "phase3 (ms)",
              "samples/cand", "cand/sec", "speedup");
  bench::Rule(80);
  for (const Mode* mode :
       {&per_candidate, &pooled, &pooled_early, &pooled_pruned}) {
    const double throughput =
        static_cast<double>(candidates) * tf / mode->seconds;
    const double speedup = throughput / base_throughput;
    std::printf("%-22s%14.2f%18.0f%14.0f%11.1fx\n", mode->name,
                mode->seconds * 1e3 / tf, mode->samples_per_candidate / tf,
                throughput, speedup);
    report.Add(mode->name,
               {{"dim", 2.0},
                {"candidates", static_cast<double>(candidates)},
                {"samples", static_cast<double>(samples)},
                {"phase3_ms_per_query", mode->seconds * 1e3 / tf},
                {"samples_per_candidate", mode->samples_per_candidate / tf},
                {"candidates_per_sec", throughput},
                {"speedup_vs_per_candidate", speedup},
                {"qualifying", static_cast<double>(mode->qualifying)}});
  }

  std::printf("\nanswer agreement: per-candidate=%zu pooled=%zu "
              "pooled+early=%zu pooled+pruned=%zu of %llu\n",
              per_candidate.qualifying, pooled.qualifying,
              pooled_early.qualifying, pooled_pruned.qualifying,
              static_cast<unsigned long long>(candidates));
  RunNineDimBench(report, samples, candidates, trials);
  RunKernelBench(report, trials);
  if (report.WriteFile(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::printf("\nexpected shape: pooled >= 5x per-candidate (sampling "
              "amortized from candidates*n to n transforms), early-stop "
              "several-fold above that; pruned answers identical to "
              "pooled.\n");
}

}  // namespace
}  // namespace gprq

int main() {
  gprq::Run();
  return 0;
}
