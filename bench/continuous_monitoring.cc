// Extension bench: continuous PRQ monitoring along a trajectory (the
// paper's moving-object motivation). Compares per-tick index work for
// fresh queries vs the buffered monitor at several buffer margins.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "experiments/continuous.h"
#include "experiments/slice_evaluator.h"
#include "workload/tiger_synthetic.h"

namespace gprq {
namespace {

void Run() {
  const int ticks = 200;
  const double step = 8.0;  // trajectory step per tick (data units)

  std::printf("Extension: continuous monitoring (TIGER 50,747 pts, "
              "%d ticks of %.0f units, gamma=10, delta=25, theta=0.01)\n\n",
              ticks, step);

  const auto dataset = workload::GenerateTigerSynthetic();
  const auto tree = bench::BuildTree(dataset);
  mc::Slice2DEvaluator evaluator;
  const la::Matrix cov = workload::PaperCovariance2D(10.0);

  std::printf("%-16s%12s%14s%16s%14s\n", "buffer margin", "refetches",
              "node reads", "avg phase1 us", "avg total ms");
  bench::Rule(72);
  for (double margin : {0.0, 50.0, 150.0, 400.0}) {
    core::ContinuousPrqMonitor::Options options;
    options.buffer_margin = margin;
    core::ContinuousPrqMonitor monitor(&tree, options);

    double phase1_us = 0.0, total_ms = 0.0;
    for (int tick = 0; tick < ticks; ++tick) {
      const double angle = 0.05 * tick;
      const double x = 500.0 + step * tick * std::cos(angle) * 0.5;
      const double y = 500.0 + step * tick * std::sin(angle) * 0.5;
      auto g = core::GaussianDistribution::Create(la::Vector{x, y}, cov);
      const core::PrqQuery query{std::move(*g), 25.0, 0.01};
      core::ContinuousPrqMonitor::TickStats stats;
      auto result = monitor.Update(query, &evaluator, &stats);
      if (!result.ok()) std::abort();
      phase1_us += (stats.prep_seconds + stats.phase1_seconds) * 1e6;
      total_ms += stats.total_seconds() * 1e3;
    }
    std::printf("%-16.0f%12zu%14llu%16.1f%14.2f\n", margin,
                monitor.monitor_stats().refetches,
                static_cast<unsigned long long>(
                    monitor.monitor_stats().node_reads),
                phase1_us / ticks, total_ms / ticks);
  }
  std::printf("\nexpected shape: larger margins slash refetches and index "
              "reads; total time is dominated by Phase 3 either way, so "
              "the win matters most for disk-resident or remote indexes.\n");
}

}  // namespace
}  // namespace gprq

int main() {
  gprq::Run();
  return 0;
}
