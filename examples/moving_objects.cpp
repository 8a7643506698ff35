// Example: moving-object monitoring (paper Section I's second motivating
// scenario). A fleet of vehicles reports positions only occasionally to
// save bandwidth; between updates the server models each vehicle's location
// uncertainty as a Gaussian that grows with time since the last report.
// A dispatcher repeatedly asks "which depots are probably within reach of
// vehicle V right now?" while vehicles keep moving (tree updates) — the
// continuous-monitoring loop the paper's moving-object references target.

#include <cmath>
#include <cstdio>

#include "core/engine.h"
#include "experiments/slice_evaluator.h"
#include "index/rstar_tree.h"
#include "rng/random.h"
#include "workload/generators.h"

int main() {
  using namespace gprq;

  // Static depots, indexed once.
  const geom::Rect city(la::Vector{0.0, 0.0}, la::Vector{2000.0, 2000.0});
  const auto depots = workload::GenerateClustered(5000, city, 20, 60.0, 17);
  index::RStarTree depot_index(2);
  for (size_t i = 0; i < depots.size(); ++i) {
    if (!depot_index.Insert(depots.points[i],
                            static_cast<index::ObjectId>(i))
             .ok()) {
      return 1;
    }
  }
  const core::PrqEngine engine(&depot_index);
  mc::Slice2DEvaluator evaluator;  // exact and fast in 2-D

  // One monitored vehicle: true position (hidden), last report, and the
  // time since that report.
  rng::Random random(4);
  la::Vector true_position{1000.0, 1000.0};
  la::Vector reported = true_position;
  double seconds_since_report = 0.0;
  const double kSpeed = 15.0;          // m/s, random heading per tick
  const double kDiffusion = 40.0;      // uncertainty growth (m^2 per s)
  const double kReach = 150.0;         // "within reach" distance
  const double kConfidence = 0.3;

  std::printf("tick  since-report  sigma   candidates  integr.  reachable\n");
  for (int tick = 0; tick < 12; ++tick) {
    // The vehicle drives; the server does not see this.
    const double heading = random.NextDouble(0.0, 2.0 * M_PI);
    true_position[0] += kSpeed * 5.0 * std::cos(heading);
    true_position[1] += kSpeed * 5.0 * std::sin(heading);
    seconds_since_report += 5.0;

    // Report every 4th tick (low-bandwidth regime).
    if (tick % 4 == 3) {
      reported = true_position;
      seconds_since_report = 0.0;
    }

    // Server-side model: N(reported, (σ0² + diffusion·t)·I).
    const double variance = 25.0 + kDiffusion * seconds_since_report;
    auto g = core::GaussianDistribution::Create(
        reported, la::Matrix::Identity(2) * variance);
    if (!g.ok()) return 1;
    const core::PrqQuery query{std::move(*g), kReach, kConfidence};
    core::PrqStats stats;
    auto reachable = engine.Execute(query, core::PrqOptions(), &evaluator,
                                    &stats);
    if (!reachable.ok()) {
      std::fprintf(stderr, "%s\n", reachable.status().ToString().c_str());
      return 1;
    }
    std::printf("%-6d%12.0fs%7.1f%12zu%9zu%11zu%s\n", tick,
                seconds_since_report, std::sqrt(variance),
                stats.index_candidates, stats.integration_candidates,
                reachable->size(),
                (tick % 4 == 3) ? "   <- fresh report" : "");
  }
  std::printf("\nBetween reports the uncertainty (and the candidate set) "
              "grows; each fresh report snaps the query back to a tight "
              "region. All probabilities are exact (2-D slice "
              "integration).\n");
  return 0;
}
