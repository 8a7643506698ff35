// Example: privacy-aware location services (paper Section I). A user hides
// their exact position from a points-of-interest service by reporting only
// a Gaussian blur of it. The service still answers "which POIs are within
// walking distance (with decent probability)?" — and the uncertain-target
// extension handles the symmetric case where the *POIs* themselves are
// crowdsourced with noisy positions.

#include <cstdio>

#include "core/engine.h"
#include "experiments/uncertain_targets.h"
#include "index/str_bulk_load.h"
#include "mc/exact_evaluator.h"
#include "workload/tiger_synthetic.h"

int main() {
  using namespace gprq;

  // POIs along a synthetic road network (city = [0,1000]^2, meters/5).
  const auto pois = workload::GenerateTigerSynthetic(
      {.num_points = 30000, .seed = 99});
  auto tree = index::StrBulkLoader::Load(2, pois.points);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  const core::PrqEngine engine(&*tree);
  mc::ImhofEvaluator evaluator;

  const la::Vector true_position = pois.points[4242];
  const double kWalkingDistance = 30.0;
  const double kTheta = 0.25;

  std::printf("user's true position: (%.1f, %.1f) — never sent.\n\n",
              true_position[0], true_position[1]);
  std::printf("%-18s%12s%14s%10s\n", "privacy blur", "candidates",
              "integrations", "answers");
  for (double blur : {5.0, 20.0, 60.0, 150.0}) {
    // The reported location: the true position blurred isotropically. The
    // larger the blur, the stronger the privacy and the vaguer the answer.
    auto g = core::GaussianDistribution::Create(
        true_position, la::Matrix::Identity(2) * (blur * blur));
    if (!g.ok()) {
      std::fprintf(stderr, "%s\n", g.status().ToString().c_str());
      return 1;
    }
    const core::PrqQuery query{std::move(*g), kWalkingDistance, kTheta};
    core::PrqStats stats;
    auto result = engine.Execute(query, core::PrqOptions(), &evaluator,
                                 &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    if (stats.proved_empty) {
      std::printf("%-18.0f%38s\n", blur,
                  "(provably empty: blur too large for theta)");
    } else {
      std::printf("%-18.0f%12zu%14zu%10zu\n", blur, stats.index_candidates,
                  stats.integration_candidates, result->size());
    }
  }
  std::printf("\n(with an isotropic blur the BF strategy answers almost "
              "everything without numerical integration — its inner and "
              "outer radii coincide.)\n\n");

  // Crowdsourced POIs: positions themselves are uncertain. Evaluate the
  // same query against Gaussian POIs with per-POI noise.
  std::printf("crowdsourced variant: POI positions carry their own "
              "uncertainty\n");
  auto g = core::GaussianDistribution::Create(
      true_position, la::Matrix::Identity(2) * (20.0 * 20.0));
  std::vector<core::UncertainTarget> targets;
  targets.reserve(2000);
  for (size_t i = 0; i < 2000; ++i) {
    targets.push_back({pois.points[i * 15],
                       la::Matrix::Identity(2) * 25.0});
  }
  core::UncertainPrqStats stats;
  auto result = core::UncertainTargetPrq(*g, targets, kWalkingDistance,
                                         kTheta, &stats);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("  %zu of %zu POIs qualify (pruned %zu cheaply, evaluated "
              "%zu, %.1f ms)\n",
              result->size(), targets.size(), stats.pruned_by_bound,
              stats.evaluations, stats.seconds * 1e3);
  return 0;
}
