#ifndef GPRQ_EXPERIMENTS_SLICE_EVALUATOR_H_
#define GPRQ_EXPERIMENTS_SLICE_EVALUATOR_H_

#include "mc/probability_evaluator.h"

namespace gprq::mc {

/// Exact 2-D qualification probabilities by one-dimensional slice
/// integration — a third, independent numerical route (besides Monte Carlo
/// and Imhof) used to cross-validate the others and as a very fast Phase-3
/// backend for the planar case.
///
/// Derivation: whiten with z = E diag(1/s) Eᵀ (x − q); the δ-ball around o
/// becomes the ellipse Σ (s_i z_i − c_i)² ≤ δ², and for each z₁ the z₂
/// section is an interval whose standard-normal mass is a Φ difference.
/// The outer integral over z₁ runs through adaptive Simpson on
/// φ(z₁)·[Φ(b(z₁)) − Φ(a(z₁))], with finite support
/// |s₁z₁ − c₁| ≤ δ. Accuracy ~1e-10; cost a few hundred Φ evaluations.
///
/// Only valid for dim == 2 (asserts in debug builds; returns garbage-free
/// exact values only there).
class Slice2DEvaluator final : public ProbabilityEvaluator {
 public:
  struct Options {
    double tolerance;
    int max_depth;
  };

  explicit Slice2DEvaluator(Options options = {1e-10, 40})
      : options_(options) {}

  double QualificationProbability(const core::GaussianDistribution& query,
                                  const la::Vector& object,
                                  double delta) override;

  const char* name() const override { return "slice-2d"; }

 private:
  Options options_;
};

}  // namespace gprq::mc

#endif  // GPRQ_EXPERIMENTS_SLICE_EVALUATOR_H_
