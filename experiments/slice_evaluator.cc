#include "experiments/slice_evaluator.h"

#include <cassert>
#include <cmath>
#include <algorithm>

#include "stats/special.h"

namespace gprq::mc {

namespace {

/// φ(z), the standard normal density.
double NormalPdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
}

struct SliceIntegrand {
  double s1, s2;  // axis scales
  double c1, c2;  // object coordinates in the eigen frame
  double delta;

  double operator()(double z1) const {
    const double u = s1 * z1 - c1;
    const double rest = delta * delta - u * u;
    if (rest <= 0.0) return 0.0;
    const double w = std::sqrt(rest);
    const double hi = (c2 + w) / s2;
    const double lo = (c2 - w) / s2;
    return NormalPdf(z1) * (stats::StandardNormalCdf(hi) -
                            stats::StandardNormalCdf(lo));
  }
};

double AdaptiveSimpson(const SliceIntegrand& f, double a, double b,
                       double fa, double fm, double fb, double whole,
                       double tol, int depth) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
  const double right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
  const double delta = left + right - whole;
  if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return AdaptiveSimpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) +
         AdaptiveSimpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1);
}

}  // namespace

double Slice2DEvaluator::QualificationProbability(
    const core::GaussianDistribution& query, const la::Vector& object,
    double delta) {
  assert(query.dim() == 2);
  assert(object.dim() == 2);
  assert(delta >= 0.0);
  if (delta == 0.0) return 0.0;

  SliceIntegrand f;
  f.s1 = query.axis_scales()[0];
  f.s2 = query.axis_scales()[1];
  const la::Vector c = query.ToEigenFrame(object);
  f.c1 = c[0];
  f.c2 = c[1];
  f.delta = delta;

  // Finite support of the outer variable: |s1·z1 − c1| <= δ, further
  // clipped to the standard normal's effective support (φ(12) ~ 2e-32).
  const double a = std::max((f.c1 - delta) / f.s1, -12.0);
  const double b = std::min((f.c1 + delta) / f.s1, 12.0);
  if (a >= b) return 0.0;

  // Pre-partition into panels no wider than 0.5 so a peak concentrated
  // near one edge (elongated covariances put most of the mass in a tiny
  // z1 sliver) cannot slip between the first Simpson samples; adaptive
  // refinement then handles the √-shaped section edges.
  const int panels =
      std::max(4, static_cast<int>(std::ceil((b - a) / 0.5)));
  const double tol = options_.tolerance / panels;
  double integral = 0.0;
  for (int p = 0; p < panels; ++p) {
    const double lo = a + (b - a) * p / panels;
    const double hi = a + (b - a) * (p + 1) / panels;
    const double m = 0.5 * (lo + hi);
    const double flo = f(lo);
    const double fhi = f(hi);
    const double fm = f(m);
    const double whole = (hi - lo) / 6.0 * (flo + 4.0 * fm + fhi);
    integral += AdaptiveSimpson(f, lo, hi, flo, fm, fhi, whole, tol,
                                options_.max_depth);
  }
  return integral;
}

}  // namespace gprq::mc
