#ifndef GPRQ_GEOM_RECT_H_
#define GPRQ_GEOM_RECT_H_

#include <cstddef>

#include "la/vector.h"

namespace gprq::geom {

/// An axis-aligned d-dimensional rectangle (hyper-box / MBR), the basic
/// geometric object of the R*-tree and of the paper's rectilinear search
/// regions (Figs. 2 and 4).
class Rect {
 public:
  Rect() = default;

  /// A degenerate rectangle covering exactly one point.
  explicit Rect(const la::Vector& point) : lo_(point), hi_(point) {}

  /// Corners must satisfy lo[i] <= hi[i]; asserted in debug builds.
  Rect(la::Vector lo, la::Vector hi);

  /// The "empty" rectangle of a given dimension: lo = +inf, hi = −inf, the
  /// identity of ExpandToInclude.
  static Rect Empty(size_t dim);

  /// A box centered at `center` with per-dimension half-widths.
  static Rect Centered(const la::Vector& center,
                       const la::Vector& half_widths);

  /// A box centered at `center` with a single half-width in all dimensions.
  static Rect CenteredUniform(const la::Vector& center, double half_width);

  size_t dim() const { return lo_.dim(); }
  const la::Vector& lo() const { return lo_; }
  const la::Vector& hi() const { return hi_; }

  bool IsEmpty() const;

  bool Contains(const la::Vector& point) const;
  /// Contains for a point stored as dim() contiguous coordinates.
  bool Contains(const double* point) const;
  bool Contains(const Rect& other) const;
  bool Intersects(const Rect& other) const;

  /// Grows this rectangle (in place) to include a point / another rectangle.
  void ExpandToInclude(const la::Vector& point);
  void ExpandToInclude(const Rect& other);

  /// Returns this rectangle expanded by `margin` on every side — the
  /// bounding box of the Minkowski sum with a ball of radius `margin`.
  Rect Inflated(double margin) const;

  /// Product of side lengths (the R*-tree "area").
  double Volume() const;

  /// Sum of side lengths (the R*-tree "margin", up to a factor 2^{d-1}).
  double Margin() const;

  /// Volume of the intersection with `other` (0 when disjoint).
  double IntersectionVolume(const Rect& other) const;

  /// Volume increase needed to include `other`.
  double Enlargement(const Rect& other) const;

  la::Vector Center() const;

  /// Squared Euclidean distance from `point` to the closest point of the
  /// rectangle; 0 if inside. This is the R-tree MINDIST, and also the test
  /// behind the generalized fringe filter: a point lies in the Minkowski sum
  /// of the box with a δ-ball iff this distance is <= δ².
  double MinSquaredDistance(const la::Vector& point) const;

  bool operator==(const Rect& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_;
  }

 private:
  la::Vector lo_;
  la::Vector hi_;
};

/// The smallest rectangle covering both arguments.
Rect Union(const Rect& a, const Rect& b);

}  // namespace gprq::geom

#endif  // GPRQ_GEOM_RECT_H_
