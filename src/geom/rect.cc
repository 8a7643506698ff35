#include "geom/rect.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace gprq::geom {

Rect::Rect(la::Vector lo, la::Vector hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  assert(lo_.dim() == hi_.dim());
#ifndef NDEBUG
  for (size_t i = 0; i < lo_.dim(); ++i) assert(lo_[i] <= hi_[i]);
#endif
}

Rect Rect::Empty(size_t dim) {
  Rect r;
  r.lo_ = la::Vector(dim, std::numeric_limits<double>::infinity());
  r.hi_ = la::Vector(dim, -std::numeric_limits<double>::infinity());
  return r;
}

Rect Rect::Centered(const la::Vector& center, const la::Vector& half_widths) {
  assert(center.dim() == half_widths.dim());
  la::Vector lo(center.dim());
  la::Vector hi(center.dim());
  for (size_t i = 0; i < center.dim(); ++i) {
    assert(half_widths[i] >= 0.0);
    lo[i] = center[i] - half_widths[i];
    hi[i] = center[i] + half_widths[i];
  }
  return Rect(std::move(lo), std::move(hi));
}

Rect Rect::CenteredUniform(const la::Vector& center, double half_width) {
  return Centered(center, la::Vector(center.dim(), half_width));
}

bool Rect::IsEmpty() const {
  for (size_t i = 0; i < dim(); ++i)
    if (lo_[i] > hi_[i]) return true;
  return dim() == 0;
}

bool Rect::Contains(const la::Vector& point) const {
  assert(point.dim() == dim());
  return Contains(point.data());
}

bool Rect::Contains(const double* point) const {
  for (size_t i = 0; i < dim(); ++i)
    if (point[i] < lo_[i] || point[i] > hi_[i]) return false;
  return true;
}

bool Rect::Contains(const Rect& other) const {
  assert(other.dim() == dim());
  for (size_t i = 0; i < dim(); ++i)
    if (other.lo_[i] < lo_[i] || other.hi_[i] > hi_[i]) return false;
  return true;
}

bool Rect::Intersects(const Rect& other) const {
  assert(other.dim() == dim());
  for (size_t i = 0; i < dim(); ++i)
    if (other.hi_[i] < lo_[i] || other.lo_[i] > hi_[i]) return false;
  return true;
}

void Rect::ExpandToInclude(const la::Vector& point) {
  assert(point.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    lo_[i] = std::min(lo_[i], point[i]);
    hi_[i] = std::max(hi_[i], point[i]);
  }
}

void Rect::ExpandToInclude(const Rect& other) {
  assert(other.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    lo_[i] = std::min(lo_[i], other.lo_[i]);
    hi_[i] = std::max(hi_[i], other.hi_[i]);
  }
}

Rect Rect::Inflated(double margin) const {
  assert(margin >= 0.0);
  la::Vector lo = lo_;
  la::Vector hi = hi_;
  for (size_t i = 0; i < dim(); ++i) {
    lo[i] -= margin;
    hi[i] += margin;
  }
  return Rect(std::move(lo), std::move(hi));
}

double Rect::Volume() const {
  double volume = 1.0;
  for (size_t i = 0; i < dim(); ++i) {
    const double side = hi_[i] - lo_[i];
    if (side < 0.0) return 0.0;
    volume *= side;
  }
  return volume;
}

double Rect::Margin() const {
  double margin = 0.0;
  for (size_t i = 0; i < dim(); ++i) margin += std::max(0.0, hi_[i] - lo_[i]);
  return margin;
}

double Rect::IntersectionVolume(const Rect& other) const {
  assert(other.dim() == dim());
  double volume = 1.0;
  for (size_t i = 0; i < dim(); ++i) {
    const double side = std::min(hi_[i], other.hi_[i]) -
                        std::max(lo_[i], other.lo_[i]);
    if (side <= 0.0) return 0.0;
    volume *= side;
  }
  return volume;
}

double Rect::Enlargement(const Rect& other) const {
  return Union(*this, other).Volume() - Volume();
}

la::Vector Rect::Center() const {
  la::Vector center(dim());
  for (size_t i = 0; i < dim(); ++i) center[i] = 0.5 * (lo_[i] + hi_[i]);
  return center;
}

double Rect::MinSquaredDistance(const la::Vector& point) const {
  assert(point.dim() == dim());
  double sum = 0.0;
  for (size_t i = 0; i < dim(); ++i) {
    double diff = 0.0;
    if (point[i] < lo_[i]) {
      diff = lo_[i] - point[i];
    } else if (point[i] > hi_[i]) {
      diff = point[i] - hi_[i];
    }
    sum += diff * diff;
  }
  return sum;
}

Rect Union(const Rect& a, const Rect& b) {
  Rect out = a;
  out.ExpandToInclude(b);
  return out;
}

}  // namespace gprq::geom
