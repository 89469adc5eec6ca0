#include "geometry/geometry.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rmi::geom {

double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

double Cross(const Point& a, const Point& b, const Point& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

namespace {

int Sign(double v) {
  constexpr double kEps = 1e-12;
  if (v > kEps) return 1;
  if (v < -kEps) return -1;
  return 0;
}

bool OnSegment(const Point& p, const Segment& s) {
  if (Sign(Cross(s.a, s.b, p)) != 0) return false;
  return p.x >= std::min(s.a.x, s.b.x) - 1e-12 &&
         p.x <= std::max(s.a.x, s.b.x) + 1e-12 &&
         p.y >= std::min(s.a.y, s.b.y) - 1e-12 &&
         p.y <= std::max(s.a.y, s.b.y) + 1e-12;
}

}  // namespace

bool SegmentsIntersect(const Segment& s1, const Segment& s2) {
  const int d1 = Sign(Cross(s2.a, s2.b, s1.a));
  const int d2 = Sign(Cross(s2.a, s2.b, s1.b));
  const int d3 = Sign(Cross(s1.a, s1.b, s2.a));
  const int d4 = Sign(Cross(s1.a, s1.b, s2.b));
  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
      ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) {
    return true;
  }
  if (d1 == 0 && OnSegment(s1.a, s2)) return true;
  if (d2 == 0 && OnSegment(s1.b, s2)) return true;
  if (d3 == 0 && OnSegment(s2.a, s1)) return true;
  if (d4 == 0 && OnSegment(s2.b, s1)) return true;
  return false;
}

Polygon::Polygon(std::vector<Point> vertices) : vertices_(std::move(vertices)) {
  RMI_CHECK_GE(vertices_.size(), 1u);
}

double Polygon::SignedArea() const {
  double s = 0.0;
  const size_t n = vertices_.size();
  for (size_t i = 0; i < n; ++i) {
    const Point& p = vertices_[i];
    const Point& q = vertices_[(i + 1) % n];
    s += p.x * q.y - q.x * p.y;
  }
  return s / 2.0;
}

bool Polygon::Contains(const Point& p) const {
  const size_t n = vertices_.size();
  if (n < 3) {
    for (size_t i = 0; i + 1 < n; ++i) {
      if (OnSegment(p, Segment{vertices_[i], vertices_[i + 1]})) return true;
    }
    return n == 1 ? (vertices_[0] == p) : false;
  }
  // Boundary counts as inside.
  for (size_t i = 0; i < n; ++i) {
    if (OnSegment(p, Edge(i))) return true;
  }
  bool inside = false;
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_at =
          a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
      if (p.x < x_at) inside = !inside;
    }
  }
  return inside;
}

Segment Polygon::Edge(size_t i) const {
  RMI_CHECK_LT(i, vertices_.size());
  return Segment{vertices_[i], vertices_[(i + 1) % vertices_.size()]};
}

Polygon Polygon::Rectangle(double x0, double y0, double x1, double y1) {
  RMI_CHECK_LT(x0, x1);
  RMI_CHECK_LT(y0, y1);
  return Polygon({{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
}

int MultiPolygon::CountEdgeCrossings(const Segment& s) const {
  int count = 0;
  for (const Polygon& poly : polygons_) {
    const size_t n = poly.size();
    if (n < 2) continue;
    for (size_t i = 0; i < n; ++i) {
      if (SegmentsIntersect(s, poly.Edge(i))) ++count;
    }
  }
  return count;
}

Polygon ConvexHull(std::vector<Point> points) {
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const size_t n = points.size();
  if (n <= 2) return Polygon(points.empty() ? std::vector<Point>{Point{}} : points);
  std::vector<Point> hull(2 * n);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    while (k >= 2 && Cross(hull[k - 2], hull[k - 1], points[i]) <= 0) --k;
    hull[k++] = points[i];
  }
  const size_t lower = k + 1;
  for (size_t i = n - 1; i-- > 0;) {
    while (k >= lower && Cross(hull[k - 2], hull[k - 1], points[i]) <= 0) --k;
    hull[k++] = points[i];
  }
  hull.resize(k - 1);
  return Polygon(std::move(hull));
}

bool PolygonsIntersect(const Polygon& a, const Polygon& b) {
  if (a.empty() || b.empty()) return false;
  // Any edge pair crossing?
  if (a.size() >= 2 && b.size() >= 2) {
    for (size_t i = 0; i < a.size(); ++i) {
      for (size_t j = 0; j < b.size(); ++j) {
        if (SegmentsIntersect(a.Edge(i), b.Edge(j))) return true;
      }
    }
  }
  // Full containment either way (or degenerate point-in-polygon).
  if (b.Contains(a.vertices()[0])) return true;
  if (a.Contains(b.vertices()[0])) return true;
  return false;
}

bool IntersectsAny(const Polygon& hull, const MultiPolygon& entities) {
  for (const Polygon& poly : entities.polygons()) {
    if (PolygonsIntersect(hull, poly)) return true;
  }
  return false;
}

}  // namespace rmi::geom
