// 2D computational-geometry substrate.
//
// Used by: the venue model (rooms/walls as polygons), the radio propagation
// simulator (wall-crossing counts along a signal path), and the TopoAC
// differentiator (convex hulls vs. topological entities, Algorithm 4).
#ifndef RMI_GEOMETRY_GEOMETRY_H_
#define RMI_GEOMETRY_GEOMETRY_H_

#include <cstddef>
#include <vector>

namespace rmi::geom {

/// A point (or location / reference point) in the floor plane, meters.
struct Point {
  double x = 0.0;
  double y = 0.0;

  Point() = default;
  Point(double px, double py) : x(px), y(py) {}

  Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  Point operator*(double s) const { return {x * s, y * s}; }
  bool operator==(const Point& o) const { return x == o.x && y == o.y; }
};

/// Euclidean distance between two points.
double Distance(const Point& a, const Point& b);

/// Squared Euclidean distance.
double SquaredDistance(const Point& a, const Point& b);

/// Cross product of (b-a) x (c-a); >0 means c is left of a->b.
double Cross(const Point& a, const Point& b, const Point& c);

/// Line segment.
struct Segment {
  Point a;
  Point b;
};

/// True iff segments properly or improperly intersect (shared endpoints and
/// collinear overlaps count as intersections).
bool SegmentsIntersect(const Segment& s1, const Segment& s2);

/// Simple polygon given by its vertex ring (no closing duplicate vertex).
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> vertices);

  const std::vector<Point>& vertices() const { return vertices_; }
  size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.empty(); }

  /// Signed area (positive for counter-clockwise rings). Test oracle: the
  /// ConvexHull tests check the hull's area and winding through it; no
  /// product path calls it.
  double SignedArea() const;
  double Area() const { return SignedArea() < 0 ? -SignedArea() : SignedArea(); }

  /// Even–odd (ray casting) point containment; boundary counts as inside.
  bool Contains(const Point& p) const;

  /// Edge i as a segment (wraps around).
  Segment Edge(size_t i) const;

  /// Axis-aligned rectangle helper.
  static Polygon Rectangle(double x0, double y0, double x1, double y1);

 private:
  std::vector<Point> vertices_;
};

/// A set of disjoint polygons (the paper's "multipolygon" of topological
/// entities: walls, pillars, room partitions).
class MultiPolygon {
 public:
  MultiPolygon() = default;
  explicit MultiPolygon(std::vector<Polygon> polygons)
      : polygons_(std::move(polygons)) {}

  void Add(Polygon p) { polygons_.push_back(std::move(p)); }
  const std::vector<Polygon>& polygons() const { return polygons_; }
  size_t size() const { return polygons_.size(); }
  bool empty() const { return polygons_.empty(); }

  /// Number of member-polygon edges crossed by segment s (each polygon
  /// contributes the count of its intersected edges). Proxy for the number
  /// of walls a radio signal penetrates.
  int CountEdgeCrossings(const Segment& s) const;

 private:
  std::vector<Polygon> polygons_;
};

/// Convex hull (Andrew monotone chain), counter-clockwise, no duplicate
/// closing vertex. Degenerate inputs (<3 distinct points) return the distinct
/// points themselves.
Polygon ConvexHull(std::vector<Point> points);

/// True iff polygons a and b intersect (share any point: edge crossings,
/// containment either way).
bool PolygonsIntersect(const Polygon& a, const Polygon& b);

/// True iff hull intersects any polygon of entities — the EntityExist
/// predicate of Algorithm 4 (paper writes `CH \ T != {}`; the intended test,
/// per the surrounding text, is `CH ∩ T != {}`).
bool IntersectsAny(const Polygon& hull, const MultiPolygon& entities);

}  // namespace rmi::geom

#endif  // RMI_GEOMETRY_GEOMETRY_H_
