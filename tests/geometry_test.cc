#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "geometry/geometry.h"

namespace rmi::geom {
namespace {

TEST(PointTest, ArithmeticAndDistance) {
  Point a{1, 2}, b{4, 6};
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  Point c = a + b;
  EXPECT_DOUBLE_EQ(c.x, 5);
  Point d = (b - a) * 0.5;
  EXPECT_DOUBLE_EQ(d.y, 2);
}

TEST(CrossTest, Orientation) {
  EXPECT_GT(Cross({0, 0}, {1, 0}, {0, 1}), 0);  // left turn
  EXPECT_LT(Cross({0, 0}, {1, 0}, {0, -1}), 0); // right turn
  EXPECT_DOUBLE_EQ(Cross({0, 0}, {1, 1}, {2, 2}), 0);  // collinear
}

TEST(SegmentsIntersectTest, ProperCrossing) {
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {2, 2}}, {{0, 2}, {2, 0}}));
}

TEST(SegmentsIntersectTest, Disjoint) {
  EXPECT_FALSE(SegmentsIntersect({{0, 0}, {1, 0}}, {{0, 1}, {1, 1}}));
}

TEST(SegmentsIntersectTest, SharedEndpointCounts) {
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {1, 1}}, {{1, 1}, {2, 0}}));
}

TEST(SegmentsIntersectTest, CollinearOverlap) {
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {2, 0}}, {{1, 0}, {3, 0}}));
}

TEST(SegmentsIntersectTest, CollinearDisjoint) {
  EXPECT_FALSE(SegmentsIntersect({{0, 0}, {1, 0}}, {{2, 0}, {3, 0}}));
}

TEST(SegmentsIntersectTest, TTouch) {
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {2, 0}}, {{1, 0}, {1, 5}}));
}

TEST(PolygonTest, RectangleAreaIsCounterClockwise) {
  Polygon p = Polygon::Rectangle(0, 0, 4, 2);
  EXPECT_DOUBLE_EQ(p.Area(), 8.0);
  EXPECT_DOUBLE_EQ(p.SignedArea(), 8.0);  // CCW construction
}

TEST(PolygonTest, ContainsInteriorExteriorBoundary) {
  Polygon p = Polygon::Rectangle(0, 0, 2, 2);
  EXPECT_TRUE(p.Contains({1, 1}));
  EXPECT_FALSE(p.Contains({3, 1}));
  EXPECT_FALSE(p.Contains({-0.1, 1}));
  EXPECT_TRUE(p.Contains({0, 1}));   // boundary counts as inside
  EXPECT_TRUE(p.Contains({2, 2}));   // corner
}

TEST(PolygonTest, ContainsNonConvex) {
  // L-shape.
  Polygon p({{0, 0}, {3, 0}, {3, 1}, {1, 1}, {1, 3}, {0, 3}});
  EXPECT_TRUE(p.Contains({0.5, 2.5}));
  EXPECT_TRUE(p.Contains({2.5, 0.5}));
  EXPECT_FALSE(p.Contains({2.5, 2.5}));
}

TEST(ConvexHullTest, SquareWithInteriorPoints) {
  std::vector<Point> pts = {{0, 0}, {2, 0}, {2, 2}, {0, 2}, {1, 1}, {0.5, 0.5}};
  Polygon hull = ConvexHull(pts);
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_DOUBLE_EQ(hull.Area(), 4.0);
}

TEST(ConvexHullTest, CollinearInput) {
  Polygon hull = ConvexHull({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  EXPECT_LE(hull.size(), 2u);
}

TEST(ConvexHullTest, DegenerateSinglePoint) {
  Polygon hull = ConvexHull({{5, 5}, {5, 5}});
  EXPECT_EQ(hull.size(), 1u);
}

TEST(ConvexHullTest, HullContainsAllInputs) {
  Rng rng(3);
  std::vector<Point> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  Polygon hull = ConvexHull(pts);
  for (const Point& p : pts) EXPECT_TRUE(hull.Contains(p));
}

TEST(ConvexHullTest, HullIsCounterClockwise) {
  Rng rng(4);
  std::vector<Point> pts;
  for (int i = 0; i < 30; ++i) pts.push_back({rng.Uniform(), rng.Uniform()});
  Polygon hull = ConvexHull(pts);
  EXPECT_GT(hull.SignedArea(), 0.0);
}

TEST(MultiPolygonTest, CountEdgeCrossings) {
  MultiPolygon mp({Polygon::Rectangle(1, 0, 2, 10)});  // vertical slab
  // Segment passing through the slab crosses 2 edges.
  EXPECT_EQ(mp.CountEdgeCrossings({{0, 5}, {3, 5}}), 2);
  // Segment ending inside crosses 1.
  EXPECT_EQ(mp.CountEdgeCrossings({{0, 5}, {1.5, 5}}), 1);
  // Disjoint segment crosses 0.
  EXPECT_EQ(mp.CountEdgeCrossings({{0, 20}, {3, 20}}), 0);
}

TEST(PolygonsIntersectTest, OverlappingRectangles) {
  EXPECT_TRUE(PolygonsIntersect(Polygon::Rectangle(0, 0, 2, 2),
                                Polygon::Rectangle(1, 1, 3, 3)));
}

TEST(PolygonsIntersectTest, DisjointRectangles) {
  EXPECT_FALSE(PolygonsIntersect(Polygon::Rectangle(0, 0, 1, 1),
                                 Polygon::Rectangle(2, 2, 3, 3)));
}

TEST(PolygonsIntersectTest, ContainmentEitherWay) {
  Polygon outer = Polygon::Rectangle(0, 0, 10, 10);
  Polygon inner = Polygon::Rectangle(4, 4, 5, 5);
  EXPECT_TRUE(PolygonsIntersect(outer, inner));
  EXPECT_TRUE(PolygonsIntersect(inner, outer));
}

TEST(PolygonsIntersectTest, TouchingEdges) {
  EXPECT_TRUE(PolygonsIntersect(Polygon::Rectangle(0, 0, 1, 1),
                                Polygon::Rectangle(1, 0, 2, 1)));
}

TEST(IntersectsAnyTest, EntityExistSemantics) {
  // A hull spanning across a wall intersects it; a hull inside an open
  // area does not (Algorithm 4's intended predicate).
  MultiPolygon walls({Polygon::Rectangle(4.9, 0, 5.1, 10)});  // thin wall
  Polygon crossing = ConvexHull({{4, 1}, {6, 1}, {4, 2}, {6, 2}});
  EXPECT_TRUE(IntersectsAny(crossing, walls));
  Polygon inside = ConvexHull({{1, 1}, {3, 1}, {1, 3}, {3, 3}});
  EXPECT_FALSE(IntersectsAny(inside, walls));
}

// Property sweep: random segment pairs agree with a brute-force parametric
// intersection oracle (for non-collinear proper cases).
class SegmentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SegmentPropertyTest, MatchesParametricOracle) {
  Rng rng(500 + GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    Segment s1{{rng.Uniform(0, 10), rng.Uniform(0, 10)},
               {rng.Uniform(0, 10), rng.Uniform(0, 10)}};
    Segment s2{{rng.Uniform(0, 10), rng.Uniform(0, 10)},
               {rng.Uniform(0, 10), rng.Uniform(0, 10)}};
    const double d1x = s1.b.x - s1.a.x, d1y = s1.b.y - s1.a.y;
    const double d2x = s2.b.x - s2.a.x, d2y = s2.b.y - s2.a.y;
    const double denom = d1x * d2y - d1y * d2x;
    if (std::fabs(denom) < 1e-9) continue;  // near-parallel: skip oracle
    const double t = ((s2.a.x - s1.a.x) * d2y - (s2.a.y - s1.a.y) * d2x) / denom;
    const double u = ((s2.a.x - s1.a.x) * d1y - (s2.a.y - s1.a.y) * d1x) / denom;
    const bool oracle = t >= 0 && t <= 1 && u >= 0 && u <= 1;
    // Skip borderline cases where the oracle itself is ill-conditioned.
    if (std::min({std::fabs(t), std::fabs(1 - t), std::fabs(u), std::fabs(1 - u)}) < 1e-6) continue;
    EXPECT_EQ(SegmentsIntersect(s1, s2), oracle)
        << "t=" << t << " u=" << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentPropertyTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace rmi::geom
