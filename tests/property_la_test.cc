// Property-based sweeps over the linear-algebra substrate: algebraic
// identities checked on randomized inputs across shapes.
#include <gtest/gtest.h>

#include <cmath>

#include "la/matrix.h"

namespace rmi::la {
namespace {

class RandomShapeTest : public ::testing::TestWithParam<int> {
 protected:
  Rng rng_{static_cast<uint64_t>(1000 + GetParam())};

  Matrix Rand(size_t r, size_t c) { return Matrix::Random(r, c, rng_); }
  std::pair<size_t, size_t> Shape() {
    return {1 + rng_.Index(6), 1 + rng_.Index(6)};
  }
};

TEST_P(RandomShapeTest, AdditionCommutesAndAssociates) {
  auto [r, c] = Shape();
  Matrix a = Rand(r, c), b = Rand(r, c), d = Rand(r, c);
  EXPECT_NEAR(Matrix::MaxAbsDiff(a + b, b + a), 0.0, 1e-14);
  EXPECT_NEAR(Matrix::MaxAbsDiff((a + b) + d, a + (b + d)), 0.0, 1e-13);
}

TEST_P(RandomShapeTest, MatMulDistributesOverAddition) {
  const size_t n = 1 + rng_.Index(5);
  const size_t k = 1 + rng_.Index(5);
  const size_t m = 1 + rng_.Index(5);
  Matrix a = Rand(n, k);
  Matrix b = Rand(k, m), c = Rand(k, m);
  EXPECT_NEAR(Matrix::MaxAbsDiff(a.MatMul(b + c), a.MatMul(b) + a.MatMul(c)),
              0.0, 1e-12);
}

TEST_P(RandomShapeTest, ScalarFactorsOutOfMatMul) {
  const size_t n = 1 + rng_.Index(4), k = 1 + rng_.Index(4);
  Matrix a = Rand(n, k), b = Rand(k, 3);
  const double s = rng_.Uniform(-3, 3);
  EXPECT_NEAR(Matrix::MaxAbsDiff((a * s).MatMul(b), a.MatMul(b) * s), 0.0,
              1e-12);
}

TEST_P(RandomShapeTest, CwiseProductCommutes) {
  auto [r, c] = Shape();
  Matrix a = Rand(r, c), b = Rand(r, c);
  EXPECT_NEAR(Matrix::MaxAbsDiff(a.CwiseProduct(b), b.CwiseProduct(a)), 0.0,
              1e-14);
}

TEST_P(RandomShapeTest, ConcatThenSliceIsIdentity) {
  const size_t r = 1 + rng_.Index(4);
  Matrix a = Rand(r, 1 + rng_.Index(4));
  Matrix b = Rand(r, 1 + rng_.Index(4));
  Matrix cat = a.ConcatCols(b);
  EXPECT_NEAR(Matrix::MaxAbsDiff(cat.SliceCols(0, a.cols()), a), 0.0, 0.0);
  EXPECT_NEAR(Matrix::MaxAbsDiff(cat.SliceCols(a.cols(), cat.cols()), b), 0.0,
              0.0);
}

TEST_P(RandomShapeTest, AddRowBroadcastMatchesExplicitLoop) {
  auto [r, c] = Shape();
  Matrix x = Rand(r, c);
  Matrix bias = Rand(1, c);
  Matrix expected = x;
  for (size_t i = 0; i < r; ++i) {
    for (size_t j = 0; j < c; ++j) expected(i, j) += bias(0, j);
  }
  EXPECT_NEAR(Matrix::MaxAbsDiff(x.AddRowBroadcast(bias), expected), 0.0, 0.0);
}

TEST_P(RandomShapeTest, FrobeniusNormTriangleInequality) {
  auto [r, c] = Shape();
  Matrix a = Rand(r, c), b = Rand(r, c);
  EXPECT_LE((a + b).FrobeniusNorm(),
            a.FrobeniusNorm() + b.FrobeniusNorm() + 1e-12);
}

TEST_P(RandomShapeTest, SumLinearity) {
  auto [r, c] = Shape();
  Matrix a = Rand(r, c), b = Rand(r, c);
  EXPECT_NEAR((a + b).Sum(), a.Sum() + b.Sum(), 1e-12);
  EXPECT_NEAR((a * 2.5).Sum(), 2.5 * a.Sum(), 1e-12);
}

TEST_P(RandomShapeTest, RidgeSolutionSatisfiesNormalEquations) {
  const size_t n = 8 + rng_.Index(8);
  const size_t k = 1 + rng_.Index(4);
  Matrix a = Rand(n, k);
  Matrix b = Rand(n, 1);
  const double lambda = rng_.Uniform(0.01, 1.0);
  Matrix w = RidgeRegression(a, b, lambda);
  // (A^T A + lambda I) w == A^T b
  Matrix lhs = a.Transpose().MatMul(a).MatMul(w) + w * lambda;
  Matrix rhs = a.Transpose().MatMul(b);
  EXPECT_NEAR(Matrix::MaxAbsDiff(lhs, rhs), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShapeTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace rmi::la
