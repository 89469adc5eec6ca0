#include <gtest/gtest.h>

#include <cmath>

#include "la/matrix.h"

namespace rmi::la {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 0), -2.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6);
}

TEST(MatrixTest, IdentityAndOnes) {
  Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(Matrix::Ones(2, 2).Sum(), 4.0);
}

TEST(MatrixTest, ArithmeticOps) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  EXPECT_DOUBLE_EQ((a + b)(0, 0), 6);
  EXPECT_DOUBLE_EQ(a.CwiseProduct(b)(1, 0), 21);
  EXPECT_DOUBLE_EQ((a * 2.0)(1, 1), 8);
  EXPECT_DOUBLE_EQ((2.0 * a)(1, 1), 8);
  EXPECT_DOUBLE_EQ((-a)(0, 0), -1);
}

TEST(MatrixTest, CompoundAssignment) {
  Matrix a{{2, 2}};
  a *= 3.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 6);
  EXPECT_DOUBLE_EQ(a(0, 1), 6);
}

TEST(MatrixTest, MatMulCorrectness) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{7, 8}, {9, 10}, {11, 12}};
  Matrix c = a.MatMul(b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(MatrixTest, MatMulIdentityIsNoop) {
  Rng rng(1);
  Matrix a = Matrix::Random(4, 4, rng);
  EXPECT_NEAR(Matrix::MaxAbsDiff(a.MatMul(Matrix::Identity(4)), a), 0.0, 1e-15);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(2);
  Matrix a = Matrix::Random(3, 5, rng);
  EXPECT_NEAR(Matrix::MaxAbsDiff(a.Transpose().Transpose(), a), 0.0, 1e-15);
  EXPECT_DOUBLE_EQ(a.Transpose()(4, 2), a(2, 4));
}

TEST(MatrixTest, MatMulTransposeProperty) {
  // (AB)^T == B^T A^T
  Rng rng(3);
  Matrix a = Matrix::Random(3, 4, rng);
  Matrix b = Matrix::Random(4, 2, rng);
  Matrix lhs = a.MatMul(b).Transpose();
  Matrix rhs = b.Transpose().MatMul(a.Transpose());
  EXPECT_NEAR(Matrix::MaxAbsDiff(lhs, rhs), 0.0, 1e-12);
}

TEST(MatrixTest, MapApplies) {
  Matrix a{{1, 4}, {9, 16}};
  Matrix r = a.Map([](double v) { return std::sqrt(v); });
  EXPECT_DOUBLE_EQ(r(1, 0), 3);
}

TEST(MatrixTest, AddRowBroadcast) {
  Matrix x{{1, 2}, {3, 4}};
  Matrix b{{10, 20}};
  Matrix y = x.AddRowBroadcast(b);
  EXPECT_DOUBLE_EQ(y(0, 1), 22);
  EXPECT_DOUBLE_EQ(y(1, 0), 13);
}

TEST(MatrixTest, RowColSetRow) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_DOUBLE_EQ(a.Row(1)(0, 2), 6);
  EXPECT_DOUBLE_EQ(a.Col(2)(0, 0), 3);
  a.SetRow(0, Matrix{{7, 8, 9}});
  EXPECT_DOUBLE_EQ(a(0, 1), 8);
}

TEST(MatrixTest, ConcatAndSlice) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5}, {6}};
  Matrix cc = a.ConcatCols(b);
  EXPECT_EQ(cc.cols(), 3u);
  EXPECT_DOUBLE_EQ(cc(1, 2), 6);
  EXPECT_DOUBLE_EQ(cc.SliceCols(1, 3)(0, 1), 5);
  EXPECT_DOUBLE_EQ(a.SliceRows(1, 2)(0, 1), 4);
}

TEST(MatrixTest, Reductions) {
  Matrix a{{-3, 4}};
  EXPECT_DOUBLE_EQ(a.Sum(), 1);
  EXPECT_DOUBLE_EQ(a.Mean(), 0.5);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4);
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5);
}

TEST(MatrixTest, SquaredDistance) {
  Matrix a{{0, 0}};
  Matrix b{{3, 4}};
  EXPECT_DOUBLE_EQ(Matrix::SquaredDistance(a, b), 25);
}

TEST(MatrixTest, AllFinite) {
  Matrix a{{1, 2}};
  EXPECT_TRUE(a.AllFinite());
  a(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(a.AllFinite());
}

TEST(CholeskyTest, SolvesSpdSystem) {
  Matrix a{{4, 2}, {2, 3}};
  Matrix b{{1}, {2}};
  Matrix x = CholeskySolve(a, b);
  Matrix r = a.MatMul(x);
  EXPECT_NEAR(Matrix::MaxAbsDiff(r, b), 0.0, 1e-12);
}

TEST(CholeskyTest, RidgeRegularizes) {
  // Singular A becomes solvable with ridge.
  Matrix a{{1, 1}, {1, 1}};
  Matrix b{{2}, {2}};
  Matrix x = CholeskySolve(a, b, 0.5);
  EXPECT_TRUE(x.AllFinite());
}

TEST(CholeskyTest, MultiRhs) {
  Rng rng(5);
  Matrix m = Matrix::Random(4, 4, rng);
  Matrix a = m.Transpose().MatMul(m) + Matrix::Identity(4) * 0.1;
  Matrix b = Matrix::Random(4, 3, rng);
  Matrix x = CholeskySolve(a, b);
  EXPECT_NEAR(Matrix::MaxAbsDiff(a.MatMul(x), b), 0.0, 1e-10);
}

TEST(RidgeRegressionTest, RecoversLinearModel) {
  Rng rng(6);
  Matrix a = Matrix::Random(50, 3, rng);
  Matrix w_true{{2.0}, {-1.0}, {0.5}};
  Matrix b = a.MatMul(w_true);
  Matrix w = RidgeRegression(a, b, 1e-8);
  EXPECT_NEAR(Matrix::MaxAbsDiff(w, w_true), 0.0, 1e-6);
}

TEST(RidgeRegressionTest, ShrinksWithLargeLambda) {
  Rng rng(7);
  Matrix a = Matrix::Random(30, 2, rng);
  Matrix b = Matrix::Random(30, 1, rng);
  Matrix w_small = RidgeRegression(a, b, 1e-6);
  Matrix w_large = RidgeRegression(a, b, 1e6);
  EXPECT_LT(w_large.FrobeniusNorm(), w_small.FrobeniusNorm());
  EXPECT_LT(w_large.FrobeniusNorm(), 1e-3);
}

// Property sweep: MatMul associativity across shapes.
class MatMulShapeTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, Associativity) {
  auto [n, k, m] = GetParam();
  Rng rng(100 + n * 7 + k * 3 + m);
  Matrix a = Matrix::Random(n, k, rng);
  Matrix b = Matrix::Random(k, m, rng);
  Matrix c = Matrix::Random(m, 2, rng);
  Matrix lhs = a.MatMul(b).MatMul(c);
  Matrix rhs = a.MatMul(b.MatMul(c));
  EXPECT_NEAR(Matrix::MaxAbsDiff(lhs, rhs), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 5), std::make_tuple(1, 8, 2),
                      std::make_tuple(7, 7, 7), std::make_tuple(3, 10, 1)));

// Property sweep: Cholesky solves random SPD systems of several sizes.
class CholeskySizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskySizeTest, SolvesRandomSpd) {
  const int n = GetParam();
  Rng rng(200 + n);
  Matrix m = Matrix::Random(n, n, rng);
  Matrix a = m.Transpose().MatMul(m) + Matrix::Identity(n) * 0.5;
  Matrix b = Matrix::Random(n, 1, rng);
  Matrix x = CholeskySolve(a, b);
  EXPECT_NEAR(Matrix::MaxAbsDiff(a.MatMul(x), b), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace rmi::la
