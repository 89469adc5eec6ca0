// Kernel-layer tests: every Gemm transpose variant, beta accumulation, and
// the fused elementwise kernels, all validated against naive reference
// implementations on random matrices.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "la/kernels.h"
#include "la/matrix.h"

namespace rmi::la {
namespace {

/// Reference triple-loop product of (possibly transposed) operands.
Matrix NaiveGemm(double alpha, const Matrix& a, bool ta, const Matrix& b,
                 bool tb, double beta, const Matrix& c0) {
  const size_t m = ta ? a.cols() : a.rows();
  const size_t k = ta ? a.rows() : a.cols();
  const size_t n = tb ? b.rows() : b.cols();
  Matrix r(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (size_t kk = 0; kk < k; ++kk) {
        const double av = ta ? a(kk, i) : a(i, kk);
        const double bv = tb ? b(j, kk) : b(kk, j);
        s += av * bv;
      }
      r(i, j) = alpha * s + (beta == 0.0 ? 0.0 : beta * c0(i, j));
    }
  }
  return r;
}

TEST(GemmTest, AllTransposeVariantsMatchNaive) {
  Rng rng(101);
  const size_t m = 7, k = 11, n = 5;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      Matrix a = ta ? Matrix::Random(k, m, rng) : Matrix::Random(m, k, rng);
      Matrix b = tb ? Matrix::Random(n, k, rng) : Matrix::Random(k, n, rng);
      Matrix c;
      Gemm(1.0, a, ta, b, tb, 0.0, &c);
      Matrix want = NaiveGemm(1.0, a, ta, b, tb, 0.0, Matrix(m, n));
      EXPECT_LT(Matrix::MaxAbsDiff(c, want), 1e-12)
          << "ta=" << ta << " tb=" << tb;
    }
  }
}

TEST(GemmTest, BetaAccumulatesIntoExistingOutput) {
  Rng rng(102);
  const size_t m = 6, k = 9, n = 4;
  Matrix a = Matrix::Random(m, k, rng);
  Matrix b = Matrix::Random(k, n, rng);
  for (double beta : {1.0, 0.5, -2.0}) {
    Matrix c0 = Matrix::Random(m, n, rng);
    Matrix c = c0;
    Gemm(0.75, a, false, b, false, beta, &c);
    Matrix want = NaiveGemm(0.75, a, false, b, false, beta, c0);
    EXPECT_LT(Matrix::MaxAbsDiff(c, want), 1e-12) << "beta=" << beta;
  }
}

TEST(GemmTest, BetaOneWithTransposesMatchesNaive) {
  Rng rng(103);
  const size_t m = 5, k = 8, n = 6;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      Matrix a = ta ? Matrix::Random(k, m, rng) : Matrix::Random(m, k, rng);
      Matrix b = tb ? Matrix::Random(n, k, rng) : Matrix::Random(k, n, rng);
      Matrix c0 = Matrix::Random(m, n, rng);
      Matrix c = c0;
      Gemm(1.0, a, ta, b, tb, 1.0, &c);
      Matrix want = NaiveGemm(1.0, a, ta, b, tb, 1.0, c0);
      EXPECT_LT(Matrix::MaxAbsDiff(c, want), 1e-12)
          << "ta=" << ta << " tb=" << tb;
    }
  }
}

TEST(GemmTest, LargeOperandsBitMatchStreamingOrder) {
  // The SIMD kernel strip-mines j into register lanes and tiles B panels;
  // per-entry accumulation still runs k ascending, so the result must
  // equal the plain streaming loop bit-for-bit.
  Rng rng(104);
  const size_t n = 160;  // several B panel tiles, many full lane strips
  Matrix a = Matrix::Random(n, n, rng);
  Matrix b = Matrix::Random(n, n, rng);
  Matrix c;
  Gemm(1.0, a, false, b, false, 0.0, &c);
  Matrix want(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < n; ++k) {
      const double aik = a(i, k);
      for (size_t j = 0; j < n; ++j) want(i, j) += aik * b(k, j);
    }
  }
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(c, want), 0.0);
}

/// The bit pattern of a double: tells -0.0 from 0.0 and matches a NaN with
/// itself, so EXPECT_EQ on it is an exact check.
uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(GemmTest, SimdNNAndTNKernelsBitMatchScalarOrderEverywhere) {
  // The deterministic target_clones kernels (la/gemm_repro.cc) promise the
  // exact rounding sequence of the scalar reference loops: for NN and TN the
  // alpha pre-multiply, the beta accumulate and the alpha*A(i,k) == 0
  // sparsity skip; for NT a dot product from 0 over k ascending, with no
  // skip, then one C += alpha*dot. The widths reach every strip group of
  // one to four 8-lane strips, the scalar column tail and the 8-wide NT
  // blocks; k = 1 makes the zero skip decide an entry on its own.
  Rng rng(117);
  const double alpha = 1.75;
  for (size_t m : {1, 5}) {
    for (size_t k : {1, 24, 96}) {
      for (size_t n : {1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 96, 184}) {
        Matrix a = Matrix::Random(m, k, rng);
        Matrix b = Matrix::Random(k, n, rng);
        Matrix bt = b.Transpose();  // NT's operand: n x k
        Matrix c0 = Matrix::Random(m, n, rng);
        // Exact zeros of both signs in A. With m = 5, row 2 of A is all
        // zeros, so NN/TN must leave C's row 2 as it was, -0.0 included.
        for (size_t i = 0; i < a.size(); ++i) {
          if (i % 3 == 0) a.data()[i] = (i % 2 == 0) ? 0.0 : -0.0;
          if (m > 2 && i / k == 2) a.data()[i] = (i % 2 == 0) ? -0.0 : 0.0;
        }
        for (size_t i = 0; i < c0.size(); i += 4) c0.data()[i] = -0.0;
        Matrix at = a.Transpose();  // TN's operand: k x m
        for (double beta : {0.0, 1.0}) {
          const Matrix start = beta == 0.0 ? Matrix(m, n) : c0;
          // NN and TN share one reference: k ascending per entry, with the
          // zero skip.
          Matrix want = start;
          for (size_t kk = 0; kk < k; ++kk) {
            for (size_t i = 0; i < m; ++i) {
              const double aik = alpha * a(i, kk);
              if (aik == 0.0) continue;
              for (size_t j = 0; j < n; ++j) want(i, j) += aik * b(kk, j);
            }
          }
          Matrix want_nt = start;
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              double dot = 0.0;
              for (size_t kk = 0; kk < k; ++kk) dot += a(i, kk) * bt(j, kk);
              want_nt(i, j) += alpha * dot;
            }
          }

          Matrix c_nn = c0, c_tn = c0, c_nt = c0;
          Gemm(alpha, a, false, b, false, beta, &c_nn);
          Gemm(alpha, at, true, b, false, beta, &c_tn);
          Gemm(alpha, a, false, bt, true, beta, &c_nt);
          // Streamed only when an expectation fails.
          auto where = [&](size_t i) {
            return std::to_string(m) + "x" + std::to_string(k) + "x" +
                   std::to_string(n) + " beta " + std::to_string(beta) +
                   " entry " + std::to_string(i);
          };
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(Bits(c_nn.data()[i]), Bits(want.data()[i]))
                << "NN " << where(i);
            EXPECT_EQ(Bits(c_tn.data()[i]), Bits(want.data()[i]))
                << "TN " << where(i);
            EXPECT_EQ(Bits(c_nt.data()[i]), Bits(want_nt.data()[i]))
                << "NT " << where(i);
          }
        }
      }
    }
  }
}

TEST(GemmTest, MatMulRoutesThroughGemm) {
  Rng rng(105);
  Matrix a = Matrix::Random(4, 6, rng);
  Matrix b = Matrix::Random(6, 3, rng);
  Matrix c;
  Gemm(1.0, a, false, b, false, 0.0, &c);
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(a.MatMul(b), c), 0.0);
}

TEST(KernelsTest, AxpyAndScaleInPlace) {
  Rng rng(106);
  Matrix x = Matrix::Random(3, 5, rng);
  Matrix y0 = Matrix::Random(3, 5, rng);
  Matrix y = y0;
  Axpy(2.5, x, &y);
  Matrix want = y0 + x * 2.5;
  EXPECT_LT(Matrix::MaxAbsDiff(y, want), 1e-15);

  Matrix z = x;
  ScaleInPlace(-0.5, &z);
  EXPECT_LT(Matrix::MaxAbsDiff(z, x * -0.5), 1e-15);
}

TEST(KernelsTest, AddRowBroadcastVariants) {
  Rng rng(107);
  Matrix a = Matrix::Random(4, 6, rng);
  Matrix row = Matrix::Random(1, 6, rng);
  Matrix want = a.AddRowBroadcast(row);

  Matrix out;
  AddRowBroadcastInto(a, row, &out);
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(out, want), 0.0);

  Matrix in_place = a;
  AddRowBroadcastInPlace(&in_place, row);
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(in_place, want), 0.0);
}

TEST(KernelsTest, AccumulateColSums) {
  Rng rng(108);
  Matrix a = Matrix::Random(5, 4, rng);
  Matrix row0 = Matrix::Random(1, 4, rng);
  Matrix row = row0;
  AccumulateColSums(a, &row);
  for (size_t j = 0; j < 4; ++j) {
    double want = row0(0, j);
    for (size_t i = 0; i < 5; ++i) want += a(i, j);
    EXPECT_NEAR(row(0, j), want, 1e-12);
  }
}

TEST(KernelsTest, MaskCombineMatchesUnfusedExpression) {
  Rng rng(109);
  Matrix m(1, 8);
  for (size_t j = 0; j < 8; ++j) m(0, j) = (j % 3 == 0) ? 1.0 : 0.0;
  Matrix obs = Matrix::Random(1, 8, rng);
  Matrix pred = Matrix::Random(1, 8, rng);
  Matrix out;
  MaskCombineInto(m, obs, pred, &out);
  Matrix inv_m = m.Map([](double v) { return 1.0 - v; });
  Matrix want = m.CwiseProduct(obs) + inv_m.CwiseProduct(pred);
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(out, want), 0.0);
}

TEST(KernelsTest, ConcatAndSlice) {
  Rng rng(110);
  Matrix a = Matrix::Random(3, 4, rng);
  Matrix b = Matrix::Random(3, 2, rng);
  Matrix cat;
  ConcatColsInto(a, b, &cat);
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(cat, a.ConcatCols(b)), 0.0);

  Matrix slice;
  SliceColsInto(cat, 1, 5, &slice);
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(slice, cat.SliceCols(1, 5)), 0.0);
}

TEST(KernelsTest, RowSquaredDistanceMatchesMatrixHelper) {
  Rng rng(111);
  Matrix x = Matrix::Random(6, 9, rng);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      const double want = Matrix::SquaredDistance(x.Row(i), x.Row(j));
      EXPECT_NEAR(RowSquaredDistance(x, i, x, j), want, 1e-12);
    }
  }
}

TEST(KernelsTest, CwiseTemplatesMatchMap) {
  Rng rng(112);
  Matrix x = Matrix::Random(2, 7, rng);
  Matrix y = Matrix::Random(2, 7, rng);

  Matrix out;
  CwiseUnaryInto(x, &out, [](double v) { return std::tanh(v); });
  EXPECT_DOUBLE_EQ(
      Matrix::MaxAbsDiff(out, x.Map([](double v) { return std::tanh(v); })),
      0.0);

  CwiseBinaryInto(x, y, &out, [](double a, double b) { return a * b; });
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(out, x.CwiseProduct(y)), 0.0);

  Matrix acc0 = Matrix::Random(2, 7, rng);
  Matrix acc = acc0;
  CwiseBinaryAccumulate(x, y, &acc, [](double a, double b) { return a * b; });
  EXPECT_LT(Matrix::MaxAbsDiff(acc, acc0 + x.CwiseProduct(y)), 1e-15);

  Matrix ip = x;
  CwiseUnaryInPlace(&ip, [](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(ip, x.CwiseProduct(x)), 0.0);
}

TEST(KernelsTest, ResizeToReusesCapacity) {
  Matrix m(8, 8, 3.0);
  const double* before = m.data().data();
  ResizeTo(&m, 4, 16);  // same element count — must not reallocate
  EXPECT_EQ(m.data().data(), before);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 16u);
  ResizeTo(&m, 2, 8);  // shrink — capacity retained by std::vector
  EXPECT_EQ(m.data().data(), before);
}

}  // namespace
}  // namespace rmi::la
