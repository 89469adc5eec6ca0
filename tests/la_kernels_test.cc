// Kernel-layer tests: the NN, TN and NT Gemm variants (TT is refused), beta
// accumulation, the packed NT kernel, the row-pointer TN kernel, the k-means
// squared-distance kernel, the Adam update, the slot-order gradient sum and
// the fused elementwise kernels, all validated against naive reference
// implementations on random matrices.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "la/gemm_repro.h"
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
      if (ta && tb) continue;  // refused (GemmDeathTest)
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
      if (ta && tb) continue;  // refused (GemmDeathTest)
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

TEST(GemmDeathTest, BothOperandsTransposedIsRefused) {
  // No caller transposes both operands, so Gemm has no TT kernel.
  Rng rng(105);
  const Matrix a = Matrix::Random(4, 3, rng);
  const Matrix b = Matrix::Random(5, 4, rng);
  Matrix c;
  EXPECT_DEATH(Gemm(1.0, a, true, b, true, 0.0, &c), "RMI_CHECK");
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
  // sparsity skip; for NT, and for NT on a packed B^T (GemmNTPacked), a dot
  // product from 0 over k ascending, with no skip, then one C += alpha*dot.
  // The widths reach every strip group of one to four 8-lane strips, the
  // scalar column tail and the 8-wide NT blocks; k = 1 makes the zero skip
  // decide an entry on its own.
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

          Matrix c_nn = c0, c_tn = c0, c_nt = c0, c_ntp = start;
          Gemm(alpha, a, false, b, false, beta, &c_nn);
          Gemm(alpha, at, true, b, false, beta, &c_tn);
          Gemm(alpha, a, false, bt, true, beta, &c_nt);
          GemmNTPacked(alpha, a, b, &c_ntp);  // b is bt's transpose
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
            EXPECT_EQ(Bits(c_ntp.data()[i]), Bits(want_nt.data()[i]))
                << "packed NT " << where(i);
          }
        }
      }
    }
  }
}

TEST(AdamUpdateTest, BitMatchesScalarLoopOverSteps) {
  // la::AdamUpdate (la/gemm_repro.cc, built with -fno-math-errno) runs the
  // update in 8-lane blocks; every parameter must keep the scalar loop's
  // expression order and rounding, step after step. The lengths reach the
  // tail alone, one block, a block plus tail, and the BiSIM parameter count
  // at Kaide 0.12 in one call. Gradients include +-0.0 and large values.
  Rng rng(119);
  const double lr = 1e-3, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  for (size_t n : {1, 7, 8, 9, 36667}) {
    std::vector<double> w(n), m(n, 0.0), v(n, 0.0), g(n);
    for (double& x : w) x = rng.Uniform(-1.0, 1.0);
    std::vector<double> w_ref = w, m_ref = m, v_ref = v;
    for (int step = 1; step <= 4; ++step) {
      for (size_t j = 0; j < n; ++j) {
        g[j] = j % 5 == 0 ? (j % 2 == 0 ? 0.0 : -0.0)
             : j % 7 == 0 ? rng.Uniform(-1e3, 1e3)
                          : rng.Uniform(-1.0, 1.0);
      }
      const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(step));
      const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(step));
      AdamUpdate(g.data(), m.data(), v.data(), w.data(), n, lr, beta1, beta2,
                 bc1, bc2, eps);
      for (size_t j = 0; j < n; ++j) {
        m_ref[j] = beta1 * m_ref[j] + (1.0 - beta1) * g[j];
        v_ref[j] = beta2 * v_ref[j] + (1.0 - beta2) * g[j] * g[j];
        const double mhat = m_ref[j] / bc1;
        const double vhat = v_ref[j] / bc2;
        w_ref[j] -= lr * mhat / (std::sqrt(vhat) + eps);
      }
      // Streamed only when an assertion fails.
      auto where = [&](size_t j) {
        return "n " + std::to_string(n) + " step " + std::to_string(step) +
               " entry " + std::to_string(j);
      };
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ(Bits(m[j]), Bits(m_ref[j])) << "m " << where(j);
        ASSERT_EQ(Bits(v[j]), Bits(v_ref[j])) << "v " << where(j);
        ASSERT_EQ(Bits(w[j]), Bits(w_ref[j])) << "w " << where(j);
      }
    }
  }
}

TEST(AddSlotsTest, BitMatchesSlotOrderLoop) {
  // la::AddSlots adds the slots into y in slot order (y, then slot 0, then
  // slot 1, ...), eight lanes at a time; its bits must match the plain
  // loop. The cases cover every slot count an Adam batch of 8 can leave,
  // lengths that reach the tail alone, one block, blocks plus a tail, and
  // the BiSIM parameter count at Kaide 0.12. Values near 1 mix with values
  // near 1e8, so another association would round differently, and +-0.0
  // entries in y and the slots check that each sum starts from y
  // (-0.0 + -0.0 is -0.0, but 0.0 + -0.0 is 0.0).
  Rng rng(131);
  auto value = [&](size_t j) -> double {
    switch (j % 6) {
      case 0: return -0.0;
      case 1: return rng.Uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
      case 2: return rng.Uniform(-1e8, 1e8);
      default: return rng.Uniform(-1.0, 1.0);
    }
  };
  std::vector<size_t> lengths;
  for (size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(36667);
  for (size_t num_slots = 1; num_slots <= 8; ++num_slots) {
    for (size_t n : lengths) {
      std::vector<std::vector<double>> slots(num_slots,
                                             std::vector<double>(n));
      std::vector<const double*> rows;
      for (std::vector<double>& slot : slots) {
        for (size_t j = 0; j < n; ++j) slot[j] = value(j);
        rows.push_back(slot.data());
      }
      std::vector<double> y(n);
      for (size_t j = 0; j < n; ++j) y[j] = value(j);
      std::vector<double> want = y;
      for (size_t j = 0; j < n; ++j) {
        for (size_t s = 0; s < num_slots; ++s) want[j] += slots[s][j];
      }
      AddSlots(rows.data(), num_slots, n, y.data());
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ(Bits(y[j]), Bits(want[j]))
            << num_slots << " slots, n " << n << ", entry " << j;
      }
    }
  }
}

TEST(GemmTNRowsTest, BitMatchesRankOneTNCallsInRowOrder) {
  // la::GemmTNRows applies k rows, given as row pointers, in one pass; its
  // bits must be those of k rank-1 GemmReproTN calls in row order: onto C,
  // or, with from_zero, onto a zeroed C without reading C's stale
  // contents (here random values, which a sum started from C would keep).
  // The row counts are one step, a direction's T = 5, a pass's 10 and an
  // attention layer's 50; the widths reach every group of one to four
  // 8-lane strips, the column tail and the BiSIM gradient widths. Each row
  // lives in its own buffer, as the tape's do. Exact zeros of both signs in
  // the A rows make TN's zero skip decide terms, and column 2 of A is zero
  // in every row: from_zero must write C's row 2 as +0.0, and adding must
  // leave it as it was, -0.0 included.
  Rng rng(137);
  const size_t m = 5;
  std::vector<size_t> widths;
  for (size_t n = 1; n <= 40; ++n) widths.push_back(n);
  for (size_t n : {80, 96, 184}) widths.push_back(n);
  for (double alpha : {1.0, 1.75}) {
    for (size_t k : {1, 5, 10, 50}) {
      for (size_t n : widths) {
        std::vector<std::vector<double>> a(k, std::vector<double>(m));
        std::vector<std::vector<double>> b(k, std::vector<double>(n));
        std::vector<const double*> a_rows, b_rows;
        for (size_t r = 0; r < k; ++r) {
          for (size_t i = 0; i < m; ++i) {
            const bool zero = i == 2 || (r + i) % 3 == 0;
            a[r][i] = zero ? ((r + i) % 2 == 0 ? 0.0 : -0.0)
                           : rng.Uniform(-1.0, 1.0);
          }
          for (size_t j = 0; j < n; ++j) {
            b[r][j] = j % 7 == 3 ? -0.0 : rng.Uniform(-1.0, 1.0);
          }
          a_rows.push_back(a[r].data());
          b_rows.push_back(b[r].data());
        }
        std::vector<double> c0(m * n);
        for (size_t e = 0; e < c0.size(); ++e) {
          c0[e] = e % 4 == 0 ? -0.0 : rng.Uniform(-1.0, 1.0);
        }
        for (bool from_zero : {true, false}) {
          std::vector<double> want(m * n, 0.0);
          if (!from_zero) want = c0;
          for (size_t r = 0; r < k; ++r) {
            internal::GemmReproTN(alpha, a_rows[r], b_rows[r], want.data(), m,
                                  1, n);
          }
          std::vector<double> got = c0;
          GemmTNRows(alpha, a_rows.data(), b_rows.data(), got.data(), m, k, n,
                     from_zero);
          for (size_t e = 0; e < want.size(); ++e) {
            ASSERT_EQ(Bits(got[e]), Bits(want[e]))
                << "alpha " << alpha << " k " << k << " n " << n
                << (from_zero ? " from zero" : " onto C") << ", entry ("
                << e / n << ", " << e % n << ")";
          }
        }
      }
    }
  }
}

TEST(SquaredDistancesTest, BitMatchesScalarLoopEverywhere) {
  // la::SquaredDistances (la/gemm_repro.cc) promises, per entry, the exact
  // rounding sequence of la::RowSquaredDistance's loop: from 0.0 over t
  // ascending, one rounding per subtract, multiply and add. `width` real
  // columns of b are padded with zeros to the lane width, as cluster::KMeans
  // pads them. The row counts reach the four-row groups and the one-row
  // tiles of one to four strips; inputs mix binary features, +-0.0 and
  // fractions, as k-means centers and samples do.
  Rng rng(118);
  for (size_t width : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 60,
                       64, 65}) {
    const size_t n = (width + kDistanceLanes - 1) / kDistanceLanes *
                     kDistanceLanes;
    for (size_t m : {1, 3, 4, 5, 8}) {
      for (size_t f : {1, 7, 8, 9, 82}) {
        auto draw = [&](size_t i) {
          switch (i % 4) {
            case 0: return rng.Uniform(0.0, 1.0) < 0.5 ? 0.0 : 1.0;
            case 1: return rng.Uniform(0.0, 1.0) < 0.5 ? -0.0 : 0.0;
            default: return rng.Uniform(-3.0, 3.0);
          }
        };
        std::vector<double> a(m * f), b(f * n, 0.0), out(m * n, -1.0);
        for (size_t i = 0; i < a.size(); ++i) a[i] = draw(i * 7 + m);
        for (size_t t = 0; t < f; ++t) {
          for (size_t j = 0; j < width; ++j) b[t * n + j] = draw(t + j);
        }
        SquaredDistances(a.data(), b.data(), out.data(), m, f, n);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            double want = 0.0;
            for (size_t t = 0; t < f; ++t) {
              const double d = a[i * f + t] - b[t * n + j];
              want += d * d;
            }
            EXPECT_EQ(Bits(out[i * n + j]), Bits(want))
                << "width " << width << " m " << m << " f " << f << " entry ("
                << i << ", " << j << ")";
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
