// Deterministic SIMD GEMM kernels (NN, TN, NT, packed NT and TN over row
// pointers), the k-means squared-distance kernel and the Adam update. This
// file is compiled with -ffp-contract=off (CMakeLists.txt): with
// contraction disabled, each subtract, multiply and add rounds separately,
// so the wide target_clones below compute bit-identical sums to the
// baseline clone — vectorizing across j lanes never reassociates an
// out(i, j) accumulation chain, which stays a scalar reduction over k (or
// t) ascending.
//
// Every vector loop here runs exactly kLanes = 8 iterations, over local
// accumulator arrays or over rows the compiler knows do not overlap. GCC's
// -O2 vectorizer (the "very cheap" cost model) accepts that form because it
// needs no runtime check; it rejects `c[j] += a * b[j]` over a variable n,
// which would need one to rule out c and b aliasing. An 8-double local
// array fills one AVX-512 register; a single wider array is left on the
// stack by GCC 12, so NN gives each strip it keeps in flight its own array.
// (The AVX2 and SSE2 clones split each array into two or four registers
// and keep a group of two or more strips in memory; they still beat the
// one-strip loop at every BiSIM shape but NN 5x104x24 under AVX2.)
#include "la/gemm_repro.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rmi::la::internal {

namespace {

// Multi-ISA dispatch (same guard as la/quant.cc's GemmQuantNN): on
// x86-64/GCC the loader resolves the widest compiled clone at runtime;
// elsewhere the plain build is used.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define RMI_GEMM_CLONES \
  __attribute__((target_clones("default,arch=haswell,arch=x86-64-v4")))
#else
#define RMI_GEMM_CLONES
#endif

/// Columns per strip: one 8-wide local array per strip.
constexpr size_t kLanes = 8;
static_assert(kLanes == kDistanceLanes, "SquaredDistances pads to kLanes");

/// B panels are tiled so a k x kJTile strip stays cache resident across the
/// i loop (tiling never changes the per-element k order). A multiple of
/// 4 * kLanes, so strip groups never straddle a tile.
constexpr size_t kJTile = 512;

/// crow[0, S * kLanes) += sum over kx ascending of alpha*arow[kx] * B(kx, :)
/// for S <= 4 consecutive 8-column strips starting at b (row stride ldb).
/// The strips share each alpha*A(i, k) and its zero skip; each strip owns
/// an accumulator array, so S independent add chains run side by side.
/// Inlined into each target clone, so it vectorizes at the clone's width.
template <int S>
__attribute__((always_inline)) inline void NNStrips(double alpha,
                                                    const double* arow,
                                                    const double* b,
                                                    size_t ldb, double* crow,
                                                    size_t k) {
  static_assert(S >= 1 && S <= 4, "one to four strips");
  double acc0[kLanes], acc1[kLanes], acc2[kLanes], acc3[kLanes];
  for (size_t t = 0; t < kLanes; ++t) {
    acc0[t] = crow[t];
    if constexpr (S > 1) acc1[t] = crow[kLanes + t];
    if constexpr (S > 2) acc2[t] = crow[2 * kLanes + t];
    if constexpr (S > 3) acc3[t] = crow[3 * kLanes + t];
  }
  for (size_t kx = 0; kx < k; ++kx, b += ldb) {
    const double aik = alpha * arow[kx];
    if (aik == 0.0) continue;  // same sparsity skip as the scalar loop
    for (size_t t = 0; t < kLanes; ++t) {
      acc0[t] += aik * b[t];
      if constexpr (S > 1) acc1[t] += aik * b[kLanes + t];
      if constexpr (S > 2) acc2[t] += aik * b[2 * kLanes + t];
      if constexpr (S > 3) acc3[t] += aik * b[3 * kLanes + t];
    }
  }
  for (size_t t = 0; t < kLanes; ++t) {
    crow[t] = acc0[t];
    if constexpr (S > 1) crow[kLanes + t] = acc1[t];
    if constexpr (S > 2) crow[2 * kLanes + t] = acc2[t];
    if constexpr (S > 3) crow[3 * kLanes + t] = acc3[t];
  }
}

RMI_GEMM_CLONES
void GemmReproNNKernel(double alpha, const double* pa, const double* pb,
                       double* pc, size_t m, size_t k, size_t n) {
  for (size_t jj = 0; jj < n; jj += kJTile) {
    const size_t jend = std::min(jj + kJTile, n);
    for (size_t i = 0; i < m; ++i) {
      const double* arow = pa + i * k;
      double* crow = pc + i * n;
      size_t j = jj;
      for (; j + 4 * kLanes <= jend; j += 4 * kLanes) {
        NNStrips<4>(alpha, arow, pb + j, n, crow + j, k);
      }
      const size_t strips = (jend - j) / kLanes;
      if (strips == 3) NNStrips<3>(alpha, arow, pb + j, n, crow + j, k);
      if (strips == 2) NNStrips<2>(alpha, arow, pb + j, n, crow + j, k);
      if (strips == 1) NNStrips<1>(alpha, arow, pb + j, n, crow + j, k);
      for (j += strips * kLanes; j < jend; ++j) {
        double acc = crow[j];
        for (size_t kx = 0; kx < k; ++kx) {
          const double aik = alpha * arow[kx];
          if (aik == 0.0) continue;
          acc += aik * pb[kx * n + j];
        }
        crow[j] = acc;
      }
    }
  }
}

/// c[0, kLanes) += a * b[0, kLanes). C never aliases B (la::Gemm's
/// contract), and the restrict qualifiers tell the vectorizer so, so the
/// update is full-width vector code in every clone. Copying both rows into
/// local arrays would also drop the alias check, but in the AVX2 and SSE2
/// clones GCC 12 then round-trips the copies through the stack, 4x slower
/// than the scalar loop at the BiSIM weight-gradient shapes.
__attribute__((always_inline)) inline void AxpyLanes(
    double a, const double* __restrict b, double* __restrict c) {
  for (size_t t = 0; t < kLanes; ++t) c[t] += a * b[t];
}

RMI_GEMM_CLONES
void GemmReproTNKernel(double alpha, const double* pa, const double* pb,
                       double* pc, size_t m, size_t k, size_t n) {
  // Rank-1 updates: for each shared row kx, C(i, :) += A(kx, i) * B(kx, :).
  // Per entry the k terms arrive ascending.
  for (size_t kx = 0; kx < k; ++kx) {
    const double* arow = pa + kx * m;
    const double* brow = pb + kx * n;
    for (size_t i = 0; i < m; ++i) {
      const double aki = alpha * arow[i];
      if (aki == 0.0) continue;
      double* crow = pc + i * n;
      size_t j = 0;
      for (; j + kLanes <= n; j += kLanes) {
        AxpyLanes(aki, brow + j, crow + j);
      }
      for (; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

/// RowStrips' starting values for a sum from 0.0.
alignas(64) constexpr double kZeroStrips[4 * kLanes] = {};

/// NNStrips over row pointers: crow[0, S * kLanes) = start[0, S * kLanes) +
/// alpha*a_rows[r][i] * b_rows[r][j, j + S * kLanes) over r ascending,
/// skipping any r whose alpha*a_rows[r][i] is exactly zero; `start` is
/// crow itself or kZeroStrips. The strips share each term and its zero
/// skip, and each owns an accumulator array, so C is read and written once
/// for all the rows, where k rank-1 updates would stream it k times. The
/// start is a pointer, not a flag: with the arrays always loaded from
/// memory GCC 12 keeps them in registers in every clone, while a zero fill
/// chosen at compile time breaks the AVX-512 clone's 3-strip case into
/// scalar code.
template <int S>
__attribute__((always_inline)) inline void RowStrips(
    double alpha, const double* const* a_rows, size_t i,
    const double* const* b_rows, size_t j, const double* start,
    double* crow, size_t k) {
  static_assert(S >= 1 && S <= 4, "one to four strips");
  double acc0[kLanes], acc1[kLanes], acc2[kLanes], acc3[kLanes];
  for (size_t t = 0; t < kLanes; ++t) {
    acc0[t] = start[t];
    if constexpr (S > 1) acc1[t] = start[kLanes + t];
    if constexpr (S > 2) acc2[t] = start[2 * kLanes + t];
    if constexpr (S > 3) acc3[t] = start[3 * kLanes + t];
  }
  for (size_t r = 0; r < k; ++r) {
    const double ari = alpha * a_rows[r][i];
    if (ari == 0.0) continue;  // TN's sparsity skip
    const double* b = b_rows[r] + j;
    for (size_t t = 0; t < kLanes; ++t) {
      acc0[t] += ari * b[t];
      if constexpr (S > 1) acc1[t] += ari * b[kLanes + t];
      if constexpr (S > 2) acc2[t] += ari * b[2 * kLanes + t];
      if constexpr (S > 3) acc3[t] += ari * b[3 * kLanes + t];
    }
  }
  for (size_t t = 0; t < kLanes; ++t) {
    crow[t] = acc0[t];
    if constexpr (S > 1) crow[kLanes + t] = acc1[t];
    if constexpr (S > 2) crow[2 * kLanes + t] = acc2[t];
    if constexpr (S > 3) crow[3 * kLanes + t] = acc3[t];
  }
}

RMI_GEMM_CLONES
void GemmTNRowsKernel(double alpha, const double* const* a_rows,
                      const double* const* b_rows, double* pc, size_t m,
                      size_t k, size_t n, bool from_zero) {
  for (size_t i = 0; i < m; ++i) {
    double* crow = pc + i * n;
    size_t j = 0;
    for (; j + 4 * kLanes <= n; j += 4 * kLanes) {
      RowStrips<4>(alpha, a_rows, i, b_rows, j,
                   from_zero ? kZeroStrips : crow + j, crow + j, k);
    }
    const size_t strips = (n - j) / kLanes;
    const double* start = from_zero ? kZeroStrips : crow + j;
    if (strips == 3) {
      RowStrips<3>(alpha, a_rows, i, b_rows, j, start, crow + j, k);
    }
    if (strips == 2) {
      RowStrips<2>(alpha, a_rows, i, b_rows, j, start, crow + j, k);
    }
    if (strips == 1) {
      RowStrips<1>(alpha, a_rows, i, b_rows, j, start, crow + j, k);
    }
    for (j += strips * kLanes; j < n; ++j) {
      double acc = from_zero ? 0.0 : crow[j];
      for (size_t r = 0; r < k; ++r) {
        const double ari = alpha * a_rows[r][i];
        if (ari == 0.0) continue;
        acc += ari * b_rows[r][j];
      }
      crow[j] = acc;
    }
  }
}

RMI_GEMM_CLONES
void GemmReproNTKernel(double alpha, const double* pa, const double* pb,
                       double* pc, size_t m, size_t k, size_t n) {
  // Eight dot products side by side: dt sums A(i, :) . B(j + t, :) from 0
  // over k ascending, then C(i, j + t) += alpha * dt. The eight add chains
  // are independent, so they overlap instead of each waiting on the last.
  // Named scalars, not an 8-wide array: B(j + t, kx) sits k doubles apart
  // across t, and GCC 12 vectorizes an array form at half width with the
  // accumulators on the stack, which is slower than the scalar chains.
  for (size_t i = 0; i < m; ++i) {
    const double* arow = pa + i * k;
    double* crow = pc + i * n;
    size_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
      const double* b = pb + j * k;
      double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
      double d4 = 0.0, d5 = 0.0, d6 = 0.0, d7 = 0.0;
      for (size_t kx = 0; kx < k; ++kx) {
        const double av = arow[kx];
        d0 += av * b[kx];
        d1 += av * b[k + kx];
        d2 += av * b[2 * k + kx];
        d3 += av * b[3 * k + kx];
        d4 += av * b[4 * k + kx];
        d5 += av * b[5 * k + kx];
        d6 += av * b[6 * k + kx];
        d7 += av * b[7 * k + kx];
      }
      crow[j] += alpha * d0;
      crow[j + 1] += alpha * d1;
      crow[j + 2] += alpha * d2;
      crow[j + 3] += alpha * d3;
      crow[j + 4] += alpha * d4;
      crow[j + 5] += alpha * d5;
      crow[j + 6] += alpha * d6;
      crow[j + 7] += alpha * d7;
    }
    for (; j < n; ++j) {
      const double* brow = pb + j * k;
      double dot = 0.0;
      for (size_t kx = 0; kx < k; ++kx) dot += arow[kx] * brow[kx];
      crow[j] += alpha * dot;
    }
  }
}

/// crow[t] += alpha * dot_t for the S * kLanes columns of S <= 4
/// consecutive 8-column strips, where dot_t sums arow[kx] * bt(kx, t) from
/// 0.0 over kx ascending (bt's row stride ldb), with no zero skip. NNStrips'
/// layout under GemmReproNT's contract: the strips share each A(i, kx) and
/// each owns an accumulator array, so S add chains run side by side.
template <int S>
__attribute__((always_inline)) inline void DotStrips(double alpha,
                                                     const double* arow,
                                                     const double* bt,
                                                     size_t ldb, double* crow,
                                                     size_t k) {
  static_assert(S >= 1 && S <= 4, "one to four strips");
  double acc0[kLanes] = {}, acc1[kLanes] = {}, acc2[kLanes] = {},
         acc3[kLanes] = {};
  for (size_t kx = 0; kx < k; ++kx, bt += ldb) {
    const double av = arow[kx];
    for (size_t t = 0; t < kLanes; ++t) {
      acc0[t] += av * bt[t];
      if constexpr (S > 1) acc1[t] += av * bt[kLanes + t];
      if constexpr (S > 2) acc2[t] += av * bt[2 * kLanes + t];
      if constexpr (S > 3) acc3[t] += av * bt[3 * kLanes + t];
    }
  }
  for (size_t t = 0; t < kLanes; ++t) {
    crow[t] += alpha * acc0[t];
    if constexpr (S > 1) crow[kLanes + t] += alpha * acc1[t];
    if constexpr (S > 2) crow[2 * kLanes + t] += alpha * acc2[t];
    if constexpr (S > 3) crow[3 * kLanes + t] += alpha * acc3[t];
  }
}

RMI_GEMM_CLONES
void GemmReproNTPackedKernel(double alpha, const double* pa, const double* pbt,
                             double* pc, size_t m, size_t k, size_t n) {
  for (size_t jj = 0; jj < n; jj += kJTile) {
    const size_t jend = std::min(jj + kJTile, n);
    for (size_t i = 0; i < m; ++i) {
      const double* arow = pa + i * k;
      double* crow = pc + i * n;
      size_t j = jj;
      for (; j + 4 * kLanes <= jend; j += 4 * kLanes) {
        DotStrips<4>(alpha, arow, pbt + j, n, crow + j, k);
      }
      const size_t strips = (jend - j) / kLanes;
      if (strips == 3) DotStrips<3>(alpha, arow, pbt + j, n, crow + j, k);
      if (strips == 2) DotStrips<2>(alpha, arow, pbt + j, n, crow + j, k);
      if (strips == 1) DotStrips<1>(alpha, arow, pbt + j, n, crow + j, k);
      for (j += strips * kLanes; j < jend; ++j) {
        double dot = 0.0;
        for (size_t kx = 0; kx < k; ++kx) dot += arow[kx] * pbt[kx * n + j];
        crow[j] += alpha * dot;
      }
    }
  }
}

/// One step of DistanceTile's accumulator Q, which holds row Q / S of a
/// against strip Q % S of b: acc[u] += (a(Q / S, t) - b(t, u))^2 for the
/// strip's lane u. A no-op for the unused accumulators of a tile.
template <int R, int S, int Q>
__attribute__((always_inline)) inline void DistanceStep(const double* a,
                                                        size_t f, size_t t,
                                                        const double* b,
                                                        size_t u, double* acc) {
  if constexpr (Q < R * S) {
    const double d = a[(Q / S) * f + t] - b[(Q % S) * kLanes + u];
    acc[u] += d * d;
  }
}

/// out(r, s * kLanes + u) = sum over t ascending of (a(r, t) - b(t, s *
/// kLanes + u))^2 for R rows of a (row stride f) against S consecutive
/// 8-column strips of b (row stride ldb), R * S <= 4. Each (row, strip)
/// pair owns an accumulator array, so R * S independent add chains run side
/// by side; rows share each strip load and strips share each a(r, t).
template <int R, int S>
__attribute__((always_inline)) inline void DistanceTile(const double* a,
                                                        size_t f,
                                                        const double* b,
                                                        size_t ldb, double* out,
                                                        size_t ldo) {
  static_assert(R >= 1 && S >= 1 && R * S <= 4, "one to four chains");
  double acc0[kLanes] = {}, acc1[kLanes] = {}, acc2[kLanes] = {},
         acc3[kLanes] = {};
  for (size_t t = 0; t < f; ++t, b += ldb) {
    for (size_t u = 0; u < kLanes; ++u) {
      DistanceStep<R, S, 0>(a, f, t, b, u, acc0);
      DistanceStep<R, S, 1>(a, f, t, b, u, acc1);
      DistanceStep<R, S, 2>(a, f, t, b, u, acc2);
      DistanceStep<R, S, 3>(a, f, t, b, u, acc3);
    }
  }
  for (size_t u = 0; u < kLanes; ++u) {
    out[u] = acc0[u];
    if constexpr (R * S > 1) out[(1 / S) * ldo + (1 % S) * kLanes + u] = acc1[u];
    if constexpr (R * S > 2) out[(2 / S) * ldo + (2 % S) * kLanes + u] = acc2[u];
    if constexpr (R * S > 3) out[(3 / S) * ldo + (3 % S) * kLanes + u] = acc3[u];
  }
}

RMI_GEMM_CLONES
void SquaredDistancesKernel(const double* pa, const double* pb, double* po,
                            size_t m, size_t f, size_t n) {
  // Groups of four rows walk the strips in the outer loop, so a strip of b
  // stays in L1 across the groups.
  const size_t m4 = m - m % 4;
  for (size_t j = 0; j < n; j += kLanes) {
    for (size_t i = 0; i < m4; i += 4) {
      DistanceTile<4, 1>(pa + i * f, f, pb + j, n, po + i * n + j, n);
    }
  }
  // Leftover rows, one at a time, run four strips side by side instead.
  for (size_t i = m4; i < m; ++i) {
    size_t j = 0;
    for (; j + 4 * kLanes <= n; j += 4 * kLanes) {
      DistanceTile<1, 4>(pa + i * f, f, pb + j, n, po + i * n + j, n);
    }
    for (; j < n; j += kLanes) {
      DistanceTile<1, 1>(pa + i * f, f, pb + j, n, po + i * n + j, n);
    }
  }
}

/// The Adam update (AdamUpdate's contract) over L consecutive parameters.
/// The rows are __restrict, so at L = kLanes each line is one full-width
/// vector operation in every clone. The sqrt vectorizes only because this
/// file is compiled with -fno-math-errno: its argument is never negative,
/// so errno could never be set, and the result is correctly rounded either
/// way.
template <size_t L>
__attribute__((always_inline)) inline void AdamLanes(
    const double* __restrict g, double* __restrict m, double* __restrict v,
    double* __restrict w, double lr, double beta1, double beta2, double bc1,
    double bc2, double eps) {
  for (size_t t = 0; t < L; ++t) {
    m[t] = beta1 * m[t] + (1.0 - beta1) * g[t];
    v[t] = beta2 * v[t] + (1.0 - beta2) * g[t] * g[t];
    w[t] -= lr * (m[t] / bc1) / (std::sqrt(v[t] / bc2) + eps);
  }
}

RMI_GEMM_CLONES
void AdamUpdateKernel(const double* g, double* m, double* v, double* w,
                      size_t n, double lr, double beta1, double beta2,
                      double bc1, double bc2, double eps) {
  size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    AdamLanes<kLanes>(g + j, m + j, v + j, w + j, lr, beta1, beta2, bc1, bc2,
                      eps);
  }
  for (; j < n; ++j) {
    AdamLanes<1>(g + j, m + j, v + j, w + j, lr, beta1, beta2, bc1, bc2, eps);
  }
}

#undef RMI_GEMM_CLONES

}  // namespace

void GemmReproNN(double alpha, const double* a, const double* b, double* c,
                 size_t m, size_t k, size_t n) {
  GemmReproNNKernel(alpha, a, b, c, m, k, n);
}

void GemmReproTN(double alpha, const double* a, const double* b, double* c,
                 size_t m, size_t k, size_t n) {
  GemmReproTNKernel(alpha, a, b, c, m, k, n);
}

void GemmReproNT(double alpha, const double* a, const double* b, double* c,
                 size_t m, size_t k, size_t n) {
  GemmReproNTKernel(alpha, a, b, c, m, k, n);
}

void GemmReproNTPacked(double alpha, const double* a, const double* bt,
                       double* c, size_t m, size_t k, size_t n) {
  GemmReproNTPackedKernel(alpha, a, bt, c, m, k, n);
}

}  // namespace rmi::la::internal

namespace rmi::la {

void SquaredDistances(const double* a, const double* b, double* out, size_t m,
                      size_t f, size_t n) {
  RMI_CHECK_EQ(n % kDistanceLanes, 0u);
  internal::SquaredDistancesKernel(a, b, out, m, f, n);
}

void AdamUpdate(const double* g, double* m, double* v, double* w, size_t n,
                double lr, double beta1, double beta2, double bc1, double bc2,
                double eps) {
  internal::AdamUpdateKernel(g, m, v, w, n, lr, beta1, beta2, bc1, bc2, eps);
}

void GemmTNRows(double alpha, const double* const* a_rows,
                const double* const* b_rows, double* c, size_t m, size_t k,
                size_t n, bool from_zero) {
  internal::GemmTNRowsKernel(alpha, a_rows, b_rows, c, m, k, n, from_zero);
}

}  // namespace rmi::la
