// Deterministic SIMD GEMM kernels. This file is compiled with
// -ffp-contract=off (CMakeLists.txt): with contraction disabled, each
// multiply and each add rounds separately, so the wide target_clones below
// compute bit-identical sums to the baseline clone — vectorizing across j
// lanes never reassociates a C(i, j) accumulation chain, which stays a
// scalar reduction over k ascending.
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

}  // namespace rmi::la::internal
