// Deterministic SIMD GEMM kernels. This file is compiled with
// -ffp-contract=off (CMakeLists.txt): with contraction disabled, each
// multiply and each add rounds separately, so the wide target_clones below
// compute bit-identical sums to the baseline clone — vectorizing across j
// lanes never reassociates a C(i, j) accumulation chain, which stays a
// scalar reduction over k ascending.
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

/// B panels are tiled so a k x kJTile strip stays cache resident across the
/// i loop (tiling never changes the per-element k order).
constexpr size_t kJTile = 512;

RMI_GEMM_CLONES
void GemmReproNNKernel(double alpha, const double* pa, const double* pb,
                       double* pc, size_t m, size_t k, size_t n) {
  for (size_t jj = 0; jj < n; jj += kJTile) {
    const size_t jend = std::min(jj + kJTile, n);
    for (size_t i = 0; i < m; ++i) {
      const double* arow = pa + i * k;
      double* crow = pc + i * n;
      size_t j = jj;
      // Eight independent accumulator lanes per strip: lane t owns column
      // j + t, so each C entry still sums its k terms in ascending order.
      for (; j + 8 <= jend; j += 8) {
        double acc[8];
        for (int t = 0; t < 8; ++t) acc[t] = crow[j + t];
        const double* bp = pb + j;
        for (size_t kx = 0; kx < k; ++kx) {
          const double aik = alpha * arow[kx];
          if (aik == 0.0) continue;  // same sparsity skip as the scalar loop
          const double* b = bp + kx * n;
          for (int t = 0; t < 8; ++t) acc[t] += aik * b[t];
        }
        for (int t = 0; t < 8; ++t) crow[j + t] = acc[t];
      }
      for (; j < jend; ++j) {
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

RMI_GEMM_CLONES
void GemmReproTNKernel(double alpha, const double* pa, const double* pb,
                       double* pc, size_t m, size_t k, size_t n) {
  // Rank-1 updates: for each shared row kx, C(i, :) += A(kx, i) * B(kx, :).
  // The inner j loop touches independent C entries, so it vectorizes
  // without reassociating anything; per entry the k terms arrive ascending.
  for (size_t kx = 0; kx < k; ++kx) {
    const double* arow = pa + kx * m;
    const double* brow = pb + kx * n;
    for (size_t i = 0; i < m; ++i) {
      const double aki = alpha * arow[i];
      if (aki == 0.0) continue;
      double* crow = pc + i * n;
      for (size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
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

}  // namespace rmi::la::internal
