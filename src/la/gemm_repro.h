// Runtime-dispatched deterministic GEMM kernels — the SIMD backbone of the
// *reproducible* float path (la::Gemm), used by autodiff training and the
// live-rebuild re-fit.
//
// These kernels promise the exact summation order of the naive streaming
// loops: every C(i, j) accumulates alpha*A(i,k)*B(k,j) terms with k
// ascending, one rounding per multiply and one per add. The translation
// unit is compiled with -ffp-contract=off (see CMakeLists.txt), so the
// AVX2/AVX-512 target_clones produce bit-identical results to the baseline
// clone and to the scalar reference loop — seed-determinism tests hold on
// any ISA the loader picks.
#ifndef RMI_LA_GEMM_REPRO_H_
#define RMI_LA_GEMM_REPRO_H_

#include <cstddef>

namespace rmi::la::internal {

/// C += alpha * A * B over raw row-major buffers (A: m x k, B: k x n,
/// C: m x n). Per-element accumulation runs over k ascending — bit-identical
/// to the scalar ikj loop on every ISA clone.
void GemmReproNN(double alpha, const double* a, const double* b, double* c,
                 size_t m, size_t k, size_t n);

/// C += alpha * A^T * B (A: k x m, B: k x n, C: m x n) as rank-1 updates;
/// per-element accumulation over k ascending, same determinism contract.
void GemmReproTN(double alpha, const double* a, const double* b, double* c,
                 size_t m, size_t k, size_t n);

}  // namespace rmi::la::internal

#endif  // RMI_LA_GEMM_REPRO_H_
