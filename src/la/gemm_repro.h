// Runtime-dispatched deterministic GEMM kernels — the backbone of the
// *reproducible* float path (la::Gemm), used by autodiff training and the
// live-rebuild re-fit.
//
// These kernels promise the exact rounding sequence of the naive scalar
// loops, one rounding per multiply and one per add: NN and TN accumulate
// alpha*A(i,k)*B(k,j) into C(i, j) with k ascending; NT sums a dot product
// and adds it once (see GemmReproNT). The translation unit is compiled
// with -ffp-contract=off (see CMakeLists.txt), so the AVX2/AVX-512
// target_clones produce bit-identical results to the baseline clone and to
// the scalar reference loops — seed-determinism tests hold on any ISA the
// loader picks.
#ifndef RMI_LA_GEMM_REPRO_H_
#define RMI_LA_GEMM_REPRO_H_

#include <cstddef>

namespace rmi::la::internal {

/// C += alpha * A * B over raw row-major buffers (A: m x k, B: k x n,
/// C: m x n). Per element the terms alpha*A(i,k) * B(k,j) are added over k
/// ascending, skipping any whose alpha*A(i,k) is exactly zero —
/// bit-identical to the scalar ikj loop on every ISA clone.
void GemmReproNN(double alpha, const double* a, const double* b, double* c,
                 size_t m, size_t k, size_t n);

/// C += alpha * A^T * B (A: k x m, B: k x n, C: m x n) as rank-1 updates;
/// per-element accumulation over k ascending, same determinism contract.
void GemmReproTN(double alpha, const double* a, const double* b, double* c,
                 size_t m, size_t k, size_t n);

/// C += alpha * A * B^T (A: m x k, B: n x k, C: m x n) as dot products of
/// contiguous rows. A different contract from NN/TN: each C(i, j) first
/// sums dot = A(i, :) . B(j, :) from 0.0 over k ascending, with no zero
/// skip, then takes one C(i, j) += alpha * dot — bit-identical to that
/// scalar loop on every ISA clone.
void GemmReproNT(double alpha, const double* a, const double* b, double* c,
                 size_t m, size_t k, size_t n);

}  // namespace rmi::la::internal

#endif  // RMI_LA_GEMM_REPRO_H_
