// Runtime-dispatched deterministic GEMM kernels — the backbone of the
// *reproducible* float path (la::Gemm), used by autodiff training and the
// live-rebuild re-fit — plus the row-pointer TN kernel that applies the
// tape's deferred weight gradients, the squared-distance kernel behind
// cluster::KMeans and the Adam update behind ad::Adam.
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

/// GemmReproNT with B supplied packed as bt = B^T (k x n, row-major): C +=
/// alpha * A * B^T, each C(i, j) summed as dot = A(i, :) . bt(:, j) from
/// 0.0 over k ascending, with no zero skip, then C(i, j) += alpha * dot —
/// bit-identical to GemmReproNT on the unpacked B. The packed rows are
/// contiguous across j, so lanes run across output columns as in NN.
void GemmReproNTPacked(double alpha, const double* a, const double* bt,
                       double* c, size_t m, size_t k, size_t n);

}  // namespace rmi::la::internal

namespace rmi::la {

/// Lane width of SquaredDistances: its `n` must be a multiple of this.
inline constexpr size_t kDistanceLanes = 8;

/// out(i, j) = sum over t of (a(i, t) - b(t, j))^2 for every i < m, j < n
/// (a: m x f, b: f x n, out: m x n, all row-major; n a multiple of
/// kDistanceLanes, so callers pad b's columns). Each entry is summed from
/// 0.0 over t ascending with one rounding per subtract, multiply and add —
/// bit-identical, on every ISA clone, to the scalar loop of
/// la::RowSquaredDistance. Lanes run across j; several rows of `a` (or, for
/// a single row, several strips of `b`) run their add chains side by side.
///
/// cluster::KMeans computes every seeding and Lloyd distance here as a full
/// sum. A full sum makes the same decisions as a prefix-pruned one: its
/// terms are non-negative, so it is >= every prefix, and a prefix that has
/// reached a caller's bound fails the caller's strict `d < bound` test
/// exactly as the full sum does.
void SquaredDistances(const double* a, const double* b, double* out, size_t m,
                      size_t f, size_t n);

/// GemmReproTN with A and B given as k row pointers: for every i < m,
/// j < n, C(i, j) adds alpha*a_rows[r][i] * b_rows[r][j] over r ascending,
/// skipping any r whose alpha*a_rows[r][i] is exactly zero — k rank-1
/// GemmReproTN calls, one per row in order, bit for bit, on every ISA
/// clone. With from_zero the sums start from 0.0 and C's old contents are
/// never read (every entry is written, 0.0 where every term was skipped);
/// otherwise they start from C. Each C strip stays in registers across the
/// rows. The autodiff tape applies a parameter's deferred weight-gradient
/// rows (a_rows: the inputs x, b_rows: the output gradients g) with it.
/// C must not overlap any row.
void GemmTNRows(double alpha, const double* const* a_rows,
                const double* const* b_rows, double* c, size_t m, size_t k,
                size_t n, bool from_zero);

/// One Adam step over n parameters, elementwise in this order and with one
/// rounding per operation (the scalar loop's, bit for bit, on every clone):
///   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g*g;
///   w -= lr * (m/bc1) / (sqrt(v/bc2) + eps),
/// where bc1 and bc2 are the bias corrections 1 - beta^step. g, m, v and w
/// must not overlap.
void AdamUpdate(const double* g, double* m, double* v, double* w, size_t n,
                double lr, double beta1, double beta2, double bc1, double bc2,
                double eps);

}  // namespace rmi::la

#endif  // RMI_LA_GEMM_REPRO_H_
