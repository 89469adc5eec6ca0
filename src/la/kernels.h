// Kernel layer beneath la::Matrix: in-place / output-parameter primitives
// that the autodiff tape, the nn cells, and the factorization/regression
// baselines build on. Everything here writes into caller-provided output
// matrices (reusing their heap buffers) and inlines elementwise functors as
// templates — no std::function, no per-call temporaries.
//
// Convention: `out`/`c` must not alias any input operand unless the kernel
// is explicitly documented as in-place.
#ifndef RMI_LA_KERNELS_H_
#define RMI_LA_KERNELS_H_

#include <cstddef>

#include "common/check.h"
#include "la/matrix.h"

namespace rmi::la {

/// Resizes `out` to rows x cols. The element buffer is reused whenever the
/// new element count fits the existing capacity (std::vector::resize never
/// shrinks capacity), so steady-state callers never touch the heap.
inline void ResizeTo(Matrix* out, size_t rows, size_t cols) {
  out->Reshape(rows, cols);
}

/// General matrix multiply: C = alpha * op(A) * op(B) + beta * C, where
/// op(X) is X or X^T per the transpose flag; at most one operand may be
/// transposed (TT is refused). With beta == 0, C is fully overwritten (and
/// resized to the product shape); with beta != 0, C must already have the
/// product shape. C must not alias A or B.
///
/// Reproducible and fast: the NN, TN and NT paths (every autodiff forward
/// matmul and its Gemm(beta=1) adjoints, but the input gradients that
/// GemmNTPacked takes) run through the runtime-dispatched deterministic
/// kernels in la/gemm_repro.h — AVX2/AVX-512 target_clones compiled with
/// fp-contract off, one rounding per op, bit-identical across ISAs and to
/// the scalar reference loops.
/// NN and TN add alpha*A(i,k)*B(k,j) into C(i,j) over k ascending, skipping
/// terms whose alpha*A(i,k) is exactly zero; NT sums each dot product from 0
/// over k ascending, then adds alpha*dot into C(i,j).
void Gemm(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
          bool trans_b, double beta, Matrix* c);

/// C += alpha * A * B^T given bt = B^T (k x n): the result of
/// Gemm(alpha, a, false, b, true, 1.0, c), bit for bit (each dot product
/// summed from 0 over k ascending, then added once), but with lanes running
/// across C's columns over bt's contiguous rows. The autodiff tape keeps a
/// packed transpose of each parameter for this kernel.
void GemmNTPacked(double alpha, const Matrix& a, const Matrix& bt, Matrix* c);

/// y += alpha * x (same shape).
void Axpy(double alpha, const Matrix& x, Matrix* y);

/// x *= alpha.
void ScaleInPlace(double alpha, Matrix* x);

/// y[i] = ((y[i] + slots[0][i]) + slots[1][i]) + ... for i in [0, n): per
/// element the sum starts from y[i] and adds the slots in slot order, one
/// rounding per add. Lanes run across i, eight sums held in registers while
/// the slots stream past; the kernel only adds elementwise, so its bits
/// depend on neither the ISA nor the blocking. TrainBiSim sums each Adam
/// batch's per-sequence gradients and losses with it. y must not overlap
/// any slot.
void AddSlots(const double* const* slots, size_t num_slots, size_t n,
              double* y);

/// Every entry of x set to `value` (shape preserved).
void Fill(Matrix* x, double value);

/// row(0, j) += sum_i a(i, j) — the broadcast's adjoint.
void AccumulateColSums(const Matrix& a, Matrix* row);

/// Every row of a += row (1 x cols), in place.
inline void AddRowBroadcastInPlace(Matrix* a, const Matrix& row) {
  RMI_CHECK_EQ(row.rows(), 1u);
  RMI_CHECK_EQ(row.cols(), a->cols());
  const double* pr = row.data().data();
  double* pa = a->data().data();
  const size_t cols = a->cols();
  for (size_t i = 0; i < a->rows(); ++i) {
    double* arow = pa + i * cols;
    for (size_t j = 0; j < cols; ++j) arow[j] += pr[j];
  }
}

/// Fused missing-data combine (paper Eqs. 3/7):
///   out = m ⊙ obs + (1 - m) ⊙ pred.
void MaskCombineInto(const Matrix& m, const Matrix& obs, const Matrix& pred,
                     Matrix* out);

/// out = [a | b] (horizontal concatenation; equal row counts).
void ConcatColsInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out = columns [c0, c1) of x.
void SliceColsInto(const Matrix& x, size_t c0, size_t c1, Matrix* out);

/// Squared L2 distance between row `ra` of a and row `rb` of b
/// (equal column counts) — no row extraction, no temporaries.
double RowSquaredDistance(const Matrix& a, size_t ra, const Matrix& b,
                          size_t rb);

/// Squared L2 distance between `query` (length d; NaN entries are skipped)
/// and the reference row at `ref_row` — distance over the query's observed
/// dimensions only. The single scoring loop shared by the estimators'
/// scalar path, the batch rescore and the serving spatial index:
/// exactness claims across those layers rest on them summing identically.
double QuerySquaredDistanceRow(const double* query, const double* ref_row,
                               size_t d);

/// Matrix-row convenience over QuerySquaredDistanceRow.
double QuerySquaredDistance(const double* query, const Matrix& refs,
                            size_t row);

/// out(i) = f(x(i)) — the functor is inlined at the call site.
template <typename F>
void CwiseUnaryInto(const Matrix& x, Matrix* out, F&& f) {
  ResizeTo(out, x.rows(), x.cols());
  const double* src = x.data().data();
  double* dst = out->data().data();
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) dst[i] = f(src[i]);
}

/// x(i) = f(x(i)), in place.
template <typename F>
void CwiseUnaryInPlace(Matrix* x, F&& f) {
  double* v = x->data().data();
  const size_t n = x->size();
  for (size_t i = 0; i < n; ++i) v[i] = f(v[i]);
}

/// out(i) = f(a(i), b(i)) (same shapes).
template <typename F>
void CwiseBinaryInto(const Matrix& a, const Matrix& b, Matrix* out, F&& f) {
  RMI_CHECK(a.SameShape(b));
  ResizeTo(out, a.rows(), a.cols());
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* dst = out->data().data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) dst[i] = f(pa[i], pb[i]);
}

/// out(i) += f(a(i), b(i)) — fused compute-and-accumulate for backward
/// closures (out must already have a's shape).
template <typename F>
void CwiseBinaryAccumulate(const Matrix& a, const Matrix& b, Matrix* out,
                           F&& f) {
  RMI_CHECK(a.SameShape(b));
  RMI_CHECK(a.SameShape(*out));
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* dst = out->data().data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) dst[i] += f(pa[i], pb[i]);
}

}  // namespace rmi::la

#endif  // RMI_LA_KERNELS_H_
