#include "la/kernels.h"

#include <algorithm>
#include <cmath>

#include "la/gemm_repro.h"

namespace rmi::la {

namespace {

/// Scales C by beta (0 means overwrite semantics: just zero).
void ApplyBeta(double beta, Matrix* c) {
  if (beta == 1.0) return;
  if (beta == 0.0) {
    Fill(c, 0.0);
  } else {
    ScaleInPlace(beta, c);
  }
}

/// C += alpha * A * B — the deterministic runtime-dispatched SIMD kernel
/// (la/gemm_repro.cc): per C entry the k terms accumulate ascending, so
/// results are bit-identical to the naive ikj loop on every ISA clone.
void GemmNN(double alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  internal::GemmReproNN(alpha, a.data().data(), b.data().data(),
                        c->data().data(), a.rows(), a.cols(), b.cols());
}

/// C += alpha * A^T * B — rank-1 style updates: for each shared row k,
/// C(i, :) += A(k, i) * B(k, :). Per-entry accumulation runs over k
/// ascending (matches transposing A first and streaming ikj); dispatched
/// like GemmNN.
void GemmTN(double alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  internal::GemmReproTN(alpha, a.data().data(), b.data().data(),
                        c->data().data(), a.cols(), a.rows(), b.cols());
}

/// C += alpha * A * B^T — dot products of contiguous rows, each summed from
/// 0 over k ascending and then added once; dispatched like GemmNN.
void GemmNT(double alpha, const Matrix& a, const Matrix& b, Matrix* c) {
  internal::GemmReproNT(alpha, a.data().data(), b.data().data(),
                        c->data().data(), a.rows(), a.cols(), b.rows());
}

}  // namespace

void Gemm(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
          bool trans_b, double beta, Matrix* c) {
  RMI_CHECK(!(trans_a && trans_b));
  const size_t m = trans_a ? a.cols() : a.rows();
  const size_t ka = trans_a ? a.rows() : a.cols();
  const size_t kb = trans_b ? b.cols() : b.rows();
  const size_t n = trans_b ? b.rows() : b.cols();
  RMI_CHECK_EQ(ka, kb);
  if (beta == 0.0) {
    ResizeTo(c, m, n);
  } else {
    RMI_CHECK_EQ(c->rows(), m);
    RMI_CHECK_EQ(c->cols(), n);
  }
  ApplyBeta(beta, c);
  if (alpha == 0.0 || ka == 0) return;
  if (trans_a) {
    GemmTN(alpha, a, b, c);
  } else if (trans_b) {
    GemmNT(alpha, a, b, c);
  } else {
    GemmNN(alpha, a, b, c);
  }
}

void GemmNTPacked(double alpha, const Matrix& a, const Matrix& bt,
                  Matrix* c) {
  RMI_CHECK_EQ(a.cols(), bt.rows());
  RMI_CHECK_EQ(c->rows(), a.rows());
  RMI_CHECK_EQ(c->cols(), bt.cols());
  if (alpha == 0.0 || a.cols() == 0) return;  // as Gemm
  internal::GemmReproNTPacked(alpha, a.data().data(), bt.data().data(),
                              c->data().data(), a.rows(), a.cols(),
                              bt.cols());
}

void Axpy(double alpha, const Matrix& x, Matrix* y) {
  RMI_CHECK(x.SameShape(*y));
  const double* px = x.data().data();
  double* py = y->data().data();
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

void AddSlots(const double* const* slots, size_t num_slots, size_t n,
              double* y) {
  constexpr size_t kLanes = 8;
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    // Fully unrolled, so the eight sums stay in registers across the slots
    // (a rolled lane loop keeps them on the stack at -O2).
    double acc[kLanes];
#pragma GCC unroll 8
    for (size_t t = 0; t < kLanes; ++t) acc[t] = y[i + t];
    for (size_t s = 0; s < num_slots; ++s) {
      const double* x = slots[s] + i;
#pragma GCC unroll 8
      for (size_t t = 0; t < kLanes; ++t) acc[t] += x[t];
    }
#pragma GCC unroll 8
    for (size_t t = 0; t < kLanes; ++t) y[i + t] = acc[t];
  }
  for (; i < n; ++i) {
    double acc = y[i];
    for (size_t s = 0; s < num_slots; ++s) acc += slots[s][i];
    y[i] = acc;
  }
}

void ScaleInPlace(double alpha, Matrix* x) {
  double* v = x->data().data();
  const size_t n = x->size();
  for (size_t i = 0; i < n; ++i) v[i] *= alpha;
}

void Fill(Matrix* x, double value) {
  std::fill(x->data().begin(), x->data().end(), value);
}

void AccumulateColSums(const Matrix& a, Matrix* row) {
  RMI_CHECK_EQ(row->rows(), 1u);
  RMI_CHECK_EQ(row->cols(), a.cols());
  const double* pa = a.data().data();
  double* pr = row->data().data();
  const size_t cols = a.cols();
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = pa + i * cols;
    for (size_t j = 0; j < cols; ++j) pr[j] += arow[j];
  }
}

void MaskCombineInto(const Matrix& m, const Matrix& obs, const Matrix& pred,
                     Matrix* out) {
  RMI_CHECK(m.SameShape(obs));
  RMI_CHECK(m.SameShape(pred));
  ResizeTo(out, m.rows(), m.cols());
  const double* pm = m.data().data();
  const double* po = obs.data().data();
  const double* pp = pred.data().data();
  double* dst = out->data().data();
  const size_t n = m.size();
  for (size_t i = 0; i < n; ++i) {
    dst[i] = pm[i] * po[i] + (1.0 - pm[i]) * pp[i];
  }
}

void ConcatColsInto(const Matrix& a, const Matrix& b, Matrix* out) {
  RMI_CHECK_EQ(a.rows(), b.rows());
  ResizeTo(out, a.rows(), a.cols() + b.cols());
  const size_t ca = a.cols(), cb = b.cols();
  for (size_t i = 0; i < a.rows(); ++i) {
    std::copy_n(&a.data()[i * ca], ca, &out->data()[i * (ca + cb)]);
    std::copy_n(&b.data()[i * cb], cb, &out->data()[i * (ca + cb) + ca]);
  }
}

void SliceColsInto(const Matrix& x, size_t c0, size_t c1, Matrix* out) {
  RMI_CHECK_LE(c0, c1);
  RMI_CHECK_LE(c1, x.cols());
  ResizeTo(out, x.rows(), c1 - c0);
  const size_t w = c1 - c0;
  for (size_t i = 0; i < x.rows(); ++i) {
    std::copy_n(&x.data()[i * x.cols() + c0], w, &out->data()[i * w]);
  }
}

double RowSquaredDistance(const Matrix& a, size_t ra, const Matrix& b,
                          size_t rb) {
  RMI_CHECK_EQ(a.cols(), b.cols());
  RMI_CHECK_LT(ra, a.rows());
  RMI_CHECK_LT(rb, b.rows());
  const double* pa = a.data().data() + ra * a.cols();
  const double* pb = b.data().data() + rb * b.cols();
  double s = 0.0;
  for (size_t j = 0; j < a.cols(); ++j) {
    const double d = pa[j] - pb[j];
    s += d * d;
  }
  return s;
}

double QuerySquaredDistanceRow(const double* query, const double* ref_row,
                               size_t d) {
  double s = 0.0;
  for (size_t j = 0; j < d; ++j) {
    if (std::isnan(query[j])) continue;
    const double dd = query[j] - ref_row[j];
    s += dd * dd;
  }
  return s;
}

double QuerySquaredDistance(const double* query, const Matrix& refs,
                            size_t row) {
  RMI_CHECK_LT(row, refs.rows());
  return QuerySquaredDistanceRow(query, refs.data().data() + row * refs.cols(),
                                 refs.cols());
}

}  // namespace rmi::la
