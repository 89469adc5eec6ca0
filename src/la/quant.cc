#include "la/quant.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/missing.h"

namespace rmi::la {

namespace {

/// Largest AP dimension whose worst-case integer terms (d * 127^2 for
/// norms and |cross|) stay far inside int32.
constexpr size_t kMaxQuantDims = 1u << 15;

}  // namespace

QuantizedRefs QuantizeRefs(const Matrix& refs) {
  QuantizedRefs q;
  q.rows = refs.rows();
  q.cols = refs.cols();
  q.padded = (q.rows + kQuantLanePad - 1) / kQuantLanePad * kQuantLanePad;
  RMI_CHECK_LT(q.cols, kMaxQuantDims);  // int32 accumulators stay exact
  if (q.rows == 0 || q.cols == 0) return q;

  q.values.assign(q.cols * q.padded, 0);
  q.squares.assign(q.cols * q.padded, 0);
  q.norms.assign(q.rows, 0);
  q.scale.resize(q.cols);
  q.zero_point.resize(q.cols);

  const double* p = refs.data().data();
  for (size_t j = 0; j < q.cols; ++j) {
    double lo = 0.0, hi = 0.0;
    for (size_t r = 0; r < q.rows; ++r) {
      const double v = p[r * q.cols + j];
      RMI_CHECK(!IsNull(v));  // reference rows are complete by contract
      lo = r == 0 ? v : std::min(lo, v);
      hi = r == 0 ? v : std::max(hi, v);
    }
    // zp centers the range; s maps it onto [-127, 127] so no reference
    // cell clamps and per-cell rounding error is <= s / 2.
    const double zp = 0.5 * (lo + hi);
    const double s = std::max((hi - lo) / 254.0, kQuantMinScale);
    q.zero_point[j] = zp;
    q.scale[j] = s;
    int8_t* col = q.values.data() + j * q.padded;
    int16_t* sq = q.squares.data() + j * q.padded;
    for (size_t r = 0; r < q.rows; ++r) {
      const double v = p[r * q.cols + j];
      const long iv = std::lround((v - zp) / s);
      // |iv| <= 127 by construction of s; the clamp only guards float
      // rounding at the exact range endpoints.
      const int8_t b = static_cast<int8_t>(std::clamp(iv, -127l, 127l));
      col[r] = b;
      const int32_t bb = static_cast<int32_t>(b) * static_cast<int32_t>(b);
      sq[r] = static_cast<int16_t>(bb);
      q.norms[r] += bb;
    }
  }
  q.min_scale = *std::min_element(q.scale.begin(), q.scale.end());
  q.max_scale = *std::max_element(q.scale.begin(), q.scale.end());
  return q;
}

int32_t QuantizeQueryRow(const QuantizedRefs& refs, const double* query,
                         int8_t* values, int8_t* mask, double* err_bound) {
  RMI_CHECK(!refs.empty());
  int32_t norm = 0;
  double err_sq = 0.0;
  for (size_t j = 0; j < refs.cols; ++j) {
    const double v = query[j];
    if (IsNull(v)) {
      values[j] = 0;
      mask[j] = 0;
      continue;
    }
    const double s = refs.scale[j];
    const double zp = refs.zero_point[j];
    const long iv =
        std::clamp(std::lround((v - zp) / s), -127l, 127l);
    const int8_t b = static_cast<int8_t>(iv);
    values[j] = b;
    mask[j] = 1;
    norm += static_cast<int32_t>(b) * static_cast<int32_t>(b);
    // Exact query residual (clamping included) + the reference side's
    // worst-case rounding of s/2.
    const double resid = std::fabs(v - (zp + s * static_cast<double>(iv)));
    const double term = resid + 0.5 * s;
    err_sq += term * term;
  }
  *err_bound = std::sqrt(err_sq);
  return norm;
}

namespace {

// Multi-ISA dispatch mirrors la/gemm_repro.cc: the loader picks the widest
// compiled clone at runtime on x86-64/GCC; elsewhere the portable scalar
// build runs. Integer arithmetic, so every clone computes the same bits.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target_clones("default,arch=haswell,arch=x86-64-v4")))
#endif
/// C = A * B, j strip-mined by kQuantLanePad = 64 int32 accumulator lanes
/// (four AVX-512 registers), k innermost, C written once. B panels are
/// tiled so the int8 rows stay L1-resident across the i loop. Narrower
/// strips leave the widening int8->int32 loads latency-bound: 64 lanes
/// measured ~3x faster than 16 on the 64 x 96 x 2000 serving shape.
void GemmQuantNNKernel(const int8_t* pa, const int8_t* pb, int32_t* pc,
                       size_t m, size_t k, size_t n) {
  constexpr size_t kJTile = 2048;  // int8 B panel bytes per k row
  for (size_t jj = 0; jj < n; jj += kJTile) {
    const size_t jend = std::min(jj + kJTile, n);
    for (size_t i = 0; i < m; ++i) {
      const int8_t* arow = pa + i * k;
      int32_t* crow = pc + i * n;
      size_t j = jj;
      for (; j + 64 <= jend; j += 64) {
        int32_t acc[64] = {0};
        const int8_t* bp = pb + j;
        for (size_t kx = 0; kx < k; ++kx) {
          const int32_t a = arow[kx];
          const int8_t* b = bp + kx * n;
          for (int t = 0; t < 64; ++t) {
            acc[t] += a * static_cast<int32_t>(b[t]);
          }
        }
        for (int t = 0; t < 64; ++t) crow[j + t] = acc[t];
      }
      for (; j < jend; ++j) {
        int32_t acc = 0;
        for (size_t kx = 0; kx < k; ++kx) {
          acc += static_cast<int32_t>(arow[kx]) *
                 static_cast<int32_t>(pb[kx * n + j]);
        }
        crow[j] = acc;
      }
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target_clones("default,arch=haswell,arch=x86-64-v4")))
#endif
/// C(i, j) = sum_k mask(i, k) * squares(k, j) — same loop shape as the
/// cross-term kernel with an int16 B operand.
void MaskedQuantRowNormsKernel(const int8_t* pm, const int16_t* psq,
                               int32_t* pc, size_t m, size_t k, size_t n) {
  constexpr size_t kJTile = 1024;  // int16 B panel entries per k row
  for (size_t jj = 0; jj < n; jj += kJTile) {
    const size_t jend = std::min(jj + kJTile, n);
    for (size_t i = 0; i < m; ++i) {
      const int8_t* mrow = pm + i * k;
      int32_t* crow = pc + i * n;
      size_t j = jj;
      for (; j + 64 <= jend; j += 64) {
        int32_t acc[64] = {0};
        const int16_t* bp = psq + j;
        for (size_t kx = 0; kx < k; ++kx) {
          if (mrow[kx] == 0) continue;  // typical rows observe most APs
          const int16_t* b = bp + kx * n;
          for (int t = 0; t < 64; ++t) acc[t] += static_cast<int32_t>(b[t]);
        }
        for (int t = 0; t < 64; ++t) crow[j + t] = acc[t];
      }
      for (; j < jend; ++j) {
        int32_t acc = 0;
        for (size_t kx = 0; kx < k; ++kx) {
          if (mrow[kx] == 0) continue;
          acc += static_cast<int32_t>(psq[kx * n + j]);
        }
        crow[j] = acc;
      }
    }
  }
}

}  // namespace

void GemmQuantNN(const int8_t* a, const int8_t* b, int32_t* c, size_t m,
                 size_t k, size_t n) {
  if (m == 0 || n == 0) return;
  GemmQuantNNKernel(a, b, c, m, k, n);
}

void MaskedQuantRowNorms(const int8_t* mask, const int16_t* squares,
                         int32_t* c, size_t m, size_t k, size_t n) {
  if (m == 0 || n == 0) return;
  MaskedQuantRowNormsKernel(mask, squares, c, m, k, n);
}

}  // namespace rmi::la
