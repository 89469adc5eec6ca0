// Int8 quantization substrate for the ranking hot path.
//
// RSSI fingerprints are dBm values in [-100, 0] — inherently int8-scale
// data that a double matrix holds at 8 bytes per cell. This layer
// freezes a reference matrix into an int8 copy (per-AP affine scale /
// zero-point, SoA layout padded for vector lanes) plus the integer side
// tables the quantized KNN ranking needs, and provides the int8xint8→int32
// kernels that rank candidates against it. The quantized path only *ranks*:
// callers re-score candidates against the float master matrix, and the
// per-query reconstruction-error bound returned by QuantizeQueryRow lets
// them widen the candidate band so quantization can never evict a true
// neighbor.
#ifndef RMI_LA_QUANT_H_
#define RMI_LA_QUANT_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace rmi::la {

/// Reference rows padded to a multiple of this many entries so the int
/// kernels' vector lanes never need a tail loop on the reference axis.
/// 64 int32 accumulator lanes (four AVX-512 registers) measure ~3x faster
/// than 16 on the serving shapes — wide enough to hide the int8->int32
/// widening latency, small enough to stay inside the register file.
inline constexpr size_t kQuantLanePad = 64;

/// Floor on the per-AP quantization step (dBm per int8 step). APs whose
/// observed range is narrower than ~63 dB quantize with this step instead:
/// a coarser step only widens the (exactly computed) error band, while a
/// near-zero step would blow up the candidate threshold, which divides by
/// the smallest scale.
inline constexpr double kQuantMinScale = 0.25;

/// An R x D float reference matrix frozen into int8: per-AP (per-column)
/// affine parameters, values stored transposed and padded (SoA by AP: for
/// AP j, entry `values[j * padded + r]` is reference row r), the squared
/// values as int16 (for masked-norm accumulation under partial queries),
/// and per-row integer squared norms. The float master matrix is *not*
/// retained here — rescoring exactness is the caller's contract.
struct QuantizedRefs {
  size_t rows = 0;    ///< R references
  size_t cols = 0;    ///< D APs
  size_t padded = 0;  ///< rows rounded up to a kQuantLanePad multiple

  std::vector<int8_t> values;    ///< cols x padded, SoA by AP; pad cells 0
  std::vector<int16_t> squares;  ///< values^2, same layout
  std::vector<int32_t> norms;    ///< per reference row: sum_j values^2

  std::vector<double> scale;       ///< per AP, dBm per int8 step
  std::vector<double> zero_point;  ///< per AP, dBm at int8 value 0
  double min_scale = 0.0;
  double max_scale = 0.0;

  bool empty() const { return rows == 0; }
};

/// Freezes `refs` (complete rows — kNull entries are illegal here; the
/// imputers' output contract) into a QuantizedRefs. Per AP: the zero-point
/// centers the column's value range and the scale maps the range onto
/// [-127, 127], so no reference cell ever clamps and every cell's rounding
/// error is at most scale/2.
QuantizedRefs QuantizeRefs(const Matrix& refs);

/// Quantizes one online fingerprint (length refs.cols) with the reference
/// side's per-AP parameters. kNull entries yield value 0 with mask 0 (they
/// contribute nothing to any integer term); observed entries are rounded
/// and clamped to [-127, 127]. Writes D int8 values and D 0/1 mask bytes.
///
/// Returns the integer squared norm of the quantized observed entries, and
/// stores in `*err_bound` the analytic reconstruction bound
///
///     E = sqrt( sum_observed (|q_j - dequant(q_j)| + scale_j / 2)^2 )
///
/// — per observed dimension, the query's *exact* residual (clamping
/// included) plus the reference side's worst-case rounding. For any
/// reference row r with integer squared distance I_r to this query,
///
///     min_scale * sqrt(I_r) - E  <=  ||q - f_r||_observed  <=
///     max_scale * sqrt(I_r) + E,
///
/// which is the bound the estimators use to widen their candidate band.
int32_t QuantizeQueryRow(const QuantizedRefs& refs, const double* query,
                         int8_t* values, int8_t* mask, double* err_bound);

/// C = A * B with int8 operands and int32 accumulation — the quantized
/// ranking cross term. A is m x k row-major int8 (quantized queries), B is
/// k x n row-major int8 (QuantizedRefs::values: k = D APs, n = padded
/// reference count), C is m x n int32. Integer arithmetic is exact, so
/// there is no rounding caveat — only the quantization itself loses
/// information. Runtime AVX2/AVX-512 dispatch via target_clones, portable
/// scalar fallback elsewhere. Accumulators are int32: callers must keep
/// k * 127^2 within int32 (checked by QuantizeRefs for the serving
/// shapes).
void GemmQuantNN(const int8_t* a, const int8_t* b, int32_t* c, size_t m,
                 size_t k, size_t n);

/// C(i, j) = sum_k mask(i, k) * squares(k, j) — the masked reference-norm
/// term of the quantized distance expansion for partial fingerprints.
/// `mask` is m x k int8 0/1, `squares` is k x n int16
/// (QuantizedRefs::squares), C is m x n int32. Same dispatch scheme as
/// GemmQuantNN.
void MaskedQuantRowNorms(const int8_t* mask, const int16_t* squares,
                         int32_t* c, size_t m, size_t k, size_t n);

}  // namespace rmi::la

#endif  // RMI_LA_QUANT_H_
