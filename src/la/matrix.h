// Dense row-major matrix — the numeric workhorse for the autodiff engine,
// the factorization/regression baselines, and clustering.
//
// Hand-rolled (no Eigen in the build environment); sized for the paper's
// workloads: latent dims of tens, fingerprint dims of hundreds, record
// counts of thousands.
#ifndef RMI_LA_MATRIX_H_
#define RMI_LA_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace rmi::la {

/// Dense row-major matrix of doubles.
///
/// Some members serve only the tests; no product path calls them. The
/// initializer-list constructor builds fixtures and MaxAbsDiff compares
/// results (together about 80 uses); MaxAbs, AllFinite and FrobeniusNorm
/// check them; the allocating CwiseProduct, AddRowBroadcast, ConcatCols,
/// SliceCols, Col and Mean are the oracles that the kernel, autodiff and
/// clustering tests compare against.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized (or `fill`).
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construction from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Named constructors. -------------------------------------------------
  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Ones(size_t rows, size_t cols) {
    return Matrix(rows, cols, 1.0);
  }
  static Matrix Identity(size_t n);
  /// Entries iid Uniform(lo, hi).
  static Matrix Random(size_t rows, size_t cols, Rng& rng, double lo = -1.0,
                       double hi = 1.0);
  /// Entries iid N(0, stddev^2).
  static Matrix Gaussian(size_t rows, size_t cols, Rng& rng,
                         double stddev = 1.0);
  /// Wraps an existing buffer (resized to rows*cols) — lets a pooled
  /// allocator hand storage to a matrix without copying.
  static Matrix Adopt(size_t rows, size_t cols, std::vector<double> buffer) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = std::move(buffer);
    m.data_.resize(rows * cols);
    return m;
  }

  /// Element access. ------------------------------------------------------
  double& operator()(size_t r, size_t c) {
    RMI_CHECK_LT(r, rows_);
    RMI_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    RMI_CHECK_LT(r, rows_);
    RMI_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  bool SameShape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Changes dimensions in place, reusing the heap buffer when the new
  /// element count fits the existing capacity. New elements (if any) are
  /// zero; existing elements keep their row-major positions.
  void Reshape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Steals the underlying buffer (the matrix becomes empty) — the inverse
  /// of Adopt, used to recycle storage into a pool.
  std::vector<double> TakeBuffer() {
    rows_ = cols_ = 0;
    return std::move(data_);
  }

  /// Arithmetic (shape-checked). ------------------------------------------
  Matrix operator+(const Matrix& o) const;
  /// Elementwise (Hadamard) product.
  Matrix CwiseProduct(const Matrix& o) const;
  Matrix operator*(double s) const;
  Matrix operator-() const { return *this * -1.0; }

  Matrix& operator*=(double s);

  /// Matrix product: (r x k) * (k x c).
  Matrix MatMul(const Matrix& o) const;

  Matrix Transpose() const;

  /// Applies `f` to every element. Template functor — the callable is
  /// inlined at the call site (no std::function in the element loop).
  template <typename F>
  Matrix Map(F&& f) const {
    Matrix r = *this;
    for (double& v : r.data_) v = f(v);
    return r;
  }

  /// Adds row vector `row` (1 x cols) to every row (bias broadcast).
  Matrix AddRowBroadcast(const Matrix& row) const;

  /// Rows/columns. ---------------------------------------------------------
  Matrix Row(size_t r) const;
  Matrix Col(size_t c) const;
  void SetRow(size_t r, const Matrix& row);
  /// Horizontal concatenation: [this | o].
  Matrix ConcatCols(const Matrix& o) const;
  /// Columns [c0, c1) as a new matrix.
  Matrix SliceCols(size_t c0, size_t c1) const;
  /// Rows [r0, r1) as a new matrix.
  Matrix SliceRows(size_t r0, size_t r1) const;

  /// Reductions. ------------------------------------------------------------
  double Sum() const;
  double Mean() const;
  double MaxAbs() const;
  double FrobeniusNorm() const;
  /// Squared L2 distance between two same-shape matrices.
  static double SquaredDistance(const Matrix& a, const Matrix& b);

  /// True iff all entries are finite.
  bool AllFinite() const;
  /// Max |a-b| over entries; matrices must be same shape.
  static double MaxAbsDiff(const Matrix& a, const Matrix& b);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

inline Matrix operator*(double s, const Matrix& m) { return m * s; }

/// Solves (A + ridge*I) x = b for symmetric positive definite A via Cholesky.
/// A: n x n, b: n x m. Aborts if the factorization breaks down (A must be
/// SPD after ridge).
Matrix CholeskySolve(const Matrix& a, const Matrix& b, double ridge = 0.0);

/// Ordinary/ridge least squares: argmin_x |A x - b|^2 + lambda |x|^2.
/// A: n x k (n >= 1), b: n x m; returns k x m.
Matrix RidgeRegression(const Matrix& a, const Matrix& b, double lambda);

}  // namespace rmi::la

#endif  // RMI_LA_MATRIX_H_
