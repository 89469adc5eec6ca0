#include "la/matrix.h"

#include <algorithm>
#include <cmath>

#include "la/kernels.h"

namespace rmi::la {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    RMI_CHECK_EQ(row.size(), cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Random(size_t rows, size_t cols, Rng& rng, double lo,
                      double hi) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Uniform(lo, hi);
  return m;
}

Matrix Matrix::Gaussian(size_t rows, size_t cols, Rng& rng, double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Gaussian(0.0, stddev);
  return m;
}

Matrix Matrix::operator+(const Matrix& o) const {
  RMI_CHECK(SameShape(o));
  Matrix r = *this;
  for (size_t i = 0; i < data_.size(); ++i) r.data_[i] += o.data_[i];
  return r;
}

Matrix Matrix::CwiseProduct(const Matrix& o) const {
  RMI_CHECK(SameShape(o));
  Matrix r = *this;
  for (size_t i = 0; i < data_.size(); ++i) r.data_[i] *= o.data_[i];
  return r;
}

Matrix Matrix::operator*(double s) const {
  Matrix r = *this;
  for (double& v : r.data_) v *= s;
  return r;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::MatMul(const Matrix& o) const {
  RMI_CHECK_EQ(cols_, o.rows_);
  Matrix r;
  Gemm(1.0, *this, /*trans_a=*/false, o, /*trans_b=*/false, 0.0, &r);
  return r;
}

Matrix Matrix::Transpose() const {
  Matrix r(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) r(j, i) = (*this)(i, j);
  }
  return r;
}

Matrix Matrix::AddRowBroadcast(const Matrix& row) const {
  RMI_CHECK_EQ(row.rows(), 1u);
  RMI_CHECK_EQ(row.cols(), cols_);
  Matrix r = *this;
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) r(i, j) += row(0, j);
  }
  return r;
}

Matrix Matrix::Row(size_t r) const {
  RMI_CHECK_LT(r, rows_);
  Matrix out(1, cols_);
  std::copy_n(&data_[r * cols_], cols_, out.data_.begin());
  return out;
}

Matrix Matrix::Col(size_t c) const {
  RMI_CHECK_LT(c, cols_);
  Matrix out(rows_, 1);
  for (size_t i = 0; i < rows_; ++i) out(i, 0) = (*this)(i, c);
  return out;
}

void Matrix::SetRow(size_t r, const Matrix& row) {
  RMI_CHECK_LT(r, rows_);
  RMI_CHECK_EQ(row.rows(), 1u);
  RMI_CHECK_EQ(row.cols(), cols_);
  std::copy_n(row.data_.begin(), cols_, &data_[r * cols_]);
}

Matrix Matrix::ConcatCols(const Matrix& o) const {
  RMI_CHECK_EQ(rows_, o.rows_);
  Matrix r(rows_, cols_ + o.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    std::copy_n(&data_[i * cols_], cols_, &r.data_[i * r.cols_]);
    std::copy_n(&o.data_[i * o.cols_], o.cols_, &r.data_[i * r.cols_ + cols_]);
  }
  return r;
}

Matrix Matrix::SliceCols(size_t c0, size_t c1) const {
  RMI_CHECK_LE(c0, c1);
  RMI_CHECK_LE(c1, cols_);
  Matrix r(rows_, c1 - c0);
  for (size_t i = 0; i < rows_; ++i) {
    std::copy_n(&data_[i * cols_ + c0], c1 - c0, &r.data_[i * r.cols_]);
  }
  return r;
}

Matrix Matrix::SliceRows(size_t r0, size_t r1) const {
  RMI_CHECK_LE(r0, r1);
  RMI_CHECK_LE(r1, rows_);
  Matrix r(r1 - r0, cols_);
  std::copy_n(&data_[r0 * cols_], (r1 - r0) * cols_, r.data_.begin());
  return r;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::Mean() const {
  return data_.empty() ? 0.0 : Sum() / static_cast<double>(data_.size());
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Matrix::SquaredDistance(const Matrix& a, const Matrix& b) {
  RMI_CHECK(a.SameShape(b));
  double s = 0.0;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    const double d = a.data_[i] - b.data_[i];
    s += d * d;
  }
  return s;
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  RMI_CHECK(a.SameShape(b));
  double m = 0.0;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  }
  return m;
}

Matrix CholeskySolve(const Matrix& a, const Matrix& b, double ridge) {
  RMI_CHECK_EQ(a.rows(), a.cols());
  RMI_CHECK_EQ(a.rows(), b.rows());
  const size_t n = a.rows();
  // Factor A + ridge*I = L L^T in place.
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double s = a(i, j) + (i == j ? ridge : 0.0);
      for (size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        RMI_CHECK_GT(s, 0.0);
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  // Solve L y = b, then L^T x = y, column by column.
  Matrix x = b;
  for (size_t c = 0; c < b.cols(); ++c) {
    for (size_t i = 0; i < n; ++i) {
      double s = x(i, c);
      for (size_t k = 0; k < i; ++k) s -= l(i, k) * x(k, c);
      x(i, c) = s / l(i, i);
    }
    for (size_t i = n; i-- > 0;) {
      double s = x(i, c);
      for (size_t k = i + 1; k < n; ++k) s -= l(k, i) * x(k, c);
      x(i, c) = s / l(i, i);
    }
  }
  return x;
}

Matrix RidgeRegression(const Matrix& a, const Matrix& b, double lambda) {
  RMI_CHECK_EQ(a.rows(), b.rows());
  // Normal equations via the transpose-aware GEMM — no explicit A^T
  // materialization (A is n x k with n in the thousands for the
  // regression baselines).
  Matrix ata, atb;
  Gemm(1.0, a, /*trans_a=*/true, a, /*trans_b=*/false, 0.0, &ata);
  Gemm(1.0, a, /*trans_a=*/true, b, /*trans_b=*/false, 0.0, &atb);
  return CholeskySolve(ata, atb, lambda);
}

}  // namespace rmi::la
