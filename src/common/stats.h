// Small statistics helpers shared by metrics and benches.
#ifndef RMI_COMMON_STATS_H_
#define RMI_COMMON_STATS_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace rmi {

/// Streaming mean/variance (Welford), or moments rebuilt with
/// FromMoments (how obs::Histogram::Summary reports its atomics).
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
  }

  /// Rebuilds an accumulator from raw moments (m2 = sum of squared
  /// deviations from the mean), e.g. from count/sum/sumsq kept in atomics.
  static RunningStats FromMoments(size_t n, double mean, double m2,
                                  double min, double max) {
    RunningStats s;
    s.n_ = n;
    s.mean_ = n ? mean : 0.0;
    s.m2_ = n ? m2 : 0.0;
    s.min_ = n ? min : 0.0;
    s.max_ = n ? max : 0.0;
    return s;
  }

  size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a vector (0 for empty).
double Mean(const std::vector<double>& v);

/// Sample standard deviation (0 for size < 2). Test oracle: the two-pass
/// reference that RunningStats' rebuilt moments are checked against; no
/// product path calls it.
double Stddev(const std::vector<double>& v);

/// Linear-interpolated percentile, p in [0, 100]. v need not be sorted.
double Percentile(std::vector<double> v, double p);

/// Pearson correlation of two equal-length vectors (0 if degenerate).
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

}  // namespace rmi

#endif  // RMI_COMMON_STATS_H_
