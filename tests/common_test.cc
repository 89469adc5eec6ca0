#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/missing.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"

namespace rmi {
namespace {

TEST(MissingTest, NullSentinelRoundTrips) {
  EXPECT_TRUE(IsNull(kNull));
  EXPECT_FALSE(IsNull(0.0));
  EXPECT_FALSE(IsNull(-100.0));
  EXPECT_FALSE(IsNull(kMnarFillDbm));
}

TEST(MissingTest, ClampRssiBounds) {
  EXPECT_DOUBLE_EQ(ClampRssi(-150.0), kMinObservableRssiDbm);
  EXPECT_DOUBLE_EQ(ClampRssi(10.0), kMaxObservableRssiDbm);
  EXPECT_DOUBLE_EQ(ClampRssi(-55.5), -55.5);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.UniformInt(0, 1000) == b.UniformInt(0, 1000));
  EXPECT_LT(same, 10);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformInHalfOpenRange) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.Add(rng.Gaussian(2.0, 3.0));
  EXPECT_NEAR(st.mean(), 2.0, 0.1);
  EXPECT_NEAR(st.stddev(), 3.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(8);
  auto s = rng.SampleWithoutReplacement(50, 20);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t v : s) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleAllElements) {
  Rng rng(9);
  auto s = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(10);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(11);
  Rng child = a.Fork();
  // Forked stream differs from parent continuation.
  int same = 0;
  for (int i = 0; i < 50; ++i) same += (a.UniformInt(0, 1 << 20) == child.UniformInt(0, 1 << 20));
  EXPECT_LT(same, 5);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats st;
  for (double v : {1.0, 2.0, 3.0, 4.0}) st.Add(v);
  EXPECT_EQ(st.count(), 4u);
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_NEAR(st.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 4.0);
}

TEST(RunningStatsTest, FromMomentsRoundTrip) {
  RunningStats reference;
  for (double v : {2.0, 4.0, 6.0, 8.0}) reference.Add(v);
  // Rebuild from raw moments (the path a histogram takes: it keeps
  // count/sum/sumsq in atomics, m2 = sumsq - n*mean^2).
  const double n = 4.0, sum = 20.0, sumsq = 120.0;
  const double mean = sum / n;
  const double m2 = sumsq - n * mean * mean;
  const RunningStats rebuilt =
      RunningStats::FromMoments(4, mean, m2, 2.0, 8.0);
  EXPECT_EQ(rebuilt.count(), reference.count());
  EXPECT_DOUBLE_EQ(rebuilt.mean(), reference.mean());
  EXPECT_NEAR(rebuilt.variance(), reference.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(rebuilt.min(), reference.min());
  EXPECT_DOUBLE_EQ(rebuilt.max(), reference.max());

  // An accumulator's own moments rebuild it, and both match the
  // closed-form moments of the raw samples.
  Rng rng(42);
  std::vector<double> all;
  RunningStats stream;
  for (int i = 0; i < 1000; ++i) {
    all.push_back(rng.Uniform(-50.0, 150.0));
    stream.Add(all.back());
  }
  const RunningStats copy = RunningStats::FromMoments(
      stream.count(), stream.mean(),
      stream.variance() * static_cast<double>(stream.count() - 1),
      stream.min(), stream.max());
  EXPECT_EQ(copy.count(), stream.count());
  EXPECT_DOUBLE_EQ(copy.mean(), stream.mean());
  EXPECT_NEAR(copy.variance(), stream.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(copy.min(), *std::min_element(all.begin(), all.end()));
  EXPECT_DOUBLE_EQ(copy.max(), *std::max_element(all.begin(), all.end()));
  EXPECT_NEAR(copy.mean(), Mean(all), 1e-9);
  EXPECT_NEAR(copy.stddev(), Stddev(all), 1e-6);

  // Zero samples rebuild the empty accumulator, whatever the moments say.
  const RunningStats empty = RunningStats::FromMoments(0, 5.0, 3.0, 1.0, 9.0);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.variance(), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
}

TEST(StatsTest, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({2.0, 4.0}), 3.0);
  EXPECT_DOUBLE_EQ(Stddev({5.0}), 0.0);
  EXPECT_NEAR(Stddev({1.0, 2.0, 3.0}), 1.0, 1e-12);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
}

TEST(StatsTest, PearsonCorrelationEndpoints) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
  std::vector<double> flat = {1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, flat), 0.0);
}

TEST(TableTest, AlignedRendering) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22.5"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|-"), std::string::npos);
}

TEST(TableTest, CsvEscapesCommas) {
  Table t({"a", "b"});
  t.AddRow({"x,y", "2"});
  EXPECT_NE(t.ToCsv().find("\"x,y\""), std::string::npos);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms >= s numerically
}

}  // namespace
}  // namespace rmi
