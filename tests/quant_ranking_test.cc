// The quantized ranking path (src/la/quant.h + KnnEstimator::EstimateBatch):
//  * QuantizeRefs recovers per-AP scale/zero-point and round-trips every
//    cell within half a quantization step;
//  * QuantizeQueryRow handles kNull entries (value 0, mask 0, excluded
//    from norm and error bound) and clamps out-of-range values with the
//    residual charged to the error bound;
//  * GemmQuantNN / MaskedQuantRowNorms match their naive integer
//    reference loops exactly (integer arithmetic has no rounding);
//  * the headline property: EstimateBatch is bit-identical to per-record
//    Estimate across 1k random queries, complete and 30%-null, on fitted
//    estimators and on a Clone of one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/missing.h"
#include "common/rng.h"
#include "common/topc.h"
#include "la/quant.h"
#include "positioning/estimators.h"
#include "serving/synthetic.h"

namespace rmi::la {
namespace {

TEST(QuantizeRefsTest, RecoversPerApScaleAndZeroPoint) {
  // Column 0 spans [-95, -5] (range 90 -> scale 90/254, above the floor),
  // column 1 spans [-50, -40] (range 10 -> floored scale), column 2 is
  // constant (degenerate: also floored).
  Matrix refs(3, 3);
  refs(0, 0) = -95.0; refs(1, 0) = -50.0; refs(2, 0) = -5.0;
  refs(0, 1) = -50.0; refs(1, 1) = -45.0; refs(2, 1) = -40.0;
  refs(0, 2) = -70.0; refs(1, 2) = -70.0; refs(2, 2) = -70.0;
  const QuantizedRefs q = QuantizeRefs(refs);
  ASSERT_EQ(q.rows, 3u);
  ASSERT_EQ(q.cols, 3u);
  EXPECT_EQ(q.padded % kQuantLanePad, 0u);
  EXPECT_GE(q.padded, q.rows);

  EXPECT_NEAR(q.scale[0], 90.0 / 254.0, 1e-12);
  EXPECT_NEAR(q.zero_point[0], -50.0, 1e-12);
  EXPECT_DOUBLE_EQ(q.scale[1], kQuantMinScale);  // floored
  EXPECT_NEAR(q.zero_point[1], -45.0, 1e-12);
  EXPECT_DOUBLE_EQ(q.scale[2], kQuantMinScale);  // degenerate column
  EXPECT_DOUBLE_EQ(q.min_scale, kQuantMinScale);
  EXPECT_NEAR(q.max_scale, 90.0 / 254.0, 1e-12);

  // Round trip: dequantized cell within scale/2 of the original, squares
  // and norms consistent with the stored int8 values.
  for (size_t j = 0; j < q.cols; ++j) {
    for (size_t r = 0; r < q.rows; ++r) {
      const int8_t v = q.values[j * q.padded + r];
      EXPECT_LE(std::abs(static_cast<int>(v)), 127);
      const double back = q.zero_point[j] + q.scale[j] * v;
      EXPECT_LE(std::fabs(back - refs(r, j)), q.scale[j] * 0.5 + 1e-12)
          << "col " << j << " row " << r;
      EXPECT_EQ(q.squares[j * q.padded + r],
                static_cast<int16_t>(static_cast<int>(v) * v));
    }
    // Padding rows stay zero so they contribute nothing to any kernel.
    for (size_t r = q.rows; r < q.padded; ++r) {
      EXPECT_EQ(q.values[j * q.padded + r], 0);
      EXPECT_EQ(q.squares[j * q.padded + r], 0);
    }
  }
  for (size_t r = 0; r < q.rows; ++r) {
    int32_t norm = 0;
    for (size_t j = 0; j < q.cols; ++j) {
      const int32_t v = q.values[j * q.padded + r];
      norm += v * v;
    }
    EXPECT_EQ(q.norms[r], norm);
  }
}

TEST(QuantizeQueryRowTest, NullEntriesYieldZeroValueAndMask) {
  Rng rng(5);
  const Matrix refs = Matrix::Random(8, 6, rng, -95.0, -35.0);
  const QuantizedRefs q = QuantizeRefs(refs);
  std::vector<double> query(6, -60.0);
  query[1] = kNull;
  query[4] = kNull;
  std::vector<int8_t> values(6), mask(6);
  double err = 0.0;
  const int32_t norm =
      la::QuantizeQueryRow(q, query.data(), values.data(), mask.data(), &err);
  EXPECT_EQ(values[1], 0);
  EXPECT_EQ(mask[1], 0);
  EXPECT_EQ(values[4], 0);
  EXPECT_EQ(mask[4], 0);
  int32_t expect_norm = 0;
  double expect_err_sq = 0.0;
  for (size_t j = 0; j < 6; ++j) {
    if (IsNull(query[j])) continue;
    EXPECT_EQ(mask[j], 1);
    expect_norm += static_cast<int32_t>(values[j]) * values[j];
    const double back = q.zero_point[j] + q.scale[j] * values[j];
    const double term = std::fabs(query[j] - back) + 0.5 * q.scale[j];
    expect_err_sq += term * term;
  }
  EXPECT_EQ(norm, expect_norm);
  EXPECT_NEAR(err, std::sqrt(expect_err_sq), 1e-12);
}

TEST(QuantizeQueryRowTest, OutOfRangeValuesClampAndChargeTheErrorBound) {
  // References all near -60; a query at 0 dBm clamps to +127 steps and the
  // whole residual must land in the error bound so the candidate band
  // still covers the true neighbors.
  const Matrix refs(4, 2, -60.0);
  const QuantizedRefs q = QuantizeRefs(refs);
  const std::vector<double> query = {0.0, -60.0};
  std::vector<int8_t> values(2), mask(2);
  double err = 0.0;
  la::QuantizeQueryRow(q, query.data(), values.data(), mask.data(), &err);
  EXPECT_EQ(values[0], 127);
  const double back = q.zero_point[0] + q.scale[0] * 127.0;
  EXPECT_GE(err, std::fabs(0.0 - back));  // clamp residual is covered
}

TEST(GemmQuantNNTest, MatchesNaiveIntegerLoop) {
  Rng rng(11);
  const size_t m = 5, k = 17, n = kQuantLanePad + 3;  // exercises the tail
  std::vector<int8_t> a(m * k), b(k * n);
  for (auto& v : a) v = static_cast<int8_t>(rng.Index(255)) ;
  for (auto& v : b) v = static_cast<int8_t>(rng.Index(255));
  std::vector<int32_t> got(m * n, -1), want(m * n, 0);
  GemmQuantNN(a.data(), b.data(), got.data(), m, k, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (size_t kx = 0; kx < k; ++kx) {
        acc += static_cast<int32_t>(a[i * k + kx]) *
               static_cast<int32_t>(b[kx * n + j]);
      }
      want[i * n + j] = acc;
    }
  }
  EXPECT_EQ(got, want);
}

TEST(MaskedQuantRowNormsTest, MatchesNaiveIntegerLoop) {
  Rng rng(13);
  const size_t m = 4, k = 9, n = kQuantLanePad * 2 + 5;
  std::vector<int8_t> mask(m * k);
  std::vector<int16_t> squares(k * n);
  for (auto& v : mask) v = rng.Index(2) == 0 ? 0 : 1;
  for (auto& v : squares) v = static_cast<int16_t>(rng.Index(16130));
  std::vector<int32_t> got(m * n, -1), want(m * n, 0);
  MaskedQuantRowNorms(mask.data(), squares.data(), got.data(), m, k, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (size_t kx = 0; kx < k; ++kx) {
        if (mask[i * k + kx]) acc += squares[kx * n + j];
      }
      want[i * n + j] = acc;
    }
  }
  EXPECT_EQ(got, want);
}

TEST(StreamingTopCTest, KeepsSmallestAscendingAndHandlesBoundaries) {
  StreamingTopC<int> top(3, 1 << 30);
  EXPECT_EQ(top.size(), 0u);
  EXPECT_EQ(top.worst(), 1 << 30);  // sentinel until filled
  for (int v : {7, 3, 9, 1, 3, 8}) top.Push(v);
  EXPECT_EQ(top.seen(), 6u);
  EXPECT_EQ(top.size(), 3u);
  EXPECT_EQ(top.worst(), 3);
  EXPECT_EQ(top.Take(), (std::vector<int>{1, 3, 3}));

  // Fewer pushes than capacity: Take returns exactly what was pushed.
  StreamingTopC<int> small(5, 1 << 30);
  small.Push(4);
  small.Push(2);
  EXPECT_EQ(small.size(), 2u);
  EXPECT_EQ(small.Take(), (std::vector<int>{2, 4}));
  EXPECT_EQ(small.worst(), 1 << 30);

  // Capacity 0 drops everything instead of invoking UB.
  StreamingTopC<int> zero(0, 1 << 30);
  zero.Push(1);
  EXPECT_EQ(zero.size(), 0u);
  EXPECT_TRUE(zero.Take().empty());
}

}  // namespace
}  // namespace rmi::la

namespace rmi::positioning {
namespace {

/// The headline acceptance property: the quantized path returns the same
/// bits as the scalar reference path, because the widened candidate band
/// plus exact rescore makes quantization a pure ranking accelerator.
TEST(QuantRankingTest, BitIdenticalToScalarAcross1kQueries) {
  const auto map = serving::MakeSyntheticServingMap(20, 15, 24, 11);
  Rng rng(3);
  KnnEstimator knn(3, false);
  KnnEstimator wknn(5, true);
  knn.Fit(map, rng);
  wknn.Fit(map, rng);
  // Eval's parallel repeats run on clones, so a clone must answer alike.
  const std::unique_ptr<LocationEstimator> wknn_clone = wknn.Clone();

  const la::Matrix complete =
      serving::MakeSyntheticQueries(map, 500, 0.0, 21);
  const la::Matrix partial =
      serving::MakeSyntheticQueries(map, 500, 0.3, 22);
  const LocationEstimator* estimators[] = {&knn, &wknn, wknn_clone.get()};
  for (const LocationEstimator* e : estimators) {
    for (const la::Matrix* queries : {&complete, &partial}) {
      const std::vector<geom::Point> batch = e->EstimateBatch(*queries);
      ASSERT_EQ(batch.size(), queries->rows());
      for (size_t i = 0; i < queries->rows(); ++i) {
        const geom::Point scalar =
            e->Estimate(serving::MatrixRow(*queries, i));
        // EXPECT_EQ on doubles: bit-identical, not just close.
        EXPECT_EQ(batch[i].x, scalar.x) << e->name() << " row " << i;
        EXPECT_EQ(batch[i].y, scalar.y) << e->name() << " row " << i;
      }
    }
  }
}

/// k (and with it the candidate count c) at or beyond the reference count
/// must degrade to rescore-everything, still bit-identical to scalar.
TEST(QuantRankingTest, KAtLeastReferenceCountStaysExact) {
  const auto map = serving::MakeSyntheticServingMap(3, 3, 6, 5);  // 9 refs
  Rng rng(2);
  for (size_t k : {9u, 15u}) {
    KnnEstimator knn(k, true);
    knn.Fit(map, rng);
    const la::Matrix queries = serving::MakeSyntheticQueries(map, 16, 0.2, 41);
    const std::vector<geom::Point> batch = knn.EstimateBatch(queries);
    for (size_t i = 0; i < queries.rows(); ++i) {
      const geom::Point scalar = knn.Estimate(serving::MatrixRow(queries, i));
      EXPECT_EQ(batch[i].x, scalar.x) << "k=" << k << " row " << i;
      EXPECT_EQ(batch[i].y, scalar.y) << "k=" << k << " row " << i;
    }
  }
}

/// Duplicate reference rows force exact distance ties; the (distance,
/// index) tie order must match the scalar path.
TEST(QuantRankingTest, ExactDistanceTiesBreakByIndexOnEveryKernel) {
  rmap::RadioMap map(4);
  // Three distinct fingerprints, each duplicated at two RPs.
  const double base[3][4] = {{-40, -50, -60, -70},
                             {-45, -55, -65, -75},
                             {-80, -70, -60, -50}};
  for (int copy = 0; copy < 2; ++copy) {
    for (int f = 0; f < 3; ++f) {
      rmap::Record r;
      r.rssi.assign(base[f], base[f] + 4);
      r.has_rp = true;
      r.rp = geom::Point{double(f + 3 * copy), double(copy)};
      map.Add(r);
    }
  }
  Rng rng(4);
  la::Matrix queries(2, 4);
  for (size_t j = 0; j < 4; ++j) {
    queries(0, j) = base[0][j] + 1.0;
    queries(1, j) = base[2][j] - 0.5;
  }
  KnnEstimator knn(3, false);
  knn.Fit(map, rng);
  const std::vector<geom::Point> batch = knn.EstimateBatch(queries);
  for (size_t i = 0; i < queries.rows(); ++i) {
    const geom::Point scalar = knn.Estimate(serving::MatrixRow(queries, i));
    EXPECT_EQ(batch[i].x, scalar.x) << "row " << i;
    EXPECT_EQ(batch[i].y, scalar.y) << "row " << i;
  }
}

}  // namespace
}  // namespace rmi::positioning
