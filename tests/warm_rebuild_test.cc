// Exactness of the warm rebuild chain. Every warm stage claims
// bit-identity with its cold counterpart (SpatialIndex::BuildIncremental,
// delta differentiation for row-local differentiators, the warm
// BuildSnapshot as a whole with a KNN estimator). These tests pin those
// claims down, including every documented cold-fallback trigger.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clustering/differentiation.h"
#include "common/missing.h"
#include "common/rng.h"
#include "positioning/estimators.h"
#include "radiomap/radio_map.h"
#include "serving/snapshot.h"
#include "serving/spatial_index.h"
#include "serving/synthetic.h"

namespace rmi::serving {
namespace {

std::vector<double> RowOf(const la::Matrix& m, size_t i) {
  std::vector<double> row(m.cols());
  for (size_t j = 0; j < m.cols(); ++j) row[j] = m(i, j);
  return row;
}

struct RefSet {
  la::Matrix refs;
  std::vector<geom::Point> positions;
};

RefSet ExtractRefs(const rmap::RadioMap& map) {
  RefSet out{la::Matrix(map.size(), map.num_aps()), {}};
  for (size_t i = 0; i < map.size(); ++i) {
    for (size_t j = 0; j < map.num_aps(); ++j) {
      out.refs(i, j) = map.record(i).rssi[j];
    }
    out.positions.push_back(map.record(i).rp);
  }
  return out;
}

/// Incremental and cold indexes must agree cell-for-cell on observable
/// state and answer every query identically (exact distances included).
void ExpectIndexesIdentical(const SpatialIndex& warm, const SpatialIndex& cold,
                            const la::Matrix& refs, const la::Matrix& queries) {
  ASSERT_EQ(warm.num_refs(), cold.num_refs());
  ASSERT_EQ(warm.num_cells(), cold.num_cells());
  for (size_t i = 0; i < queries.rows(); ++i) {
    const std::vector<double> q = RowOf(queries, i);
    for (size_t k : {1u, 4u, 9u}) {
      const auto got = warm.Search(refs, q, k);
      const auto want = cold.Search(refs, q, k);
      ASSERT_EQ(got.size(), want.size()) << "query " << i << " k=" << k;
      for (size_t t = 0; t < want.size(); ++t) {
        EXPECT_EQ(got[t].first, want[t].first) << "query " << i << " k=" << k;
        EXPECT_EQ(got[t].second, want[t].second) << "query " << i << " k=" << k;
      }
    }
  }
}

TEST(SpatialIndexIncrementalTest, ValueChangedRowsMatchColdBuildExactly) {
  const rmap::RadioMap map = MakeSyntheticServingMap(14, 10, 9, 5);
  RefSet base = ExtractRefs(map);
  SpatialIndex previous;
  previous.Build(base.refs, base.positions, 4.0);

  // Re-imputation moved a few fingerprints; RPs never move.
  const std::vector<size_t> changed = {3, 17, 40, base.refs.rows() - 1};
  for (size_t r : changed) {
    for (size_t j = 0; j < base.refs.cols(); ++j) base.refs(r, j) += 1.5;
  }
  SpatialIndex warm, cold;
  warm.BuildIncremental(base.refs, base.positions, 4.0, previous, changed);
  cold.Build(base.refs, base.positions, 4.0);
  const la::Matrix queries = MakeSyntheticQueries(map, 24, 0.2, 77);
  ExpectIndexesIdentical(warm, cold, base.refs, queries);
}

TEST(SpatialIndexIncrementalTest, AppendedRowsMatchColdBuildExactly) {
  const rmap::RadioMap map = MakeSyntheticServingMap(12, 9, 8, 6);
  const RefSet base = ExtractRefs(map);
  SpatialIndex previous;
  previous.Build(base.refs, base.positions, 4.0);

  // Two new RPs inside the old bounding box (the reuse-eligible case) plus
  // one changed surviving row.
  const size_t n0 = base.refs.rows();
  RefSet grown{la::Matrix(n0 + 2, base.refs.cols()), base.positions};
  for (size_t i = 0; i < n0; ++i) {
    for (size_t j = 0; j < base.refs.cols(); ++j) {
      grown.refs(i, j) = base.refs(i, j);
    }
  }
  for (size_t a = 0; a < 2; ++a) {
    const size_t src = 5 + 11 * a;
    for (size_t j = 0; j < base.refs.cols(); ++j) {
      grown.refs(n0 + a, j) = base.refs(src, j) - 2.0;
    }
    grown.positions.push_back(base.positions[src]);
  }
  for (size_t j = 0; j < grown.refs.cols(); ++j) grown.refs(8, j) -= 1.0;

  const std::vector<size_t> changed = {8, n0, n0 + 1};
  SpatialIndex warm, cold;
  warm.BuildIncremental(grown.refs, grown.positions, 4.0, previous, changed);
  cold.Build(grown.refs, grown.positions, 4.0);
  const la::Matrix queries = MakeSyntheticQueries(map, 24, 0.0, 79);
  ExpectIndexesIdentical(warm, cold, grown.refs, queries);
}

TEST(SpatialIndexIncrementalTest, FallbacksStillMatchColdBuild) {
  const rmap::RadioMap map = MakeSyntheticServingMap(10, 8, 7, 7);
  const RefSet base = ExtractRefs(map);
  SpatialIndex previous;
  previous.Build(base.refs, base.positions, 4.0);

  const size_t n0 = base.refs.rows();
  RefSet grown{la::Matrix(n0 + 1, base.refs.cols()), base.positions};
  for (size_t i = 0; i < n0; ++i) {
    for (size_t j = 0; j < base.refs.cols(); ++j) {
      grown.refs(i, j) = base.refs(i, j);
    }
  }
  for (size_t j = 0; j < base.refs.cols(); ++j) {
    grown.refs(n0, j) = base.refs(0, j);
  }
  // (a) New RP *outside* the old bounding box: grid geometry moves, the
  // incremental path must detect it and cold-build.
  grown.positions.push_back({-50.0, -50.0});
  SpatialIndex warm_a, cold_a;
  warm_a.BuildIncremental(grown.refs, grown.positions, 4.0, previous, {n0});
  cold_a.Build(grown.refs, grown.positions, 4.0);
  const la::Matrix queries = MakeSyntheticQueries(map, 16, 0.1, 81);
  ExpectIndexesIdentical(warm_a, cold_a, grown.refs, queries);

  // (b) Appended row missing from changed_rows: reuse would silently drop
  // it from every cell, so the guard must force a cold build instead.
  grown.positions.back() = base.positions[0];
  SpatialIndex warm_b, cold_b;
  warm_b.BuildIncremental(grown.refs, grown.positions, 4.0, previous, {});
  cold_b.Build(grown.refs, grown.positions, 4.0);
  ExpectIndexesIdentical(warm_b, cold_b, grown.refs, queries);

  // (c) Empty previous index: nothing to reuse.
  SpatialIndex empty_previous, warm_c, cold_c;
  warm_c.BuildIncremental(base.refs, base.positions, 4.0, empty_previous, {});
  cold_c.Build(base.refs, base.positions, 4.0);
  ExpectIndexesIdentical(warm_c, cold_c, base.refs, queries);
}

/// Survey map with nulls: two areas, append-only growth between rebuilds.
rmap::RadioMap SurveyMap(size_t num_records) {
  rmap::RadioMap map(4);
  const double nul = kNull;
  for (size_t i = 0; i < num_records; ++i) {
    rmap::Record r;
    const bool left = (i % 2) == 0;
    const double base = -50.0 - double(i % 7);
    r.rssi = left ? std::vector<double>{base, base - 10.0, nul, nul}
                  : std::vector<double>{nul, nul, base - 20.0, base - 30.0};
    if (i % 5 == 3) r.rssi[left ? 1 : 2] = nul;  // a MAR-style hole
    r.rp = {left ? double(i) * 0.5 : 10.0 + double(i) * 0.5, 1.0};
    r.has_rp = true;
    r.time = double(i);
    map.Add(r);
  }
  return map;
}

void ExpectMasksEqual(const rmap::MaskMatrix& got,
                      const rmap::MaskMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(got.at(i, j), want.at(i, j)) << "cell (" << i << "," << j << ")";
    }
  }
}

TEST(DifferentiateDeltaTest, RowLocalDeltaEqualsFullDifferentiation) {
  const cluster::MarOnlyDifferentiator differentiator;
  const rmap::RadioMap full = SurveyMap(30);
  const rmap::RadioMap base = SurveyMap(22);  // byte-identical prefix

  Rng rng_a(3), rng_b(3), rng_c(3);
  const rmap::MaskMatrix previous = differentiator.Differentiate(base, rng_a);
  const rmap::MaskMatrix delta =
      differentiator.DifferentiateDelta(full, previous, base.size(), rng_b);
  const rmap::MaskMatrix want = differentiator.Differentiate(full, rng_c);
  ExpectMasksEqual(delta, want);
}

TEST(DifferentiateDeltaTest, FallsBackToFullDifferentiation) {
  const cluster::MarOnlyDifferentiator differentiator;
  const rmap::RadioMap full = SurveyMap(16);
  Rng rng_a(9), rng_b(9), rng_c(9), rng_d(9);
  const rmap::MaskMatrix want = differentiator.Differentiate(full, rng_a);

  // No previous rows: nothing to splice.
  const rmap::MaskMatrix empty_previous(0, full.num_aps());
  ExpectMasksEqual(
      differentiator.DifferentiateDelta(full, empty_previous, 0, rng_b), want);

  // Shrunk map: a previous rebuild that labeled more rows than the map now
  // has (num_previous > N) cannot be spliced.
  Rng mk(1);
  const rmap::MaskMatrix drifted =
      cluster::MarOnlyDifferentiator().Differentiate(SurveyMap(12), mk);
  ExpectMasksEqual(
      differentiator.DifferentiateDelta(full, drifted, full.size() + 5, rng_c),
      want);

  // num_previous larger than the previous mask: inconsistent inputs.
  const rmap::MaskMatrix previous(8, full.num_aps());
  ExpectMasksEqual(
      differentiator.DifferentiateDelta(full, previous, 12, rng_d), want);
}

TEST(WarmSnapshotTest, WarmBuildIsBitIdenticalToColdForKnn) {
  const rmap::RadioMap base = MakeSyntheticServingMap(12, 9, 10, 13);
  Rng rng0(5);
  const std::shared_ptr<const MapSnapshot> previous = BuildSnapshot(
      base, std::make_unique<positioning::KnnEstimator>(3, true), rng0,
      SnapshotOptions{1, 6.0});

  // The next imputed map: two surviving rows re-imputed, one RP appended
  // at a surveyed location (inside the old bounding box).
  rmap::RadioMap next = base;
  for (size_t j = 0; j < next.num_aps(); ++j) {
    next.record(4).rssi[j] -= 2.0;
    next.record(30).rssi[j] += 1.0;
  }
  rmap::Record extra = base.record(7);
  for (double& v : extra.rssi) v -= 3.0;
  next.Add(extra);
  const std::vector<size_t> changed = {4, 30, base.size()};

  SnapshotOptions cold_opt{2, 6.0};
  SnapshotOptions warm_opt = cold_opt;
  warm_opt.warm_previous = previous.get();
  warm_opt.changed_rows = &changed;

  Rng rng_cold(8), rng_warm(8);
  const auto cold = BuildSnapshot(
      next, std::make_unique<positioning::KnnEstimator>(3, true), rng_cold,
      cold_opt);
  const auto warm = BuildSnapshot(
      next, std::make_unique<positioning::KnnEstimator>(3, true), rng_warm,
      warm_opt);

  // The checksum covers fingerprints, positions, index, and version — equal
  // stamps mean the warm path reproduced the cold snapshot bit-for-bit.
  ASSERT_TRUE(cold->Consistent());
  ASSERT_TRUE(warm->Consistent());
  EXPECT_EQ(warm->checksum, cold->checksum);
  EXPECT_EQ(warm->index.num_cells(), cold->index.num_cells());

  const la::Matrix queries = MakeSyntheticQueries(next, 20, 0.1, 23);
  const auto a = cold->estimator->EstimateBatch(queries);
  const auto b = warm->estimator->EstimateBatch(queries);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
  }
}

}  // namespace
}  // namespace rmi::serving
