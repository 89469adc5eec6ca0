#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "clustering/differentiation.h"
#include "clustering/kmeans.h"
#include "clustering/strategies.h"
#include "common/missing.h"
#include "eval/factories.h"

namespace rmi::cluster {
namespace {

/// Two well-separated Gaussian blobs in 2-D feature space.
la::Matrix TwoBlobs(size_t per_blob, Rng& rng) {
  la::Matrix x(2 * per_blob, 2);
  for (size_t i = 0; i < per_blob; ++i) {
    x(i, 0) = rng.Gaussian(0.0, 0.3);
    x(i, 1) = rng.Gaussian(0.0, 0.3);
    x(per_blob + i, 0) = rng.Gaussian(10.0, 0.3);
    x(per_blob + i, 1) = rng.Gaussian(10.0, 0.3);
  }
  return x;
}

TEST(KMeansTest, SeparatesTwoBlobs) {
  Rng rng(1);
  la::Matrix x = TwoBlobs(30, rng);
  KMeansParams p;
  p.k = 2;
  const auto res = KMeans(x, p, rng);
  // All of blob 1 in one cluster, all of blob 2 in the other.
  for (size_t i = 1; i < 30; ++i) EXPECT_EQ(res.assignment[i], res.assignment[0]);
  for (size_t i = 31; i < 60; ++i) EXPECT_EQ(res.assignment[i], res.assignment[30]);
  EXPECT_NE(res.assignment[0], res.assignment[30]);
}

TEST(KMeansTest, WssDecreasesWithK) {
  Rng rng(2);
  la::Matrix x = TwoBlobs(25, rng);
  KMeansParams p1, p4;
  p1.k = 1;
  p4.k = 4;
  const double w1 = KMeans(x, p1, rng).wss;
  const double w4 = KMeans(x, p4, rng).wss;
  EXPECT_GT(w1, w4);
}

TEST(KMeansTest, KOneCenterIsMean) {
  Rng rng(3);
  la::Matrix x = TwoBlobs(10, rng);
  KMeansParams p;
  p.k = 1;
  const auto res = KMeans(x, p, rng);
  EXPECT_NEAR(res.centers(0, 0), x.Col(0).Mean(), 1e-9);
}

/// k-means as it was before la::SquaredDistances: scalar distances with
/// the exact early exit (a prefix that reaches the caller's bound is
/// returned as is). KMeans must reproduce it bit for bit, drawing the same
/// random numbers.
double EarlyExitDistance(const la::Matrix& x, size_t row,
                         const la::Matrix& centers, size_t c, double bound) {
  const size_t f = x.cols();
  const double* xr = &x.data()[row * f];
  const double* cr = &centers.data()[c * f];
  double s = 0.0;
  size_t j = 0;
  for (; j + 8 <= f; j += 8) {
    for (size_t u = 0; u < 8; ++u) {
      const double d = xr[j + u] - cr[j + u];
      s += d * d;
    }
    if (s >= bound) return s;
  }
  for (; j < f; ++j) {
    const double d = xr[j] - cr[j];
    s += d * d;
  }
  return s;
}

KMeansResult ReferenceKMeans(const la::Matrix& x, const KMeansParams& params,
                             Rng& rng) {
  const size_t n = x.rows();
  const size_t f = x.cols();
  const size_t k = std::min(params.k, n);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  la::Matrix centers(k, f);
  std::vector<double> min_d2(n, std::numeric_limits<double>::max());
  centers.SetRow(0, x.Row(rng.Index(n)));
  for (size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = EarlyExitDistance(x, i, centers, c - 1, min_d2[i]);
      if (d < min_d2[i]) min_d2[i] = d;
      total += min_d2[i];
    }
    size_t pick = 0;
    if (total > 0.0) {
      double r = rng.Uniform(0.0, total);
      for (size_t i = 0; i < n; ++i) {
        r -= min_d2[i];
        if (r <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng.Index(n);
    }
    centers.SetRow(c, x.Row(pick));
  }
  KMeansResult res;
  res.assignment.assign(n, 0);
  std::vector<size_t> counts(k);
  for (size_t iter = 0; iter < params.max_iters; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      int best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const double d = EarlyExitDistance(x, i, centers, c, best);
        if (d < best) {
          best = d;
          best_c = static_cast<int>(c);
        }
      }
      if (res.assignment[i] != best_c) {
        res.assignment[i] = best_c;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    centers = la::Matrix(k, f);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(res.assignment[i]);
      ++counts[c];
      for (size_t j = 0; j < f; ++j) centers(c, j) += x(i, j);
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        centers.SetRow(c, x.Row(rng.Index(n)));
        continue;
      }
      for (size_t j = 0; j < f; ++j) {
        centers(c, j) /= static_cast<double>(counts[c]);
      }
    }
  }
  res.centers = centers;
  for (size_t i = 0; i < n; ++i) {
    res.wss += EarlyExitDistance(x, i, centers,
                                 static_cast<size_t>(res.assignment[i]), kInf);
  }
  return res;
}

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// DasaKM-shaped features: `aps` binary AP columns (each row hears the APs
/// near its position) plus two location columns scaled by 0.1, with every
/// fifth row a duplicate of an earlier one so that exact distance ties
/// occur.
la::Matrix BinaryLocationFeatures(size_t n, size_t aps, Rng& rng) {
  la::Matrix x(n, aps + 2);
  for (size_t i = 0; i < n; ++i) {
    if (i % 5 == 4) {
      x.SetRow(i, x.Row(rng.Index(i)));
      continue;
    }
    const double px = rng.Uniform(0.0, 40.0), py = rng.Uniform(0.0, 20.0);
    for (size_t a = 0; a < aps; ++a) {
      const double ax = 40.0 * static_cast<double>(a) / static_cast<double>(aps);
      const bool heard = std::fabs(px - ax) < 12.0 && rng.Uniform(0.0, 1.0) < 0.8;
      x(i, a) = heard ? 1.0 : 0.0;
    }
    x(i, aps) = px * 0.1;
    x(i, aps + 1) = py * 0.1;
  }
  return x;
}

TEST(KMeansTest, BitMatchesEarlyExitReference) {
  // Full lane-parallel sums make the same decisions as the early-exit
  // prefixes they replace, so assignments, centers and wss are unchanged,
  // bit for bit. n = 37 and 203 are not multiples of the lane width; n = 5
  // is below most k, which KMeans clamps.
  for (uint64_t seed : {1, 2, 3}) {
    for (size_t n : {5, 37, 203}) {
      Rng data_rng(100 + seed);
      const la::Matrix x = BinaryLocationFeatures(n, 30, data_rng);
      for (size_t k : {1, 2, 7, 8, 9, 16, 17, 60}) {
        KMeansParams p;
        p.k = k;
        p.max_iters = 12;
        Rng rng(seed * 1000 + k), ref_rng(seed * 1000 + k);
        const KMeansResult got = KMeans(x, p, rng);
        const KMeansResult want = ReferenceKMeans(x, p, ref_rng);
        const std::string where = "seed " + std::to_string(seed) + " n " +
                                  std::to_string(n) + " k " + std::to_string(k);
        EXPECT_EQ(got.assignment, want.assignment) << where;
        ASSERT_EQ(got.centers.rows(), want.centers.rows()) << where;
        for (size_t i = 0; i < want.centers.size(); ++i) {
          EXPECT_EQ(Bits(got.centers.data()[i]), Bits(want.centers.data()[i]))
              << where << " center entry " << i;
        }
        EXPECT_EQ(Bits(got.wss), Bits(want.wss)) << where;
        EXPECT_EQ(rng.Index(1000), ref_rng.Index(1000)) << where;
      }
    }
  }
}

TEST(KMeansTest, KClampedToSampleCount) {
  Rng rng(4);
  la::Matrix x(3, 2);
  KMeansParams p;
  p.k = 10;
  const auto res = KMeans(x, p, rng);
  for (int a : res.assignment) EXPECT_LT(a, 3);
}

TEST(ElbowTest, FindsTwoBlobKnee) {
  Rng rng(6);
  la::Matrix x = TwoBlobs(30, rng);
  KMeansParams base;
  const size_t k = ChooseKElbow(x, {1, 2, 3, 4, 5, 6}, base, rng);
  EXPECT_EQ(k, 2u);
}

TEST(KCandidateLadderTest, CoversRangeAscending) {
  const auto ks = KCandidateLadder(60);
  EXPECT_EQ(ks.front(), 1u);
  EXPECT_EQ(ks.back(), 60u);
  for (size_t i = 1; i < ks.size(); ++i) EXPECT_GT(ks[i], ks[i - 1]);
}

/// A tiny radio map with two rooms: records 0-4 in the left area observe
/// AP0 and AP1; records 5-9 in the right area observe AP2 and AP3. One
/// record in each group randomly misses one of its "home" APs (a MAR).
rmap::RadioMap TwoAreaMap() {
  rmap::RadioMap map(4);
  auto add = [&](std::vector<double> rssi, double x, double t) {
    rmap::Record r;
    r.rssi = std::move(rssi);
    r.has_rp = true;
    r.rp = {x, 1.0};
    r.time = t;
    map.Add(r);
  };
  const double n = kNull;
  add({-50, -60, n, n}, 0.0, 0);
  add({-51, -61, n, n}, 0.5, 1);
  add({-52, n, n, n}, 1.0, 2);  // MAR: AP1 missing in the left area
  add({-53, -63, n, n}, 1.5, 3);
  add({-54, -64, n, n}, 2.0, 4);
  add({n, n, -70, -80}, 10.0, 5);
  add({n, n, -71, -81}, 10.5, 6);
  add({n, n, n, -82}, 11.0, 7);  // MAR: AP2 missing in the right area
  add({n, n, -73, -83}, 11.5, 8);
  add({n, n, -74, -84}, 12.0, 9);
  return map;
}

TEST(BuildSampleSetTest, ProfilesAndLocations) {
  const auto map = TwoAreaMap();
  const SampleSet s = BuildSampleSet(map, 0.1);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(s.num_aps, 4u);
  EXPECT_EQ(s.features.cols(), 6u);
  EXPECT_EQ(s.profiles[0], (std::vector<uint8_t>{1, 1, 0, 0}));
  EXPECT_EQ(s.profiles[2], (std::vector<uint8_t>{1, 0, 0, 0}));
  EXPECT_DOUBLE_EQ(s.features(5, 4), 1.0);  // 10.0 * 0.1
}

TEST(DifferentiationTest, Algorithm2MarksMarAndMnar) {
  const auto map = TwoAreaMap();
  const SampleSet s = BuildSampleSet(map, 0.1);
  // Perfect clustering by construction.
  Clustering c;
  c.assignment = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  c.k = 2;
  const auto mask = DifferentiateWithClustering(s, c, 0.1);
  // Record 2's missing AP1: 4/5 of the left cluster observes AP1 -> MAR.
  EXPECT_EQ(mask.at(2, 1), rmap::MaskValue::kMar);
  // Record 7's missing AP2: 4/5 of the right cluster observes AP2 -> MAR.
  EXPECT_EQ(mask.at(7, 2), rmap::MaskValue::kMar);
  // Left cluster never sees AP2/AP3 -> MNAR there.
  EXPECT_EQ(mask.at(0, 2), rmap::MaskValue::kMnar);
  EXPECT_EQ(mask.at(3, 3), rmap::MaskValue::kMnar);
  // Observed cells stay observed.
  EXPECT_EQ(mask.at(0, 0), rmap::MaskValue::kObserved);
}

TEST(DifferentiationTest, EtaZeroMakesEverythingMar) {
  const auto map = TwoAreaMap();
  const SampleSet s = BuildSampleSet(map, 0.1);
  Clustering c;
  c.assignment.assign(10, 0);
  c.k = 1;
  const auto mask = DifferentiateWithClustering(s, c, /*eta=*/0.0);
  // With eta = 0, any AP observed at least once in the cluster flips all
  // its missing cells to MAR (every AP is observed somewhere here).
  EXPECT_EQ(mask.CountOf(rmap::MaskValue::kMnar), 0u);
}

TEST(DifferentiationTest, EtaOneMakesEverythingMnar) {
  const auto map = TwoAreaMap();
  const SampleSet s = BuildSampleSet(map, 0.1);
  Clustering c;
  c.assignment.assign(10, 0);
  c.k = 1;
  const auto mask = DifferentiateWithClustering(s, c, /*eta=*/1.0);
  EXPECT_EQ(mask.CountOf(rmap::MaskValue::kMar), 0u);
}

TEST(DifferentiationTest, MarOnlyAndMnarOnlyBaselines) {
  const auto map = TwoAreaMap();
  Rng rng(7);
  const auto mar_mask = MarOnlyDifferentiator().Differentiate(map, rng);
  EXPECT_EQ(mar_mask.CountOf(rmap::MaskValue::kMnar), 0u);
  EXPECT_EQ(mar_mask.CountOf(rmap::MaskValue::kMar), 22u);
  const auto mnar_mask = MnarOnlyDifferentiator().Differentiate(map, rng);
  EXPECT_EQ(mnar_mask.CountOf(rmap::MaskValue::kMar), 0u);
  EXPECT_EQ(mnar_mask.CountOf(rmap::MaskValue::kMnar), 22u);
}

TEST(GroundTruthSamplingTest, ProportionRespected) {
  const auto map = TwoAreaMap();
  const SampleSet s = BuildSampleSet(map, 0.1);
  Rng rng(8);
  const auto gt = SampleGroundTruth(s, /*gamma=*/2.0, /*num_mnar=*/4,
                                    /*group=*/2, rng);
  size_t mars = 0, mnars = 0;
  for (const auto& c : gt.cells) (c.is_mar ? mars : mnars) += 1;
  EXPECT_GT(mnars, 0u);
  EXPECT_GT(mars, 0u);
  EXPECT_NEAR(static_cast<double>(mnars) / static_cast<double>(mars), 2.0, 1.01);
  // Sampled MARs are nullified in the modified set.
  for (const auto& c : gt.cells) {
    if (c.is_mar) {
      EXPECT_EQ(gt.modified.profiles[c.sample][c.ap], 0);
      EXPECT_EQ(s.profiles[c.sample][c.ap], 1);  // original untouched
    } else {
      EXPECT_EQ(s.profiles[c.sample][c.ap], 0);  // MNARs were already missing
    }
  }
}

TEST(DifferentiationAccuracyTest, PerfectClusteringScoresHigh) {
  const auto map = TwoAreaMap();
  const SampleSet s = BuildSampleSet(map, 0.1);
  Rng rng(9);
  const auto gt = SampleGroundTruth(s, 1.0, 4, 2, rng);
  Clustering good;
  good.assignment = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  good.k = 2;
  Clustering bad;
  bad.assignment.assign(10, 0);
  bad.k = 1;
  const double da_good = DifferentiationAccuracy(gt.modified, good, gt.cells, 0.1);
  const double da_bad = DifferentiationAccuracy(gt.modified, bad, gt.cells, 0.1);
  EXPECT_GE(da_good, da_bad);
  EXPECT_GT(da_good, 0.7);
}

TEST(DasaKMTest, SelectsReasonableKOnBlobs) {
  const auto map = TwoAreaMap();
  const SampleSet s = BuildSampleSet(map, 0.1);
  DasaKMeansClusterer::Params p;
  p.max_k = 4;
  p.gammas = {1, 2};
  p.num_mnar = 4;
  p.mnar_group_size = 2;
  DasaKMeansClusterer dasa(p);
  Rng rng(10);
  const Clustering c = dasa.Cluster(s, rng);
  EXPECT_GE(c.k, 1u);
  EXPECT_LE(c.k, 4u);
  EXPECT_EQ(c.assignment.size(), 10u);
}

TEST(EntityExistTest, WallInsideHull) {
  geom::MultiPolygon walls({geom::Polygon::Rectangle(4.9, 0.0, 5.1, 3.0)});
  EXPECT_TRUE(EntityExist({{4, 1}, {6, 1}, {4, 2}, {6, 2}}, walls));
  EXPECT_FALSE(EntityExist({{0, 0}, {2, 0}, {0, 2}, {2, 2}}, walls));
  EXPECT_FALSE(EntityExist({}, walls));
}

TEST(TopoACTest, DoesNotMergeAcrossWall) {
  // Two groups of identical profiles separated by a wall at x = 5.
  rmap::RadioMap map(2);
  auto add = [&](double x) {
    rmap::Record r;
    r.rssi = {-50.0, -60.0};
    r.has_rp = true;
    r.rp = {x, 1.0};
    r.time = x;
    map.Add(r);
  };
  for (double x : {1.0, 1.5, 2.0, 8.0, 8.5, 9.0}) add(x);
  const SampleSet s = BuildSampleSet(map, 0.1);
  geom::MultiPolygon walls({geom::Polygon::Rectangle(4.9, 0.0, 5.1, 3.0)});
  TopoACClusterer topo(&walls);
  Rng rng(11);
  const Clustering c = topo.Cluster(s, rng);
  // Left trio merged, right trio merged, never across the wall.
  EXPECT_EQ(c.k, 2u);
  EXPECT_EQ(c.assignment[0], c.assignment[1]);
  EXPECT_EQ(c.assignment[1], c.assignment[2]);
  EXPECT_EQ(c.assignment[3], c.assignment[4]);
  EXPECT_NE(c.assignment[0], c.assignment[3]);
}

TEST(TopoACTest, NoWallsMergesEverythingNearby) {
  rmap::RadioMap map(1);
  for (double x : {1.0, 2.0, 3.0}) {
    rmap::Record r;
    r.rssi = {-40.0};
    r.has_rp = true;
    r.rp = {x, 0.0};
    r.time = x;
    map.Add(r);
  }
  const SampleSet s = BuildSampleSet(map, 0.1);
  geom::MultiPolygon no_walls;
  TopoACClusterer topo(&no_walls);
  Rng rng(12);
  EXPECT_EQ(topo.Cluster(s, rng).k, 1u);
}

TEST(DbscanTest, FindsDenseGroupsAndIsolatesNoise) {
  rmap::RadioMap map(1);
  auto add = [&](double x, double y) {
    rmap::Record r;
    r.rssi = {-40.0};
    r.has_rp = true;
    r.rp = {x, y};
    r.time = x + y;
    map.Add(r);
  };
  // Dense group near origin (features scaled by 0.1 -> eps small).
  for (double x : {0.0, 0.2, 0.4, 0.6}) add(x, 0.0);
  add(100.0, 100.0);  // isolated noise point
  const SampleSet s = BuildSampleSet(map, 0.1);
  DbscanClusterer db(/*eps=*/0.2, /*min_pts=*/3);
  Rng rng(13);
  const Clustering c = db.Cluster(s, rng);
  EXPECT_EQ(c.assignment[0], c.assignment[1]);
  EXPECT_EQ(c.assignment[1], c.assignment[2]);
  EXPECT_NE(c.assignment[0], c.assignment[4]);  // noise isolated
}

TEST(ClusteringGroupsTest, PartitionsIndices) {
  Clustering c;
  c.assignment = {0, 1, 0, 2};
  c.k = 3;
  const auto g = c.Groups();
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g[0], (std::vector<size_t>{0, 2}));
  EXPECT_EQ(g[1], (std::vector<size_t>{1}));
  EXPECT_EQ(g[2], (std::vector<size_t>{3}));
}

TEST(ClusteringDifferentiatorTest, EveryDifferentiatorHandlesZeroAndOneRow) {
  // A map with no records gets an empty mask and a one-record map a full
  // one; DasaKM and ElbowKM must not ask k-means for a K in [1, 0].
  indoor::Venue venue;  // no walls
  rmap::RadioMap empty(3);
  rmap::RadioMap single(3);
  rmap::Record r;
  r.rssi = {-50.0, kNull, -70.0};
  r.has_rp = true;
  r.rp = {2.0, 1.0};
  single.Add(r);
  for (const char* name :
       {"TopoAC", "DasaKM", "ElbowKM", "DBSCAN", "MAR-only", "MNAR-only"}) {
    const auto diff = eval::MakeDifferentiator(name, &venue);
    Rng rng(15);
    const rmap::MaskMatrix none = diff->Differentiate(empty, rng);
    EXPECT_EQ(none.rows(), 0u) << name;
    const rmap::MaskMatrix one = diff->Differentiate(single, rng);
    ASSERT_EQ(one.rows(), 1u) << name;
    ASSERT_EQ(one.cols(), 3u) << name;
    EXPECT_EQ(one.at(0, 0), rmap::MaskValue::kObserved) << name;
    EXPECT_NE(one.at(0, 1), rmap::MaskValue::kObserved) << name;
    EXPECT_EQ(one.at(0, 2), rmap::MaskValue::kObserved) << name;
  }
}

TEST(ClusteringDifferentiatorTest, EndToEndOnTwoAreas) {
  const auto map = TwoAreaMap();
  geom::MultiPolygon walls({geom::Polygon::Rectangle(5.9, 0.0, 6.1, 3.0)});
  ClusteringDifferentiator diff(std::make_shared<TopoACClusterer>(&walls), 0.1);
  Rng rng(14);
  const auto mask = diff.Differentiate(map, rng);
  EXPECT_EQ(mask.at(2, 1), rmap::MaskValue::kMar);
  EXPECT_EQ(mask.at(0, 2), rmap::MaskValue::kMnar);
  EXPECT_GT(mask.MarShareOfMissing(), 0.0);
  EXPECT_LT(mask.MarShareOfMissing(), 0.5);
}

}  // namespace
}  // namespace rmi::cluster
