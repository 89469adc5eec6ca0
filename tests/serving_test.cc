// The serving subsystem:
//  * EstimateBatch (Gemm-batched KNN/WKNN, scalar-loop RF) equals
//    per-record Estimate, for complete and partial (kNull) fingerprints;
//  * KnnEstimator::Estimate tolerates kNull entries and stays bit-identical
//    to the historical all-dimensions loop on complete fingerprints;
//  * SpatialIndex pruning returns exactly the brute-force KNN set;
//  * snapshot hot-swap under concurrent readers never yields a torn or
//    empty snapshot (same style as threading_determinism_test: real
//    threads, deterministic inputs);
//  * LocalizationServer coalesces and answers exactly like the scalar path,
//    applies backpressure instead of dropping, and answers every request
//    queued before Stop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/missing.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "positioning/estimators.h"
#include "serving/batch_localizer.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "serving/spatial_index.h"
#include "serving/synthetic.h"

namespace rmi::serving {
namespace {

rmap::RadioMap MakeServingMap(size_t nx, size_t ny, size_t num_aps,
                              uint64_t seed = 11) {
  return MakeSyntheticServingMap(nx, ny, num_aps, seed);
}

la::Matrix MakeQueries(const rmap::RadioMap& map, size_t count,
                       double null_fraction, uint64_t seed = 21) {
  return MakeSyntheticQueries(map, count, null_fraction, seed);
}

std::vector<double> RowOf(const la::Matrix& m, size_t i) {
  return MatrixRow(m, i);
}

// Bit-for-bit equality, the check the repo benchmark applies to answers.
bool SameBits(const geom::Point& a, const geom::Point& b) {
  return std::memcmp(&a.x, &b.x, sizeof(double)) == 0 &&
         std::memcmp(&a.y, &b.y, sizeof(double)) == 0;
}

TEST(EstimateBatchTest, MatchesScalarEstimateOnCompleteQueries) {
  const auto map = MakeServingMap(16, 12, 14);
  Rng rng(3);
  std::vector<std::unique_ptr<positioning::LocationEstimator>> estimators;
  estimators.push_back(std::make_unique<positioning::KnnEstimator>(3, false));
  estimators.push_back(std::make_unique<positioning::KnnEstimator>(4, true));
  estimators.push_back(std::make_unique<positioning::RandomForestEstimator>());
  const la::Matrix queries = MakeQueries(map, 40, /*null_fraction=*/0.0);
  for (auto& estimator : estimators) {
    estimator->Fit(map, rng);
    const std::vector<geom::Point> batch = estimator->EstimateBatch(queries);
    ASSERT_EQ(batch.size(), queries.rows());
    for (size_t i = 0; i < queries.rows(); ++i) {
      const geom::Point scalar = estimator->Estimate(RowOf(queries, i));
      EXPECT_NEAR(batch[i].x, scalar.x, 1e-12)
          << estimator->name() << " row " << i;
      EXPECT_NEAR(batch[i].y, scalar.y, 1e-12)
          << estimator->name() << " row " << i;
    }
  }
}

TEST(EstimateBatchTest, MatchesScalarEstimateOnPartialQueries) {
  const auto map = MakeServingMap(14, 10, 12);
  Rng rng(5);
  positioning::KnnEstimator knn(3, false);
  positioning::KnnEstimator wknn(5, true);
  knn.Fit(map, rng);
  wknn.Fit(map, rng);
  const la::Matrix queries = MakeQueries(map, 48, /*null_fraction=*/0.35);
  for (const positioning::KnnEstimator* e : {&knn, &wknn}) {
    const std::vector<geom::Point> batch = e->EstimateBatch(queries);
    for (size_t i = 0; i < queries.rows(); ++i) {
      const geom::Point scalar = e->Estimate(RowOf(queries, i));
      EXPECT_NEAR(batch[i].x, scalar.x, 1e-12) << e->name() << " row " << i;
      EXPECT_NEAR(batch[i].y, scalar.y, 1e-12) << e->name() << " row " << i;
    }
  }
}

TEST(KnnEstimatorTest, CompleteFingerprintBitIdenticalToReferenceLoop) {
  const auto map = MakeServingMap(10, 8, 9);
  Rng rng(7);
  positioning::KnnEstimator wknn(3, true);
  wknn.Fit(map, rng);
  const la::Matrix queries = MakeQueries(map, 10, 0.0);
  for (size_t i = 0; i < queries.rows(); ++i) {
    const std::vector<double> q = RowOf(queries, i);
    // The pre-PR algorithm, verbatim: all-dimension squared distances,
    // partial_sort, inverse-distance weights.
    std::vector<std::pair<double, size_t>> dist;
    for (size_t r = 0; r < map.size(); ++r) {
      double s = 0.0;
      for (size_t j = 0; j < q.size(); ++j) {
        const double d = q[j] - map.record(r).rssi[j];
        s += d * d;
      }
      dist.emplace_back(s, r);
    }
    std::partial_sort(dist.begin(), dist.begin() + 3, dist.end());
    geom::Point acc;
    double wsum = 0.0;
    for (size_t t = 0; t < 3; ++t) {
      const double w = 1.0 / (std::sqrt(dist[t].first) + 1e-6);
      acc = acc + map.record(dist[t].second).rp * w;
      wsum += w;
    }
    const geom::Point expected = acc * (1.0 / wsum);
    const geom::Point got = wknn.Estimate(q);
    EXPECT_DOUBLE_EQ(got.x, expected.x);
    EXPECT_DOUBLE_EQ(got.y, expected.y);
  }
}

TEST(KnnEstimatorTest, ToleratesNullEntriesInOnlineFingerprint) {
  const auto map = MakeServingMap(10, 8, 9);
  Rng rng(7);
  positioning::KnnEstimator knn(3, false);
  knn.Fit(map, rng);
  // A fingerprint that only heard 3 of 9 APs, taken from a known row.
  const rmap::Record& truth = map.record(37);
  std::vector<double> partial(map.num_aps(), kNull);
  partial[0] = truth.rssi[0];
  partial[4] = truth.rssi[4];
  partial[7] = truth.rssi[7];
  const geom::Point p = knn.Estimate(partial);
  EXPECT_TRUE(std::isfinite(p.x));
  EXPECT_TRUE(std::isfinite(p.y));
  // Observed-dims-only distance makes the true row the nearest neighbor
  // (its masked distance to itself is 0), so the estimate lands near it.
  EXPECT_NEAR(p.x, truth.rp.x, 3.0);
  EXPECT_NEAR(p.y, truth.rp.y, 3.0);
}

TEST(SpatialIndexTest, SearchEqualsBruteForceExactly) {
  const auto map = MakeServingMap(20, 15, 13);
  const size_t n = map.size();
  la::Matrix refs(n, map.num_aps());
  std::vector<geom::Point> positions;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < map.num_aps(); ++j) {
      refs(i, j) = map.record(i).rssi[j];
    }
    positions.push_back(map.record(i).rp);
  }
  SpatialIndex index;
  index.Build(refs, positions, /*cell_size_m=*/4.0);
  EXPECT_GT(index.num_cells(), 4u);

  const la::Matrix complete = MakeQueries(map, 30, 0.0, 31);
  const la::Matrix partial = MakeQueries(map, 30, 0.4, 32);
  for (const la::Matrix* queries : {&complete, &partial}) {
    for (size_t i = 0; i < queries->rows(); ++i) {
      const std::vector<double> q = RowOf(*queries, i);
      for (size_t k : {1u, 3u, 7u}) {
        const auto got = index.Search(refs, q, k);
        const auto want = BruteForceKnn(refs, q, k);
        ASSERT_EQ(got.size(), want.size());
        for (size_t t = 0; t < want.size(); ++t) {
          EXPECT_EQ(got[t].second, want[t].second) << "k=" << k << " t=" << t;
          EXPECT_EQ(got[t].first, want[t].first) << "k=" << k << " t=" << t;
        }
      }
    }
  }
  // The bound must actually prune on a clustered map.
  const std::vector<double> q = RowOf(complete, 0);
  index.Search(refs, q, 3);
  EXPECT_LT(SpatialIndex::last_scored(), n);
}

TEST(SpatialIndexTest, BoundaryContractsMatchBruteForce) {
  const auto map = MakeServingMap(6, 5, 8);
  const size_t n = map.size();
  la::Matrix refs(n, map.num_aps());
  std::vector<geom::Point> positions;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < map.num_aps(); ++j) {
      refs(i, j) = map.record(i).rssi[j];
    }
    positions.push_back(map.record(i).rp);
  }
  SpatialIndex index;
  index.Build(refs, positions, 3.0);
  const std::vector<double> q = RowOf(MakeQueries(map, 1, 0.0, 61), 0);

  // k == 0: nothing to return (and no crash).
  EXPECT_TRUE(index.Search(refs, q, 0).empty());
  EXPECT_TRUE(BruteForceKnn(refs, q, 0).empty());

  // k == n and k > n: every row, ascending by (distance, index).
  for (size_t k : {n, n + 7}) {
    const auto got = index.Search(refs, q, k);
    const auto want = BruteForceKnn(refs, q, k);
    ASSERT_EQ(got.size(), n);
    ASSERT_EQ(want.size(), n);
    for (size_t t = 0; t < n; ++t) {
      EXPECT_EQ(got[t].first, want[t].first) << "k=" << k << " t=" << t;
      EXPECT_EQ(got[t].second, want[t].second) << "k=" << k << " t=" << t;
    }
  }
}

TEST(SpatialIndexTest, ExactTiesBreakByIndexLikeBruteForce) {
  // Duplicated fingerprint rows force exact distance ties; the pruned
  // search must return the same (distance, index) order as brute force.
  const size_t d = 5;
  la::Matrix refs(6, d);
  std::vector<geom::Point> positions;
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < d; ++j) {
      refs(i, j) = -40.0 - 10.0 * double(i % 2) - 2.0 * double(j);
    }
    positions.emplace_back(double(i), double(i) * 0.5);
  }
  SpatialIndex index;
  index.Build(refs, positions, 1.0);
  std::vector<double> q(d, -45.0);
  for (size_t k : {1u, 3u, 6u}) {
    const auto got = index.Search(refs, q, k);
    const auto want = BruteForceKnn(refs, q, k);
    ASSERT_EQ(got.size(), want.size()) << "k=" << k;
    for (size_t t = 0; t < want.size(); ++t) {
      EXPECT_EQ(got[t].first, want[t].first) << "k=" << k << " t=" << t;
      EXPECT_EQ(got[t].second, want[t].second) << "k=" << k << " t=" << t;
    }
  }
}

TEST(SpatialIndexTest, EmptyIndexReturnsNothing) {
  SpatialIndex index;
  la::Matrix refs(0, 4);
  index.Build(refs, {}, 2.0);
  EXPECT_TRUE(index.empty());
  const std::vector<double> q(4, -50.0);
  EXPECT_TRUE(index.Search(refs, q, 3).empty());
}

TEST(EstimateBatchTest, AllNullRowAbortsWithDiagnostic) {
  // Contract: an all-null row has no distance signal; EstimateBatch
  // asserts rather than silently decaying. The serving layer filters such
  // rows per request *before* batching (RejectsMalformedRequests covers
  // that path), so an all-null row reaching the estimator is a bug.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto map = MakeServingMap(6, 5, 7);
  Rng rng(13);
  positioning::KnnEstimator knn(3, false);
  knn.Fit(map, rng);
  la::Matrix queries = MakeQueries(map, 2, 0.0, 71);
  for (size_t j = 0; j < queries.cols(); ++j) queries(1, j) = kNull;
  EXPECT_DEATH(knn.EstimateBatch(queries), "RMI_CHECK");
}

TEST(SnapshotTest, BuildFitsEstimatorAndStampsChecksum) {
  const auto map = MakeServingMap(12, 9, 10);
  Rng rng(9);
  SnapshotOptions opt;
  opt.version = 42;
  auto snap = BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(3, true), rng, opt);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 42u);
  EXPECT_TRUE(snap->Consistent());
  EXPECT_EQ(snap->num_refs(), map.size());
  EXPECT_EQ(snap->num_aps(), map.num_aps());
  EXPECT_FALSE(snap->index.empty());
}

TEST(SnapshotStoreTest, HotSwapUnderConcurrentReadersIsNeverTornOrEmpty) {
  const auto map_a = MakeServingMap(12, 9, 10, 1);
  const auto map_b = MakeServingMap(12, 9, 10, 2);
  Rng rng(13);
  // Prebuilt generations to cycle through while readers hammer the store.
  std::vector<std::shared_ptr<const MapSnapshot>> generations;
  for (uint64_t v = 0; v < 4; ++v) {
    SnapshotOptions opt;
    opt.version = v;
    generations.push_back(
        BuildSnapshot(v % 2 == 0 ? map_a : map_b,
                      std::make_unique<positioning::KnnEstimator>(3, true),
                      rng, opt));
  }
  MapSnapshotStore store(generations[0]);
  const la::Matrix queries = MakeQueries(map_a, 8, 0.25, 41);

  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      size_t i = size_t(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = store.Current();
        if (snap == nullptr || !snap->Consistent()) {
          failed.store(true);
          return;
        }
        const geom::Point p = BatchLocalizer::LocalizeOn(
            *store.Current(), RowOf(queries, i % 8));
        if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
          failed.store(true);
          return;
        }
        ++i;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Writer: publish every generation many times while readers run.
  for (int round = 0; round < 200; ++round) {
    store.Publish(generations[size_t(round) % generations.size()]);
  }
  while (reads.load() < 2000 && !failed.load()) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load()) << "a reader saw a torn or empty snapshot";
  EXPECT_GE(store.publish_count(), 201u);
  EXPECT_GE(reads.load(), 2000u);
}

TEST(BatchLocalizerTest, SingleQueryPrunedPathMatchesEstimator) {
  const auto map = MakeServingMap(16, 12, 11);
  Rng rng(17);
  auto snap = BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(4, true), rng);
  MapSnapshotStore store(snap);
  const la::Matrix queries = MakeQueries(map, 25, 0.3, 55);
  for (size_t i = 0; i < queries.rows(); ++i) {
    const std::vector<double> q = RowOf(queries, i);
    const geom::Point direct = snap->estimator->Estimate(q);
    const geom::Point pruned =
        BatchLocalizer::LocalizeOn(*store.Current(), q);
    EXPECT_DOUBLE_EQ(pruned.x, direct.x) << "row " << i;
    EXPECT_DOUBLE_EQ(pruned.y, direct.y) << "row " << i;
  }
}

TEST(LocalizationServerTest, CoalescesBatchesAndMatchesScalarAnswers) {
  const auto map = MakeServingMap(16, 12, 11);
  Rng rng(19);
  auto snap = BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(3, true), rng);
  MapSnapshotStore store(snap);
  ServerOptions opt;
  opt.max_batch = 16;
  opt.max_wait_us = 500.0;
  opt.num_workers = 2;
  LocalizationServer server(&store, opt);
  // Every server's fulfilled requests land in one registry series.
  const obs::Histogram& fulfill_us =
      obs::GetHistogram("rmi_server_fulfill_us", "");
  const uint64_t fulfilled_before = fulfill_us.Count();

  const la::Matrix queries = MakeQueries(map, 96, 0.2, 77);
  std::vector<std::future<geom::Point>> futures;
  futures.reserve(queries.rows());
  for (size_t i = 0; i < queries.rows(); ++i) {
    futures.push_back(server.Submit(RowOf(queries, i)));
  }
  for (size_t i = 0; i < queries.rows(); ++i) {
    const geom::Point got = futures[size_t(i)].get();
    const geom::Point want = snap->estimator->Estimate(RowOf(queries, i));
    EXPECT_TRUE(SameBits(got, want))
        << "row " << i << ": " << got.x << "," << got.y << " vs " << want.x
        << "," << want.y;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, queries.rows());
  EXPECT_GE(stats.batches, queries.rows() / opt.max_batch);
  EXPECT_GT(stats.mean_batch_size, 1.0);
  EXPECT_EQ(fulfill_us.Count() - fulfilled_before, queries.rows());
  EXPECT_GT(fulfill_us.Percentile(50.0), 0.0);
  EXPECT_GE(fulfill_us.Percentile(99.0), fulfill_us.Percentile(95.0));
  EXPECT_GE(fulfill_us.Percentile(95.0), fulfill_us.Percentile(50.0));
}

TEST(LocalizationServerTest, SubmitAfterStopRejectsWithoutCrashing) {
  const auto map = MakeServingMap(8, 6, 6);
  Rng rng(29);
  MapSnapshotStore store(BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(3, false), rng));
  LocalizationServer server(&store);
  const std::vector<double> q = RowOf(MakeQueries(map, 1, 0.0), 0);
  EXPECT_NO_THROW(server.Localize(q));
  server.Stop();
  std::future<geom::Point> rejected = server.Submit(q);
  EXPECT_THROW(rejected.get(), std::runtime_error);
}

TEST(LocalizationServerTest, RejectsMalformedRequestsWithoutCrashing) {
  const auto map = MakeServingMap(8, 6, 6);
  Rng rng(31);
  MapSnapshotStore store(BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(3, true), rng));
  LocalizationServer server(&store);
  // Wrong width (e.g. sized for a pre-hot-swap snapshot).
  std::future<geom::Point> wrong_width =
      server.Submit(std::vector<double>(4, -50.0));
  // All-null scan: no distance signal.
  std::future<geom::Point> all_null =
      server.Submit(std::vector<double>(map.num_aps(), kNull));
  // An infinite RSSI is not a null (NaN is) and poisons every distance.
  std::vector<double> infinite(map.num_aps(), -50.0);
  infinite[2] = std::numeric_limits<double>::infinity();
  std::future<geom::Point> inf_scan = server.Submit(infinite);
  // A valid request in the same stream is still served.
  const std::vector<double> q = RowOf(MakeQueries(map, 1, 0.0), 0);
  const geom::Point p = server.Localize(q);
  EXPECT_TRUE(std::isfinite(p.x));
  EXPECT_THROW(wrong_width.get(), std::runtime_error);
  EXPECT_THROW(all_null.get(), std::runtime_error);
  EXPECT_THROW(inf_scan.get(), std::runtime_error);
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_GE(stats.completed, 1u);
}

TEST(LocalizationServerTest, RequestBeforeFirstPublishIsRejectedNotCrashed) {
  const auto map = MakeServingMap(8, 6, 6);
  const std::vector<double> q = RowOf(MakeQueries(map, 1, 0.0), 0);
  MapSnapshotStore store;
  LocalizationServer server(&store);
  const obs::Counter& rejected_total =
      obs::GetCounter("rmi_server_rejected_total", "");
  const uint64_t rejected_before = rejected_total.Total();

  EXPECT_THROW(server.Localize(q), std::runtime_error);

  // The same server answers once a snapshot is published.
  Rng rng(43);
  auto snap = BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(3, true), rng);
  store.Publish(snap);
  const geom::Point got = server.Localize(q);
  const geom::Point want = snap->estimator->Estimate(q);
  EXPECT_TRUE(SameBits(got, want));
  // A dispatcher counts a rejection after resolving its future; Stop
  // joins the dispatchers, so the counts are final here.
  server.Stop();
  EXPECT_EQ(server.Stats().rejected, 1u);
  EXPECT_EQ(server.Stats().completed, 1u);
  EXPECT_EQ(rejected_total.Total() - rejected_before, 1u);
}

TEST(LocalizationServerTest, TinyQueueBackpressuresInsteadOfDropping) {
  // A queue far smaller than the offered load: Submits must wait for space
  // until dispatchers take requests, and every request must still be
  // answered — bounded memory, no drops, no deadlock.
  const auto map = MakeServingMap(10, 8, 8);
  Rng rng(37);
  auto snap = BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(3, true), rng);
  MapSnapshotStore store(snap);
  ServerOptions opt;
  opt.max_batch = 4;
  opt.max_wait_us = 50.0;
  opt.num_workers = 2;
  opt.queue_capacity = 8;
  LocalizationServer server(&store, opt);

  const la::Matrix queries = MakeQueries(map, 16, 0.1, 83);
  const size_t kClients = 4, kPerClient = 64;
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const geom::Point p =
            server.Localize(RowOf(queries, (c * kPerClient + i) % 16));
        if (std::isfinite(p.x) && std::isfinite(p.y)) {
          answered.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Stop();
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  EXPECT_EQ(server.Stats().completed, kClients * kPerClient);
}

TEST(LocalizationServerTest, ServesDuringHotSwap) {
  const auto map = MakeServingMap(12, 9, 10);
  Rng rng(23);
  std::vector<std::shared_ptr<const MapSnapshot>> generations;
  for (uint64_t v = 0; v < 3; ++v) {
    SnapshotOptions opt;
    opt.version = v;
    generations.push_back(BuildSnapshot(
        map, std::make_unique<positioning::KnnEstimator>(3, v % 2 == 1), rng,
        opt));
  }
  MapSnapshotStore store(generations[0]);
  ServerOptions opt;
  opt.max_batch = 8;
  opt.num_workers = 2;
  LocalizationServer server(&store, opt);

  const la::Matrix queries = MakeQueries(map, 8, 0.2, 91);
  std::vector<std::future<geom::Point>> futures;
  for (int round = 0; round < 60; ++round) {
    store.Publish(generations[size_t(round) % generations.size()]);
    for (size_t i = 0; i < queries.rows(); ++i) {
      futures.push_back(server.Submit(RowOf(queries, i)));
    }
  }
  // Each answer is, bit for bit, one generation's scalar answer: a batch
  // reads one snapshot and never mixes two serving states.
  std::vector<std::vector<geom::Point>> want(queries.rows());
  for (size_t i = 0; i < queries.rows(); ++i) {
    for (const auto& generation : generations) {
      want[i].push_back(generation->estimator->Estimate(RowOf(queries, i)));
    }
  }
  for (size_t r = 0; r < futures.size(); ++r) {
    const geom::Point p = futures[r].get();
    const std::vector<geom::Point>& options = want[r % queries.rows()];
    EXPECT_TRUE(std::any_of(options.begin(), options.end(),
                            [&](const geom::Point& w) {
                              return SameBits(p, w);
                            }))
        << "request " << r << ": " << p.x << "," << p.y;
  }
  server.Stop();
  EXPECT_EQ(server.Stats().completed, futures.size());
}

TEST(LocalizationServerTest, StopRacingSubmitsResolvesEveryFuture) {
  // Four clients keep submitting into a two-request queue, so some of them
  // wait for space, while this thread calls Stop. A request whose Submit
  // returned before Stop began must be answered, one submitted after Stop
  // returned is rejected, every future resolves and no client stays
  // blocked in Submit. Every request is traced, and every trace is
  // finished, whether its request was answered or rejected.
  const auto map = MakeServingMap(10, 8, 8);
  Rng rng(41);
  MapSnapshotStore store(BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(3, true), rng));
  const obs::Counter& completed_total =
      obs::GetCounter("rmi_server_requests_total", "");
  const obs::Counter& rejected_total =
      obs::GetCounter("rmi_server_rejected_total", "");
  const uint64_t completed_before = completed_total.Total();
  const uint64_t rejected_before = rejected_total.Total();
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t sample_every = tracer.sample_every();
  tracer.SetSampleEvery(1);
  const uint64_t sampled_before = tracer.sampled_total();
  const uint64_t finished_before = tracer.finished_total();
  ServerOptions opt;
  opt.max_batch = 4;
  opt.max_wait_us = 50.0;
  opt.num_workers = 1;
  opt.queue_capacity = 2;
  LocalizationServer server(&store, opt);

  struct Sent {
    std::future<geom::Point> future;
    bool returned_before_stop;  ///< Submit returned before Stop began
    bool began_after_stop;      ///< Submit began after Stop returned
  };
  const la::Matrix queries = MakeQueries(map, 16, 0.1, 89);
  const size_t kClients = 4, kBeforeStop = 64;
  std::atomic<bool> stop_begins{false};
  std::atomic<bool> stop_returned{false};
  std::atomic<size_t> submitted{0};
  std::vector<std::vector<Sent>> sent(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0;; ++i) {
        const bool after = stop_returned.load();
        std::future<geom::Point> f =
            server.Submit(RowOf(queries, (c + i) % queries.rows()));
        sent[c].push_back({std::move(f), !stop_begins.load(), after});
        submitted.fetch_add(1);
        if (after) break;
      }
    });
  }
  while (submitted.load() < kBeforeStop) std::this_thread::yield();
  stop_begins.store(true);
  server.Stop();
  stop_returned.store(true);
  for (auto& t : clients) t.join();
  tracer.SetSampleEvery(sample_every);

  size_t total = 0, answered = 0, rejected = 0;
  for (std::vector<Sent>& client : sent) {
    for (Sent& s : client) {
      ++total;
      ASSERT_EQ(s.future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      try {
        s.future.get();
        ++answered;
        EXPECT_FALSE(s.began_after_stop);
      } catch (const std::runtime_error&) {
        ++rejected;
        EXPECT_FALSE(s.returned_before_stop);
      }
    }
  }
  EXPECT_GE(answered, kBeforeStop);
  EXPECT_GE(rejected, kClients);
  EXPECT_EQ(answered + rejected, total);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, answered);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(completed_total.Total() - completed_before, answered);
  EXPECT_EQ(rejected_total.Total() - rejected_before, rejected);
  EXPECT_EQ(tracer.sampled_total() - sampled_before, total);
  EXPECT_EQ(tracer.finished_total() - finished_before, total);
}

}  // namespace
}  // namespace rmi::serving
