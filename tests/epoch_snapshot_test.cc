// Snapshot reads under hot-swap, and the threads that make them:
//  * MapSnapshotStore / ShardedSnapshotStore — a reader holding a snapshot
//    across many publishes (and routing-table swaps) never observes a
//    freed one, a displaced snapshot lives exactly until its last reader
//    lets go, and concurrent publishes never hand a reader a torn state;
//  * thread churn — hundreds of reader threads, and of 2-worker servers,
//    started and stopped in turn, each read and answer as the first did;
//  * ThreadPool — ParallelFor runs every index exactly once, runs n
//    blocking bodies at once on an n-thread pool, and two concurrent
//    submitters genuinely overlap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "positioning/estimators.h"
#include "serving/batch_localizer.h"
#include "serving/server.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/synthetic.h"

namespace rmi::serving {
namespace {

/// Two-party rendezvous with a timeout: Arrive() blocks until both sides
/// arrived, or flags failure after `timeout`. A deadlock-proof way to
/// assert two code paths are in flight simultaneously.
class Rendezvous {
 public:
  bool Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ >= 2) {
      cv_.notify_all();
      return true;
    }
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return arrived_ >= 2; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
};

std::shared_ptr<const MapSnapshot> TestSnapshot(const rmap::RadioMap& map,
                                                uint64_t version,
                                                uint64_t seed) {
  Rng rng(seed);
  return BuildSnapshot(map,
                       std::make_unique<positioning::KnnEstimator>(3, true),
                       rng, SnapshotOptions{version, 6.0});
}

TEST(SnapshotStoreTest, EmptyStoreYieldsNull) {
  MapSnapshotStore store;
  const std::shared_ptr<const MapSnapshot> snap = store.Current();
  EXPECT_FALSE(snap);
  EXPECT_EQ(snap.get(), nullptr);
}

TEST(SnapshotStoreTest, ReaderHeldAcrossPublishesNeverSeesAFreedSnapshot) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  auto first = TestSnapshot(map, 1, 11);
  std::weak_ptr<const MapSnapshot> probe = first;
  MapSnapshotStore store(std::move(first));

  const std::shared_ptr<const MapSnapshot> held = store.Current();
  ASSERT_TRUE(held);
  for (uint64_t v = 2; v < 8; ++v) {
    store.Publish(TestSnapshot(map, v, 11 + v));
    // The held generation must stay fully intact through every swap.
    EXPECT_EQ(held->version, 1u);
    EXPECT_TRUE(held->Consistent());
    EXPECT_FALSE(probe.expired());
  }
  EXPECT_EQ(store.Current()->version, 7u);
}

TEST(SnapshotStoreTest, DisplacedSnapshotLivesUntilItsLastReaderLetsGo) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  MapSnapshotStore store(TestSnapshot(map, 1, 11));
  std::shared_ptr<const MapSnapshot> first_reader = store.Current();
  std::shared_ptr<const MapSnapshot> last_reader = store.Current();
  const std::weak_ptr<const MapSnapshot> probe = first_reader;

  store.Publish(TestSnapshot(map, 2, 12));
  EXPECT_EQ(store.Current()->version, 2u);
  first_reader.reset();
  // One reader still holds the displaced snapshot: it stays whole.
  EXPECT_FALSE(probe.expired());
  EXPECT_EQ(last_reader->version, 1u);
  EXPECT_TRUE(last_reader->Consistent());
  // The last reader frees it, on its own thread.
  std::thread([reader = std::move(last_reader)]() mutable {
    reader.reset();
  }).join();
  EXPECT_TRUE(probe.expired());
}

TEST(ShardedStoreTest, CurrentResolvesShardsAndUnknownIsNull) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  ShardedSnapshotStore store;
  const rmap::ShardId a{0, 0}, b{0, 1}, unknown{9, 9};
  store.Publish(a, TestSnapshot(map, 1, 11));
  store.Publish(b, TestSnapshot(map, 2, 12));

  const std::shared_ptr<const MapSnapshot> snap_a = store.Current(a);
  ASSERT_TRUE(snap_a);
  EXPECT_EQ(snap_a->version, 1u);
  EXPECT_EQ(store.Current(b)->version, 2u);
  EXPECT_FALSE(store.Current(unknown));
}

TEST(ShardedStoreTest, HeldSnapshotSurvivesRoutingTableSwaps) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  ShardedSnapshotStore store;
  const rmap::ShardId a{0, 0};
  store.Publish(a, TestSnapshot(map, 1, 11));
  const std::shared_ptr<const MapSnapshot> held = store.Current(a);
  ASSERT_TRUE(held);
  // Every first publish to a new shard swaps the routing table; the held
  // snapshot must ride through all of them.
  for (int f = 1; f <= 5; ++f) {
    store.Publish(rmap::ShardId{1, f}, TestSnapshot(map, 10 + f, 20 + f));
    EXPECT_EQ(held->version, 1u);
    EXPECT_TRUE(held->Consistent());
  }
}

TEST(SnapshotStoreTest, ConcurrentPublishesAndReadersStayConsistent) {
  const rmap::RadioMap map = MakeSyntheticServingMap(8, 6, 10, 3);
  MapSnapshotStore store(TestSnapshot(map, 1, 11));
  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const MapSnapshot> snap = store.Current();
        if (!snap || !snap->Consistent() || snap->num_refs() == 0) {
          ok.store(false);
          return;
        }
      }
    });
  }
  auto even = TestSnapshot(map, 2, 12);
  auto odd = TestSnapshot(map, 3, 13);
  for (int i = 0; i < 100; ++i) {
    store.Publish(i % 2 == 0 ? even : odd);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(ok.load());
}

// Thread churn: every reader thread, and every server's dispatchers, run
// in turn, so at most one is alive at any moment. What grows is the number
// of threads that have ever read a snapshot; it must never run out.
constexpr size_t kChurn = 300;

TEST(ThreadChurnTest, ReaderThreadsStartedInTurnAllRead) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  const std::shared_ptr<const MapSnapshot> snap = TestSnapshot(map, 1, 11);
  MapSnapshotStore single(snap);
  ShardedSnapshotStore sharded;
  const rmap::ShardId shard{0, 0};
  sharded.Publish(shard, snap);
  const ShardRouter router(&sharded);
  const std::vector<double> q =
      MatrixRow(MakeSyntheticQueries(map, 1, 0.2, 5), 0);

  std::vector<geom::Point> from_single(kChurn), from_sharded(kChurn);
  for (size_t t = 0; t < kChurn; ++t) {
    std::thread([&] {
      from_single[t] = BatchLocalizer::LocalizeOn(*single.Current(), q);
      from_sharded[t] = router.Localize(shard, q);
    }).join();
  }
  const geom::Point want = BatchLocalizer::LocalizeOn(*snap, q);
  for (size_t t = 0; t < kChurn; ++t) {
    ASSERT_EQ(from_single[t].x, want.x) << "thread " << t;
    ASSERT_EQ(from_single[t].y, want.y) << "thread " << t;
    ASSERT_EQ(from_sharded[t].x, want.x) << "thread " << t;
    ASSERT_EQ(from_sharded[t].y, want.y) << "thread " << t;
  }
}

TEST(ThreadChurnTest, ServersStartedInTurnAllAnswer) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  const std::shared_ptr<const MapSnapshot> snap = TestSnapshot(map, 1, 11);
  const MapSnapshotStore store(snap);
  const la::Matrix queries = MakeSyntheticQueries(map, 1, 0.2, 5);
  const geom::Point want = BatchLocalizer::LocalizeBatchOn(*snap, queries)[0];
  ServerOptions options;
  options.num_workers = 2;
  for (size_t s = 0; s < kChurn; ++s) {
    LocalizationServer server(&store, options);
    const geom::Point got = server.Localize(MatrixRow(queries, 0));
    server.Stop();
    ASSERT_EQ(got.x, want.x) << "server " << s;
    ASSERT_EQ(got.y, want.y) << "server " << s;
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t count = 1000;
  std::vector<std::atomic<int>> hits(count);
  for (std::atomic<int>& h : hits) h.store(0);
  pool.ParallelFor(count, [&](size_t /*worker*/, size_t i) {
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, OneIndexPerThreadRunsEveryBlockingBodyAtOnce) {
  // With count == num_threads(), every participant's range holds exactly
  // one index, so n bodies that block run at once. Every body here waits,
  // with a timeout, until all n have started; a schedule that ran two
  // indices on one thread would leave the waits timing out.
  for (size_t n : {2, 3, 4}) {
    ThreadPool pool(n);
    if (pool.num_threads() != n) GTEST_SKIP() << "pool forced inline";
    std::mutex mu;
    std::condition_variable cv;
    size_t started = 0;
    std::atomic<size_t> met{0};
    pool.ParallelFor(n, [&](size_t /*worker*/, size_t /*index*/) {
      std::unique_lock<std::mutex> lock(mu);
      if (++started == n) cv.notify_all();
      if (cv.wait_for(lock, std::chrono::seconds(10),
                      [&] { return started == n; })) {
        met.fetch_add(1);
      }
    });
    EXPECT_EQ(met.load(), n) << "pool of " << n;
  }
}

TEST(ThreadPoolTest, ConcurrentSubmittersOverlapInsteadOfSerializing) {
  // Each submitter participates in its own job, so both bodies are in
  // flight at once even on a minimal pool — the rendezvous only releases
  // when the two jobs meet mid-execution.
  ThreadPool pool(2);
  Rendezvous rendezvous;
  std::atomic<int> met{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 2; ++s) {
    submitters.emplace_back([&] {
      pool.ParallelFor(1, [&](size_t, size_t) {
        if (rendezvous.Arrive()) met.fetch_add(1);
      });
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(met.load(), 2);
}

TEST(ThreadPoolTest, NestedPoolsCollapseToInline) {
  ThreadPool outer(2);
  std::atomic<size_t> inner_width{999};
  outer.ParallelFor(1, [&](size_t, size_t) {
    ThreadPool inner(4);
    inner_width.store(inner.num_threads());
  });
  EXPECT_EQ(inner_width.load(), 1u);
}

}  // namespace
}  // namespace rmi::serving
