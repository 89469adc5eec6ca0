// Epoch-based reclamation and the hot-path snapshot reads built on it:
//  * EpochDomain — pins defer reclamation, nested pins hold the outer
//    epoch, cross-thread pins gate the retire list, and the list drains
//    once readers go idle;
//  * MapSnapshotStore / ShardedSnapshotStore — PinnedRead sees the same
//    swap as Current, a reader pinned across many publishes never
//    observes a freed snapshot, and slow-path shared_ptr holders outlive
//    reclamation;
//  * ThreadPool — ParallelFor runs every index exactly once, runs n
//    blocking bodies at once on an n-thread pool (the server's dispatch
//    loops rely on it), and two concurrent submitters genuinely overlap.
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
#include "serving/epoch.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/synthetic.h"

namespace rmi::serving {
namespace {

std::shared_ptr<const void> Tracked(std::weak_ptr<const int>* probe) {
  auto obj = std::make_shared<const int>(42);
  *probe = obj;
  return obj;
}

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

TEST(EpochDomainTest, RetireWithoutReadersReclaimsImmediately) {
  EpochDomain domain;
  std::weak_ptr<const int> probe;
  domain.Retire(Tracked(&probe));
  EXPECT_EQ(domain.retired_count(), 0u);
  EXPECT_TRUE(probe.expired());
}

TEST(EpochDomainTest, PinDefersReclamationUntilRelease) {
  EpochDomain domain;
  std::weak_ptr<const int> probe;
  {
    const EpochDomain::Pin pin = domain.MakePin();
    domain.Retire(Tracked(&probe));
    EXPECT_EQ(domain.retired_count(), 1u);
    EXPECT_EQ(domain.ReclaimNow(), 1u);  // still pinned: nothing freed
    EXPECT_FALSE(probe.expired());
  }
  EXPECT_EQ(domain.ReclaimNow(), 0u);
  EXPECT_TRUE(probe.expired());
}

TEST(EpochDomainTest, NestedPinsHoldTheOuterEpoch) {
  EpochDomain domain;
  EXPECT_EQ(domain.PinnedEpochForTesting(), EpochDomain::kIdle);
  const EpochDomain::Pin outer = domain.MakePin();
  const uint64_t pinned = domain.PinnedEpochForTesting();
  ASSERT_NE(pinned, EpochDomain::kIdle);
  domain.Retire(std::make_shared<const int>(1));  // advances the epoch
  {
    const EpochDomain::Pin inner = domain.MakePin();
    EXPECT_EQ(domain.PinnedEpochForTesting(), pinned);
  }
  EXPECT_EQ(domain.PinnedEpochForTesting(), pinned);  // inner exit kept it
}

TEST(EpochDomainTest, PinOnAnotherThreadGatesReclamation) {
  EpochDomain domain;
  std::atomic<bool> release{false};
  std::atomic<bool> pinned{false};
  std::thread reader([&] {
    const EpochDomain::Pin pin = domain.MakePin();
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  std::weak_ptr<const int> probe;
  domain.Retire(Tracked(&probe));
  EXPECT_EQ(domain.ReclaimNow(), 1u);
  EXPECT_FALSE(probe.expired());
  release.store(true);
  reader.join();
  EXPECT_EQ(domain.ReclaimNow(), 0u);
  EXPECT_TRUE(probe.expired());
}

TEST(EpochDomainTest, OnePinDefersEveryLaterRetirement) {
  EpochDomain domain;
  std::vector<std::weak_ptr<const int>> probes(8);
  {
    const EpochDomain::Pin pin = domain.MakePin();
    for (std::weak_ptr<const int>& probe : probes) {
      domain.Retire(Tracked(&probe));
    }
    EXPECT_EQ(domain.retired_count(), probes.size());
    for (const std::weak_ptr<const int>& probe : probes) {
      EXPECT_FALSE(probe.expired());
    }
  }
  EXPECT_EQ(domain.ReclaimNow(), 0u);
  for (const std::weak_ptr<const int>& probe : probes) {
    EXPECT_TRUE(probe.expired());
  }
}

std::shared_ptr<const MapSnapshot> TestSnapshot(const rmap::RadioMap& map,
                                                uint64_t version,
                                                uint64_t seed) {
  Rng rng(seed);
  return BuildSnapshot(map,
                       std::make_unique<positioning::KnnEstimator>(3, true),
                       rng, SnapshotOptions{version, 6.0});
}

TEST(PinnedSnapshotTest, EmptyStoreYieldsNullHandle) {
  MapSnapshotStore store;
  const PinnedSnapshot snap = store.PinnedRead();
  EXPECT_FALSE(snap);
  EXPECT_EQ(snap.get(), nullptr);
}

TEST(PinnedSnapshotTest, PinnedReadAgreesWithCurrent) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  MapSnapshotStore store(TestSnapshot(map, 1, 11));
  const PinnedSnapshot pinned = store.PinnedRead();
  ASSERT_TRUE(pinned);
  EXPECT_EQ(pinned.get(), store.Current().get());
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_TRUE(pinned->Consistent());
}

TEST(PinnedSnapshotTest, ReaderPinnedAcrossPublishesNeverSeesAFreedSnapshot) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  auto first = TestSnapshot(map, 1, 11);
  std::weak_ptr<const MapSnapshot> probe = first;
  MapSnapshotStore store(std::move(first));

  const PinnedSnapshot pinned = store.PinnedRead();
  ASSERT_TRUE(pinned);
  for (uint64_t v = 2; v < 8; ++v) {
    store.Publish(TestSnapshot(map, v, 11 + v));
    // The pinned generation must stay fully intact through every swap.
    EXPECT_EQ(pinned->version, 1u);
    EXPECT_TRUE(pinned->Consistent());
    EXPECT_FALSE(probe.expired());
  }
  EXPECT_EQ(store.Current()->version, 7u);
}

TEST(PinnedSnapshotTest, RetiredGenerationsDrainOnceReadersUnpin) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  auto first = TestSnapshot(map, 1, 11);
  std::weak_ptr<const MapSnapshot> probe = first;
  MapSnapshotStore store(std::move(first));
  {
    const PinnedSnapshot pinned = store.PinnedRead();
    store.Publish(TestSnapshot(map, 2, 12));
    EXPECT_FALSE(probe.expired());
  }
  // Reader gone: the displaced snapshot is reclaimable now. (The global
  // domain is shared, so only our probe — not retired_count — is
  // meaningful here.)
  EpochDomain::Global().ReclaimNow();
  EXPECT_TRUE(probe.expired());
}

TEST(PinnedSnapshotTest, SlowPathSharedPtrHoldersOutliveReclamation) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  MapSnapshotStore store(TestSnapshot(map, 1, 11));
  std::shared_ptr<const MapSnapshot> held = store.Current();
  std::weak_ptr<const MapSnapshot> probe = held;

  store.Publish(TestSnapshot(map, 2, 12));
  EpochDomain::Global().ReclaimNow();  // no pins: the retired entry drops
  // The epoch domain released its reference, but the slow-path holder
  // still owns the snapshot.
  EXPECT_FALSE(probe.expired());
  EXPECT_TRUE(held->Consistent());
  held.reset();
  EXPECT_TRUE(probe.expired());
}

TEST(ShardedStoreTest, PinnedResolvesShardsAndUnknownIsNull) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  ShardedSnapshotStore store;
  const rmap::ShardId a{0, 0}, b{0, 1}, unknown{9, 9};
  store.Publish(a, TestSnapshot(map, 1, 11));
  store.Publish(b, TestSnapshot(map, 2, 12));

  const PinnedSnapshot snap_a = store.Pinned(a);
  ASSERT_TRUE(snap_a);
  EXPECT_EQ(snap_a->version, 1u);
  EXPECT_EQ(snap_a.get(), store.Current(a).get());
  EXPECT_FALSE(store.Pinned(unknown));
}

TEST(ShardedStoreTest, PinnedSnapshotSurvivesRoutingTableSwaps) {
  const rmap::RadioMap map = MakeSyntheticServingMap(6, 5, 8, 3);
  ShardedSnapshotStore store;
  const rmap::ShardId a{0, 0};
  store.Publish(a, TestSnapshot(map, 1, 11));
  const PinnedSnapshot pinned = store.Pinned(a);
  ASSERT_TRUE(pinned);
  // Every first publish to a new shard swaps (and retires) the routing
  // table; the pinned snapshot must ride through all of them.
  for (int f = 1; f <= 5; ++f) {
    store.Publish(rmap::ShardId{1, f}, TestSnapshot(map, 10 + f, 20 + f));
    EXPECT_EQ(pinned->version, 1u);
    EXPECT_TRUE(pinned->Consistent());
  }
}

TEST(PinnedSnapshotTest, ConcurrentPublishesAndPinnedReadersStayConsistent) {
  const rmap::RadioMap map = MakeSyntheticServingMap(8, 6, 10, 3);
  MapSnapshotStore store(TestSnapshot(map, 1, 11));
  std::atomic<bool> stop{false};
  std::atomic<bool> ok{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const PinnedSnapshot snap = store.PinnedRead();
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
  // LocalizationServer's launcher runs ParallelFor(n) on its n-thread pool
  // and each body is a DispatchLoop that blocks until shutdown. Every body
  // here waits, with a timeout, until all n have started; a schedule that
  // ran two indices on one thread would leave the waits timing out.
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
