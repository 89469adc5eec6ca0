// MapUpdater concurrency: the bounded rebuild pool really overlaps
// independent shards, per-shard rebuilds stay serialized and deterministic
// (private RNG streams — scheduling cannot perturb published snapshots),
// ingest never blocks on an in-flight rebuild, Stop() drains the batch in
// flight, per-shard phase stats are populated, and a rebuild leaves no
// autodiff tape memory on the thread that ran it. This suite — with
// serving_test and sharded_serving_test — is what the CI TSan job
// instruments.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "autodiff/workspace.h"
#include "bisim/bisim.h"
#include "clustering/differentiation.h"
#include "common/missing.h"
#include "common/rng.h"
#include "common/timer.h"
#include "imputers/autocorrelation.h"
#include "imputers/traditional.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/synthetic.h"

namespace rmi::serving {
namespace {

EstimatorFactory WknnFactory(size_t k = 3) {
  return [k] { return std::make_unique<positioning::KnnEstimator>(k, true); };
}

template <typename Pred>
bool WaitFor(Pred pred, double timeout_s = 20.0) {
  Timer t;
  while (!pred()) {
    if (t.ElapsedSeconds() > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Imputer that tracks how many Impute calls run concurrently (sleep-based
/// so overlap shows even on a single hardware core) and delegates to LI.
class ConcurrencyProbeImputer : public imputers::Imputer {
 public:
  explicit ConcurrencyProbeImputer(double sleep_ms) : sleep_ms_(sleep_ms) {}

  rmap::RadioMap Impute(const rmap::RadioMap& map,
                        const rmap::MaskMatrix& amended_mask,
                        Rng& rng) const override {
    const int now = concurrent_.fetch_add(1, std::memory_order_acq_rel) + 1;
    int seen = max_concurrent_.load(std::memory_order_relaxed);
    while (seen < now && !max_concurrent_.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms_));
    rmap::RadioMap out = inner_.Impute(map, amended_mask, rng);
    concurrent_.fetch_sub(1, std::memory_order_acq_rel);
    return out;
  }
  std::string name() const override { return "probe"; }

  int max_concurrent() const { return max_concurrent_.load(); }

 private:
  double sleep_ms_;
  imputers::LinearInterpolationImputer inner_;
  mutable std::atomic<int> concurrent_{0};
  mutable std::atomic<int> max_concurrent_{0};
};

/// Ingests one volume-trigger batch of fresh observations into `id`.
void IngestBatch(MapUpdater* updater, const rmap::ShardId& id,
                 const rmap::RadioMap& truth, size_t count, Rng* rng,
                 double time_offset) {
  for (size_t i = 0; i < count; ++i) {
    rmap::Record obs = truth.record(rng->Index(truth.size()));
    obs.id = rmap::Record::kUnassignedId;
    obs.time += time_offset;
    updater->Ingest(id, std::move(obs));
  }
}

TEST(UpdaterConcurrencyTest, IndependentShardsRebuildConcurrently) {
  const size_t kShards = 4;
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  ConcurrencyProbeImputer imputer(/*sleep_ms=*/60.0);
  MapUpdaterOptions opt;
  opt.min_new_observations = 4;
  opt.poll_interval_ms = 0.5;
  opt.rebuild_threads = kShards;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);

  std::vector<rmap::RadioMap> maps;
  for (size_t s = 0; s < kShards; ++s) {
    maps.push_back(MakeSyntheticServingMap(8, 6, 6, 100 + s));
    updater.RegisterShard(rmap::ShardId{0, int32_t(s)}, maps.back());
  }
  // Registration rebuilds run on this thread, one at a time.
  EXPECT_EQ(imputer.max_concurrent(), 1);

  // All four batches land *before* the loop starts, so its first poll
  // finds the full tripped set and must fan it out — a Start-first
  // ordering would let a slow runner (the CI TSan job) observe the shards
  // tripping one by one and take the single-shard direct path each time.
  Rng rng(7);
  for (size_t s = 0; s < kShards; ++s) {
    IngestBatch(&updater, rmap::ShardId{0, int32_t(s)}, maps[s], 4, &rng,
                100.0);
  }
  updater.Start();
  ASSERT_TRUE(WaitFor([&] {
    return updater.Stats().rebuilds_completed >= 2 * kShards;
  }));
  updater.Stop();

  // The tripped batch fanned out over the pool: rebuilds genuinely
  // overlapped instead of serializing on the trigger thread.
  EXPECT_GE(imputer.max_concurrent(), 2)
      << "pooled rebuilds never ran concurrently";
  const MapUpdaterStats stats = updater.Stats();
  EXPECT_EQ(stats.rebuilds_started, stats.rebuilds_completed);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GE(store.Current(rmap::ShardId{0, int32_t(s)})->version, 2u);
  }
}

TEST(UpdaterConcurrencyTest, SingleThreadPoolKeepsRebuildsSerialized) {
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  ConcurrencyProbeImputer imputer(/*sleep_ms=*/20.0);
  MapUpdaterOptions opt;
  opt.min_new_observations = 4;
  opt.poll_interval_ms = 0.5;
  opt.rebuild_threads = 1;  // the pre-pool serialized behavior
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);

  std::vector<rmap::RadioMap> maps;
  for (int s = 0; s < 3; ++s) {
    maps.push_back(MakeSyntheticServingMap(8, 6, 6, 200 + s));
    updater.RegisterShard(rmap::ShardId{1, s}, maps.back());
  }
  updater.Start();
  Rng rng(8);
  for (int s = 0; s < 3; ++s) {
    IngestBatch(&updater, rmap::ShardId{1, s}, maps[s], 4, &rng, 100.0);
  }
  ASSERT_TRUE(
      WaitFor([&] { return updater.Stats().rebuilds_completed >= 6; }));
  updater.Stop();
  EXPECT_EQ(imputer.max_concurrent(), 1);
}

TEST(UpdaterConcurrencyTest, PerShardRngStreamsIgnoreScheduling) {
  // The same (seed, shard) pair must publish bit-identical snapshots
  // whether rebuilds run serialized on the caller or concurrently on the
  // pool in whatever order the scheduler picks.
  const size_t kShards = 3;
  cluster::MarOnlyDifferentiator differentiator;
  std::vector<rmap::RadioMap> maps;
  for (size_t s = 0; s < kShards; ++s) {
    maps.push_back(MakeSyntheticServingMap(8, 6, 6, 300 + s));
  }
  // A sparse delta batch per shard, fixed up front so both runs ingest
  // identical observations. Missing RSSIs (AP 0 always heard) and missing
  // RPs make every imputer fill cells that the published snapshot holds.
  std::vector<std::vector<rmap::Record>> deltas(kShards);
  Rng delta_rng(17);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t i = 0; i < 6; ++i) {
      rmap::Record obs = maps[s].record(delta_rng.Index(maps[s].size()));
      obs.id = rmap::Record::kUnassignedId;
      obs.time += 500.0;
      for (size_t j = 1; j < obs.rssi.size(); ++j) {
        if (delta_rng.Bernoulli(0.25)) obs.rssi[j] = kNull;
      }
      if (delta_rng.Bernoulli(0.3)) {
        obs.has_rp = false;
        obs.rp = geom::Point{};
      }
      deltas[s].push_back(std::move(obs));
    }
  }

  auto run = [&](const imputers::Imputer& imputer, bool pooled) {
    ShardedSnapshotStore store;
    MapUpdaterOptions opt;
    opt.seed = 4242;
    opt.min_new_observations = 6;
    opt.poll_interval_ms = 0.5;
    opt.rebuild_threads = pooled ? kShards : 1;
    MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);
    // Registration order differs between the runs as well.
    if (pooled) {
      for (size_t s = kShards; s-- > 0;) {
        updater.RegisterShard(rmap::ShardId{0, int32_t(s)}, maps[s]);
      }
    } else {
      for (size_t s = 0; s < kShards; ++s) {
        updater.RegisterShard(rmap::ShardId{0, int32_t(s)}, maps[s]);
      }
    }
    for (size_t s = 0; s < kShards; ++s) {
      for (const rmap::Record& obs : deltas[s]) {
        updater.Ingest(rmap::ShardId{0, int32_t(s)}, obs);
      }
    }
    if (pooled) {
      updater.Start();
      EXPECT_TRUE(WaitFor([&] {
        return updater.Stats().rebuilds_completed >= 2 * kShards;
      }));
      updater.Stop();
    } else {
      for (size_t s = 0; s < kShards; ++s) {
        EXPECT_TRUE(updater.RebuildNow(rmap::ShardId{0, int32_t(s)}));
      }
    }
    std::vector<std::shared_ptr<const MapSnapshot>> snapshots;
    for (size_t s = 0; s < kShards; ++s) {
      snapshots.push_back(store.Current(rmap::ShardId{0, int32_t(s)}));
      EXPECT_EQ(snapshots.back()->version, 2u);
    }
    return snapshots;
  };

  // The second backend is a tiny BiSIM at two threads. The pooled run's
  // three tripped shards rebuild inside the updater pool's fan-out, where
  // ThreadPool's oversubscription guard collapses BiSIM's nested training
  // pool to one thread; the serial run's RebuildNow trains at two.
  bisim::BiSimConfig bisim_cfg;
  bisim_cfg.hidden = 8;
  bisim_cfg.attention_hidden = 8;
  bisim_cfg.epochs = 3;
  bisim_cfg.num_threads = 2;
  const bisim::BiSimImputer bisim_imputer(bisim_cfg);
  const imputers::MiceImputer mice;
  const std::vector<const imputers::Imputer*> backends = {&mice,
                                                         &bisim_imputer};
  for (const imputers::Imputer* imputer : backends) {
    SCOPED_TRACE(imputer->name());
    const auto serial = run(*imputer, /*pooled=*/false);
    const auto pooled = run(*imputer, /*pooled=*/true);
    ASSERT_EQ(serial.size(), pooled.size());
    for (size_t s = 0; s < serial.size(); ++s) {
      const la::Matrix& want = serial[s]->fingerprints();
      const la::Matrix& got = pooled[s]->fingerprints();
      ASSERT_TRUE(want.SameShape(got));
      EXPECT_EQ(0, std::memcmp(want.data().data(), got.data().data(),
                               want.size() * sizeof(double)))
          << "shard " << s << " fingerprints depend on scheduling";
      ASSERT_EQ(serial[s]->positions().size(), pooled[s]->positions().size());
      EXPECT_EQ(0, std::memcmp(serial[s]->positions().data(),
                               pooled[s]->positions().data(),
                               serial[s]->positions().size() *
                                   sizeof(geom::Point)))
          << "shard " << s << " positions depend on scheduling";
    }
  }
}

TEST(UpdaterConcurrencyTest, IngestNeverBlocksOnInFlightRebuild) {
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  ConcurrencyProbeImputer imputer(/*sleep_ms=*/150.0);
  MapUpdaterOptions opt;
  opt.min_new_observations = 1;
  opt.poll_interval_ms = 0.5;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);

  const rmap::ShardId id{0, 0};
  const auto map = MakeSyntheticServingMap(8, 6, 6, 41);
  updater.RegisterShard(id, map);
  updater.Start();
  Rng rng(5);
  IngestBatch(&updater, id, map, 1, &rng, 100.0);
  // Wait until the background rebuild is genuinely in flight...
  ASSERT_TRUE(
      WaitFor([&] { return updater.Stats().rebuilds_started >= 2; }));
  // ...then ingest against it: must return immediately, not after the
  // imputer's 150 ms sleep.
  Timer t;
  IngestBatch(&updater, id, map, 1, &rng, 200.0);
  EXPECT_LT(t.ElapsedSeconds(), 0.1)
      << "Ingest blocked behind the in-flight rebuild";
  // The racing delta lands in a follow-up rebuild, never lost.
  ASSERT_TRUE(
      WaitFor([&] { return updater.Stats().rebuilds_completed >= 3; }));
  updater.Stop();
  EXPECT_EQ(updater.PendingObservations(id), 0u);
}

TEST(UpdaterConcurrencyTest, StopDrainsTheBatchInFlight) {
  const size_t kShards = 3;
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  ConcurrencyProbeImputer imputer(/*sleep_ms=*/80.0);
  MapUpdaterOptions opt;
  opt.min_new_observations = 2;
  opt.poll_interval_ms = 0.5;
  opt.rebuild_threads = kShards;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);
  std::vector<rmap::RadioMap> maps;
  for (size_t s = 0; s < kShards; ++s) {
    maps.push_back(MakeSyntheticServingMap(8, 6, 6, 400 + s));
    updater.RegisterShard(rmap::ShardId{2, int32_t(s)}, maps.back());
  }
  updater.Start();
  Rng rng(9);
  for (size_t s = 0; s < kShards; ++s) {
    IngestBatch(&updater, rmap::ShardId{2, int32_t(s)}, maps[s], 2, &rng,
                100.0);
  }
  // Let the trigger fire, then stop mid-batch: every started rebuild must
  // publish before Stop returns.
  ASSERT_TRUE(WaitFor(
      [&] { return updater.Stats().rebuilds_started > kShards; }));
  updater.Stop();
  const MapUpdaterStats stats = updater.Stats();
  EXPECT_EQ(stats.rebuilds_started, stats.rebuilds_completed);
  EXPECT_GT(stats.rebuilds_completed, kShards);
}

TEST(UpdaterConcurrencyTest, PhaseStatsBreakDownTheRebuild) {
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  imputers::MiceImputer imputer;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory());
  const rmap::ShardId id{3, 1};
  updater.RegisterShard(id, MakeSyntheticServingMap(10, 8, 8, 55));
  ASSERT_TRUE(updater.RebuildNow(id));

  const MapUpdaterStats stats = updater.Stats();
  ASSERT_EQ(stats.per_shard.count(id), 1u);
  const RebuildStats& shard = stats.per_shard.at(id);
  EXPECT_EQ(shard.completed, 2u);  // registration + RebuildNow
  EXPECT_GT(shard.last_impute_seconds, 0.0);
  EXPECT_GT(shard.last_fit_seconds, 0.0);
  EXPECT_GE(shard.last_publish_seconds, 0.0);
  EXPECT_DOUBLE_EQ(shard.last_total_seconds,
                   shard.last_impute_seconds + shard.last_fit_seconds +
                       shard.last_publish_seconds);
  EXPECT_GE(shard.total_busy_seconds, shard.last_total_seconds);
  EXPECT_EQ(shard.last_queue_wait_seconds, 0.0);  // RebuildNow: no queue
}

TEST(UpdaterConcurrencyTest, WorkspacePoolEmptyAfterEveryRebuild) {
  // Every rebuild trains a new model inside BiSimImputer::Impute, whose
  // ad::ScopedTapeRun frees the calling thread's tape memory when the run
  // ends. After each RebuildNow the thread's Workspace must pool nothing:
  // neither that run's tape buffers nor the dead model's parameters.
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  bisim::BiSimConfig cfg;
  cfg.hidden = 8;
  cfg.attention_hidden = 8;
  cfg.epochs = 3;
  cfg.num_threads = 1;  // all tape work on this thread
  bisim::BiSimImputer imputer(cfg);
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory());

  const rmap::ShardId id{4, 0};
  updater.RegisterShard(id, MakeSyntheticServingMap(6, 5, 5, 66));

  ad::Workspace& ws = ad::Workspace::Get();
  for (int rebuild = 0; rebuild < 3; ++rebuild) {
    const size_t acquires = ws.stats().acquires;
    ASSERT_TRUE(updater.RebuildNow(id));
    EXPECT_GT(ws.stats().acquires, acquires) << "the tape ran on this thread";
    EXPECT_EQ(ws.stats().pooled_buffers, 0u) << "after rebuild " << rebuild;
  }
}

}  // namespace
}  // namespace rmi::serving
