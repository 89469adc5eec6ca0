// Fault injection against MapUpdater's rebuild pipeline: a throwing
// imputer must not kill the trigger loop — the shard keeps serving its
// previous snapshot, the failure lands in MapUpdaterStats::rebuilds_failed
// and the rmi_updater_rebuild_failures_total counter, and the folded
// observations survive into the next successful rebuild. A hanging imputer
// stalls only the rebuild in flight — serving and ingest continue from the
// published generation — and Stop() drains cleanly once the imputer
// returns. This suite runs under the CI TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "clustering/differentiation.h"
#include "common/timer.h"
#include "imputers/traditional.h"
#include "obs/metrics.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/shard_router.h"
#include "serving/synthetic.h"

namespace rmi::serving {
namespace {

EstimatorFactory WknnFactory() {
  return [] { return std::make_unique<positioning::KnnEstimator>(3, true); };
}

template <typename Pred>
bool WaitFor(Pred pred, double timeout_s = 30.0) {
  Timer t;
  while (!pred()) {
    if (t.ElapsedSeconds() > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Delegates to LI; throws out of every imputation while `fail` is set.
class FlakyImputer : public imputers::Imputer {
 public:
  rmap::RadioMap Impute(const rmap::RadioMap& map,
                        const rmap::MaskMatrix& amended_mask,
                        Rng& rng) const override {
    if (fail.load(std::memory_order_acquire)) {
      throw std::runtime_error("injected imputer failure");
    }
    return inner_.Impute(map, amended_mask, rng);
  }
  std::string name() const override { return "Flaky"; }

  std::atomic<bool> fail{false};

 private:
  imputers::LinearInterpolationImputer inner_;
};

/// Delegates to LI; while armed, every imputation blocks until Release().
class HangingImputer : public imputers::Imputer {
 public:
  rmap::RadioMap Impute(const rmap::RadioMap& map,
                        const rmap::MaskMatrix& amended_mask,
                        Rng& rng) const override {
    if (armed.load(std::memory_order_acquire)) {
      entered.fetch_add(1, std::memory_order_acq_rel);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return released_; });
    }
    return inner_.Impute(map, amended_mask, rng);
  }
  std::string name() const override { return "Hanging"; }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  std::atomic<bool> armed{false};
  mutable std::atomic<size_t> entered{0};

 private:
  imputers::LinearInterpolationImputer inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool released_ = false;
};

rmap::Record ObservationLike(const rmap::RadioMap& map, double t) {
  rmap::Record r = map.record(0);
  r.id = rmap::Record::kUnassignedId;
  r.time = t;
  return r;
}

TEST(UpdaterFaultTest, ThrowingImputerKeepsServingAndTheLoopAlive) {
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 2;
  const auto shards = MakeSyntheticVenue(vopt);
  const size_t base_rows = shards[0].map.size();

  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  FlakyImputer imputer;
  MapUpdaterOptions opt;
  opt.min_new_observations = 4;
  opt.poll_interval_ms = 1.0;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);
  for (const VenueShard& shard : shards) {
    updater.RegisterShard(shard.id, shard.map);
  }
  const rmap::ShardId victim = shards[0].id;
  ASSERT_EQ(store.Current(victim)->version, 1u);

  obs::Counter& failures = obs::GetCounter(
      "rmi_updater_rebuild_failures_total",
      "Rebuilds whose impute/fit/publish pipeline threw (nothing "
      "published; the shard keeps serving its previous snapshot)");
  const uint64_t failures_before = failures.Total();

  updater.Start();
  imputer.fail.store(true, std::memory_order_release);
  for (int i = 0; i < 4; ++i) {
    updater.Ingest(victim, ObservationLike(shards[0].map, 100.0 + i));
  }
  ASSERT_TRUE(WaitFor([&] { return updater.Stats().rebuilds_failed >= 1; }))
      << "trigger loop never recorded the injected failure";

  // Nothing was published: the shard still serves generation 1, and the
  // failure is visible in both the stats and the registry counter.
  EXPECT_EQ(store.Current(victim)->version, 1u);
  EXPECT_GE(failures.Total(), failures_before + 1);
  EXPECT_GE(updater.Stats().per_shard.at(victim).failed, 1u);

  // The loop survived: heal the imputer, feed a fresh delta window, and
  // the shard republishes — with the failure window's observations folded
  // in (they were never lost).
  imputer.fail.store(false, std::memory_order_release);
  for (int i = 0; i < 4; ++i) {
    updater.Ingest(victim, ObservationLike(shards[0].map, 200.0 + i));
  }
  ASSERT_TRUE(WaitFor([&] {
    const auto current = store.Current(victim);
    return current != nullptr && current->version >= 2;
  })) << "trigger loop did not recover after the imputer healed";
  EXPECT_EQ(store.Current(victim)->positions().size(), base_rows + 8);

  updater.Stop();
  const MapUpdaterStats stats = updater.Stats();
  EXPECT_GE(stats.rebuilds_failed, 1u);
  EXPECT_GE(stats.rebuilds_completed, shards.size() + 1);
  // Memory-only run: the persistence counters never move.
  EXPECT_EQ(stats.snapshots_persisted, 0u);
  EXPECT_EQ(stats.wal_records_replayed, 0u);
}

TEST(UpdaterFaultTest, PersistenceStallsWithTheFaultAndReplaysAfterRestart) {
  // With persistence on, a failing rebuild persists nothing — the durable
  // state freezes at the last good snapshot while the WAL keeps absorbing
  // ingest — and a restart over the shard dir restores that snapshot and
  // replays the stranded deltas.
  const std::string persist_root =
      std::filesystem::path(::testing::TempDir()) / "fault_persist";
  std::filesystem::remove_all(persist_root);
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 2;
  const auto shards = MakeSyntheticVenue(vopt);
  const rmap::ShardId victim = shards[0].id;

  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  FlakyImputer imputer;
  MapUpdaterOptions opt;
  opt.min_new_observations = 4;
  opt.poll_interval_ms = 1.0;
  opt.persist_dir = persist_root;
  opt.wal_sync_every = 1;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);
  for (const VenueShard& shard : shards) {
    updater.RegisterShard(shard.id, shard.map);
  }
  // Every registration publish also persisted a snapshot file.
  const size_t persisted_baseline = updater.Stats().snapshots_persisted;
  EXPECT_EQ(persisted_baseline, shards.size());

  updater.Start();
  imputer.fail.store(true, std::memory_order_release);
  for (int i = 0; i < 4; ++i) {
    updater.Ingest(victim, ObservationLike(shards[0].map, 100.0 + i));
  }
  ASSERT_TRUE(WaitFor([&] { return updater.Stats().rebuilds_failed >= 1; }));
  // The failed rebuild persisted nothing (and recorded no persist failure:
  // the persist stage was never reached).
  EXPECT_EQ(updater.Stats().snapshots_persisted, persisted_baseline);
  EXPECT_EQ(updater.Stats().snapshot_persist_failures, 0u);

  // Heal: the recovery rebuild publishes and persists again.
  imputer.fail.store(false, std::memory_order_release);
  for (int i = 0; i < 4; ++i) {
    updater.Ingest(victim, ObservationLike(shards[0].map, 200.0 + i));
  }
  ASSERT_TRUE(WaitFor([&] {
    return updater.Stats().snapshots_persisted >= persisted_baseline + 1;
  })) << "healed rebuild never persisted";
  // Strand two post-heal observations in the WAL: below the volume
  // trigger, so no rebuild folds them before the "crash".
  for (int i = 0; i < 2; ++i) {
    updater.Ingest(victim, ObservationLike(shards[0].map, 300.0 + i));
  }
  updater.Stop();
  const uint64_t served_version = store.Current(victim)->version;

  // Restart over the same durable state: the victim restores the healed
  // snapshot and the stranded deltas replay from the WAL.
  {
    ShardedSnapshotStore store2;
    MapUpdater restarted(&store2, &differentiator, &imputer, WknnFactory(),
                         opt);
    for (const VenueShard& shard : shards) {
      restarted.RegisterShard(shard.id, shard.map);
    }
    const MapUpdaterStats stats = restarted.Stats();
    EXPECT_EQ(stats.shards_restored, shards.size());
    EXPECT_EQ(stats.wal_records_replayed, 2u);
    EXPECT_EQ(restarted.PendingObservations(victim), 2u);
    EXPECT_EQ(store2.Current(victim)->version, served_version);
  }
}

TEST(UpdaterFaultTest, HangingImputerStallsTheRebuildNotServingOrIngest) {
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 2;
  const auto shards = MakeSyntheticVenue(vopt);

  ShardedSnapshotStore store;
  ShardRouter router(&store);
  cluster::MarOnlyDifferentiator differentiator;
  HangingImputer imputer;
  MapUpdaterOptions opt;
  opt.min_new_observations = 4;
  opt.poll_interval_ms = 1.0;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);
  for (const VenueShard& shard : shards) {
    updater.RegisterShard(shard.id, shard.map);
  }
  const rmap::ShardId stuck = shards[0].id;
  const rmap::ShardId healthy = shards[1].id;

  updater.Start();
  imputer.armed.store(true, std::memory_order_release);
  for (int i = 0; i < 4; ++i) {
    updater.Ingest(stuck, ObservationLike(shards[0].map, 100.0 + i));
  }
  ASSERT_TRUE(WaitFor([&] { return imputer.entered.load() >= 1; }))
      << "rebuild never reached the imputer";

  // The rebuild is wedged inside the imputer, but the serving plane is
  // not: both shards answer from their published snapshots and ingest
  // keeps buffering.
  EXPECT_EQ(store.Current(stuck)->version, 1u);
  const la::Matrix& refs = store.Current(healthy)->fingerprints();
  std::vector<double> query(refs.cols());
  for (size_t j = 0; j < refs.cols(); ++j) query[j] = refs(0, j);
  EXPECT_NO_THROW(router.Localize(stuck, query));
  EXPECT_NO_THROW(router.Localize(healthy, query));
  for (int i = 0; i < 3; ++i) {
    updater.Ingest(healthy, ObservationLike(shards[1].map, 300.0 + i));
  }
  EXPECT_EQ(updater.PendingObservations(healthy), 3u);

  // Release the imputer: the wedged rebuild publishes, the loop resumes,
  // and Stop() drains with nothing left hanging.
  imputer.armed.store(false, std::memory_order_release);
  imputer.Release();
  ASSERT_TRUE(WaitFor([&] { return store.Current(stuck)->version >= 2; }));
  updater.Stop();
  EXPECT_EQ(updater.Stats().rebuilds_failed, 0u);
}

}  // namespace
}  // namespace rmi::serving
