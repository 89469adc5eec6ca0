// MapUpdater persistence: restart without re-imputation.
//
//  * A fresh registration over a persisted shard dir restores the newest
//    snapshot — zero Impute calls, answers bit-identical to the pre-restart
//    snapshot on both the batch path and the index-pruned single-query
//    path — and replays the WAL into the pending-delta buffer;
//  * an interrupted run (deltas ingested, crash before rebuild) converges
//    to the same bytes a never-crashed run produces: the next snapshot's
//    payload is byte-equal, because replayed deltas fold exactly like
//    live ones (same ids, same order, same RNG fork discipline) and every
//    rebuild runs the cold pipeline over the whole folded base — checked
//    with LI on a complete map and with MICE on a sparse one;
//  * restore is strict — a width-mismatched snapshot, or a CRC-valid file
//    whose header shape overflows, is refused and the shard rebuilds cold
//    from the registered base;
//  * WAL replay applies the same record rule as Ingest: a CRC-valid record
//    of the wrong width or with an infinite RSSI is dropped and counted,
//    never folded in;
//  * memory-only mode (empty persist_dir) keeps every persistence stat at
//    zero and writes nothing;
//  * keep_snapshot_files prunes, the newest file always survives;
//  * concurrent ingest against persisted rebuilds is clean under TSan
//    (this suite runs in the CI TSan job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clustering/differentiation.h"
#include "common/missing.h"
#include "common/rng.h"
#include "common/timer.h"
#include "imputers/autocorrelation.h"
#include "imputers/traditional.h"
#include "obs/metrics.h"
#include "positioning/estimators.h"
#include "serving/batch_localizer.h"
#include "serving/map_updater.h"
#include "serving/synthetic.h"
#include "store/crc32c.h"
#include "store/snapshot_format.h"
#include "store/wal.h"

namespace rmi::serving {
namespace {

namespace fs = std::filesystem;

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

std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Delegates to LI and counts entries — the probe proving a restore ran
/// zero imputations.
class CountingImputer : public imputers::Imputer {
 public:
  rmap::RadioMap Impute(const rmap::RadioMap& map,
                        const rmap::MaskMatrix& amended_mask,
                        Rng& rng) const override {
    calls.fetch_add(1, std::memory_order_acq_rel);
    return inner_.Impute(map, amended_mask, rng);
  }
  std::string name() const override { return "Counting"; }

  mutable std::atomic<size_t> calls{0};

 private:
  imputers::LinearInterpolationImputer inner_;
};

rmap::Record ObservationLike(const rmap::RadioMap& map, double t) {
  rmap::Record r = map.record(0);
  r.id = rmap::Record::kUnassignedId;
  r.time = t;
  return r;
}

MapUpdaterOptions PersistedOptions(const std::string& dir) {
  MapUpdaterOptions opt;
  opt.min_new_observations = 1000000;  // manual RebuildNow only
  opt.persist_dir = dir;
  opt.wal_sync_every = 1;
  return opt;
}

/// The one shard subdirectory a single-shard run leaves under `root`.
std::string OnlyShardDir(const std::string& root) {
  std::string found;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_directory()) continue;
    EXPECT_TRUE(found.empty()) << "expected one shard dir under " << root;
    found = entry.path().string();
  }
  EXPECT_FALSE(found.empty()) << "no shard dir under " << root;
  return found;
}

TEST(PersistenceRestart, RestoreSkipsImputationAndServesIdenticalAnswers) {
  const std::string root = ScratchDir("restart_restore");
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 2;
  const auto shards = MakeSyntheticVenue(vopt);
  const rmap::ShardId victim = shards[0].id;
  const la::Matrix queries =
      MakeSyntheticQueries(shards[0].map, 24, 0.2, 11);

  cluster::MarOnlyDifferentiator differentiator;
  CountingImputer imputer;

  // ---- run 1: build, churn, persist, shut down.
  ShardedSnapshotStore store1;
  std::vector<geom::Point> before;
  size_t imputes_run1 = 0;
  {
    MapUpdater updater(&store1, &differentiator, &imputer, WknnFactory(),
                       PersistedOptions(root));
    for (const VenueShard& shard : shards) {
      updater.RegisterShard(shard.id, shard.map);
    }
    // Fold one delta window so the persisted state is past version 1...
    for (int i = 0; i < 4; ++i) {
      updater.Ingest(victim, ObservationLike(shards[0].map, 100.0 + i));
    }
    ASSERT_TRUE(updater.RebuildNow(victim));
    // ...and strand three more in the WAL only (no rebuild after).
    for (int i = 0; i < 3; ++i) {
      updater.Ingest(victim, ObservationLike(shards[0].map, 200.0 + i));
    }

    const MapUpdaterStats stats = updater.Stats();
    EXPECT_EQ(stats.shards_restored, 0u);
    EXPECT_EQ(stats.wal_records_replayed, 0u);
    // Every publish persisted: one per registration plus the manual one.
    EXPECT_EQ(stats.snapshots_persisted, shards.size() + 1);
    EXPECT_EQ(stats.snapshot_persist_failures, 0u);
    EXPECT_GE(stats.per_shard.at(victim).persisted, 2u);

    before = store1.Current(victim)->estimator->EstimateBatch(queries);
    imputes_run1 = imputer.calls.load();
    EXPECT_GE(imputes_run1, shards.size() + 1);
  }

  // ---- run 2: fresh process over the same persist root.
  ShardedSnapshotStore store2;
  MapUpdater updater(&store2, &differentiator, &imputer, WknnFactory(),
                     PersistedOptions(root));
  for (const VenueShard& shard : shards) {
    updater.RegisterShard(shard.id, shard.map);
  }

  // Both shards restored from their files: not one Impute call ran.
  EXPECT_EQ(imputer.calls.load(), imputes_run1);
  const MapUpdaterStats stats = updater.Stats();
  EXPECT_EQ(stats.shards_restored, shards.size());
  EXPECT_EQ(stats.wal_records_replayed, 3u);
  EXPECT_EQ(updater.PendingObservations(victim), 3u);

  // The restored shard resumes at its persisted version and answers
  // bit-identically to the pre-restart estimator.
  const auto restored = store2.Current(victim);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->version, store1.Current(victim)->version);
  EXPECT_TRUE(restored->Consistent());
  const std::vector<geom::Point> after =
      restored->estimator->EstimateBatch(queries);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].x, after[i].x) << "row " << i;
    EXPECT_EQ(before[i].y, after[i].y) << "row " << i;
  }
  // The single-query path also reads the spatial index, which restore
  // rebuilds cold: it must answer bit-identically too.
  const auto original = store1.Current(victim);
  for (size_t i = 0; i < queries.rows(); ++i) {
    const std::vector<double> q = MatrixRow(queries, i);
    const geom::Point want = BatchLocalizer::LocalizeOn(*original, q);
    const geom::Point got = BatchLocalizer::LocalizeOn(*restored, q);
    EXPECT_EQ(want.x, got.x) << "row " << i;
    EXPECT_EQ(want.y, got.y) << "row " << i;
  }

  // The replayed deltas fold on the next rebuild: version advances and
  // the three stranded observations are in the reference set.
  const size_t refs_before = restored->positions().size();
  ASSERT_TRUE(updater.RebuildNow(victim));
  EXPECT_EQ(store2.Current(victim)->positions().size(), refs_before + 3);
}

/// Run A never crashes; run B "crashes" with its second delta window only
/// in the WAL, restarts, and rebuilds. Both version-3 snapshot files must
/// carry byte-equal payloads: replayed deltas get their ids at fold time,
/// RNG forks realign at restore, every rebuild runs the cold pipeline over
/// the whole folded base, and the format writes no timestamps. (Only the
/// header's wal_watermark may differ — the restarted process opens a fresh
/// WAL segment, shifting the rotation sequence.)
void ExpectRestartConvergesToUninterruptedBytes(
    const std::string& name, const cluster::Differentiator& differentiator,
    const imputers::Imputer& imputer, const rmap::ShardId& id,
    const rmap::RadioMap& base, const std::vector<rmap::Record>& window1,
    const std::vector<rmap::Record>& window2) {
  SCOPED_TRACE(name);
  const std::string root_a = ScratchDir(name + "_a");
  const std::string root_b = ScratchDir(name + "_b");

  // Run A: register (v1), fold window 1 (v2), fold window 2 (v3).
  {
    ShardedSnapshotStore store;
    MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(),
                       PersistedOptions(root_a));
    updater.RegisterShard(id, base);
    for (const rmap::Record& r : window1) updater.Ingest(id, r);
    ASSERT_TRUE(updater.RebuildNow(id));
    for (const rmap::Record& r : window2) updater.Ingest(id, r);
    ASSERT_TRUE(updater.RebuildNow(id));
    ASSERT_EQ(store.Current(id)->version, 3u);
  }

  // Run B, process 1: identical up to v2, then window 2 reaches the WAL
  // only — the process dies before any rebuild.
  {
    ShardedSnapshotStore store;
    MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(),
                       PersistedOptions(root_b));
    updater.RegisterShard(id, base);
    for (const rmap::Record& r : window1) updater.Ingest(id, r);
    ASSERT_TRUE(updater.RebuildNow(id));
    for (const rmap::Record& r : window2) updater.Ingest(id, r);
  }

  // Run B, process 2: restore v2, replay window 2, rebuild v3.
  {
    ShardedSnapshotStore store;
    MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(),
                       PersistedOptions(root_b));
    updater.RegisterShard(id, base);
    EXPECT_EQ(updater.Stats().wal_records_replayed, window2.size());
    ASSERT_TRUE(updater.RebuildNow(id));
    ASSERT_EQ(store.Current(id)->version, 3u);
  }

  const std::string file_a =
      OnlyShardDir(root_a) + "/" + store::SnapshotFileName(3);
  const std::string file_b =
      OnlyShardDir(root_b) + "/" + store::SnapshotFileName(3);
  const std::string bytes_a = ReadFile(file_a);
  const std::string bytes_b = ReadFile(file_b);
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  EXPECT_EQ(bytes_a.compare(store::kSnapshotHeaderBytes, std::string::npos,
                            bytes_b, store::kSnapshotHeaderBytes,
                            std::string::npos),
            0)
      << "restarted run's snapshot payload diverged from the uninterrupted "
         "run";

  std::string error;
  auto mapped_a = store::MappedSnapshot::Map(file_a, &error);
  ASSERT_NE(mapped_a, nullptr) << error;
  auto mapped_b = store::MappedSnapshot::Map(file_b, &error);
  ASSERT_NE(mapped_b, nullptr) << error;
  EXPECT_EQ(mapped_a->header().payload_crc, mapped_b->header().payload_crc);
  EXPECT_EQ(mapped_a->header().num_refs, mapped_b->header().num_refs);
  EXPECT_EQ(mapped_a->header().base_records, mapped_b->header().base_records);
}

TEST(PersistenceRestart, CrashBeforeRebuildConvergesToUninterruptedBytes) {
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 1;
  const auto shards = MakeSyntheticVenue(vopt);
  const rmap::ShardId id = shards[0].id;
  const rmap::RadioMap& venue = shards[0].map;
  cluster::MarOnlyDifferentiator differentiator;

  // Input 1: LI over the complete venue map, complete deltas.
  {
    std::vector<rmap::Record> window1, window2;
    for (int i = 0; i < 4; ++i) {
      window1.push_back(ObservationLike(venue, 100.0 + i));
      window2.push_back(ObservationLike(venue, 200.0 + i));
    }
    imputers::LinearInterpolationImputer imputer;
    ExpectRestartConvergesToUninterruptedBytes(
        "restart_converge_li", differentiator, imputer, id, venue, window1,
        window2);
  }

  // Input 2: MICE over a sparse copy of the venue map, with deltas that
  // carry nulls and missing RPs — the imputer really fills cells in every
  // rebuild, so any state carried between rebuilds would show in the bytes.
  {
    rmap::RadioMap sparse = venue;
    Rng holes(17);
    for (size_t i = 0; i < sparse.size(); ++i) {
      rmap::Record& r = sparse.record(i);
      for (size_t j = 1; j < r.rssi.size(); ++j) {
        if (holes.Bernoulli(0.3)) r.rssi[j] = kNull;
      }
      if (holes.Bernoulli(0.2)) {
        r.has_rp = false;
        r.rp = geom::Point{};
      }
    }
    std::vector<rmap::Record> window1, window2;
    for (size_t i = 0; i < 8; ++i) {
      rmap::Record r = venue.record((i * 13) % venue.size());
      r.id = rmap::Record::kUnassignedId;
      r.time = 100.0 + double(i);
      r.rssi[1 + i % (r.rssi.size() - 1)] = kNull;
      if (i % 2 == 0) {
        r.has_rp = false;
        r.rp = geom::Point{};
      }
      (i < 4 ? window1 : window2).push_back(r);
    }
    imputers::MiceImputer imputer;
    ExpectRestartConvergesToUninterruptedBytes(
        "restart_converge_mice", differentiator, imputer, id, sparse,
        window1, window2);
  }
}

TEST(PersistenceRestart, WidthMismatchedSnapshotIsRefusedAndRebuildsCold) {
  const std::string root = ScratchDir("restart_width");
  cluster::MarOnlyDifferentiator differentiator;
  CountingImputer imputer;
  const rmap::ShardId id{0, 0};

  // Persist a shard with a 12-AP map.
  {
    rmap::RadioMap map = MakeSyntheticServingMap(8, 6, 12, 5);
    map.set_shard(id);
    ShardedSnapshotStore store;
    MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(),
                       PersistedOptions(root));
    updater.RegisterShard(id, map);
  }

  obs::Counter& rejected = obs::GetCounter(
      "rmi_store_restore_rejected_total",
      "Snapshot files refused at restore time (shard/width/ABI mismatch or "
      "missing base) — the shard fell back to a cold re-impute");
  const uint64_t rejected_before = rejected.Total();
  const size_t imputes_before = imputer.calls.load();

  // A new lineage with 16 APs must not restore the 12-AP file.
  rmap::RadioMap wider = MakeSyntheticServingMap(8, 6, 16, 6);
  wider.set_shard(id);
  ShardedSnapshotStore store;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(),
                     PersistedOptions(root));
  updater.RegisterShard(id, wider);

  EXPECT_GE(rejected.Total(), rejected_before + 1);
  EXPECT_EQ(imputer.calls.load(), imputes_before + 1);  // cold path ran
  EXPECT_EQ(updater.Stats().shards_restored, 0u);
  const auto snapshot = store.Current(id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(snapshot->num_aps(), 16u);
}

/// Registers `shard` once with persistence on under `root` and shuts the
/// updater down, leaving a snapshot file and a WAL behind; returns the
/// shard's directory.
std::string PersistOneShard(const std::string& root, const VenueShard& shard,
                            const cluster::Differentiator& differentiator,
                            const imputers::Imputer& imputer) {
  ShardedSnapshotStore store;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(),
                     PersistedOptions(root));
  updater.RegisterShard(shard.id, shard.map);
  return OnlyShardDir(root);
}

TEST(PersistenceRestart, CrcValidShapeOverflowIsRefusedAndRebuildsCold) {
  const std::string root = ScratchDir("restart_shape");
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 1;
  const auto shards = MakeSyntheticVenue(vopt);
  cluster::MarOnlyDifferentiator differentiator;
  CountingImputer imputer;
  const std::string shard_dir =
      PersistOneShard(root, shards[0], differentiator, imputer);

  // num_refs = 2^62 wraps both row-section sizes to 0 in unchecked 64-bit
  // arithmetic. With the sections sized 0 and header_crc re-stamped the
  // file passes both CRCs, and the shape validation must refuse it before
  // restore reads past the mapping.
  const std::vector<std::string> files = store::ListSnapshotFiles(shard_dir);
  ASSERT_FALSE(files.empty());
  std::string bytes = ReadFile(files[0]);
  store::SnapshotHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  h.num_refs = uint64_t{1} << 62;
  h.sections[store::kSecFloatRefs].size = 0;
  h.sections[store::kSecPositions].size = 0;
  h.header_crc =
      store::Crc32c(&h, offsetof(store::SnapshotHeader, header_crc));
  std::memcpy(bytes.data(), &h, sizeof(h));
  {
    std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const size_t imputes_before = imputer.calls.load();
  ShardedSnapshotStore store;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(),
                     PersistedOptions(root));
  updater.RegisterShard(shards[0].id, shards[0].map);

  EXPECT_EQ(imputer.calls.load(), imputes_before + 1);  // cold path ran
  EXPECT_EQ(updater.Stats().shards_restored, 0u);
  const auto snapshot = store.Current(shards[0].id);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
}

/// Persists one shard, appends a good observation and then one spoiled by
/// `spoil` to its WAL through the store API (both frames CRC-valid),
/// restarts, and checks that replay folds only the good record and counts
/// the bad one.
template <typename Spoil>
void ExpectBadWalRecordDroppedAtReplay(const std::string& name, Spoil spoil) {
  const std::string root = ScratchDir(name);
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 1;
  const auto shards = MakeSyntheticVenue(vopt);
  const rmap::ShardId id = shards[0].id;
  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;
  const std::string shard_dir =
      PersistOneShard(root, shards[0], differentiator, imputer);
  {
    store::Wal::ReplayResult replay;
    std::string error;
    auto wal = store::Wal::Open(shard_dir + "/wal", 0, {}, &replay, &error);
    ASSERT_NE(wal, nullptr) << error;
    ASSERT_TRUE(wal->Append(ObservationLike(shards[0].map, 300.0), &error))
        << error;
    rmap::Record bad = ObservationLike(shards[0].map, 301.0);
    spoil(&bad);
    ASSERT_TRUE(wal->Append(bad, &error)) << error;
  }

  obs::Counter& rejected = obs::GetCounter(
      "rmi_store_wal_records_rejected_total",
      "Replayed WAL records that failed the record rule (width, +-inf "
      "RSSI, non-finite RP) and were dropped instead of folded in");
  const uint64_t rejected_before = rejected.Total();
  ShardedSnapshotStore store;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(),
                     PersistedOptions(root));
  updater.RegisterShard(id, shards[0].map);

  const MapUpdaterStats stats = updater.Stats();
  EXPECT_EQ(stats.shards_restored, 1u);
  EXPECT_EQ(stats.wal_records_replayed, 1u);
  EXPECT_EQ(rejected.Total(), rejected_before + 1);
  EXPECT_EQ(updater.PendingObservations(id), 1u);

  const size_t refs_before = store.Current(id)->num_refs();
  ASSERT_TRUE(updater.RebuildNow(id));
  EXPECT_EQ(updater.Stats().rebuilds_failed, 0u);
  const auto rebuilt = store.Current(id);
  EXPECT_EQ(rebuilt->version, 2u);
  EXPECT_EQ(rebuilt->num_refs(), refs_before + 1);
  EXPECT_TRUE(std::isfinite(rebuilt->quantized->max_scale));
}

TEST(PersistenceRestart, WalRecordOfWrongWidthIsDroppedAtReplay) {
  ExpectBadWalRecordDroppedAtReplay("restart_wal_width", [](rmap::Record* r) {
    r->rssi.push_back(-60.0);  // one column too wide
  });
}

TEST(PersistenceRestart, WalRecordWithInfiniteRssiIsDroppedAtReplay) {
  ExpectBadWalRecordDroppedAtReplay("restart_wal_inf", [](rmap::Record* r) {
    r->rssi[1] = std::numeric_limits<double>::infinity();
  });
}

TEST(PersistenceRestart, MemoryOnlyModeWritesNothingAndCountsNothing) {
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 1;
  const auto shards = MakeSyntheticVenue(vopt);
  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;

  ShardedSnapshotStore store;
  MapUpdaterOptions opt;
  opt.min_new_observations = 4;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);
  updater.RegisterShard(shards[0].id, shards[0].map);
  for (int i = 0; i < 4; ++i) {
    updater.Ingest(shards[0].id, ObservationLike(shards[0].map, 50.0 + i));
  }
  ASSERT_TRUE(updater.RebuildNow(shards[0].id));

  const MapUpdaterStats stats = updater.Stats();
  EXPECT_EQ(stats.snapshots_persisted, 0u);
  EXPECT_EQ(stats.snapshot_persist_failures, 0u);
  EXPECT_EQ(stats.wal_records_replayed, 0u);
  EXPECT_EQ(stats.shards_restored, 0u);
  EXPECT_EQ(stats.per_shard.at(shards[0].id).persisted, 0u);
}

TEST(PersistenceRestart, KeepSnapshotFilesPrunesAllButTheNewest) {
  const std::string root = ScratchDir("restart_prune");
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 1;
  const auto shards = MakeSyntheticVenue(vopt);
  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;

  ShardedSnapshotStore store;
  MapUpdaterOptions opt = PersistedOptions(root);
  opt.keep_snapshot_files = 2;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);
  updater.RegisterShard(shards[0].id, shards[0].map);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(updater.RebuildNow(shards[0].id));
  }
  ASSERT_EQ(store.Current(shards[0].id)->version, 5u);

  const std::vector<std::string> files =
      store::ListSnapshotFiles(OnlyShardDir(root));
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].find(store::SnapshotFileName(5)), std::string::npos);
  EXPECT_NE(files[1].find(store::SnapshotFileName(4)), std::string::npos);
}

TEST(PersistenceRestart, ConcurrentIngestAgainstPersistedRebuildsIsClean) {
  // TSan food: three ingest threads race the trigger loop's fold + WAL
  // rotation + snapshot writes across two persisted shards.
  const std::string root = ScratchDir("restart_concurrent");
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 2;
  const auto shards = MakeSyntheticVenue(vopt);
  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;

  ShardedSnapshotStore store;
  MapUpdaterOptions opt;
  opt.min_new_observations = 8;
  opt.poll_interval_ms = 1.0;
  opt.persist_dir = root;
  opt.wal_sync_every = 4;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);
  for (const VenueShard& shard : shards) {
    updater.RegisterShard(shard.id, shard.map);
  }
  updater.Start();

  std::vector<std::thread> feeders;
  for (int t = 0; t < 3; ++t) {
    feeders.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const VenueShard& target = shards[(t + i) % shards.size()];
        updater.Ingest(target.id,
                       ObservationLike(target.map, 1000.0 * t + i));
      }
    });
  }
  for (std::thread& f : feeders) f.join();
  ASSERT_TRUE(WaitFor([&] {
    return updater.Stats().snapshots_persisted >= shards.size() + 2;
  })) << "churn rebuilds never persisted";
  updater.Stop();

  const MapUpdaterStats stats = updater.Stats();
  EXPECT_EQ(stats.snapshot_persist_failures, 0u);
  EXPECT_EQ(stats.ingested, 120u);
  // Everything the run persisted is mappable and internally consistent.
  std::string error;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_directory()) continue;
    auto mapped = store::MapNewestValid(entry.path().string(), &error);
    EXPECT_NE(mapped, nullptr) << entry.path() << ": " << error;
  }
}

}  // namespace
}  // namespace rmi::serving
