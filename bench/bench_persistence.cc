// Persistence acceptance: what does the mmap snapshot + delta WAL buy?
//
//   * restart  — cold process start (register every shard, full
//     differentiate -> impute -> fit) vs persisted restart (map the newest
//     snapshot per shard + replay the WAL). Acceptance: >= 10x faster on
//     the 8-shard churn venue.
//   * publish  — RebuildNow wall-clock with persistence off vs on: the
//     snapshot-file write + WAL rotation ride the publish path, and this
//     measures what they cost.
//
//   ./bench_persistence            # full sizes, console table
//   ./bench_persistence --smoke    # CI sizes + BENCH_persistence.json
//   ./bench_persistence --json=out.json
//
// Emits BENCH_persistence.json (schema in docs/REPRODUCE.md) and drops
// sample.rmsnap + sample.rmsnap.crc32c next to it — the byte-deterministic
// snapshot file CI pins as its on-disk-ABI canary.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "clustering/differentiation.h"
#include "common/missing.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"
#include "imputers/autocorrelation.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/synthetic.h"
#include "store/crc32c.h"
#include "store/snapshot_format.h"

namespace {

using namespace rmi;
namespace fs = std::filesystem;

struct BenchConfig {
  size_t num_shards = 8;
  size_t nx = 24, ny = 16;
  size_t aps_per_floor = 28;
  size_t churn_rounds = 4;  // folded delta windows per shard before restart
  size_t batch = 8;         // observations per window
  size_t stranded = 6;      // WAL-only observations at "crash" time
  uint64_t seed = 41;
};

serving::EstimatorFactory WknnFactory() {
  return [] { return std::make_unique<positioning::KnnEstimator>(3, true); };
}

struct Venue {
  std::vector<rmap::ShardId> ids;
  std::vector<rmap::RadioMap> maps;
};

Venue MakeVenue(const BenchConfig& cfg) {
  Venue v;
  Rng rng(cfg.seed + 100);
  for (size_t s = 0; s < cfg.num_shards; ++s) {
    v.ids.push_back(rmap::ShardId{int32_t(s / 4), int32_t(s % 4)});
    rmap::RadioMap map = serving::MakeSyntheticServingMap(
        cfg.nx, cfg.ny, cfg.aps_per_floor, cfg.seed + s);
    // A realistic survey base is sparse — that sparsity is exactly what a
    // cold restart pays to re-impute and what the persisted snapshot (which
    // stores the *imputed* state) lets a restart skip.
    rmap::RemoveRandomRssis(&map, 0.5, rng);
    map.set_shard(v.ids.back());
    v.maps.push_back(std::move(map));
  }
  return v;
}

rmap::Record ChurnObservation(const rmap::RadioMap& truth, Rng& rng,
                              double t) {
  rmap::Record obs = truth.record(rng.Index(truth.size()));
  obs.id = rmap::Record::kUnassignedId;
  obs.time = t;
  for (double& v : obs.rssi) {
    if (rng.Bernoulli(0.25)) v = kNull;
  }
  if (obs.NumObserved() == 0) obs.rssi[0] = -70.0;
  return obs;
}

serving::MapUpdaterOptions Options(const BenchConfig& cfg,
                                   const std::string& persist_dir) {
  serving::MapUpdaterOptions opt;
  opt.min_new_observations = 1000000;  // manual RebuildNow only
  opt.seed = cfg.seed;
  opt.persist_dir = persist_dir;
  return opt;
}

/// Seeds the durable state: register the venue, fold `churn_rounds` delta
/// windows per shard, strand `stranded` observations in each WAL.
void SeedPersistedState(const BenchConfig& cfg, const Venue& venue,
                        const cluster::Differentiator& differentiator,
                        const imputers::Imputer& imputer,
                        const std::string& persist_dir) {
  serving::ShardedSnapshotStore store;
  serving::MapUpdater updater(&store, &differentiator, &imputer,
                              WknnFactory(), Options(cfg, persist_dir));
  Rng rng(cfg.seed + 500);
  for (size_t s = 0; s < cfg.num_shards; ++s) {
    updater.RegisterShard(venue.ids[s], venue.maps[s]);
  }
  for (size_t round = 0; round < cfg.churn_rounds; ++round) {
    for (size_t s = 0; s < cfg.num_shards; ++s) {
      for (size_t i = 0; i < cfg.batch; ++i) {
        updater.Ingest(venue.ids[s],
                       ChurnObservation(venue.maps[s], rng,
                                        1000.0 * double(round + 1) + i));
      }
      updater.RebuildNow(venue.ids[s]);
    }
  }
  for (size_t s = 0; s < cfg.num_shards; ++s) {
    for (size_t i = 0; i < cfg.stranded; ++i) {
      updater.Ingest(venue.ids[s],
                     ChurnObservation(venue.maps[s], rng, 90000.0 + i));
    }
  }
}

struct RestartResult {
  double cold_seconds = 0.0;
  double restore_seconds = 0.0;
  double speedup = 0.0;
  size_t wal_records_replayed = 0;
  size_t shards_restored = 0;
};

RestartResult MeasureRestart(const BenchConfig& cfg, const Venue& venue,
                             const cluster::Differentiator& differentiator,
                             const imputers::Imputer& imputer,
                             const std::string& persist_dir) {
  // Median of three runs per side: restart timings on shared runners
  // wobble with page-cache and fsync noise, and the speedup gates CI.
  constexpr size_t kRepeats = 3;
  RestartResult r;
  std::vector<double> cold_s, restore_s;
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    // Cold restart: no durable state — every shard re-imputes from its
    // survey base, exactly what a pre-persistence process start costs.
    serving::ShardedSnapshotStore store;
    serving::MapUpdater updater(&store, &differentiator, &imputer,
                                WknnFactory(), Options(cfg, ""));
    Timer t;
    for (size_t s = 0; s < cfg.num_shards; ++s) {
      updater.RegisterShard(venue.ids[s], venue.maps[s]);
    }
    cold_s.push_back(t.ElapsedSeconds());
  }
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    // Persisted restart: mmap the newest snapshot per shard + WAL replay.
    // Restoring never folds, so the durable state is unchanged and the
    // repeat replays the identical stranded records.
    serving::ShardedSnapshotStore store;
    serving::MapUpdater updater(&store, &differentiator, &imputer,
                                WknnFactory(), Options(cfg, persist_dir));
    Timer t;
    for (size_t s = 0; s < cfg.num_shards; ++s) {
      updater.RegisterShard(venue.ids[s], venue.maps[s]);
    }
    restore_s.push_back(t.ElapsedSeconds());
    const serving::MapUpdaterStats stats = updater.Stats();
    r.wal_records_replayed = stats.wal_records_replayed;
    r.shards_restored = stats.shards_restored;
  }
  r.cold_seconds = Percentile(cold_s, 50.0);
  r.restore_seconds = Percentile(restore_s, 50.0);
  r.speedup =
      r.restore_seconds > 0.0 ? r.cold_seconds / r.restore_seconds : 0.0;
  return r;
}

struct PublishResult {
  double memory_only_ms = 0.0;  // median RebuildNow, persistence off
  double persisted_ms = 0.0;    // median RebuildNow, persistence on
  double overhead_ratio = 0.0;
};

double MedianRebuildMs(const BenchConfig& cfg, const Venue& venue,
                       const cluster::Differentiator& differentiator,
                       const imputers::Imputer& imputer,
                       const std::string& persist_dir) {
  serving::ShardedSnapshotStore store;
  serving::MapUpdater updater(&store, &differentiator, &imputer,
                              WknnFactory(), Options(cfg, persist_dir));
  updater.RegisterShard(venue.ids[0], venue.maps[0]);
  Rng rng(cfg.seed + 900);
  std::vector<double> rebuild_ms;
  for (size_t round = 0; round < cfg.churn_rounds + 2; ++round) {
    for (size_t i = 0; i < cfg.batch; ++i) {
      updater.Ingest(venue.ids[0],
                     ChurnObservation(venue.maps[0], rng,
                                      5000.0 * double(round + 1) + i));
    }
    Timer t;
    updater.RebuildNow(venue.ids[0]);
    rebuild_ms.push_back(t.ElapsedSeconds() * 1e3);
  }
  return Percentile(rebuild_ms, 50.0);
}

struct SampleFile {
  size_t bytes = 0;
  uint32_t crc = 0;
};

/// Copies shard 0's newest snapshot next to the bench output as the CI
/// ABI-canary artifact, plus a sidecar with its CRC32C.
SampleFile EmitSampleArtifact(const std::string& shard_dir) {
  SampleFile sample;
  const std::vector<std::string> files = store::ListSnapshotFiles(shard_dir);
  if (files.empty()) return sample;
  std::ifstream in(files[0], std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), {});
  sample.bytes = bytes.size();
  sample.crc = store::Crc32c(bytes.data(), bytes.size());
  std::ofstream out("sample.rmsnap", std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
  std::FILE* f = std::fopen("sample.rmsnap.crc32c", "w");
  if (f != nullptr) {
    std::fprintf(f, "%08x  %zu  sample.rmsnap\n", sample.crc, sample.bytes);
    std::fclose(f);
  }
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      if (json_path.empty()) json_path = "BENCH_persistence.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  BenchConfig cfg;
  if (smoke) {
    cfg.nx = 24;
    cfg.ny = 16;
    cfg.aps_per_floor = 28;
    cfg.churn_rounds = 2;
  }

  std::printf("=== persistence: mmap snapshot + delta WAL — %zu shards, "
              "%zux%zu refs/shard, %zu churn rounds ===\n",
              cfg.num_shards, cfg.nx, cfg.ny, cfg.churn_rounds);

  const Venue venue = MakeVenue(cfg);
  cluster::MarOnlyDifferentiator differentiator;
  imputers::MiceImputer imputer;

  const std::string persist_root =
      (fs::temp_directory_path() / "rmi_bench_persistence").string();
  fs::remove_all(persist_root);
  SeedPersistedState(cfg, venue, differentiator, imputer, persist_root);

  const RestartResult restart =
      MeasureRestart(cfg, venue, differentiator, imputer, persist_root);
  std::printf("restart: cold %.3f s, mmap+replay %.3f s -> %.1fx "
              "(%zu WAL records replayed, %zu/%zu shards restored)\n",
              restart.cold_seconds, restart.restore_seconds, restart.speedup,
              restart.wal_records_replayed, restart.shards_restored,
              cfg.num_shards);

  // Publish cost on a private scratch dir (the canary state above must not
  // absorb these rebuilds).
  const std::string publish_root =
      (fs::temp_directory_path() / "rmi_bench_persistence_pub").string();
  fs::remove_all(publish_root);
  PublishResult publish;
  publish.memory_only_ms =
      MedianRebuildMs(cfg, venue, differentiator, imputer, "");
  publish.persisted_ms =
      MedianRebuildMs(cfg, venue, differentiator, imputer, publish_root);
  publish.overhead_ratio = publish.memory_only_ms > 0.0
                               ? publish.persisted_ms / publish.memory_only_ms
                               : 0.0;
  std::printf("publish-to-visible: memory-only %.2f ms, persisted %.2f ms "
              "(x%.3f)\n",
              publish.memory_only_ms, publish.persisted_ms,
              publish.overhead_ratio);

  const std::string shard0_dir =
      persist_root + "/b" + std::to_string(venue.ids[0].building) + "_f" +
      std::to_string(venue.ids[0].floor);
  const SampleFile sample = EmitSampleArtifact(shard0_dir);
  std::printf("sample.rmsnap: %zu bytes, crc32c %08x\n", sample.bytes,
              sample.crc);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"config\": {\"num_shards\": %zu, \"rps_per_shard\": %zu,"
        " \"aps_per_shard\": %zu, \"churn_rounds\": %zu, \"batch\": %zu,"
        " \"stranded\": %zu},\n"
        "  \"restart\": {\"cold_seconds\": %.4f, \"restore_seconds\": %.4f,"
        " \"speedup\": %.2f, \"wal_records_replayed\": %zu,"
        " \"shards_restored\": %zu},\n"
        "  \"publish\": {\"memory_only_ms\": %.3f, \"persisted_ms\": %.3f,"
        " \"overhead_ratio\": %.3f},\n"
        "  \"file\": {\"bytes\": %zu, \"crc32c\": \"%08x\"},\n",
        cfg.num_shards, cfg.nx * cfg.ny, cfg.aps_per_floor, cfg.churn_rounds,
        cfg.batch, cfg.stranded, restart.cold_seconds,
        restart.restore_seconds, restart.speedup,
        restart.wal_records_replayed, restart.shards_restored,
        publish.memory_only_ms, publish.persisted_ms, publish.overhead_ratio,
        sample.bytes, sample.crc);
    rmi::bench::WriteObsMetricsJson(f);
    rmi::bench::WriteHardwareJson(f, 1);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (restart.speedup < 10.0) {
    std::fprintf(stderr,
                 "WARNING: restart speedup %.1fx below the 10x acceptance "
                 "bar\n",
                 restart.speedup);
  }
  return 0;
}
