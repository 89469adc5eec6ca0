// The live ingest -> impute -> publish loop behind sharded serving.
//
// MapUpdater owns each shard's *survey state* (the sparse record base plus
// a delta buffer of newly ingested observations) and runs the paper's
// offline pipeline — differentiate -> MNAR-fill -> impute -> fit — as an
// online background process: when a shard's pending delta volume or
// staleness threshold trips, the deltas are folded into the base, and
// every rebuild runs that one pipeline cold over the whole merged base
// (any imputers/ backend through Imputer::Impute), ending in
// BuildSnapshot, which fits a fresh KNN/WKNN estimator and builds the
// spatial index over it. Nothing carries over from the previous rebuild:
// version V is a function of the folded base and the shard's RNG fork V
// alone, so it does not depend on how deltas were batched into rebuilds,
// and a restarted updater converges to the uninterrupted run's bytes.
// The rebuilt snapshot is published through the store's atomic hot-swap —
// in-flight queries never block and never observe a torn map. Every
// observation that enters the delta buffer —
// through Ingest or through WAL replay at restore — passes the one record
// rule, rmap::RecordValidationError.
//
// Threading model: Ingest is called from any number of threads (it only
// appends to a mutex-guarded delta buffer). Tripped shards rebuild
// *concurrently* on a bounded pool of `rebuild_threads` workers
// (common/thread_pool.h); per-shard ordering is preserved — each shard's
// rebuild_mu serializes its own rebuilds, and each rebuild drains the
// delta buffer atomically — while independent shards overlap freely.
// Every shard draws randomness from its own Rng stream seeded by
// (options.seed, shard id), so published snapshots are deterministic per
// (seed, shard) no matter how the pool schedules them. An imputer that
// parallelizes internally (BiSIM) trains on one thread inside a
// multi-shard pool batch — ThreadPool's oversubscription guard collapses
// its nested pool — and at its configured width in direct RebuildNow /
// RegisterShard / single-shard-trigger rebuilds; BiSIM's bits do not
// depend on its thread count, so both paths publish the same bytes.
// Rebuilds never hold the delta mutex during the
// long impute/fit phase, so ingest is never stalled by a rebuild. A
// rebuild whose impute/fit/publish pipeline throws is contained: the
// failure is counted (MapUpdaterStats::rebuilds_failed and the
// rmi_updater_rebuild_failures_total series), nothing is published, the
// shard keeps serving its previous snapshot, and the folded observations
// stay in the base for the next attempt — a faulty imputer never kills
// the trigger loop. Stop()
// is graceful: the in-flight rebuild batch runs to completion (and
// publishes) before the loop joins.
#ifndef RMI_SERVING_MAP_UPDATER_H_
#define RMI_SERVING_MAP_UPDATER_H_

#include <atomic>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "clustering/differentiation.h"
#include "common/rng.h"
#include "common/timer.h"
#include "imputers/imputer.h"
#include "obs/metrics.h"
#include "radiomap/radio_map.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "store/wal.h"

namespace rmi::serving {

struct MapUpdaterOptions {
  /// Volume trigger: rebuild once this many delta observations are pending.
  size_t min_new_observations = 64;
  /// Staleness trigger: rebuild when any deltas are pending and the last
  /// rebuild is older than this. Infinity = volume-only triggering.
  double max_staleness_seconds = std::numeric_limits<double>::infinity();
  /// Background trigger-loop poll period.
  double poll_interval_ms = 2.0;
  /// Spatial-index grid pitch of published snapshots, meters.
  double snapshot_cell_size_m = 6.0;
  /// Root seed of the per-shard RNG streams: shard S draws from an
  /// independent deterministic stream seeded by (seed, S), so concurrent
  /// rebuilds reproduce bit-for-bit regardless of pool scheduling.
  uint64_t seed = 127;
  /// Rebuild pool width: up to this many tripped shards rebuild
  /// concurrently (1 = serialized, the pre-pool behavior; 0 = all
  /// hardware threads).
  size_t rebuild_threads = 4;
  /// Persistence root. Empty (the default) = memory-only, the
  /// pre-persistence behavior bit-for-bit. Non-empty: shard (b, f) keeps
  /// its durable state under <persist_dir>/b<b>_f<f>/ — every publish
  /// writes a zero-copy snapshot file there, every Ingest appends to the
  /// shard's delta WAL (<shard dir>/wal/), and a fresh registration
  /// restores from that state instead of re-running imputation (see
  /// MapUpdater::RegisterShard). Persistence I/O failures are contained:
  /// they are counted, and the in-memory serving path continues
  /// unaffected.
  std::string persist_dir;
  /// WAL group commit: fsync once per this many appends (1 = every
  /// append). The unsynced tail of a group — at most this many
  /// observations — is the crash-loss window.
  size_t wal_sync_every = 32;
  /// Snapshot files retained per shard after each publish (>= 1 enforced;
  /// the newest file is never pruned).
  size_t keep_snapshot_files = 2;
};

/// Per-shard rebuild telemetry (all "last_" fields describe the most
/// recently completed rebuild of that shard).
struct RebuildStats {
  size_t completed = 0;
  /// Rebuilds that threw out of the impute/fit/publish pipeline. A failed
  /// rebuild publishes nothing — the shard keeps serving its previous
  /// snapshot — and the folded observations stay in the base for the next
  /// attempt.
  size_t failed = 0;
  /// Always 0: every rebuild runs the one cold pipeline. The field stays
  /// for readers that still report a warm-rebuild share.
  size_t warm = 0;
  /// Rebuilds whose snapshot file was durably persisted (always <=
  /// completed; a persist I/O failure leaves the publish intact).
  size_t persisted = 0;
  double last_queue_wait_seconds = 0.0;  ///< trip detection -> worker start
  double last_impute_seconds = 0.0;   ///< differentiate + MNAR fill + impute
  double last_fit_seconds = 0.0;      ///< estimator fit + snapshot freeze
  double last_publish_seconds = 0.0;  ///< store hot-swap
  double last_persist_seconds = 0.0;  ///< snapshot file write + WAL trim
  double last_total_seconds = 0.0;    ///< impute + fit + publish (no queue)
  double total_busy_seconds = 0.0;    ///< cumulative last_total over all
};

struct MapUpdaterStats {
  size_t shards = 0;
  size_t ingested = 0;            ///< observations accepted by Ingest
  size_t rebuilds_started = 0;
  size_t rebuilds_completed = 0;  ///< each one published a snapshot
  /// Rebuilds whose pipeline threw (imputer/estimator failure). The
  /// trigger loop survives — the shard serves its previous snapshot and
  /// retries once its triggers trip again.
  size_t rebuilds_failed = 0;
  /// Snapshot files durably renamed in (0 when persistence is off).
  size_t snapshots_persisted = 0;
  /// Persist attempts that failed on I/O (the publish itself survived).
  size_t snapshot_persist_failures = 0;
  /// Delta records recovered from shard WALs at registration restore
  /// (records that fail the record rule are dropped, not counted here —
  /// see rmi_store_wal_records_rejected_total).
  size_t wal_records_replayed = 0;
  /// Fresh registrations served by a snapshot restore instead of a cold
  /// impute cycle.
  size_t shards_restored = 0;
  double last_rebuild_seconds = 0.0;  ///< differentiate+impute+fit+publish
  /// Queue-wait and phase breakdown per shard.
  std::map<rmap::ShardId, RebuildStats> per_shard;
};

class MapUpdater {
 public:
  /// `store`, `differentiator`, and `imputer` must outlive the updater and
  /// be non-null; the imputer and differentiator are shared const (their
  /// entry points are thread-safe by contract). The updater owns nothing
  /// it is handed except the per-shard survey state built up via
  /// RegisterShard/Ingest.
  MapUpdater(ShardedSnapshotStore* store,
             const cluster::Differentiator* differentiator,
             const imputers::Imputer* imputer, EstimatorFactory estimator_factory,
             const MapUpdaterOptions& options = {});
  ~MapUpdater();  ///< calls Stop()

  MapUpdater(const MapUpdater&) = delete;
  MapUpdater& operator=(const MapUpdater&) = delete;

  /// Adopts `base` (a sparse survey map; nulls welcome) as shard `id`'s
  /// record base, runs the first differentiate -> impute -> fit cycle
  /// synchronously, and publishes snapshot version 1. Re-registering an
  /// existing shard replaces its base (and resets its RNG stream) and
  /// republishes.
  ///
  /// With persistence on, a *fresh* registration first tries to map the
  /// shard's newest valid snapshot and replay its WAL — publishing the
  /// restored snapshot (superseding `base`, which the persisted base
  /// already contains) and queueing the replayed deltas — and falls back
  /// to the cold cycle when nothing valid exists. Re-registering an
  /// existing shard always wipes the shard's durable state and rebuilds
  /// cold (registration replaces the survey lineage; stale snapshot
  /// versions must not shadow it).
  void RegisterShard(const rmap::ShardId& id, rmap::RadioMap base);

  /// Appends one new survey observation (sparse RSSIs, RP optional) to the
  /// shard's delta buffer. Thread-safe; never blocks on a rebuild. Throws
  /// std::runtime_error for an unknown shard or a record that fails
  /// rmap::RecordValidationError (width mismatch, ±inf RSSI, non-finite RP
  /// on a labeled record) — a bad feed must not abort the serving process.
  void Ingest(const rmap::ShardId& id, rmap::Record observation);

  /// Rebuilds `id` now with whatever deltas are pending (possibly none —
  /// a forced re-impute), publishing a new snapshot version. Returns false
  /// for an unknown shard. Runs on the calling thread.
  bool RebuildNow(const rmap::ShardId& id);

  /// Starts the background trigger loop (idempotent).
  void Start();
  /// Graceful shutdown: the rebuild batch in flight completes and
  /// publishes before the loop joins. Idempotent; the destructor calls it.
  void Stop();

  /// Deltas currently buffered for shard `id` (0 for unknown shards). Test
  /// hook: no serving path reads it.
  size_t PendingObservations(const rmap::ShardId& id) const;

  MapUpdaterStats Stats() const;

 private:
  struct ShardState {
    std::mutex mu;                     ///< guards base, deltas, timestamps
    rmap::RadioMap base;               ///< sparse survey records
    std::vector<rmap::Record> deltas;  ///< ingested since the last rebuild
    Timer since_rebuild;
    /// Staleness tracking (guarded by mu): MonotonicUs() when the first
    /// delta of the current pending window arrived. The rebuild that
    /// drains the window observes publish-time minus this into
    /// rmi_updater_staleness_us — the "oldest unserved survey data" age
    /// the soak's freshness SLO gates on.
    double first_delta_us = 0.0;
    bool delta_pending = false;
    uint64_t next_version = 1;
    /// Durable-state root of this shard (<persist_dir>/b<b>_f<f>), empty
    /// when persistence is off. Written at registration (before the first
    /// rebuild, or under rebuild_mu on re-register), read under rebuild_mu.
    std::string shard_dir;
    /// The shard's delta WAL, nullptr when persistence is off (or its open
    /// failed — persistence degrades, serving continues). Append/Rotate
    /// run under mu; segment deletion runs under rebuild_mu only (it never
    /// touches the active segment).
    std::unique_ptr<store::Wal> wal;
    std::mutex rebuild_mu;  ///< one rebuild at a time per shard
    /// Per-shard RNG stream, seeded by (options.seed, shard id). Forked
    /// once per rebuild; accessed only under rebuild_mu.
    Rng rng{0};
    /// Registry handles for this shard's labeled series
    /// (rmi_updater_last_*_seconds{shard="..."}), resolved on the first
    /// rebuild and cached — handles are process-lifetime. Accessed only
    /// under rebuild_mu; Set is safe there (one writer per shard).
    obs::Gauge* last_impute_gauge = nullptr;
    obs::Gauge* last_fit_gauge = nullptr;
    obs::Gauge* last_publish_gauge = nullptr;
    obs::Counter* rebuilds_counter = nullptr;
  };

  ShardState* Find(const rmap::ShardId& id) const;
  void Rebuild(const rmap::ShardId& id, ShardState* state,
               double queue_wait_seconds = 0.0);
  void TriggerLoop();

  /// <persist_dir>/b<building>_f<floor> ("" when persistence is off).
  std::string ShardDir(const rmap::ShardId& id) const;
  /// Opens `state`'s WAL with the given replay watermark, queueing every
  /// replayed record that passes rmap::RecordValidationError as a pending
  /// delta (the rest are dropped and counted in
  /// rmi_store_wal_records_rejected_total). A failed open leaves wal null
  /// (persistence degrades, serving continues). Caller must hold exclusive
  /// access to the shard (registration, or rebuild_mu).
  void OpenShardWal(ShardState* state, uint64_t watermark);
  /// The restore-on-register path: maps the newest valid snapshot, replays
  /// the WAL, publishes. False = nothing restored (caller rebuilds cold).
  bool TryRestoreShard(const rmap::ShardId& id, ShardState* state);

  ShardedSnapshotStore* store_;
  const cluster::Differentiator* differentiator_;
  const imputers::Imputer* imputer_;
  EstimatorFactory estimator_factory_;
  const MapUpdaterOptions options_;

  mutable std::mutex shards_mu_;  ///< guards the shard map itself
  std::map<rmap::ShardId, std::unique_ptr<ShardState>> shards_;

  mutable std::mutex stats_mu_;
  MapUpdaterStats stats_;

  std::mutex lifecycle_mu_;  ///< serializes Start/Stop (join included)
  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool stop_ = false;
  std::thread loop_;
};

}  // namespace rmi::serving

#endif  // RMI_SERVING_MAP_UPDATER_H_
