// The bridge between serving snapshots and the store's on-disk format.
//
// PersistMapSnapshot flattens a just-published MapSnapshot (plus the
// folded survey base and WAL watermark) into one .rmsnap file through the
// store's durable write protocol. Only source state is written: the
// imputed reference rows, their positions and the survey base.
// LoadNewestSnapshot is the restart path: map the newest valid file,
// decode the survey base, and rebuild the serving snapshot from the
// mapped rows through the same BuildSnapshot call a live rebuild makes —
// estimator fit, int8 copy and spatial index included — then hand back
// everything RegisterShard needs to resume the update loop without
// re-running imputation.
//
// Restore is strict: shard id and width must match, every reference row
// must be a complete, finite record, and any disagreement refuses the file
// (the caller falls back to a cold re-impute). A refused restore can never
// serve wrong answers; at worst it serves slowly once.
#ifndef RMI_SERVING_SNAPSHOT_PERSIST_H_
#define RMI_SERVING_SNAPSHOT_PERSIST_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "radiomap/radio_map.h"
#include "serving/snapshot.h"

namespace rmi::serving {

/// Writes `snapshot` + `base` as `dir`/snapshot.<version>.rmsnap (the
/// directory is created if missing) via temp + fsync + atomic rename.
/// False with *error on I/O failure; never leaves a partial file visible.
bool PersistMapSnapshot(const MapSnapshot& snapshot,
                        const rmap::ShardId& shard,
                        const rmap::RadioMap& base, uint64_t wal_watermark,
                        const std::string& dir, std::string* error);

/// What LoadNewestSnapshot reconstitutes from a mapped file.
struct LoadedSnapshot {
  /// Ready to publish: built by BuildSnapshot from the file's rows. Owns
  /// its state outright — the mapping is closed before this returns.
  std::shared_ptr<const MapSnapshot> snapshot;
  /// The decoded survey base the updater resumes folding deltas into.
  rmap::RadioMap base;
  uint64_t snapshot_version = 0;
  uint64_t wal_watermark = 0;
  std::string path;  ///< the file that was restored
};

/// Maps the newest valid snapshot under `dir` and rebuilds serving state
/// from it with BuildSnapshot(rows, estimator_factory(), rng,
/// {file version, cell_size_m}). `estimator_factory` must build what the
/// shard normally fits. Fails — false, with *error, nothing published —
/// when no valid file exists, the file's shard or width disagrees with the
/// expected ones, the base section is absent or malformed, or a reference
/// row is not a complete, finite record.
bool LoadNewestSnapshot(const std::string& dir,
                        const rmap::ShardId& expected_shard,
                        size_t expected_aps,
                        const EstimatorFactory& estimator_factory, Rng& rng,
                        double cell_size_m, LoadedSnapshot* out,
                        std::string* error);

/// Deletes all but the newest `keep` snapshot files under `dir` (keep >= 1
/// is forced: the newest file is never pruned).
void PruneSnapshotFiles(const std::string& dir, size_t keep);

}  // namespace rmi::serving

#endif  // RMI_SERVING_SNAPSHOT_PERSIST_H_
