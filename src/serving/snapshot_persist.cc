#include "serving/snapshot_persist.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <utility>

#include "obs/metrics.h"
#include "store/snapshot_format.h"

namespace rmi::serving {

namespace {

namespace fs = std::filesystem;

obs::Counter& RestoreRejected() {
  static obs::Counter* c = &obs::GetCounter(
      "rmi_store_restore_rejected_total",
      "Snapshot files refused at restore time (shard/width mismatch, "
      "missing base or a malformed reference row) — the shard fell back to "
      "a cold re-impute");
  return *c;
}

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

bool Reject(std::string* error, const std::string& msg) {
  RestoreRejected().Add();
  SetError(error, msg);
  return false;
}

}  // namespace

bool PersistMapSnapshot(const MapSnapshot& snapshot,
                        const rmap::ShardId& shard,
                        const rmap::RadioMap& base, uint64_t wal_watermark,
                        const std::string& dir, std::string* error) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    SetError(error, "create_directories " + dir + ": " + ec.message());
    return false;
  }

  store::SnapshotWriteRequest req;
  req.snapshot_version = snapshot.version;
  req.shard = shard;
  req.wal_watermark = wal_watermark;
  req.num_refs = snapshot.num_refs();
  req.num_aps = snapshot.num_aps();
  req.refs = snapshot.fingerprints().data().data();
  req.positions = snapshot.positions().data();
  req.base = &base;

  const std::string path =
      (fs::path(dir) / store::SnapshotFileName(snapshot.version)).string();
  return store::WriteSnapshotFile(path, req, error);
}

bool LoadNewestSnapshot(const std::string& dir,
                        const rmap::ShardId& expected_shard,
                        size_t expected_aps,
                        const EstimatorFactory& estimator_factory, Rng& rng,
                        double cell_size_m, LoadedSnapshot* out,
                        std::string* error) {
  std::string map_error;
  auto mapped = store::MapNewestValid(dir, &map_error);
  if (mapped == nullptr) {
    SetError(error, map_error);
    return false;
  }
  const store::SnapshotHeader& h = mapped->header();
  if (h.building != expected_shard.building ||
      h.floor != expected_shard.floor) {
    return Reject(error, mapped->path() + ": shard " +
                             rmap::ToString(rmap::ShardId{h.building,
                                                          h.floor}) +
                             " != expected " +
                             rmap::ToString(expected_shard));
  }
  if (h.num_aps != expected_aps) {
    return Reject(error, mapped->path() + ": width " +
                             std::to_string(h.num_aps) + " != expected " +
                             std::to_string(expected_aps));
  }
  rmap::RadioMap base;
  if (!mapped->DecodeBase(&base)) {
    return Reject(error, mapped->path() + ": no decodable base section");
  }

  // The mapped rows + positions are exactly the imputed labeled rows the
  // writing process built its snapshot from: rebuild it the same way.
  const store::MapSnapshotView view = mapped->view();
  rmap::RadioMap imputed(view.num_aps);
  imputed.set_shard(expected_shard);
  for (size_t r = 0; r < view.num_refs; ++r) {
    rmap::Record rec;
    rec.rssi.assign(view.refs + r * view.num_aps,
                    view.refs + (r + 1) * view.num_aps);
    rec.rp = view.positions[r];
    rec.has_rp = true;
    if (rmap::RecordValidationError(rec, view.num_aps) != nullptr ||
        rec.NumObserved() != view.num_aps) {
      return Reject(error, mapped->path() + ": reference row " +
                               std::to_string(r) +
                               " is not a complete, finite record");
    }
    imputed.Add(std::move(rec));
  }
  if (imputed.empty()) {
    return Reject(error, mapped->path() + ": empty reference set");
  }

  out->snapshot = BuildSnapshot(imputed, estimator_factory(), rng,
                                SnapshotOptions{h.snapshot_version,
                                                cell_size_m});
  out->base = std::move(base);
  out->snapshot_version = h.snapshot_version;
  out->wal_watermark = h.wal_watermark;
  out->path = mapped->path();
  return true;
}

void PruneSnapshotFiles(const std::string& dir, size_t keep) {
  const std::vector<std::string> files = store::ListSnapshotFiles(dir);
  for (size_t i = std::max<size_t>(keep, 1); i < files.size(); ++i) {
    ::unlink(files[i].c_str());
  }
}

}  // namespace rmi::serving
