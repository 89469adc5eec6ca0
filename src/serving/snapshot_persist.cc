#include "serving/snapshot_persist.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "store/snapshot_format.h"

namespace rmi::serving {

namespace {

namespace fs = std::filesystem;

obs::Counter& RestoreRejected() {
  static obs::Counter* c = &obs::GetCounter(
      "rmi_store_restore_rejected_total",
      "Snapshot files refused at restore time (shard/width/ABI mismatch or "
      "missing base) — the shard fell back to a cold re-impute");
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

/// Byte equality between the re-fitted estimator's quant tables and the
/// file's sections — the restore-time ABI check. QuantizeRefs is
/// deterministic, so a same-code re-fit over the mapped float refs must
/// reproduce the persisted tables exactly; any difference means the
/// writing process quantized differently than this one would, and serving
/// from the file could disagree with a heap rebuild.
bool QuantTablesMatch(const la::QuantizedRefs& fitted,
                      const la::QuantizedRefsSpan& mapped) {
  if (fitted.rows != mapped.rows || fitted.cols != mapped.cols ||
      fitted.padded != mapped.padded) {
    return false;
  }
  const size_t cells = fitted.cols * fitted.padded;
  return fitted.min_scale == mapped.min_scale &&
         fitted.max_scale == mapped.max_scale &&
         std::memcmp(fitted.values.data(), mapped.values,
                     cells * sizeof(int8_t)) == 0 &&
         std::memcmp(fitted.squares.data(), mapped.squares,
                     cells * sizeof(int16_t)) == 0 &&
         std::memcmp(fitted.norms.data(), mapped.norms,
                     fitted.rows * sizeof(int32_t)) == 0 &&
         std::memcmp(fitted.scale.data(), mapped.scale,
                     fitted.cols * sizeof(double)) == 0 &&
         std::memcmp(fitted.zero_point.data(), mapped.zero_point,
                     fitted.cols * sizeof(double)) == 0;
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
  if (snapshot.quantized != nullptr) {
    req.quant = snapshot.quantized->span();
  }
  req.refs = snapshot.fingerprints().data().data();
  req.positions = snapshot.positions.data();
  const store::GridImage grid = snapshot.index.Image();
  req.grid = &grid;
  req.base = &base;

  const std::string path =
      (fs::path(dir) / store::SnapshotFileName(snapshot.version)).string();
  return store::WriteSnapshotFile(path, req, error);
}

bool LoadNewestSnapshot(const std::string& dir,
                        const rmap::ShardId& expected_shard,
                        size_t expected_aps,
                        const std::function<std::unique_ptr<
                            positioning::LocationEstimator>()>&
                            estimator_factory,
                        Rng& rng, double cell_size_m, LoadedSnapshot* out,
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

  // Reconstitute the estimator by synthesizing the complete reference map
  // the writing process fitted on (mapped refs + positions are exactly the
  // imputed labeled rows) and running the ordinary factory Fit. For the
  // KNN family this reproduces the fitted state bit-for-bit — verified
  // against the file's quant sections below.
  const store::MapSnapshotView view = mapped->view();
  rmap::RadioMap fit_map(h.num_aps);
  fit_map.set_shard(expected_shard);
  for (size_t r = 0; r < view.num_refs; ++r) {
    rmap::Record rec;
    rec.rssi.assign(view.refs + r * view.num_aps,
                    view.refs + (r + 1) * view.num_aps);
    rec.rp = view.positions[r];
    rec.has_rp = true;
    fit_map.Add(std::move(rec));
  }
  if (fit_map.empty()) {
    return Reject(error, mapped->path() + ": empty reference set");
  }

  auto estimator = estimator_factory();
  RMI_CHECK(estimator != nullptr);
  estimator->Fit(fit_map, rng);

  auto snapshot = std::make_shared<MapSnapshot>();
  snapshot->version = h.snapshot_version;
  snapshot->estimator = std::move(estimator);
  if (const auto* knn = dynamic_cast<const positioning::KnnEstimator*>(
          snapshot->estimator.get())) {
    // Same aliasing as BuildSnapshot: the snapshot borrows the fitted
    // state, no second copy.
    snapshot->fingerprint_view = &knn->features();
    snapshot->quantized = &knn->quantized();
    snapshot->positions = knn->labels();
    if (knn->features().rows() != view.num_refs ||
        std::memcmp(knn->features().data().data(), view.refs,
                    view.num_refs * view.num_aps * sizeof(double)) != 0) {
      return Reject(error,
                    mapped->path() + ": re-fitted reference matrix differs "
                                     "from the mapped float section");
    }
    if (view.has_quant() &&
        !QuantTablesMatch(knn->quantized(), view.quant)) {
      return Reject(error, mapped->path() +
                               ": quantization ABI mismatch (re-fit does "
                               "not reproduce the file's tables)");
    }
  } else {
    positioning::ExtractLabeledRows(fit_map, &snapshot->owned_fingerprints,
                                    &snapshot->positions);
    snapshot->fingerprint_view = &snapshot->owned_fingerprints;
  }

  store::GridImage grid;
  if (mapped->DecodeGrid(&grid) && !grid.empty() &&
      grid.num_refs == snapshot->num_refs()) {
    snapshot->index.Restore(grid);
  } else {
    snapshot->index.Build(snapshot->fingerprints(), snapshot->positions,
                          cell_size_m);
  }

  snapshot->backing = mapped;  // the mapping now lives as long as the snapshot
  snapshot->checksum = snapshot->ComputeChecksum();

  out->snapshot = std::move(snapshot);
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
