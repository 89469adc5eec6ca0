// Immutable radio-map snapshots and the hot-swappable store behind the
// online localization engine.
//
// Lifecycle: a background pipeline (re-survey -> differentiate -> impute ->
// fit) produces a complete radio map, BuildSnapshot freezes it — a fitted
// KNN/WKNN estimator plus a spatial index built cold over its reference
// rows — into one immutable MapSnapshot, and MapSnapshotStore::Publish
// swaps it in atomically. A snapshot restored from disk goes through the
// same BuildSnapshot call (see snapshot_persist.h), so there is one serving
// representation. In-flight queries hold the snapshot open through the
// shared_ptr that Current() returns, so a publish never blocks readers and a
// reader never observes a half-built ("torn") snapshot; a displaced
// snapshot is freed by whoever drops its last reference — the publisher,
// or a reader on its own thread.
#ifndef RMI_SERVING_SNAPSHOT_H_
#define RMI_SERVING_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "positioning/estimators.h"
#include "radiomap/radio_map.h"
#include "serving/spatial_index.h"

namespace rmi::serving {

/// One frozen serving state. Everything is fitted/derived at build time;
/// nothing mutates after publication (queries run concurrently against it).
struct MapSnapshot {
  uint64_t version = 0;
  /// Fitted KNN/WKNN estimator (Estimate/EstimateBatch are const and
  /// thread-safe). It owns the reference state every accessor below reads,
  /// so a snapshot holds exactly one copy of the reference data.
  std::unique_ptr<const positioning::KnnEstimator> estimator;
  /// Int8-quantized, padded/SoA ranking copy of the reference matrix
  /// (per-AP scale/zero-point). Aliases the fitted estimator's state: the
  /// float matrix stays the exact-rescore master, this is the 8x-smaller
  /// copy the int8 ranking kernel (la::GemmQuantNN) streams.
  const la::QuantizedRefs* quantized = nullptr;
  /// Location-grid pruning index over (fingerprints(), positions()).
  SpatialIndex index;
  /// Integrity stamp over the fields above, taken at build time. Torn
  /// *reads* are precluded by the store's atomic shared_ptr protocol; the
  /// stamp guards against a publisher bug — mutation between BuildSnapshot
  /// and Publish (checked there) — and gives the hot-swap tests a concrete
  /// completeness probe.
  uint64_t checksum = 0;

  uint64_t ComputeChecksum() const;
  bool Consistent() const { return checksum == ComputeChecksum(); }

  /// R x D reference fingerprints (complete rows, aligned with positions()).
  const la::Matrix& fingerprints() const { return estimator->features(); }
  /// The R reference locations.
  const std::vector<geom::Point>& positions() const {
    return estimator->labels();
  }
  size_t num_refs() const { return positions().size(); }
  size_t num_aps() const { return fingerprints().cols(); }
};

struct SnapshotOptions {
  uint64_t version = 0;
  /// Spatial-index grid pitch, meters.
  double cell_size_m = 6.0;
};

/// Builds the (unfitted) estimator each snapshot fits; called once per
/// build so every snapshot owns a private fitted instance.
using EstimatorFactory =
    std::function<std::unique_ptr<positioning::KnnEstimator>()>;

/// Freezes `imputed_map` (complete, labeled rows) + a *not yet fitted*
/// estimator into a snapshot: fits the estimator, builds the spatial index
/// over the fitted reference rows (so the index is row-aligned with the
/// estimator by construction), stamps the checksum. Both the live rebuild
/// and the restart path build snapshots through this one call.
std::shared_ptr<const MapSnapshot> BuildSnapshot(
    const rmap::RadioMap& imputed_map,
    std::unique_ptr<positioning::KnnEstimator> estimator, Rng& rng,
    const SnapshotOptions& options = {});

/// Kept only for the repo benchmark, which names this type: a snapshot
/// read is a shared_ptr.
using PinnedSnapshot = std::shared_ptr<const MapSnapshot>;

/// The hot-swap point. Readers load the published snapshot as a
/// shared_ptr (one atomic load); a publish swaps the pointer and holds
/// them up no longer than that swap.
class MapSnapshotStore {
 public:
  MapSnapshotStore() = default;
  explicit MapSnapshotStore(std::shared_ptr<const MapSnapshot> initial) {
    Publish(std::move(initial));
  }

  MapSnapshotStore(const MapSnapshotStore&) = delete;
  MapSnapshotStore& operator=(const MapSnapshotStore&) = delete;

  /// Atomically replaces the current snapshot. The displaced snapshot
  /// lives until its last reader lets go.
  void Publish(std::shared_ptr<const MapSnapshot> snapshot);

  /// The current snapshot (nullptr before the first Publish). Callers keep
  /// it for the whole request so a concurrent publish cannot free the state
  /// under them.
  std::shared_ptr<const MapSnapshot> Current() const;

  /// Kept only for the repo benchmark; same as Current().
  PinnedSnapshot PinnedRead() const { return Current(); }

  uint64_t publish_count() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const MapSnapshot> current_;  ///< atomic access only
  std::atomic<uint64_t> publishes_{0};
};

}  // namespace rmi::serving

#endif  // RMI_SERVING_SNAPSHOT_H_
