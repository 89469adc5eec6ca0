#include "serving/snapshot.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/missing.h"

namespace rmi::serving {

namespace {

/// splitmix64 — cheap, well-mixed combine for the integrity stamp.
uint64_t Mix(uint64_t h, uint64_t v) { return SplitMix64Combine(h, v); }

}  // namespace

uint64_t MapSnapshot::ComputeChecksum() const {
  const la::Matrix& refs = fingerprints();
  uint64_t h = Mix(0x726d692d736e6170ull, version);
  h = Mix(h, static_cast<uint64_t>(refs.rows()));
  h = Mix(h, static_cast<uint64_t>(refs.cols()));
  h = Mix(h, static_cast<uint64_t>(positions().size()));
  h = Mix(h, static_cast<uint64_t>(index.num_cells()));
  // The quantized ranking copy must describe the same reference set.
  h = Mix(h, quantized == nullptr ? 0 : quantized->rows + 1);
  // Sample a few fingerprint cells so a swapped-out matrix is detected
  // without hashing the whole map on every integrity check.
  const size_t n = refs.size();
  if (n > 0) {
    const double* p = refs.data().data();
    const size_t stride = std::max<size_t>(1, n / 16);
    for (size_t i = 0; i < n; i += stride) {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double), "double is 64-bit");
      std::memcpy(&bits, &p[i], sizeof(bits));
      h = Mix(h, bits);
    }
  }
  return h;
}

std::shared_ptr<const MapSnapshot> BuildSnapshot(
    const rmap::RadioMap& imputed_map,
    std::unique_ptr<positioning::KnnEstimator> estimator, Rng& rng,
    const SnapshotOptions& options) {
  RMI_CHECK(estimator != nullptr);
  RMI_CHECK(!imputed_map.empty());
  auto snapshot = std::make_shared<MapSnapshot>();
  snapshot->version = options.version;

  estimator->Fit(imputed_map, rng);
  snapshot->estimator = std::move(estimator);
  snapshot->quantized = &snapshot->estimator->quantized();
  snapshot->index.Build(snapshot->fingerprints(), snapshot->positions(),
                        options.cell_size_m);
  snapshot->checksum = snapshot->ComputeChecksum();
  return snapshot;
}

void MapSnapshotStore::Publish(std::shared_ptr<const MapSnapshot> snapshot) {
  RMI_CHECK(snapshot != nullptr);
  RMI_CHECK(snapshot->Consistent());
  const MapSnapshot* raw = snapshot.get();
  std::shared_ptr<const MapSnapshot> old;
  {
    // Serialize publishers so each retires exactly the snapshot it
    // displaced (two unserialized swaps could both capture the same old
    // value and leak the other).
    std::lock_guard<std::mutex> lock(publish_mu_);
    old = std::atomic_exchange_explicit(&current_, std::move(snapshot),
                                        std::memory_order_acq_rel);
    // Raw pointer last of the two: a hot-path reader that loads the new
    // raw pointer is guaranteed the slow-path protocol already agrees.
    // Both stores precede the Retire below (seq_cst), so no reader can
    // still load `old` after its retire epoch is stamped.
    current_raw_.store(raw, std::memory_order_seq_cst);
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
  // Deferred release via the global domain. The retired entry holds a
  // refcount, so this also covers slow-path Current() holders: reclaiming
  // just drops our reference, and the snapshot frees when the last
  // shared_ptr — wherever it lives — lets go.
  EpochDomain::Global().Retire(
      std::shared_ptr<const void>(std::move(old)));
}

PinnedSnapshot MapSnapshotStore::PinnedRead() const {
  EpochDomain::Pin pin = EpochDomain::Global().MakePin();
  // Pin first, pointer second (both seq_cst): see the safety argument in
  // epoch.h for why this ordering makes the loaded pointer unreclaimable.
  const MapSnapshot* snapshot = current_raw_.load(std::memory_order_seq_cst);
  return PinnedSnapshot(std::move(pin), snapshot);
}

std::shared_ptr<const MapSnapshot> MapSnapshotStore::Current() const {
  return std::atomic_load_explicit(&current_, std::memory_order_acquire);
}

}  // namespace rmi::serving
