// Multi-floor sharded serving: the layer that decides *which* radio map
// answers a query.
//
// A production venue is many radio maps — one per (building, floor) shard —
// each behind its own hot-swappable MapSnapshotStore. This header adds the
// two pieces above the single-map store:
//
//  * ShardedSnapshotStore — a copy-on-write routing table from ShardId to
//    per-shard snapshot stores. Readers resolve shards through an atomic
//    shared_ptr to an immutable table, so adding a shard (first publish)
//    never blocks or tears an in-flight query — the same protocol
//    MapSnapshotStore uses one level down for snapshot generations.
//
//  * ShardRouter — routes fingerprints to shards, one query at a time.
//    Queries that know their shard go straight to its snapshot;
//    fingerprints with an unknown floor are resolved by a cheap
//    AP-overlap / strongest-AP floor classifier built from per-shard AP
//    profiles. Each answer comes from the shard snapshot's index-pruned
//    single-query path, bit-identical to that shard's scalar Estimate.
#ifndef RMI_SERVING_SHARD_ROUTER_H_
#define RMI_SERVING_SHARD_ROUTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/geometry.h"
#include "radiomap/radio_map.h"
#include "serving/snapshot.h"

namespace rmi::serving {

/// Per-shard AP audibility profile, derived from a snapshot's reference
/// fingerprints at publish time. The floor classifier's only input: which
/// of the global D APs are audible on this floor, and how loud each one
/// peaks there.
struct ShardProfile {
  /// D entries; 1 iff the AP is audible on this shard — its peak reference
  /// RSSI rises above the -100 dBm MNAR fill.
  std::vector<uint8_t> observable;
  /// D entries; max reference RSSI per AP (kMnarFillDbm when never heard).
  std::vector<double> peak_rssi;
  size_t num_observable = 0;

  size_t num_aps() const { return observable.size(); }
};

/// Derives the AP profile of `snapshot`'s reference matrix. Exposed for
/// tests; ShardedSnapshotStore::Publish calls it internally.
ShardProfile BuildShardProfile(const MapSnapshot& snapshot);

/// Routing table of per-shard hot-swappable snapshot stores.
///
/// Thread-safety: Publish may race with any number of concurrent readers
/// (Current / Profile / Profiles): readers load an immutable table through
/// an atomic shared_ptr, so a publish never tears a read. Concurrent
/// Publish calls are serialized internally. After a publish to an existing
/// shard there is a benign instant where a reader can pair the new
/// snapshot with the previous profile (or vice versa) — the profile only
/// steers the classifier heuristic, never correctness of the answer.
/// Ownership: the store owns its shards and snapshots; readers extend a
/// snapshot's (or a displaced routing table's) lifetime via the shared_ptr
/// they hold, and whoever drops the last reference frees it.
class ShardedSnapshotStore {
 public:
  ShardedSnapshotStore() : table_(std::make_shared<const Table>()) {}

  ShardedSnapshotStore(const ShardedSnapshotStore&) = delete;
  ShardedSnapshotStore& operator=(const ShardedSnapshotStore&) = delete;

  /// Publishes `snapshot` as shard `id`'s current generation, deriving its
  /// AP profile. An unknown shard is created on first publish (the routing
  /// table is swapped copy-on-write, complete entry in, so a concurrent
  /// reader sees either no shard or a fully published one — never a shard
  /// without a snapshot).
  void Publish(const rmap::ShardId& id,
               std::shared_ptr<const MapSnapshot> snapshot);

  /// Shard `id`'s current snapshot; nullptr when the shard is unknown.
  /// Callers keep the shared_ptr for the whole request, exactly like
  /// MapSnapshotStore::Current.
  std::shared_ptr<const MapSnapshot> Current(const rmap::ShardId& id) const;

  /// Kept only for the repo benchmark; same as Current(id).
  PinnedSnapshot Pinned(const rmap::ShardId& id) const { return Current(id); }

  /// Shard `id`'s AP profile; nullptr when the shard is unknown.
  std::shared_ptr<const ShardProfile> Profile(const rmap::ShardId& id) const;

  /// One consistent (id, profile) listing — the classifier scores shards
  /// against a single table generation.
  std::vector<std::pair<rmap::ShardId, std::shared_ptr<const ShardProfile>>>
  Profiles() const;

  /// Total snapshot publications across all shards.
  uint64_t publish_count() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    MapSnapshotStore store;
    std::shared_ptr<const ShardProfile> profile;  ///< atomic access only

    std::shared_ptr<const ShardProfile> LoadProfile() const {
      return std::atomic_load_explicit(&profile, std::memory_order_acquire);
    }
  };
  using Table = std::map<rmap::ShardId, std::shared_ptr<Shard>>;

  std::shared_ptr<const Table> LoadTable() const {
    return std::atomic_load_explicit(&table_, std::memory_order_acquire);
  }

  std::shared_ptr<const Table> table_;  ///< atomic access only; never null
  std::mutex publish_mu_;  ///< serializes table mutation
  std::atomic<uint64_t> publishes_{0};
};

/// The floor classifier's verdict for one fingerprint.
struct RouteDecision {
  rmap::ShardId shard;
  /// Observed APs of the query that are audible on the chosen shard.
  size_t overlap = 0;
  /// True when AP-set overlap tied across shards and the strongest-AP rule
  /// (who hears the query's loudest AP best) broke the tie.
  bool by_strongest_ap = false;
};

/// Routes single queries across a ShardedSnapshotStore.
///
/// Thread-safety: all entry points are const and safe to call concurrently
/// from any number of threads; the router owns no threads. Classification
/// and routing read only immutable snapshots/profiles through atomic
/// shared_ptr loads. `store` must outlive the router. Failure semantics
/// follow LocalizationServer: a query that cannot be routed — unknown shard,
/// shard with no published snapshot yet, or a fingerprint with no observed
/// AP — throws std::runtime_error rather than aborting, so one bad request
/// never takes the serving process down.
class ShardRouter {
 public:
  /// `store` must outlive the router. `num_threads` is ignored: the router
  /// answers on the caller's thread. The parameter stays until the repo
  /// benchmark, which constructs `ShardRouter{&store, 1}`, stops passing it.
  explicit ShardRouter(const ShardedSnapshotStore* store,
                       size_t num_threads = 0);

  /// Resolves the shard of a fingerprint with unknown floor: primary score
  /// is AP-set overlap (observed query APs audible on the shard, cf.
  /// Algorithm 1's binarization); ties fall back to the strongest-AP rule —
  /// the shard whose references hear the query's loudest AP best — and
  /// finally to the smallest ShardId, so the decision is deterministic.
  /// nullopt when the query is unroutable: the store is empty, no AP is
  /// observed, or no shard hears any of the observed APs (a floor the
  /// venue has not published).
  std::optional<RouteDecision> ClassifyFloor(
      const std::vector<double>& fingerprint) const;

  /// One fingerprint (kNull entries allowed) against a known shard, via the
  /// shard snapshot's pruned single-query path. Throws std::runtime_error
  /// when unroutable (see class comment).
  geom::Point Localize(const rmap::ShardId& shard,
                       const std::vector<double>& fingerprint) const;

  struct AutoResult {
    geom::Point position;
    RouteDecision route;
  };
  /// Classifies the floor, then localizes on the winning shard.
  AutoResult LocalizeAuto(const std::vector<double>& fingerprint) const;

 private:
  const ShardedSnapshotStore* store_;
};

}  // namespace rmi::serving

#endif  // RMI_SERVING_SHARD_ROUTER_H_
