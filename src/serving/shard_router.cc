#include "serving/shard_router.h"

#include <limits>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/missing.h"
#include "serving/batch_localizer.h"

namespace rmi::serving {

namespace {

/// An AP counts as audible on a shard when its peak reference RSSI rises
/// meaningfully above the -100 dBm MNAR fill (a floor whose references
/// never hear an AP stores exactly the fill).
constexpr double kAudibleMarginDbm = 0.5;

}  // namespace

ShardProfile BuildShardProfile(const MapSnapshot& snapshot) {
  const la::Matrix& refs = snapshot.fingerprints();
  ShardProfile profile;
  profile.observable.assign(refs.cols(), 0);
  profile.peak_rssi.assign(refs.cols(), kMnarFillDbm);
  for (size_t i = 0; i < refs.rows(); ++i) {
    for (size_t j = 0; j < refs.cols(); ++j) {
      if (refs(i, j) > profile.peak_rssi[j]) profile.peak_rssi[j] = refs(i, j);
    }
  }
  for (size_t j = 0; j < refs.cols(); ++j) {
    if (profile.peak_rssi[j] > kMnarFillDbm + kAudibleMarginDbm) {
      profile.observable[j] = 1;
      ++profile.num_observable;
    }
  }
  return profile;
}

void ShardedSnapshotStore::Publish(const rmap::ShardId& id,
                                   std::shared_ptr<const MapSnapshot> snapshot) {
  RMI_CHECK(snapshot != nullptr);
  auto profile =
      std::make_shared<const ShardProfile>(BuildShardProfile(*snapshot));
  std::lock_guard<std::mutex> lock(publish_mu_);
  const std::shared_ptr<const Table> table = LoadTable();
  const auto it = table->find(id);
  if (it == table->end()) {
    // First publish: build the entry fully formed — profile set, snapshot
    // published — then swap the enlarged table in. A concurrent reader sees
    // either no shard or a complete one.
    auto shard = std::make_shared<Shard>();
    shard->profile = std::move(profile);
    shard->store.Publish(std::move(snapshot));
    auto next = std::make_shared<Table>(*table);
    (*next)[id] = std::move(shard);
    std::atomic_store_explicit(&table_,
                               std::shared_ptr<const Table>(std::move(next)),
                               std::memory_order_release);
  } else {
    Shard& shard = *it->second;
    shard.store.Publish(std::move(snapshot));
    std::atomic_store_explicit(&shard.profile, std::move(profile),
                               std::memory_order_release);
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const MapSnapshot> ShardedSnapshotStore::Current(
    const rmap::ShardId& id) const {
  const std::shared_ptr<const Table> table = LoadTable();
  const auto it = table->find(id);
  return it == table->end() ? nullptr : it->second->store.Current();
}

std::shared_ptr<const ShardProfile> ShardedSnapshotStore::Profile(
    const rmap::ShardId& id) const {
  const std::shared_ptr<const Table> table = LoadTable();
  const auto it = table->find(id);
  return it == table->end() ? nullptr : it->second->LoadProfile();
}

std::vector<std::pair<rmap::ShardId, std::shared_ptr<const ShardProfile>>>
ShardedSnapshotStore::Profiles() const {
  const std::shared_ptr<const Table> table = LoadTable();
  std::vector<std::pair<rmap::ShardId, std::shared_ptr<const ShardProfile>>>
      out;
  out.reserve(table->size());
  for (const auto& [id, shard] : *table) {
    out.emplace_back(id, shard->LoadProfile());
  }
  return out;
}

ShardRouter::ShardRouter(const ShardedSnapshotStore* store,
                         size_t /*num_threads*/)
    : store_(store) {
  RMI_CHECK(store_ != nullptr);
}

std::optional<RouteDecision> ShardRouter::ClassifyFloor(
    const std::vector<double>& fingerprint) const {
  // One pass over the query: the observed AP indices (venue queries are
  // mostly kNull — a device hears only its own floor — so the per-shard
  // overlap loop below runs over |observed|, not D) and the loudest one,
  // the strongest-AP tie-break pivot.
  const size_t size = fingerprint.size();
  std::vector<size_t> observed;
  size_t strongest_ap = size;
  double strongest_rssi = -std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < size; ++j) {
    if (IsNull(fingerprint[j])) continue;
    observed.push_back(j);
    if (fingerprint[j] > strongest_rssi) {
      strongest_rssi = fingerprint[j];
      strongest_ap = j;
    }
  }
  if (strongest_ap == size) return std::nullopt;  // all-null scan

  // Score every shard against one consistent profile listing (ascending
  // ShardId, as Profiles() returns it).
  bool have_best = false;
  RouteDecision best;
  double best_peak = -std::numeric_limits<double>::infinity();
  size_t best_overlap_count = 0;  // shards achieving the winning overlap
  for (const auto& [id, profile] : store_->Profiles()) {
    if (profile == nullptr || profile->num_aps() != size) continue;
    size_t overlap = 0;
    for (size_t j : observed) overlap += profile->observable[j];
    const double peak = profile->peak_rssi[strongest_ap];
    if (!have_best || overlap > best.overlap) {
      have_best = true;
      best.shard = id;
      best.overlap = overlap;
      best_peak = peak;
      best_overlap_count = 1;
    } else if (overlap == best.overlap) {
      ++best_overlap_count;
      // Strongest-AP rule; profiles arrive in ascending ShardId, so a
      // strict comparison keeps the smallest id on a full tie.
      if (peak > best_peak) {
        best.shard = id;
        best_peak = peak;
      }
    }
  }
  // No shard hears any AP the query observed: the query cannot belong to
  // a published floor, and "the smallest id wins" would be a confident
  // answer from an unrelated map. Unroutable instead.
  if (!have_best || best.overlap == 0) return std::nullopt;
  best.by_strongest_ap = best_overlap_count > 1;
  return best;
}

geom::Point ShardRouter::Localize(const rmap::ShardId& shard,
                                  const std::vector<double>& fingerprint) const {
  const std::shared_ptr<const MapSnapshot> snap = store_->Current(shard);
  if (!snap) {
    throw std::runtime_error("shard " + rmap::ToString(shard) +
                             " has no published snapshot");
  }
  // The shared per-request rejection for a malformed query; never an
  // abort — one bad request must not take the serving process down.
  const char* reason =
      QueryValidationError(*snap, fingerprint.data(), fingerprint.size());
  if (reason != nullptr) throw std::runtime_error(reason);
  return BatchLocalizer::LocalizeOn(*snap, fingerprint);
}

ShardRouter::AutoResult ShardRouter::LocalizeAuto(
    const std::vector<double>& fingerprint) const {
  const std::optional<RouteDecision> route = ClassifyFloor(fingerprint);
  if (!route.has_value()) {
    throw std::runtime_error(
        "fingerprint cannot be floor-classified (no shards or no observed "
        "AP)");
  }
  return AutoResult{Localize(route->shard, fingerprint), *route};
}

}  // namespace rmi::serving
