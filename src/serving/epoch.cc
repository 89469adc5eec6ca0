#include "serving/epoch.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"

namespace rmi::serving {

namespace {

// Process-wide epoch series, aggregated over every domain. The deferred
// count of the *global* domain additionally gets its own callback gauge
// (registered in Global()).
struct EpochMetrics {
  obs::Counter& retired = obs::GetCounter(
      "rmi_epoch_retired_total", "Objects handed to deferred reclamation");
  obs::Counter& reclaimed = obs::GetCounter(
      "rmi_epoch_reclaimed_total",
      "Deferred objects released after all pinned readers left");
  obs::Histogram& pin_us = obs::GetHistogram(
      "rmi_epoch_pin_duration_us",
      "Outermost pin hold time per thread, microseconds");

  static EpochMetrics& Get() {
    static EpochMetrics* m = new EpochMetrics();
    return *m;
  }
};

// Domains are identified by a process-unique id, not their address: a
// thread's cached slot claim must never be mistaken for a claim on a
// *different* domain that happens to be allocated at a recycled address
// (stack-local test domains make this a real scenario, and a mistaken
// match would let two threads share one slot).
std::atomic<uint64_t> g_next_domain_id{1};

struct ThreadClaim {
  uint64_t domain_id = 0;
  size_t slot = 0;
  uint64_t depth = 0;
  /// Outermost-pin start stamp — feeds the pin-duration histogram on the
  /// matching Exit.
  double pin_start_us = 0.0;
};

// This thread's slot claims across every domain it has ever pinned.
// Almost always length 1 (the global domain), so linear search is free.
// Claims persist for the thread's lifetime — a slot, once handed to a
// thread, is that thread's forever; an exited thread's slot simply stays
// kIdle. With kMaxSlots = 256 that supports far more pinning threads than
// any pool here creates.
thread_local std::vector<ThreadClaim> t_claims;

ThreadClaim* FindClaim(uint64_t domain_id) {
  for (ThreadClaim& claim : t_claims) {
    if (claim.domain_id == domain_id) return &claim;
  }
  return nullptr;
}

}  // namespace

EpochDomain::EpochDomain()
    : id_(g_next_domain_id.fetch_add(1, std::memory_order_relaxed)) {}

EpochDomain& EpochDomain::Global() {
  static EpochDomain domain;
  // Scrape-time depth of the global retire list. Registered once, here,
  // because only the global domain is process-lifetime (stack-local test
  // domains must not leave dangling callbacks behind).
  static const bool registered = [] {
    obs::Registry::Global().SetCallbackGauge(
        "rmi_epoch_deferred_objects",
        "Retired objects awaiting reclamation in the global domain",
        [] { return static_cast<double>(Global().retired_count()); });
    return true;
  }();
  (void)registered;
  return domain;
}

size_t EpochDomain::SlotIndexForThisThread() {
  ThreadClaim* claim = FindClaim(id_);
  if (claim == nullptr) {
    const size_t slot = next_slot_.fetch_add(1, std::memory_order_relaxed);
    RMI_CHECK_LT(slot, kMaxSlots);
    t_claims.push_back(ThreadClaim{id_, slot, 0});
    claim = &t_claims.back();
  }
  return claim->slot;
}

void EpochDomain::Enter() {
  const size_t slot = SlotIndexForThisThread();
  ThreadClaim* claim = FindClaim(id_);
  if (claim->depth++ == 0) {
    // Publish the pin before any caller dereferences the protected
    // pointer. Storing a possibly-stale epoch is safe: the global epoch
    // only grows, so the stored value is <= the epoch any subsequently
    // loaded pointer is retired under (see the ordering proof in the
    // header) — a smaller pin only defers reclamation longer.
    slots_[slot].epoch.store(global_epoch_.load(std::memory_order_seq_cst),
                             std::memory_order_seq_cst);
    claim->pin_start_us = obs::MonotonicUs();
  }
}

void EpochDomain::Exit() {
  ThreadClaim* claim = FindClaim(id_);
  RMI_CHECK(claim != nullptr && claim->depth > 0);
  if (--claim->depth == 0) {
    slots_[claim->slot].epoch.store(kIdle, std::memory_order_seq_cst);
    EpochMetrics::Get().pin_us.Observe(obs::MonotonicUs() -
                                       claim->pin_start_us);
  }
}

uint64_t EpochDomain::MinActiveEpoch() const {
  const size_t used =
      std::min(next_slot_.load(std::memory_order_acquire), kMaxSlots);
  uint64_t min_epoch = kIdle;
  for (size_t s = 0; s < used; ++s) {
    min_epoch =
        std::min(min_epoch, slots_[s].epoch.load(std::memory_order_seq_cst));
  }
  return min_epoch;
}

void EpochDomain::Retire(std::shared_ptr<const void> object) {
  if (object == nullptr) return;
  std::lock_guard<std::mutex> lock(retire_mu_);
  // Stamp with the epoch every holder of `object` is pinned at or below,
  // then advance so future pins land above the stamp; the scan after the
  // advance (inside the reclaim pass) is what makes lagging readers
  // visible. retire_mu_ serializes concurrent publishers, so the
  // load-store pair cannot lose an advance.
  const uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
  retired_.push_back(Retired{std::move(object), epoch});
  global_epoch_.store(epoch + 1, std::memory_order_seq_cst);
  EpochMetrics::Get().retired.Add();
  ReclaimLocked();
}

size_t EpochDomain::ReclaimNow() {
  std::lock_guard<std::mutex> lock(retire_mu_);
  ReclaimLocked();
  return retired_.size();
}

void EpochDomain::ReclaimLocked() {
  const uint64_t min_active = MinActiveEpoch();
  // kIdle (no pinned reader) compares above every stamp: everything goes.
  const size_t before = retired_.size();
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [min_active](const Retired& entry) {
                                  return entry.epoch < min_active;
                                }),
                 retired_.end());
  if (before != retired_.size()) {
    EpochMetrics::Get().reclaimed.Add(before - retired_.size());
  }
}

size_t EpochDomain::retired_count() const {
  std::lock_guard<std::mutex> lock(retire_mu_);
  return retired_.size();
}

uint64_t EpochDomain::PinnedEpochForTesting() const {
  const ThreadClaim* claim = FindClaim(id_);
  if (claim == nullptr || claim->depth == 0) return kIdle;
  return slots_[claim->slot].epoch.load(std::memory_order_seq_cst);
}

}  // namespace rmi::serving
