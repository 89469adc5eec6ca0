// Trace-driven venue-scale soak: the closed-box endurance harness behind
// bench_soak and the scenario tests.
//
// RunSoak stands up the full serving stack — ShardedSnapshotStore,
// ShardRouter, MapUpdater over the standard differentiate/impute/fit
// backends — for a MakeSoakVenue world, then replays a deterministic
// mobility-trace workload against it *open-loop*: walker sessions
// (GenerateWalkers) emit fingerprint scans at Poisson arrival instants
// shaped by a diurnal curve (PoissonArrivals), honored on the wall clock
// whether or not the engine keeps up. Mid-run a churn schedule injects the
// production events the stack claims to survive:
//
//  * resurvey drift  — delta observations stream into MapUpdater::Ingest
//    and trip background rebuilds while queries are in flight;
//  * AP addition     — AddGlobalAps re-derives the venue at dimension
//    D + k and re-registers every shard (RegisterShard republish), so
//    in-flight old-width scans race a global dimension change;
//  * AP removal      — the inverse, back to dimension D.
//
// Measurement is scrape-deltas of the process obs registry — the same
// series operators would alert on — never hand-rolled timers: the clients
// only *feed* rmi_workload_* instruments, and the SLO report is computed
// from registry deltas captured around the run (latency and APE
// percentiles from Histogram bucket deltas, staleness from the updater's
// rmi_updater_staleness_us series).
#ifndef RMI_WORKLOAD_SOAK_H_
#define RMI_WORKLOAD_SOAK_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "workload/arrivals.h"
#include "workload/session.h"
#include "workload/trace.h"

namespace rmi::workload {

/// Mid-soak churn schedule. Events fire at fractions of the arrival
/// schedule's *virtual* duration (0 = start, 1 = end) on the soak's
/// compressed wall clock; an event past 1.0 (or a zero count) is disabled.
struct ChurnOptions {
  /// Resurvey drift: at `resurvey_at`, feed `resurvey_observations` fresh
  /// observations with `drift_db` Gaussian RSSI drift into each of the
  /// first `resurvey_shards` shards via MapUpdater::Ingest.
  double resurvey_at = 0.30;
  size_t resurvey_shards = 8;
  size_t resurvey_observations = 96;
  double drift_db = 1.5;
  /// Online AP addition: at `ap_add_at`, AddGlobalAps(ap_add_count) and
  /// re-register every shard at the widened dimension.
  double ap_add_at = 0.55;
  size_t ap_add_count = 2;
  /// Online AP removal: at `ap_remove_at`, drop the APs added above.
  double ap_remove_at = 0.80;
};

struct SoakOptions {
  SoakVenueOptions venue;
  WalkerOptions walkers;
  ArrivalScheduleOptions arrivals;
  FingerprintOptions fingerprint;
  SessionRoutingOptions session;
  ChurnOptions churn;
  /// Open-loop client threads; walker sessions are partitioned across
  /// them, so per-session scan order is stable regardless of scheduling.
  size_t client_threads = 4;
  /// Updater rebuild pool width.
  size_t rebuild_threads = 2;
  /// Updater volume trigger (delta observations per shard).
  size_t min_new_observations = 64;
  /// Wall-clock compression: virtual seconds that elapse per wall second.
  /// The arrival schedule spans arrivals.duration_s of *virtual* time; the
  /// soak replays it in duration_s / time_scale wall seconds.
  double time_scale = 8.0;
  /// Root seed of the per-query scan-noise streams.
  uint64_t seed = 99;
};

/// The SLO report of one soak run. Latency/APE/staleness fields are
/// computed from obs-registry scrape deltas captured around the client
/// phase; counts cross-check the clients' own tallies against the
/// registry.
struct SoakReport {
  // Offered vs achieved load.
  size_t scheduled = 0;   ///< arrival instants in the schedule
  size_t sent = 0;        ///< queries actually issued
  size_t ok = 0;          ///< localized successfully
  size_t rejected = 0;    ///< hinted query rejected (width/validation)
  size_t unroutable = 0;  ///< no hint and the classifier had no verdict
  double wall_seconds = 0.0;
  double achieved_qps = 0.0;

  // Latency SLOs, ms (registry deltas of rmi_workload_query_latency_us).
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;

  // Accuracy vs ground truth, meters (deltas of rmi_workload_ape_cm,
  // correct-shard answers only).
  double ape_p50_m = 0.0;
  double ape_p95_m = 0.0;

  // Handover / floor classification quality: fraction of answered queries
  // served by a shard other than the walker's true shard.
  double handover_error_rate = 0.0;
  size_t wrong_shard = 0;
  size_t session_switches = 0;  ///< completed sticky-shard handovers
  size_t true_transitions = 0;  ///< floor changes in the replayed traces

  // Snapshot freshness under churn, ms (deltas of
  // rmi_updater_staleness_us: first-pending-delta age at publish).
  double staleness_p50_ms = 0.0;
  double staleness_p95_ms = 0.0;

  // Churn accounting.
  size_t rebuilds_completed = 0;
  size_t rebuild_failures = 0;
  size_t publishes = 0;
  size_t dimension_changes = 0;  ///< AP add/remove republish sweeps
  size_t resurvey_observations = 0;

  size_t num_shards = 0;
  size_t num_aps_initial = 0;
};

/// Runs the soak described by `options` against a freshly built serving
/// stack (MarOnlyDifferentiator + LinearInterpolationImputer + KnnEstimator,
/// the standard serving bench backends). Deterministic workload per
/// (options, seed): venue, traces, arrival instants, and every scan are
/// bit-reproducible; wall-clock timing (and hence the latency SLOs) is not.
SoakReport RunSoak(const SoakOptions& options);

}  // namespace rmi::workload

#endif  // RMI_WORKLOAD_SOAK_H_
