// Accuracy-under-update evaluation: does the live ingest -> impute ->
// publish loop actually repair a stale radio map?
//
// Scenario: the serving stack is bootstrapped from a *drifted* survey of
// one floor (per-AP transmit-power offsets plus per-cell noise — the radio
// environment changed since the survey). Queries drawn from the current
// environment are answered poorly by the stale snapshot. A fresh — but
// sparse: missing RSSIs and missing RPs, so the rebuild genuinely imputes
// — survey batch is then ingested through serving::MapUpdater, the rebuild
// re-imputes and re-fits, and the hot-swapped snapshot is measured against
// the same query set. The acceptance criterion is updated APE < stale APE.
#ifndef RMI_EVAL_UPDATE_SCENARIO_H_
#define RMI_EVAL_UPDATE_SCENARIO_H_

#include <cstdint>

#include "clustering/differentiation.h"
#include "imputers/imputer.h"
#include "serving/map_updater.h"

namespace rmi::eval {

struct UpdateScenarioOptions {
  /// Venue geometry of the floor under test (1 m grid).
  size_t nx = 14;
  size_t ny = 10;
  size_t num_aps = 12;
  /// Environment drift baked into the stale survey: per-AP offset drawn
  /// uniform in [-drift, drift] dB plus per-cell noise in [-drift/2,
  /// drift/2] (non-uniform, so nearest-neighbor structure truly degrades).
  double drift_dbm = 9.0;
  /// Sparsity of the fresh survey batch fed to the updater.
  double delta_missing_rssi = 0.25;
  double delta_missing_rp = 0.3;
  /// Queries measured against both snapshot generations.
  size_t num_queries = 96;
  uint64_t seed = 97;
  /// Fraction of the current environment re-surveyed into the updater
  /// (Bernoulli per record). 1.0 = the full-resurvey repair scenario;
  /// smaller values re-survey only part of the floor (partial repair).
  double resurvey_fraction = 1.0;
};

struct UpdateScenarioResult {
  double stale_ape = 0.0;    ///< APE against the drifted bootstrap snapshot
  double updated_ape = 0.0;  ///< APE after ingest + rebuild + hot-swap
  size_t ingested = 0;       ///< fresh observations fed to the updater
  double rebuild_seconds = 0.0;
  uint64_t snapshot_versions = 0;  ///< publishes observed on the shard
};

/// Runs the scenario on shard (0, 0) with the given pipeline backends.
/// `estimator_factory` builds the estimator each snapshot fits (as in
/// serving::MapUpdater). Deterministic for a fixed options.seed. A test
/// harness: UpdateScenarioTest.FreshSurveyRepairsTheDriftedShard
/// (sharded_serving_test) and IncrementalImputeTest.
/// UpdateScenarioPartialResurveyRepairsStaleMap run it.
UpdateScenarioResult RunAccuracyUnderUpdate(
    const cluster::Differentiator& differentiator,
    const imputers::Imputer& imputer,
    const serving::EstimatorFactory& estimator_factory,
    const UpdateScenarioOptions& options = {});

}  // namespace rmi::eval

#endif  // RMI_EVAL_UPDATE_SCENARIO_H_
