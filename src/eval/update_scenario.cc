#include "eval/update_scenario.h"

#include <vector>

#include "common/check.h"
#include "common/missing.h"
#include "serving/batch_localizer.h"
#include "serving/synthetic.h"

namespace rmi::eval {

namespace {

/// Mean Euclidean error against `truths` of answering every row of
/// `queries` on `shard`'s pinned snapshot in one batched estimator pass.
double MeasureApe(const serving::ShardedSnapshotStore& store,
                  const rmap::ShardId& shard, const la::Matrix& queries,
                  const std::vector<geom::Point>& truths) {
  const serving::PinnedSnapshot snap = store.Pinned(shard);
  RMI_CHECK(snap.get() != nullptr);
  const std::vector<geom::Point> positions =
      serving::BatchLocalizer::LocalizeBatchOn(*snap, queries);
  double sum = 0.0;
  for (size_t i = 0; i < positions.size(); ++i) {
    sum += geom::Distance(positions[i], truths[i]);
  }
  return positions.empty() ? 0.0 : sum / double(positions.size());
}

}  // namespace

UpdateScenarioResult RunAccuracyUnderUpdate(
    const cluster::Differentiator& differentiator,
    const imputers::Imputer& imputer,
    const serving::EstimatorFactory& estimator_factory,
    const UpdateScenarioOptions& options) {
  const rmap::ShardId shard{0, 0};
  Rng rng(options.seed);

  // The current radio environment (ground truth), and a stale survey of it:
  // per-AP transmit-power offsets plus per-cell noise — non-uniform, so the
  // nearest-neighbor structure the estimator relies on truly degrades.
  const rmap::RadioMap truth = serving::MakeSyntheticServingMap(
      options.nx, options.ny, options.num_aps, options.seed);
  rmap::RadioMap stale = truth;
  std::vector<double> ap_offset(options.num_aps);
  for (double& o : ap_offset) o = rng.Uniform(-options.drift_dbm,
                                              options.drift_dbm);
  for (size_t i = 0; i < stale.size(); ++i) {
    for (size_t j = 0; j < options.num_aps; ++j) {
      stale.record(i).rssi[j] =
          ClampRssi(stale.record(i).rssi[j] + ap_offset[j] +
                    rng.Uniform(-options.drift_dbm / 2.0,
                                options.drift_dbm / 2.0));
    }
  }

  // Queries from the *current* environment, with their true locations.
  la::Matrix queries(options.num_queries, options.num_aps);
  std::vector<geom::Point> truths;
  truths.reserve(options.num_queries);
  for (size_t i = 0; i < options.num_queries; ++i) {
    const rmap::Record& r = truth.record(rng.Index(truth.size()));
    for (size_t j = 0; j < options.num_aps; ++j) {
      queries(i, j) = ClampRssi(r.rssi[j] + rng.Uniform(-2.0, 2.0));
    }
    truths.push_back(r.rp);
  }

  serving::ShardedSnapshotStore store;
  serving::MapUpdaterOptions updater_options;
  updater_options.seed = options.seed + 1;
  serving::MapUpdater updater(&store, &differentiator, &imputer,
                              estimator_factory, updater_options);
  updater.RegisterShard(shard, stale);  // bootstrap: the drifted snapshot

  UpdateScenarioResult result;
  result.stale_ape = MeasureApe(store, shard, queries, truths);

  // The fresh — but sparse — re-survey batch: missing RSSIs and missing
  // RPs force the rebuild through genuine differentiation + imputation.
  for (size_t i = 0; i < truth.size(); ++i) {
    if (options.resurvey_fraction < 1.0 &&
        !rng.Bernoulli(options.resurvey_fraction)) {
      continue;
    }
    rmap::Record obs = truth.record(i);
    obs.id = rmap::Record::kUnassignedId;
    obs.time += double(truth.size());  // surveyed after the stale pass
    for (double& v : obs.rssi) {
      if (rng.Bernoulli(options.delta_missing_rssi)) v = kNull;
    }
    if (obs.NumObserved() == 0) obs.rssi[0] = truth.record(i).rssi[0];
    if (rng.Bernoulli(options.delta_missing_rp)) {
      obs.has_rp = false;
      obs.rp = geom::Point{};
    }
    updater.Ingest(shard, std::move(obs));
    ++result.ingested;
  }

  RMI_CHECK(updater.RebuildNow(shard));
  result.updated_ape = MeasureApe(store, shard, queries, truths);
  result.rebuild_seconds = updater.Stats().last_rebuild_seconds;
  result.snapshot_versions = store.publish_count();
  return result;
}

}  // namespace rmi::eval
