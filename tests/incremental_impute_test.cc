// Rebuilds after ingest, through the one cold rebuild path:
//  * a record-dropping backend (CaseDeletion) publishes only correctly
//    positioned references after an ingest rebuild;
//  * a partial re-survey (35 % of the floor) ingested into a drifted shard
//    repairs it: the rebuilt snapshot beats the stale one. The full
//    re-survey is covered by sharded_serving_test.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "eval/update_scenario.h"
#include "imputers/autocorrelation.h"
#include "imputers/traditional.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/synthetic.h"

namespace rmi::imputers {
namespace {

TEST(IncrementalImputeTest, RecordDroppingBackendNeverSplicesMisaligned) {
  // CaseDeletion drops null-RP records, so its output is *shorter* than
  // the base it imputed. A rebuild after ingest must still publish every
  // fingerprint with the position of the record it came from — never a
  // row-index pairing shifted by the dropped records.
  serving::ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  CaseDeletionImputer cd;
  serving::MapUpdater updater(
      &store, &differentiator, &cd,
      [] { return std::make_unique<positioning::KnnEstimator>(3, true); });

  rmap::RadioMap base = serving::MakeSyntheticServingMap(8, 6, 6, 71);
  size_t dropped = 0;
  for (size_t i = 0; i < base.size(); i += 5) {
    base.record(i).has_rp = false;
    base.record(i).rp = geom::Point{};
    ++dropped;
  }
  const rmap::ShardId id{0, 0};
  updater.RegisterShard(id, base);
  const auto v1 = store.Current(id);
  ASSERT_EQ(v1->num_refs(), base.size() - dropped);

  // Fresh deltas (all with RPs) folded by a second rebuild.
  const auto truth = serving::MakeSyntheticServingMap(8, 6, 6, 71);
  Rng rng(13);
  for (size_t i = 0; i < 6; ++i) {
    rmap::Record obs = truth.record(rng.Index(truth.size()));
    obs.id = rmap::Record::kUnassignedId;
    obs.time += 1000.0;
    updater.Ingest(id, obs);
  }
  ASSERT_TRUE(updater.RebuildNow(id));
  const auto v2 = store.Current(id);
  ASSERT_EQ(v2->version, 2u);

  // Every published reference must carry the position of the record whose
  // fingerprint it is — a misaligned pairing is off by `dropped`.
  for (size_t r = 0; r < v2->num_refs(); ++r) {
    bool matched = false;
    for (size_t i = 0; i < truth.size() && !matched; ++i) {
      bool same = true;
      for (size_t j = 0; j < truth.num_aps(); ++j) {
        if (v2->fingerprints()(r, j) != truth.record(i).rssi[j]) {
          same = false;
          break;
        }
      }
      if (same) {
        EXPECT_NEAR(v2->positions()[r].x, truth.record(i).rp.x, 1e-12);
        EXPECT_NEAR(v2->positions()[r].y, truth.record(i).rp.y, 1e-12);
        matched = true;
      }
    }
    EXPECT_TRUE(matched) << "published fingerprint " << r
                         << " matches no surveyed record";
  }
}

TEST(IncrementalImputeTest, UpdateScenarioPartialResurveyRepairsStaleMap) {
  cluster::MarOnlyDifferentiator differentiator;
  MiceImputer imputer;
  const auto factory = [] {
    return std::make_unique<positioning::KnnEstimator>(3, true);
  };
  eval::UpdateScenarioOptions opt;
  opt.resurvey_fraction = 0.35;  // only part of the floor is re-surveyed
  const auto result =
      eval::RunAccuracyUnderUpdate(differentiator, imputer, factory, opt);
  EXPECT_GT(result.ingested, 0u);
  EXPECT_LT(result.ingested, opt.nx * opt.ny);
  EXPECT_LT(result.updated_ape, result.stale_ape)
      << "updated " << result.updated_ape << " vs stale " << result.stale_ape;
}

}  // namespace
}  // namespace rmi::imputers
