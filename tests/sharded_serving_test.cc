// Multi-floor sharded serving:
//  * ShardedSnapshotStore edge cases — publish to an unknown shard creates
//    it atomically; queries before the first publish are rejected, never
//    crash; readers racing the first publish converge to success;
//  * the AP-overlap floor classifier routes venue queries to the true
//    floor, and falls back to the strongest-AP rule (deterministically)
//    when AP sets overlap across floors;
//  * ShardRouter::Localize equals the per-shard estimator bit-for-bit and
//    classified routing (LocalizeAuto) equals hinted routing;
//  * MapUpdater — volume and staleness triggers rebuild + hot-swap
//    publish, ingest into unknown shards is rejected, shutdown with a
//    rebuild in flight completes the publish;
//  * the accuracy-under-update scenario: ingesting a fresh survey into a
//    drifted shard improves post-rebuild accuracy while concurrent
//    mixed-shard queries keep being answered and routed correctly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "clustering/differentiation.h"
#include "common/missing.h"
#include "common/rng.h"
#include "eval/update_scenario.h"
#include "imputers/autocorrelation.h"
#include "imputers/traditional.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/synthetic.h"

namespace rmi::serving {
namespace {

std::shared_ptr<const MapSnapshot> SnapshotOf(const rmap::RadioMap& map,
                                              uint64_t version = 0,
                                              size_t k = 3) {
  Rng rng(7 + version);
  SnapshotOptions opt;
  opt.version = version;
  return BuildSnapshot(map, std::make_unique<positioning::KnnEstimator>(k, true),
                       rng, opt);
}

/// Publishes every venue floor into `store`.
void PublishVenue(ShardedSnapshotStore* store,
                  const std::vector<VenueShard>& shards) {
  for (const VenueShard& shard : shards) {
    store->Publish(shard.id, SnapshotOf(shard.map));
  }
}

EstimatorFactory WknnFactory(size_t k = 3) {
  return [k] { return std::make_unique<positioning::KnnEstimator>(k, true); };
}

/// Imputer wrapper that sleeps inside Impute — makes "rebuild in flight"
/// a state the shutdown test can reliably hit.
class SlowImputer : public imputers::Imputer {
 public:
  explicit SlowImputer(double sleep_ms) : sleep_ms_(sleep_ms) {}
  rmap::RadioMap Impute(const rmap::RadioMap& map,
                        const rmap::MaskMatrix& amended_mask,
                        Rng& rng) const override {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms_));
    return inner_.Impute(map, amended_mask, rng);
  }
  std::string name() const override { return "SlowLI"; }

 private:
  double sleep_ms_;
  imputers::LinearInterpolationImputer inner_;
};

/// Online fingerprints drawn from venue floors, with the true shard per
/// row — the mixed-shard serving workload. A query observes (with jitter
/// and `null_fraction` dropout) only the APs audible on its floor; every
/// other cell is kNull, exactly what a device that cannot hear an AP
/// reports.
struct VenueQuerySet {
  la::Matrix queries;                ///< B x D_global
  std::vector<rmap::ShardId> shard;  ///< true floor per row
};
VenueQuerySet MakeVenueQueries(const std::vector<VenueShard>& shards,
                               size_t count, double null_fraction,
                               uint64_t seed) {
  const size_t num_aps = shards.front().map.num_aps();
  Rng rng(seed);

  // Per-shard audibility bitmap for O(1) lookups.
  std::vector<std::vector<uint8_t>> audible(shards.size());
  for (size_t s = 0; s < shards.size(); ++s) {
    audible[s].assign(num_aps, 0);
    for (size_t ap : shards[s].audible_aps) audible[s][ap] = 1;
  }

  VenueQuerySet set;
  set.queries = la::Matrix(count, num_aps, kNull);
  set.shard.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t s = rng.Index(shards.size());
    const rmap::RadioMap& map = shards[s].map;
    const rmap::Record& r = map.record(rng.Index(map.size()));
    size_t observed = 0;
    size_t first_audible = num_aps;
    for (size_t j = 0; j < num_aps; ++j) {
      if (!audible[s][j]) continue;  // the device cannot hear this AP
      if (first_audible == num_aps) first_audible = j;
      if (rng.Bernoulli(null_fraction)) continue;
      set.queries(i, j) = ClampRssi(r.rssi[j] + rng.Uniform(-2.0, 2.0));
      ++observed;
    }
    if (observed == 0) {  // never all-null
      set.queries(i, first_audible) = ClampRssi(r.rssi[first_audible]);
    }
    set.shard.push_back(shards[s].id);
  }
  return set;
}

template <typename Pred>
bool WaitFor(Pred pred, double timeout_s = 10.0) {
  Timer t;
  while (!pred()) {
    if (t.ElapsedSeconds() > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ShardProfileTest, AudibleSetsFollowTheVenueLayout) {
  VenueOptions opt;
  opt.num_buildings = 1;
  opt.floors_per_building = 3;
  opt.aps_per_floor = 8;
  opt.bleed_aps = 2;
  const auto shards = MakeSyntheticVenue(opt);
  ASSERT_EQ(shards.size(), 3u);
  const ShardProfile profile = BuildShardProfile(*SnapshotOf(shards[1].map));
  ASSERT_EQ(profile.num_aps(), 24u);
  // Floor 1 hears its own block (APs 8..15) plus 2 bleed APs from each of
  // floors 0 and 2 — and nothing else.
  EXPECT_EQ(profile.num_observable, 8u + 2u + 2u);
  for (size_t ap = 8; ap < 16; ++ap) EXPECT_TRUE(profile.observable[ap]);
  EXPECT_TRUE(profile.observable[0]);   // bleed from floor 0
  EXPECT_TRUE(profile.observable[1]);
  EXPECT_FALSE(profile.observable[2]);  // beyond the bleed set
  EXPECT_TRUE(profile.observable[16]);  // bleed from floor 2
  EXPECT_FALSE(profile.observable[18]);
  // Own APs peak louder than the slab-attenuated bleed-through ones.
  EXPECT_GT(profile.peak_rssi[8], profile.peak_rssi[0]);
}

TEST(ShardedStoreTest, PublishToUnknownShardCreatesIt) {
  ShardedSnapshotStore store;
  EXPECT_TRUE(store.Profiles().empty());
  const rmap::ShardId id{5, 2};
  EXPECT_EQ(store.Current(id), nullptr);

  const auto map = MakeSyntheticServingMap(8, 6, 6, 3);
  store.Publish(id, SnapshotOf(map));
  ASSERT_NE(store.Current(id), nullptr);
  ASSERT_NE(store.Profile(id), nullptr);
  EXPECT_EQ(store.publish_count(), 1u);
  ASSERT_EQ(store.Profiles().size(), 1u);
  EXPECT_EQ(store.Profiles()[0].first, id);

  // Republish to the now-known shard: same shard count, new generation.
  store.Publish(id, SnapshotOf(map, /*version=*/1));
  EXPECT_EQ(store.Profiles().size(), 1u);
  EXPECT_EQ(store.Current(id)->version, 1u);
  EXPECT_EQ(store.publish_count(), 2u);
}

TEST(ShardedStoreTest, QueryBeforeFirstPublishIsRejectedNotCrashed) {
  ShardedSnapshotStore store;
  ShardRouter router(&store);
  const auto map = MakeSyntheticServingMap(8, 6, 6, 3);
  const la::Matrix queries = MakeSyntheticQueries(map, 4, 0.0, 5);
  const std::vector<double> q = MatrixRow(queries, 0);

  // Empty store: nothing to classify against, nothing to route to.
  EXPECT_FALSE(router.ClassifyFloor(q).has_value());
  EXPECT_THROW(router.LocalizeAuto(q), std::runtime_error);
  EXPECT_THROW(router.Localize(rmap::ShardId{0, 0}, q), std::runtime_error);

  // A published shard serves; an unknown sibling still rejects.
  store.Publish(rmap::ShardId{0, 0}, SnapshotOf(map));
  EXPECT_NO_THROW(router.Localize(rmap::ShardId{0, 0}, q));
  EXPECT_THROW(router.Localize(rmap::ShardId{0, 1}, q), std::runtime_error);
}

TEST(ShardedStoreTest, ReadersRacingTheFirstPublishConvergeToSuccess) {
  ShardedSnapshotStore store;
  ShardRouter router(&store);
  const auto map = MakeSyntheticServingMap(10, 8, 8, 9);
  const std::vector<double> q =
      MatrixRow(MakeSyntheticQueries(map, 1, 0.0, 11), 0);

  std::atomic<bool> served{false};
  std::atomic<bool> crashed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!served.load()) {
        try {
          const auto result = router.LocalizeAuto(q);
          if (!std::isfinite(result.position.x)) crashed.store(true);
          served.store(true);
        } catch (const std::runtime_error&) {
          std::this_thread::yield();  // store still empty — expected
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  store.Publish(rmap::ShardId{1, 4}, SnapshotOf(map));
  for (auto& t : readers) t.join();
  EXPECT_TRUE(served.load());
  EXPECT_FALSE(crashed.load());
}

TEST(FloorClassifierTest, RoutesVenueQueriesToTheTrueFloor) {
  // Queries routed to their true floor; an unroutable query counts wrong.
  const auto count_correct = [](const VenueOptions& opt, size_t count,
                                double null_fraction, uint64_t seed) {
    const auto shards = MakeSyntheticVenue(opt);
    ShardedSnapshotStore store;
    PublishVenue(&store, shards);
    ShardRouter router(&store);
    const VenueQuerySet set =
        MakeVenueQueries(shards, count, null_fraction, seed);
    size_t correct = 0;
    for (size_t i = 0; i < set.queries.rows(); ++i) {
      const auto route = router.ClassifyFloor(MatrixRow(set.queries, i));
      correct += route.has_value() && route->shard == set.shard[i];
    }
    return correct;
  };

  // 2 buildings x 3 floors, bleed-through on. Disjoint own-floor AP blocks
  // dominate the overlap score; bleed-through neighbors cannot reach it.
  EXPECT_EQ(count_correct(VenueOptions{}, 120, 0.3, 17), 120u);

  // 3 buildings x 4 floors of 14 x 10 RPs, 12 APs per floor with 4 of each
  // neighbor's bleeding through (144 global APs): at least 99 % of 2048
  // queries with a quarter of their audible APs dropped.
  VenueOptions venue;
  venue.num_buildings = 3;
  venue.floors_per_building = 4;
  venue.nx = 14;
  venue.ny = 10;
  venue.aps_per_floor = 12;
  venue.bleed_aps = 4;
  const size_t correct = count_correct(venue, 2048, 0.25, 13);
  EXPECT_GE(double(correct) / 2048.0, 0.99) << correct << " of 2048";
}

TEST(FloorClassifierTest, OverlappingApSetsFallBackToStrongestAp) {
  // Every AP of each floor bleeds through the slab: both floors observe
  // the identical AP set, so overlap always ties and only the
  // strongest-AP rule (who hears the query's loudest AP best) can pick
  // the floor.
  VenueOptions opt;
  opt.num_buildings = 1;
  opt.floors_per_building = 2;
  opt.aps_per_floor = 8;
  opt.bleed_aps = 8;
  const auto shards = MakeSyntheticVenue(opt);
  const ShardProfile p0 = BuildShardProfile(*SnapshotOf(shards[0].map));
  const ShardProfile p1 = BuildShardProfile(*SnapshotOf(shards[1].map));
  ASSERT_EQ(p0.num_observable, 16u);
  ASSERT_EQ(p1.num_observable, 16u);

  ShardedSnapshotStore store;
  PublishVenue(&store, shards);
  ShardRouter router(&store);

  const VenueQuerySet set = MakeVenueQueries(shards, 80, 0.2, 23);
  size_t correct = 0;
  for (size_t i = 0; i < set.queries.rows(); ++i) {
    const auto route = router.ClassifyFloor(MatrixRow(set.queries, i));
    ASSERT_TRUE(route.has_value());
    EXPECT_TRUE(route->by_strongest_ap) << "overlap should have tied";
    correct += route->shard == set.shard[i];
  }
  // The loudest AP a device hears is mounted on its own floor, where the
  // references hear it un-attenuated.
  EXPECT_GE(correct, set.queries.rows() * 9 / 10);

  // Fully identical profiles (same map on both shards): the final
  // tie-break is the smallest ShardId — deterministic, never arbitrary.
  ShardedSnapshotStore twin_store;
  twin_store.Publish(rmap::ShardId{0, 0}, SnapshotOf(shards[0].map));
  twin_store.Publish(rmap::ShardId{0, 1}, SnapshotOf(shards[0].map));
  ShardRouter twin_router(&twin_store);
  for (size_t i = 0; i < 10; ++i) {
    const auto route = twin_router.ClassifyFloor(MatrixRow(set.queries, i));
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->shard, (rmap::ShardId{0, 0}));
    EXPECT_TRUE(route->by_strongest_ap);
  }
}

TEST(FloorClassifierTest, QuerySharingNoApWithAnyShardIsUnroutable) {
  // Only floor 0 is published; with bleed off, its profile hears exactly
  // APs [0, aps_per_floor). A query observing only floor 1's APs overlaps
  // no published shard — it must be unroutable, not confidently routed to
  // an unrelated floor's map.
  VenueOptions opt;
  opt.num_buildings = 1;
  opt.floors_per_building = 2;
  opt.aps_per_floor = 6;
  opt.bleed_aps = 0;
  const auto shards = MakeSyntheticVenue(opt);
  ShardedSnapshotStore store;
  store.Publish(shards[0].id, SnapshotOf(shards[0].map));
  ShardRouter router(&store);

  std::vector<double> foreign(shards[0].map.num_aps(), kNull);
  foreign[opt.aps_per_floor + 1] = -50.0;  // an AP only floor 1 hears
  EXPECT_FALSE(router.ClassifyFloor(foreign).has_value());
  EXPECT_THROW(router.LocalizeAuto(foreign), std::runtime_error);

  std::vector<double> native(shards[0].map.num_aps(), kNull);
  native[1] = -50.0;  // floor 0's own AP: routable again
  ASSERT_TRUE(router.ClassifyFloor(native).has_value());
  EXPECT_EQ(router.ClassifyFloor(native)->shard, shards[0].id);
}

TEST(ShardRouterTest, HintedQueryMatchesPerShardEstimatorBitForBit) {
  VenueOptions opt;
  opt.num_buildings = 2;
  opt.floors_per_building = 2;
  const auto shards = MakeSyntheticVenue(opt);
  ShardedSnapshotStore store;
  PublishVenue(&store, shards);
  ShardRouter router(&store);

  const VenueQuerySet set = MakeVenueQueries(shards, 64, 0.25, 31);
  std::set<rmap::ShardId> seen(set.shard.begin(), set.shard.end());
  EXPECT_GT(seen.size(), 1u);  // the rows span several shards
  for (size_t i = 0; i < set.queries.rows(); ++i) {
    const auto snap = store.Current(set.shard[i]);
    ASSERT_NE(snap, nullptr);
    const std::vector<double> row = MatrixRow(set.queries, i);
    const geom::Point want = snap->estimator->Estimate(row);
    const geom::Point got = router.Localize(set.shard[i], row);
    EXPECT_EQ(got.x, want.x) << "row " << i;
    EXPECT_EQ(got.y, want.y) << "row " << i;
  }
}

TEST(ShardRouterTest, ClassifiedQueryMatchesHintedQuery) {
  VenueOptions opt;
  const auto shards = MakeSyntheticVenue(opt);
  ShardedSnapshotStore store;
  PublishVenue(&store, shards);
  ShardRouter router(&store);

  const VenueQuerySet set = MakeVenueQueries(shards, 48, 0.3, 37);
  for (size_t i = 0; i < set.queries.rows(); ++i) {
    const std::vector<double> row = MatrixRow(set.queries, i);
    const ShardRouter::AutoResult classified = router.LocalizeAuto(row);
    const geom::Point hinted = router.Localize(set.shard[i], row);
    EXPECT_EQ(classified.route.shard, set.shard[i]) << "row " << i;
    EXPECT_EQ(classified.position.x, hinted.x) << "row " << i;
    EXPECT_EQ(classified.position.y, hinted.y) << "row " << i;
  }
}

TEST(MapUpdaterTest, VolumeThresholdTriggersBackgroundRebuildAndHotSwap) {
  const auto map = MakeSyntheticServingMap(10, 8, 8, 41);
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;
  MapUpdaterOptions opt;
  opt.min_new_observations = 10;
  opt.poll_interval_ms = 1.0;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);

  const rmap::ShardId id{0, 0};
  updater.RegisterShard(id, map);
  ASSERT_NE(store.Current(id), nullptr);
  EXPECT_EQ(store.Current(id)->version, 1u);
  EXPECT_EQ(updater.Stats().rebuilds_completed, 1u);

  updater.Start();
  Rng rng(43);
  for (size_t i = 0; i < 10; ++i) {
    rmap::Record obs = map.record(rng.Index(map.size()));
    obs.id = rmap::Record::kUnassignedId;
    obs.time += double(map.size());
    updater.Ingest(id, std::move(obs));
  }
  ASSERT_TRUE(WaitFor([&] { return updater.Stats().rebuilds_completed >= 2; }));
  updater.Stop();
  EXPECT_EQ(store.Current(id)->version, 2u);
  EXPECT_EQ(updater.PendingObservations(id), 0u);
  EXPECT_EQ(updater.Stats().ingested, 10u);
}

TEST(MapUpdaterTest, StalenessThresholdTriggersRebuildBelowVolume) {
  const auto map = MakeSyntheticServingMap(8, 6, 6, 47);
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;
  MapUpdaterOptions opt;
  opt.min_new_observations = 1000000;  // volume alone would never trip
  opt.max_staleness_seconds = 0.01;
  opt.poll_interval_ms = 1.0;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);

  const rmap::ShardId id{2, 1};
  updater.RegisterShard(id, map);
  updater.Start();
  rmap::Record obs = map.record(3);
  obs.id = rmap::Record::kUnassignedId;
  updater.Ingest(id, std::move(obs));
  ASSERT_TRUE(WaitFor([&] { return updater.Stats().rebuilds_completed >= 2; }));
  updater.Stop();
  EXPECT_GE(store.Current(id)->version, 2u);
}

TEST(MapUpdaterTest, IngestIntoUnknownShardOrWrongWidthIsRejected) {
  const auto map = MakeSyntheticServingMap(8, 6, 6, 53);
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory());
  updater.RegisterShard(rmap::ShardId{0, 0}, map);

  rmap::Record obs = map.record(0);
  EXPECT_THROW(updater.Ingest(rmap::ShardId{9, 9}, obs), std::runtime_error);
  rmap::Record narrow;
  narrow.rssi.assign(3, -50.0);
  EXPECT_THROW(updater.Ingest(rmap::ShardId{0, 0}, std::move(narrow)),
               std::runtime_error);
  // NaN is the null encoding; an infinite RSSI or RP is a bad feed.
  rmap::Record infinite = map.record(0);
  infinite.rssi[2] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(updater.Ingest(rmap::ShardId{0, 0}, std::move(infinite)),
               std::runtime_error);
  rmap::Record lost = map.record(0);
  lost.has_rp = true;
  lost.rp.x = kNull;
  EXPECT_THROW(updater.Ingest(rmap::ShardId{0, 0}, std::move(lost)),
               std::runtime_error);
  EXPECT_EQ(updater.Stats().ingested, 0u);
  EXPECT_NO_THROW(updater.Ingest(rmap::ShardId{0, 0}, std::move(obs)));
  EXPECT_EQ(updater.Stats().ingested, 1u);
}

TEST(MapUpdaterTest, ShutdownWithRebuildInFlightCompletesThePublish) {
  const auto map = MakeSyntheticServingMap(8, 6, 6, 59);
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  SlowImputer imputer(/*sleep_ms=*/150.0);
  MapUpdaterOptions opt;
  opt.min_new_observations = 1;
  opt.poll_interval_ms = 1.0;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), opt);

  const rmap::ShardId id{0, 3};
  updater.RegisterShard(id, map);
  updater.Start();
  rmap::Record obs = map.record(5);
  obs.id = rmap::Record::kUnassignedId;
  updater.Ingest(id, std::move(obs));
  // Wait until the background rebuild is genuinely in flight (the delta
  // was drained but the publish has not landed yet), then shut down.
  ASSERT_TRUE(WaitFor([&] {
    const MapUpdaterStats s = updater.Stats();
    return s.rebuilds_started >= 2 || s.rebuilds_completed >= 2;
  }));
  updater.Stop();  // must block until the in-flight rebuild publishes
  const MapUpdaterStats stats = updater.Stats();
  EXPECT_EQ(stats.rebuilds_started, stats.rebuilds_completed);
  EXPECT_GE(stats.rebuilds_completed, 2u);
  EXPECT_GE(store.Current(id)->version, 2u);
}

TEST(UpdateScenarioTest, FreshSurveyRepairsTheDriftedShard) {
  cluster::MarOnlyDifferentiator differentiator;
  imputers::MiceImputer imputer;
  eval::UpdateScenarioOptions opt;
  const eval::UpdateScenarioResult result = eval::RunAccuracyUnderUpdate(
      differentiator, imputer, WknnFactory(), opt);
  EXPECT_EQ(result.snapshot_versions, 2u);
  EXPECT_EQ(result.ingested, opt.nx * opt.ny);
  EXPECT_GT(result.stale_ape, 0.0);
  // The acceptance bar: the rebuilt snapshot must beat the stale one on
  // queries from the current radio environment.
  EXPECT_LT(result.updated_ape, result.stale_ape);
}

TEST(EndToEndTest, ConcurrentMixedShardQueriesDuringLiveUpdates) {
  VenueOptions vopt;
  vopt.num_buildings = 2;
  vopt.floors_per_building = 2;
  vopt.nx = 10;
  vopt.ny = 8;
  vopt.aps_per_floor = 8;
  const auto shards = MakeSyntheticVenue(vopt);

  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;
  MapUpdaterOptions uopt;
  uopt.min_new_observations = 8;
  uopt.poll_interval_ms = 1.0;
  MapUpdater updater(&store, &differentiator, &imputer, WknnFactory(), uopt);
  for (const VenueShard& shard : shards) {
    updater.RegisterShard(shard.id, shard.map);
  }
  updater.Start();

  const VenueQuerySet set = MakeVenueQueries(shards, 64, 0.25, 61);
  ShardRouter router(&store);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          for (size_t i = 0; i < set.queries.rows(); ++i) {
            const ShardRouter::AutoResult routed =
                router.LocalizeAuto(MatrixRow(set.queries, i));
            // Never a wrong floor, never a torn answer, during hot-swaps.
            if (routed.route.shard != set.shard[i] ||
                !std::isfinite(routed.position.x) ||
                !std::isfinite(routed.position.y)) {
              failed.store(true);
              return;
            }
          }
          answered.fetch_add(set.queries.rows(), std::memory_order_relaxed);
        } catch (const std::exception&) {
          failed.store(true);  // no query may be rejected mid-update
          return;
        }
      }
    });
  }

  // Feed fresh observations into one shard of each building; every 8
  // trips a rebuild + hot-swap while the clients hammer all shards.
  Rng rng(67);
  const size_t base_completed = updater.Stats().rebuilds_completed;
  for (size_t round = 0; round < 3; ++round) {
    for (const rmap::ShardId id :
         {rmap::ShardId{0, 0}, rmap::ShardId{1, 1}}) {
      const rmap::RadioMap& truth =
          shards[size_t(id.building) * 2 + size_t(id.floor)].map;
      for (size_t i = 0; i < 8; ++i) {
        rmap::Record obs = truth.record(rng.Index(truth.size()));
        obs.id = rmap::Record::kUnassignedId;
        obs.time += double((round + 1) * truth.size());
        if (rng.Bernoulli(0.3)) obs.has_rp = false;
        updater.Ingest(id, std::move(obs));
      }
    }
    ASSERT_TRUE(WaitFor([&] {
      return updater.Stats().rebuilds_completed >=
             base_completed + 2 * (round + 1);
    }));
  }
  // Let the clients observe the final generation too.
  ASSERT_TRUE(WaitFor([&] { return answered.load() >= 10 * 64 || failed.load(); }));
  stop.store(true);
  for (auto& t : clients) t.join();
  updater.Stop();

  EXPECT_FALSE(failed.load())
      << "a query blocked, tore, was rejected, or routed to a wrong floor";
  EXPECT_GE(store.Current(rmap::ShardId{0, 0})->version, 4u);
  EXPECT_GE(store.Current(rmap::ShardId{1, 1})->version, 4u);
  EXPECT_EQ(store.Current(rmap::ShardId{0, 1})->version, 1u);
}

}  // namespace
}  // namespace rmi::serving
