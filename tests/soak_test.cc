// Soak-scenario coverage: a miniature end-to-end soak through RunSoak,
// hysteretic session routing on floor-boundary fingerprints (no classify
// flapping), handover along a real walker crossing, dimension-changing
// republish with queries in flight (clean rejects, never torn state — this
// suite runs under the CI TSan job), and a Bluetooth-only shard serving
// sparse scans. The full-scale soak case is excluded from tier-1 by the
// "soak" ctest label and gated on RMI_SOAK_TESTS=1 (the CI soak job sets
// it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "clustering/differentiation.h"
#include "common/missing.h"
#include "common/rng.h"
#include "imputers/traditional.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/shard_router.h"
#include "workload/session.h"
#include "workload/soak.h"
#include "workload/trace.h"

namespace rmi::workload {
namespace {

serving::EstimatorFactory WknnFactory() {
  return [] { return std::make_unique<positioning::KnnEstimator>(5, true); };
}

/// A registered-and-serving stack over `venue`: every shard published.
struct Stack {
  serving::ShardedSnapshotStore store;
  serving::ShardRouter router{&store};
  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;
  serving::MapUpdater updater{&store, &differentiator, &imputer,
                              WknnFactory()};

  explicit Stack(const SoakVenue& venue) {
    for (const serving::VenueShard& shard : venue.shards) {
      updater.RegisterShard(shard.id, shard.map);
    }
  }
};

SoakVenueOptions TinyVenueOptions() {
  SoakVenueOptions opt;
  opt.num_buildings = 2;
  opt.floors_per_building = 2;
  opt.bluetooth_floors = 1;
  return opt;
}

TEST(SoakTest, TinySoakEndToEndWithChurn) {
  SoakOptions opt;
  opt.venue = TinyVenueOptions();
  opt.walkers.num_walkers = 32;
  opt.walkers.duration_s = 20.0;
  opt.arrivals.duration_s = 20.0;
  opt.arrivals.expected_total = 3000.0;
  opt.time_scale = 20.0;  // ~1 s of wall pacing
  opt.client_threads = 2;
  opt.churn.resurvey_shards = 2;

  const SoakReport report = RunSoak(opt);
  EXPECT_EQ(report.sent, report.scheduled);
  EXPECT_GT(report.ok, report.sent * 9 / 10);
  EXPECT_EQ(report.rebuild_failures, 0u);
  EXPECT_EQ(report.dimension_changes, 2u);
  EXPECT_GT(report.rebuilds_completed, 0u);
  EXPECT_GT(report.publishes, 0u);
  EXPECT_GT(report.achieved_qps, 0.0);
  EXPECT_GT(report.p99_ms, 0.0);
  EXPECT_GE(report.p999_ms, report.p99_ms);
  EXPECT_GE(report.p99_ms, report.p50_ms);
  EXPECT_LT(report.handover_error_rate, 0.2);
  EXPECT_GT(report.staleness_p95_ms, 0.0);  // resurvey churn was rebuilt
  EXPECT_EQ(report.num_shards, 4u);
}

TEST(SessionRouterTest, BoundaryFingerprintsDoNotFlap) {
  // Two floors of one building; the scan alternates between a floor-0 and
  // a slightly-different floor-1-looking mix whose overlap advantage never
  // reaches the hysteresis margin. A stateless classifier would flap; the
  // session must hold its shard with zero switches.
  SoakVenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 2;
  vopt.bluetooth_floors = 0;
  const SoakVenue venue = MakeSoakVenue(vopt);
  Stack stack(venue);

  SessionRoutingOptions sopt;
  sopt.overlap_margin = 2;
  sopt.confirm_count = 2;
  SessionRouter session(&stack.store, &stack.router, sopt);

  // Adopt floor 0 from a clean center-of-floor scan.
  TraceKey truth;
  truth.shard = venue.shards[0].id;
  truth.pos = {5.0, 4.0};
  Rng rng(3);
  FingerprintOptions fopt;
  fopt.drop_rate = 0.0;
  const auto home = SynthesizeFingerprint(venue, truth, 0.0, fopt, rng);
  auto hint = session.Route(home);
  ASSERT_TRUE(hint.has_value());
  ASSERT_EQ(*hint, venue.shards[0].id);

  // Boundary scans: floor 0's scan plus one or two floor-1 APs (the
  // stairwell bleed) — the challenger's advantage stays under the margin.
  const auto profile0 = stack.store.Profile(venue.shards[0].id);
  const auto profile1 = stack.store.Profile(venue.shards[1].id);
  ASSERT_NE(profile0, nullptr);
  ASSERT_NE(profile1, nullptr);
  for (int i = 0; i < 50; ++i) {
    auto boundary = home;
    // Flip one AP exclusive to floor 1 audible, alternating which one, so
    // the raw vote wobbles scan to scan.
    size_t flipped = 0;
    for (size_t ap = 0; ap < boundary.size() && flipped < 1u + (i % 2);
         ++ap) {
      if (profile1->observable[ap] && !profile0->observable[ap] &&
          IsNull(boundary[ap])) {
        boundary[ap] = -60.0;
        ++flipped;
      }
    }
    hint = session.Route(boundary);
    ASSERT_TRUE(hint.has_value());
    EXPECT_EQ(*hint, venue.shards[0].id) << "flapped on scan " << i;
  }
  EXPECT_EQ(session.switches(), 0u);

  // A genuine floor change clears the margin and completes after
  // confirm_count decisive scans.
  TraceKey upstairs;
  upstairs.shard = venue.shards[1].id;
  upstairs.pos = {5.0, 4.0};
  for (int i = 0; i < 3; ++i) {
    const auto scan = SynthesizeFingerprint(venue, upstairs, 0.0, fopt, rng);
    hint = session.Route(scan);
    ASSERT_TRUE(hint.has_value());
  }
  EXPECT_EQ(*hint, venue.shards[1].id);
  EXPECT_EQ(session.switches(), 1u);
}

TEST(SessionRouterTest, FollowsAWalkerAcrossFloorsWithoutFlapping) {
  SoakVenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 3;
  vopt.bluetooth_floors = 0;
  const SoakVenue venue = MakeSoakVenue(vopt);
  Stack stack(venue);

  WalkerOptions wopt;
  wopt.num_walkers = 24;
  wopt.floor_change_probability = 0.4;  // make crossings likely
  const auto walkers = GenerateWalkers(venue, wopt);
  const WalkerTrace* crossing = nullptr;
  for (const WalkerTrace& walker : walkers) {
    if (walker.FloorTransitions() > 0) {
      crossing = &walker;
      break;
    }
  }
  ASSERT_NE(crossing, nullptr) << "no walker crossed floors";

  SessionRouter session(&stack.store, &stack.router, {});
  Rng rng(11);
  FingerprintOptions fopt;
  size_t correct = 0, total = 0;
  const double span = crossing->end_s - crossing->start_s;
  for (int i = 0; i <= 400; ++i) {
    const double t = crossing->start_s + span * i / 400.0;
    const TraceKey truth = crossing->At(t);
    const auto scan = SynthesizeFingerprint(venue, truth,
                                            crossing->device_bias_db, fopt,
                                            rng);
    const auto hint = session.Route(scan);
    ASSERT_TRUE(hint.has_value());
    ++total;
    if (*hint == truth.shard) ++correct;
  }
  // The session tracks the walker: right shard almost always (hysteresis
  // lags a couple of scans per crossing), and it never flaps — switches
  // stay in the same ballpark as true transitions.
  EXPECT_GT(double(correct) / double(total), 0.9);
  EXPECT_LE(session.switches(), 2 * crossing->FloorTransitions() + 1);
}

TEST(SoakChurnTest, DimensionChangeRepublishNeverTearsInFlightQueries) {
  // Clients hammer old-width scans while every shard is re-registered at
  // D + 2 and the venue swaps; every query either answers or throws a
  // clean runtime_error (validation reject) — never a crash, never a torn
  // read. This is a designated TSan scenario.
  SoakVenueOptions vopt;
  vopt.num_buildings = 2;
  vopt.floors_per_building = 2;
  vopt.bluetooth_floors = 0;
  const SoakVenue venue = MakeSoakVenue(vopt);
  Stack stack(venue);
  const SoakVenue widened = AddGlobalAps(venue, 2, 23);

  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0}, rejected{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + c);
      WalkerOptions wopt;
      wopt.num_walkers = 4;
      const auto walkers = GenerateWalkers(venue, wopt);
      FingerprintOptions fopt;
      ready.fetch_add(1);
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const WalkerTrace& walker = walkers[i++ % walkers.size()];
        const TraceKey truth =
            walker.At(walker.start_s + double(i % 97) / 97.0 *
                                           (walker.end_s - walker.start_s));
        // Alternate widths: old-width scans race the republish, new-width
        // scans race the not-yet-republished shards.
        const SoakVenue& gen = (i % 2 == 0) ? venue : widened;
        const auto scan = SynthesizeFingerprint(gen, truth,
                                                walker.device_bias_db, fopt,
                                                rng);
        try {
          stack.router.LocalizeAuto(scan);
          answered.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::runtime_error&) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Republish every shard at the widened dimension, then back, while the
  // clients run. The churn starts only once both clients have finished
  // their set-up, so the republish races real queries.
  while (ready.load() < 2) std::this_thread::yield();
  for (int round = 0; round < 2; ++round) {
    const SoakVenue& target = (round == 0) ? widened : venue;
    for (const serving::VenueShard& shard : target.shards) {
      stack.updater.RegisterShard(shard.id, shard.map);
    }
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_GT(answered.load(), 0u);
  // 4 shards x (initial + 2 republish rounds) publishes.
  EXPECT_EQ(stack.store.publish_count(), 12u);
  // Post-churn, the original width serves everywhere again.
  Rng rng(5);
  WalkerOptions wopt;
  wopt.num_walkers = 2;
  const auto walkers = GenerateWalkers(venue, wopt);
  const TraceKey truth = walkers[0].At(walkers[0].start_s);
  const auto scan = SynthesizeFingerprint(venue, truth, 0.0, {}, rng);
  EXPECT_NO_THROW(stack.router.LocalizeAuto(scan));
}

TEST(SoakVenueTest, BluetoothOnlyShardServesItsSparseScans) {
  SoakVenueOptions vopt = TinyVenueOptions();
  const SoakVenue venue = MakeSoakVenue(vopt);
  Stack stack(venue);
  const size_t bt = venue.num_shards() - 1;
  ASSERT_TRUE(venue.bluetooth[bt]);

  Rng rng(13);
  FingerprintOptions fopt;
  fopt.drop_rate = 0.0;
  TraceKey truth;
  truth.shard = venue.shards[bt].id;
  for (int x = 1; x < int(vopt.nx); x += 3) {
    for (int y = 1; y < int(vopt.ny); y += 3) {
      truth.pos = {double(x), double(y)};
      const auto scan = SynthesizeFingerprint(venue, truth, 0.0, fopt, rng);
      const auto result = stack.router.LocalizeAuto(scan);
      EXPECT_EQ(result.route.shard, venue.shards[bt].id);
    }
  }
}

TEST(SoakTest, SoakAtScale) {
  const char* enabled = std::getenv("RMI_SOAK_TESTS");
  if (enabled == nullptr || std::strcmp(enabled, "1") != 0) {
    GTEST_SKIP() << "set RMI_SOAK_TESTS=1 to run the at-scale soak";
  }
  // Scaled-down CI smoke of the full acceptance soak: the real venue
  // scale (50 shards) with a shorter timeline.
  SoakOptions opt;
  opt.walkers.num_walkers = 256;
  opt.walkers.duration_s = 60.0;
  opt.arrivals.duration_s = 60.0;
  opt.arrivals.expected_total = 120000.0;
  opt.time_scale = 6.0;  // ~10 s of wall pacing
  const SoakReport report = RunSoak(opt);
  EXPECT_EQ(report.num_shards, 50u);
  EXPECT_EQ(report.sent, report.scheduled);
  EXPECT_GT(report.ok, report.sent * 9 / 10);
  EXPECT_EQ(report.rebuild_failures, 0u);
  EXPECT_EQ(report.dimension_changes, 2u);
  EXPECT_LT(report.handover_error_rate, 0.1);
}

}  // namespace
}  // namespace rmi::workload
