// Property tests for the workload substrate: walker traces are
// bit-reproducible pure functions of their seed and never leave the venue
// geometry; Poisson arrival counts land inside their distributional
// confidence bounds; the diurnal curve's closed-form integral matches
// numeric integration and normalizes the schedule to the requested total;
// fingerprint synthesis is deterministic and respects per-floor
// audibility, including Bluetooth-only floors and dimension-changing AP
// churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/missing.h"
#include "common/rng.h"
#include "workload/arrivals.h"
#include "workload/trace.h"

namespace rmi::workload {
namespace {

SoakVenueOptions TinyVenueOptions() {
  SoakVenueOptions opt;
  opt.num_buildings = 2;
  opt.floors_per_building = 3;
  opt.bluetooth_floors = 1;
  return opt;
}

TEST(WalkerPropertyTest, TracesAreBitReproduciblePerSeed) {
  const SoakVenue venue = MakeSoakVenue(TinyVenueOptions());
  WalkerOptions wopt;
  wopt.num_walkers = 64;
  const auto a = GenerateWalkers(venue, wopt);
  const auto b = GenerateWalkers(venue, wopt);
  ASSERT_EQ(a.size(), b.size());
  for (size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w].device_bias_db, b[w].device_bias_db);  // exact bits
    EXPECT_EQ(a[w].start_s, b[w].start_s);
    EXPECT_EQ(a[w].end_s, b[w].end_s);
    ASSERT_EQ(a[w].keys.size(), b[w].keys.size());
    for (size_t k = 0; k < a[w].keys.size(); ++k) {
      EXPECT_EQ(a[w].keys[k].t, b[w].keys[k].t);
      EXPECT_EQ(a[w].keys[k].shard, b[w].keys[k].shard);
      EXPECT_EQ(a[w].keys[k].pos.x, b[w].keys[k].pos.x);
      EXPECT_EQ(a[w].keys[k].pos.y, b[w].keys[k].pos.y);
    }
  }

  WalkerOptions other = wopt;
  other.seed = wopt.seed + 1;
  const auto c = GenerateWalkers(venue, other);
  bool any_differ = false;
  for (size_t w = 0; w < a.size() && !any_differ; ++w) {
    any_differ = a[w].keys.size() != c[w].keys.size() ||
                 a[w].device_bias_db != c[w].device_bias_db;
  }
  EXPECT_TRUE(any_differ);
}

TEST(WalkerPropertyTest, TrajectoriesStayInsideVenueGeometry) {
  const SoakVenueOptions vopt = TinyVenueOptions();
  const SoakVenue venue = MakeSoakVenue(vopt);
  WalkerOptions wopt;
  wopt.num_walkers = 128;
  for (const WalkerTrace& walker : GenerateWalkers(venue, wopt)) {
    ASSERT_FALSE(walker.keys.empty());
    EXPECT_LE(walker.start_s, walker.end_s);
    double prev_t = walker.keys.front().t;
    for (size_t k = 0; k < walker.keys.size(); ++k) {
      const TraceKey& key = walker.keys[k];
      EXPECT_GE(key.t, prev_t);  // time-ascending
      prev_t = key.t;
      EXPECT_GE(key.pos.x, 0.0);
      EXPECT_LE(key.pos.x, double(vopt.nx - 1));
      EXPECT_GE(key.pos.y, 0.0);
      EXPECT_LE(key.pos.y, double(vopt.ny - 1));
      EXPECT_LT(venue.ShardIndex(key.shard), venue.num_shards());
      if (k > 0) {
        // Floor changes stay within the building and move one floor at a
        // time through a portal.
        const TraceKey& prev = walker.keys[k - 1];
        if (!(prev.shard == key.shard)) {
          EXPECT_EQ(prev.shard.building, key.shard.building);
          EXPECT_EQ(std::abs(prev.shard.floor - key.shard.floor), 1);
          EXPECT_EQ(prev.pos.x, key.pos.x);  // transition holds the portal
          EXPECT_EQ(prev.pos.y, key.pos.y);
        }
      }
    }
    // FloorTransitions is exactly the adjacent-key shard-change count.
    size_t transitions = 0;
    for (size_t k = 1; k < walker.keys.size(); ++k) {
      if (!(walker.keys[k - 1].shard == walker.keys[k].shard)) ++transitions;
    }
    EXPECT_EQ(walker.FloorTransitions(), transitions);
  }
}

TEST(WalkerPropertyTest, AtInterpolatesInsideTheKeyframeEnvelope) {
  const SoakVenueOptions vopt = TinyVenueOptions();
  const SoakVenue venue = MakeSoakVenue(vopt);
  WalkerOptions wopt;
  wopt.num_walkers = 16;
  for (const WalkerTrace& walker : GenerateWalkers(venue, wopt)) {
    // Clamping at the ends.
    EXPECT_EQ(walker.At(walker.start_s - 10.0).shard,
              walker.keys.front().shard);
    EXPECT_EQ(walker.At(walker.end_s + 10.0).shard, walker.keys.back().shard);
    // Dense samples stay inside the floor rectangle and on a real shard.
    const double span = walker.end_s - walker.start_s;
    for (int i = 0; i <= 50; ++i) {
      const TraceKey key = walker.At(walker.start_s + span * i / 50.0);
      EXPECT_GE(key.pos.x, 0.0);
      EXPECT_LE(key.pos.x, double(vopt.nx - 1));
      EXPECT_GE(key.pos.y, 0.0);
      EXPECT_LE(key.pos.y, double(vopt.ny - 1));
      EXPECT_LT(venue.ShardIndex(key.shard), venue.num_shards());
    }
  }
}

TEST(ArrivalPropertyTest, ScheduleIsReproducibleAndOrdered) {
  ArrivalScheduleOptions opt;
  opt.expected_total = 5000.0;
  const auto a = PoissonArrivals(opt);
  const auto b = PoissonArrivals(opt);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), opt.duration_s);

  ArrivalScheduleOptions other = opt;
  other.seed = opt.seed + 1;
  EXPECT_NE(PoissonArrivals(other), a);
}

TEST(ArrivalPropertyTest, RealizedCountWithinConfidenceBounds) {
  // The total is Poisson(expected_total); 5 sigma two-sided bounds give a
  // per-run false-failure probability under 1e-6.
  ArrivalScheduleOptions opt;
  opt.expected_total = 20000.0;
  const auto arrivals = PoissonArrivals(opt);
  const double sigma = std::sqrt(opt.expected_total);
  EXPECT_NEAR(double(arrivals.size()), opt.expected_total, 5.0 * sigma);
}

TEST(ArrivalPropertyTest, DiurnalIntegralMatchesNumericIntegration) {
  DiurnalCurve curve;
  curve.period_s = 137.0;
  curve.amplitude = 0.45;
  curve.phase_rad = 0.8;
  const double t0 = 3.0, t1 = 401.0;
  double riemann = 0.0;
  const size_t steps = 200000;
  const double h = (t1 - t0) / steps;
  for (size_t i = 0; i < steps; ++i) {
    riemann += curve.Level(t0 + (i + 0.5) * h) * h;
  }
  EXPECT_NEAR(curve.Integral(t0, t1), riemann, 1e-6 * riemann);
  // Over a whole period the modulation integrates out exactly.
  EXPECT_NEAR(curve.Integral(0.0, curve.period_s), curve.period_s, 1e-9);
}

TEST(ArrivalPropertyTest, ArrivalsFollowTheDiurnalShape) {
  // Quarter-by-quarter counts track the curve's own closed-form integral:
  // each quarter's count is Binomial(n, p_quarter), held to 5 sigma.
  ArrivalScheduleOptions opt;
  opt.expected_total = 40000.0;
  const auto arrivals = PoissonArrivals(opt);
  const double norm = opt.curve.Integral(0.0, opt.duration_s);
  for (int q = 0; q < 4; ++q) {
    const double lo = opt.duration_s * q / 4.0;
    const double hi = opt.duration_s * (q + 1) / 4.0;
    const double p = opt.curve.Integral(lo, hi) / norm;
    const double expected = double(arrivals.size()) * p;
    const double sigma = std::sqrt(expected * (1.0 - p));
    const auto count = std::count_if(
        arrivals.begin(), arrivals.end(),
        [&](double t) { return t >= lo && t < hi; });
    EXPECT_NEAR(double(count), expected, 5.0 * sigma)
        << "quarter " << q << " off its binomial bounds";
  }
  // The default phase starts the soak in the quiet hours: the first
  // quarter must be the lightest.
  const auto quarter_count = [&](int q) {
    const double lo = opt.duration_s * q / 4.0;
    const double hi = opt.duration_s * (q + 1) / 4.0;
    return std::count_if(arrivals.begin(), arrivals.end(),
                         [&](double t) { return t >= lo && t < hi; });
  };
  EXPECT_LT(quarter_count(0), quarter_count(1));
  EXPECT_LT(quarter_count(0), quarter_count(2));
}

TEST(FingerprintPropertyTest, SynthesisIsDeterministicAndAudible) {
  const SoakVenue venue = MakeSoakVenue(TinyVenueOptions());
  WalkerOptions wopt;
  wopt.num_walkers = 8;
  const auto walkers = GenerateWalkers(venue, wopt);
  FingerprintOptions fopt;
  for (const WalkerTrace& walker : walkers) {
    const TraceKey truth = walker.At((walker.start_s + walker.end_s) / 2.0);
    Rng rng_a(42), rng_b(42);
    const auto fp_a = SynthesizeFingerprint(venue, truth,
                                            walker.device_bias_db, fopt,
                                            rng_a);
    const auto fp_b = SynthesizeFingerprint(venue, truth,
                                            walker.device_bias_db, fopt,
                                            rng_b);
    ASSERT_EQ(fp_a.size(), fp_b.size());
    for (size_t ap = 0; ap < fp_a.size(); ++ap) {
      // NaN marks an unheard AP; NaN != NaN, so compare null-ness first.
      EXPECT_EQ(IsNull(fp_a[ap]), IsNull(fp_b[ap]));
      if (!IsNull(fp_a[ap])) {
        EXPECT_EQ(fp_a[ap], fp_b[ap]);
      }
    }
    ASSERT_EQ(fp_a.size(), venue.num_aps());
    const auto& audible =
        venue.shards[venue.ShardIndex(truth.shard)].audible_aps;
    size_t observed = 0;
    for (size_t ap = 0; ap < fp_a.size(); ++ap) {
      if (IsNull(fp_a[ap])) continue;
      ++observed;
      // Only APs audible on the true floor may appear in a scan.
      EXPECT_TRUE(std::find(audible.begin(), audible.end(), ap) !=
                  audible.end());
      EXPECT_LE(fp_a[ap], 0.0);
      EXPECT_GE(fp_a[ap], -99.0);
    }
    EXPECT_GE(observed, 1u);  // a scan is never all-null
  }
}

TEST(FingerprintPropertyTest, BluetoothFloorScansAreSparse) {
  const SoakVenueOptions vopt = TinyVenueOptions();
  const SoakVenue venue = MakeSoakVenue(vopt);
  // The last shard is the Bluetooth-only floor.
  const size_t bt = venue.num_shards() - 1;
  ASSERT_TRUE(venue.bluetooth[bt]);
  TraceKey truth;
  truth.shard = venue.shards[bt].id;
  truth.pos = {double(vopt.nx) / 2.0, double(vopt.ny) / 2.0};
  Rng rng(7);
  FingerprintOptions fopt;
  fopt.drop_rate = 0.0;  // count the full audible set
  const auto fp = SynthesizeFingerprint(venue, truth, 0.0, fopt, rng);
  size_t observed = 0;
  for (double v : fp) observed += IsNull(v) ? 0 : 1;
  EXPECT_GE(observed, 1u);
  EXPECT_LE(observed, vopt.beacons_per_bluetooth_floor);
}

TEST(ChurnPropertyTest, ApAddAndRemoveRoundTripTheDimension) {
  const SoakVenue venue = MakeSoakVenue(TinyVenueOptions());
  const size_t d = venue.num_aps();
  const SoakVenue widened = AddGlobalAps(venue, 3, 17);
  EXPECT_EQ(widened.num_aps(), d + 3);
  for (const serving::VenueShard& shard : widened.shards) {
    EXPECT_EQ(shard.map.num_aps(), d + 3);
    for (size_t r = 0; r < shard.map.size(); ++r) {
      EXPECT_EQ(shard.map.record(r).rssi.size(), d + 3);
    }
  }
  const SoakVenue narrowed = RemoveLastGlobalAps(widened, 3);
  EXPECT_EQ(narrowed.num_aps(), d);
  for (size_t s = 0; s < venue.num_shards(); ++s) {
    EXPECT_EQ(narrowed.shards[s].map.num_aps(), d);
    EXPECT_EQ(narrowed.shards[s].audible_aps, venue.shards[s].audible_aps);
  }
}

TEST(ChurnPropertyTest, ResurveyObservationsMatchShardShape) {
  const SoakVenue venue = MakeSoakVenue(TinyVenueOptions());
  const auto observations =
      MakeResurveyObservations(venue, 2, 40, 1.5, 100.0, 9);
  ASSERT_EQ(observations.size(), 40u);
  for (const rmap::Record& record : observations) {
    EXPECT_EQ(record.rssi.size(), venue.num_aps());
    EXPECT_GE(record.time, 100.0);
  }
  // Deterministic per seed.
  EXPECT_EQ(MakeResurveyObservations(venue, 2, 40, 1.5, 100.0, 9).size(),
            observations.size());
}

}  // namespace
}  // namespace rmi::workload
