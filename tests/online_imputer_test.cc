#include <gtest/gtest.h>

#include <cmath>

#include "bisim/bisim.h"
#include "common/missing.h"

namespace rmi::bisim {
namespace {

/// Small smooth training map: two APs with complementary linear ramps.
rmap::RadioMap TrainingMap() {
  rmap::RadioMap map(2);
  for (size_t p = 0; p < 6; ++p) {
    for (int t = 0; t < 10; ++t) {
      rmap::Record r;
      r.rssi = {-40.0 - 2.0 * t, -60.0 + 1.5 * t};
      if (t % 4 == 2) r.rssi[1] = kNull;  // some MARs
      r.has_rp = (t % 2 == 0);
      r.rp = {static_cast<double>(t), static_cast<double>(p)};
      r.time = 2.0 * t;
      r.path_id = p;
      map.Add(r);
    }
  }
  return map;
}

rmap::MaskMatrix MaskOf(const rmap::RadioMap& map) {
  rmap::MaskMatrix mask(map.size(), map.num_aps());
  for (size_t i = 0; i < map.size(); ++i) {
    for (size_t j = 0; j < map.num_aps(); ++j) {
      if (IsNull(map.record(i).rssi[j])) {
        mask.set(i, j, rmap::MaskValue::kMar);
      }
    }
  }
  return mask;
}

BiSimConfig SmallConfig() {
  BiSimConfig cfg;
  cfg.hidden = 10;
  cfg.attention_hidden = 10;
  cfg.epochs = 25;
  cfg.loc_scale = 0.1;
  return cfg;
}

TEST(OnlineBiSimImputerTest, CompletesOnlineFingerprint) {
  const auto map = TrainingMap();
  OnlineBiSimImputer imputer(SmallConfig());
  EXPECT_FALSE(imputer.fitted());
  Rng rng(1);
  imputer.Fit(map, MaskOf(map), rng);
  ASSERT_TRUE(imputer.fitted());

  OnlineBiSimImputer::TimedScan scan;
  scan.rssi = {-50.0, kNull};
  scan.time = 0.0;
  const auto completed = imputer.ImputeFingerprint(scan);
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_DOUBLE_EQ(completed[0], -50.0);  // observed preserved
  EXPECT_FALSE(IsNull(completed[1]));
  EXPECT_GE(completed[1], -100.0);
  EXPECT_LE(completed[1], 0.0);
}

TEST(OnlineBiSimImputerTest, ImputationIsInformedByTraining) {
  // AP1 = -60 + 1.5 t where AP0 = -40 - 2 t: given AP0 = -50 (t = 5),
  // AP1 should be near -52.5, far from the -100 floor.
  const auto map = TrainingMap();
  OnlineBiSimImputer imputer(SmallConfig());
  Rng rng(2);
  imputer.Fit(map, MaskOf(map), rng);
  OnlineBiSimImputer::TimedScan scan;
  scan.rssi = {-50.0, kNull};
  const auto completed = imputer.ImputeFingerprint(scan);
  EXPECT_GT(completed[1], -75.0);
  EXPECT_LT(completed[1], -35.0);
}

TEST(OnlineBiSimImputerTest, RecentScansProvideContext) {
  const auto map = TrainingMap();
  OnlineBiSimImputer imputer(SmallConfig());
  Rng rng(3);
  imputer.Fit(map, MaskOf(map), rng);
  OnlineBiSimImputer::TimedScan online;
  online.rssi = {kNull, kNull};  // device heard nothing this instant
  online.time = 6.0;
  std::vector<OnlineBiSimImputer::TimedScan> recent = {
      {{-44.0, -57.0}, 2.0},
      {{-48.0, -54.0}, 4.0},
  };
  const auto with_ctx = imputer.ImputeFingerprint(online, recent);
  ASSERT_EQ(with_ctx.size(), 2u);
  for (double v : with_ctx) {
    EXPECT_FALSE(IsNull(v));
  }
  // With strong recent context near -46, the imputed AP0 should sit in a
  // plausible band rather than at the floor.
  EXPECT_GT(with_ctx[0], -90.0);
}

TEST(OnlineBiSimImputerTest, FullyObservedScanUnchanged) {
  const auto map = TrainingMap();
  OnlineBiSimImputer imputer(SmallConfig());
  Rng rng(4);
  imputer.Fit(map, MaskOf(map), rng);
  OnlineBiSimImputer::TimedScan scan;
  scan.rssi = {-42.0, -58.0};
  const auto completed = imputer.ImputeFingerprint(scan);
  EXPECT_DOUBLE_EQ(completed[0], -42.0);
  EXPECT_DOUBLE_EQ(completed[1], -58.0);
}

}  // namespace
}  // namespace rmi::bisim
