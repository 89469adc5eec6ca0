#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/missing.h"
#include "imputers/autocorrelation.h"
#include "imputers/imputer.h"
#include "imputers/neural.h"
#include "imputers/traditional.h"

namespace rmi::imputers {
namespace {

/// Small two-path synthetic map: a smooth RSSI ramp per path, periodic RPs,
/// scattered MARs, and one all-MNAR AP column.
rmap::RadioMap ToyMap() {
  rmap::RadioMap map(4);
  for (size_t p = 0; p < 2; ++p) {
    for (int t = 0; t < 12; ++t) {
      rmap::Record r;
      const double base = -40.0 - 2.0 * t;
      r.rssi = {base, base - 10, base - 20, kNull};  // AP3 never observed
      if (t % 4 == 1) r.rssi[0] = kNull;             // MARs on AP0
      if (t % 5 == 2) r.rssi[1] = kNull;             // MARs on AP1
      r.has_rp = (t % 3 == 0);
      r.rp = {static_cast<double>(t), static_cast<double>(p) * 5.0};
      r.time = 2.0 * t;
      r.path_id = p;
      map.Add(r);
    }
  }
  return map;
}

/// Mask: AP3 = MNAR everywhere missing; other missing = MAR.
rmap::MaskMatrix ToyMask(const rmap::RadioMap& map) {
  rmap::MaskMatrix mask(map.size(), map.num_aps());
  for (size_t i = 0; i < map.size(); ++i) {
    for (size_t j = 0; j < map.num_aps(); ++j) {
      if (!IsNull(map.record(i).rssi[j])) continue;
      mask.set(i, j, j == 3 ? rmap::MaskValue::kMnar : rmap::MaskValue::kMar);
    }
  }
  return mask;
}

TEST(FillMnarTest, FillsAndAmends) {
  auto map = ToyMap();
  auto mask = ToyMask(map);
  const size_t mnars_before = mask.CountOf(rmap::MaskValue::kMnar);
  EXPECT_EQ(mnars_before, map.size());  // one MNAR column
  const size_t filled = FillMnar(&map, &mask);
  EXPECT_EQ(filled, mnars_before);
  EXPECT_EQ(mask.CountOf(rmap::MaskValue::kMnar), 0u);
  for (size_t i = 0; i < map.size(); ++i) {
    EXPECT_DOUBLE_EQ(map.record(i).rssi[3], kMnarFillDbm);
  }
  // MARs untouched.
  EXPECT_GT(mask.CountOf(rmap::MaskValue::kMar), 0u);
}

/// Contract shared by every imputer: complete output, observed preserved.
void CheckContract(const Imputer& imputer, bool may_delete = false) {
  auto map = ToyMap();
  auto mask = ToyMask(map);
  FillMnar(&map, &mask);
  Rng rng(1);
  const auto out = imputer.Impute(map, mask, rng);
  if (may_delete) {
    EXPECT_LE(out.size(), map.size());
    EXPECT_GT(out.size(), 0u);
  } else {
    EXPECT_EQ(out.size(), map.size());
  }
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out.record(i).has_rp) << imputer.name();
    for (double v : out.record(i).rssi) {
      EXPECT_FALSE(IsNull(v)) << imputer.name();
      EXPECT_GE(v, -100.0) << imputer.name();
      EXPECT_LE(v, 0.0) << imputer.name();
    }
  }
  // Observed values preserved (record 0, AP2 = -60 in path 0).
  for (size_t i = 0; i < out.size(); ++i) {
    const auto& orig = map.record(0);
    if (out.record(i).id == orig.id) {
      EXPECT_DOUBLE_EQ(out.record(i).rssi[2], orig.rssi[2]) << imputer.name();
    }
  }
}

TEST(ContractTest, CaseDeletion) { CheckContract(CaseDeletionImputer(), true); }
TEST(ContractTest, LinearInterpolation) {
  CheckContract(LinearInterpolationImputer());
}
TEST(ContractTest, SemiSupervised) { CheckContract(SemiSupervisedImputer()); }
TEST(ContractTest, Mice) { CheckContract(MiceImputer()); }
TEST(ContractTest, MatrixFactorization) {
  MatrixFactorizationImputer::Params p;
  p.max_epochs = 30;
  CheckContract(MatrixFactorizationImputer(p));
}
TEST(ContractTest, Brits) {
  NeuralParams p;
  p.epochs = 3;
  p.hidden = 8;
  CheckContract(BritsImputer(p));
}
TEST(ContractTest, Ssgan) {
  SsganImputer::Params p;
  p.epochs = 3;
  p.hidden = 8;
  CheckContract(SsganImputer(p));
}

TEST(CaseDeletionTest, DropsExactlyNullRpRecords) {
  auto map = ToyMap();
  auto mask = ToyMask(map);
  FillMnar(&map, &mask);
  size_t with_rp = 0;
  for (size_t i = 0; i < map.size(); ++i) with_rp += map.record(i).has_rp;
  Rng rng(2);
  const auto out = CaseDeletionImputer().Impute(map, mask, rng);
  EXPECT_EQ(out.size(), with_rp);
}

TEST(CaseDeletionTest, FillsMissingWithFloor) {
  auto map = ToyMap();
  auto mask = ToyMask(map);
  FillMnar(&map, &mask);
  Rng rng(3);
  const auto out = CaseDeletionImputer().Impute(map, mask, rng);
  // Record 0 path 0: t=0, AP0 observed; find a record whose AP0 was MAR.
  bool saw_floor = false;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out.record(i).rssi[0] == kMnarFillDbm) saw_floor = true;
  }
  EXPECT_TRUE(saw_floor);
}

TEST(LinearInterpolationTest, InterpolatesAlongPathTime) {
  rmap::RadioMap map(1);
  auto add = [&](bool has_rp, double x, double t) {
    rmap::Record r;
    r.rssi = {-50.0};
    r.has_rp = has_rp;
    if (has_rp) r.rp = {x, 0.0};
    r.time = t;
    map.Add(r);
  };
  add(true, 0.0, 0.0);
  add(false, 0, 5.0);
  add(true, 10.0, 10.0);
  Rng rng(4);
  const auto out = LinearInterpolationImputer().Impute(map, {}, rng);
  EXPECT_DOUBLE_EQ(out.record(1).rp.x, 5.0);
}

TEST(SemiSupervisedTest, NearbyFingerprintsGetNearbyRps) {
  // Unlabeled record has a fingerprint identical to a labeled one: SL must
  // place it at (almost) the same RP.
  rmap::RadioMap map(2);
  auto add = [&](std::vector<double> rssi, bool has_rp, double x, double t) {
    rmap::Record r;
    r.rssi = std::move(rssi);
    r.has_rp = has_rp;
    if (has_rp) r.rp = {x, 0.0};
    r.time = t;
    map.Add(r);
  };
  add({-40, -80}, true, 1.0, 0);
  add({-41, -79}, true, 1.2, 1);
  add({-80, -40}, true, 9.0, 2);
  add({-81, -41}, true, 9.2, 3);
  add({-40.5, -79.5}, false, 0, 4);  // clone of the first group
  Rng rng(5);
  const auto out = SemiSupervisedImputer(/*k=*/2, /*rounds=*/2)
                       .Impute(map, {}, rng);
  EXPECT_NEAR(out.record(4).rp.x, 1.1, 0.5);
}

TEST(MiceTest, RecoversCorrelatedColumn) {
  // AP1 = AP0 - 10 exactly; MICE must recover removed AP1 cells closely.
  rmap::RadioMap map(2);
  Rng gen(6);
  for (int i = 0; i < 40; ++i) {
    rmap::Record r;
    const double v = -40.0 - gen.Uniform(0, 30);
    r.rssi = {v, v - 10};
    r.has_rp = true;
    r.rp = {gen.Uniform(0, 10), 0};
    r.time = i;
    map.Add(r);
  }
  // Remove some AP1 values.
  std::vector<std::pair<size_t, double>> truth;
  for (size_t i = 0; i < map.size(); i += 4) {
    truth.emplace_back(i, map.record(i).rssi[1]);
    map.record(i).rssi[1] = kNull;
  }
  rmap::MaskMatrix mask(map.size(), 2);
  for (auto& [i, v] : truth) mask.set(i, 1, rmap::MaskValue::kMar);
  Rng rng(7);
  const auto out = MiceImputer().Impute(map, mask, rng);
  for (auto& [i, v] : truth) {
    EXPECT_NEAR(out.record(i).rssi[1], v, 3.0);
  }
}

TEST(MatrixFactorizationTest, RecoversLowRankStructure) {
  // Rank-1 matrix with 30% of cells removed: MF should reconstruct well.
  rmap::RadioMap map(6);
  Rng gen(8);
  std::vector<double> col = {1.0, 0.8, 0.6, 0.9, 0.7, 0.5};
  std::vector<std::tuple<size_t, size_t, double>> truth;
  for (int i = 0; i < 50; ++i) {
    rmap::Record r;
    const double row = 0.5 + gen.Uniform(0, 0.5);
    r.rssi.resize(6);
    for (size_t j = 0; j < 6; ++j) r.rssi[j] = -80.0 + 40.0 * row * col[j];
    r.has_rp = true;
    r.rp = {gen.Uniform(0, 10), 0};
    r.time = i;
    map.Add(r);
  }
  Rng rm(9);
  auto removed = rmap::RemoveRandomRssis(&map, 0.3, rm);
  rmap::MaskMatrix mask(map.size(), 6);
  for (const auto& cell : removed) {
    mask.set(cell.record, cell.ap, rmap::MaskValue::kMar);
  }
  MatrixFactorizationImputer::Params p;
  p.max_epochs = 200;
  Rng rng(10);
  const auto out = MatrixFactorizationImputer(p).Impute(map, mask, rng);
  double mae = 0;
  for (const auto& cell : removed) {
    mae += std::fabs(out.record(cell.record).rssi[cell.ap] - cell.value);
  }
  mae /= static_cast<double>(removed.size());
  EXPECT_LT(mae, 4.0);
}

TEST(BritsTest, ImputesSmoothSeriesBetterThanFloorFill) {
  // RSSI ramps smoothly along the path; BRITS' imputations of removed cells
  // must beat the naive -100 fill by a wide margin.
  rmap::RadioMap map(2);
  for (size_t p = 0; p < 4; ++p) {
    for (int t = 0; t < 10; ++t) {
      rmap::Record r;
      const double v = -45.0 - 1.5 * t;
      r.rssi = {v, v - 8};
      r.has_rp = true;
      r.rp = {double(t), double(p)};
      r.time = 2.0 * t;
      r.path_id = p;
      map.Add(r);
    }
  }
  Rng rm(11);
  auto removed = rmap::RemoveRandomRssis(&map, 0.2, rm);
  rmap::MaskMatrix mask(map.size(), 2);
  for (const auto& cell : removed) {
    mask.set(cell.record, cell.ap, rmap::MaskValue::kMar);
  }
  NeuralParams np;
  np.epochs = 60;
  np.hidden = 12;
  np.batch_size = 4;
  Rng rng(12);
  const auto out = BritsImputer(np).Impute(map, mask, rng);
  double mae = 0, floor_mae = 0;
  for (const auto& cell : removed) {
    mae += std::fabs(out.record(cell.record).rssi[cell.ap] - cell.value);
    floor_mae += std::fabs(-100.0 - cell.value);
  }
  EXPECT_LT(mae, 0.5 * floor_mae);
}

TEST(SsganTest, TrainsWithoutDivergence) {
  auto map = ToyMap();
  auto mask = ToyMask(map);
  FillMnar(&map, &mask);
  SsganImputer::Params p;
  p.epochs = 5;
  p.hidden = 8;
  Rng rng(13);
  const auto out = SsganImputer(p).Impute(map, mask, rng);
  for (size_t i = 0; i < out.size(); ++i) {
    for (double v : out.record(i).rssi) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(NamesTest, AllImputersReportPaperNames) {
  EXPECT_EQ(CaseDeletionImputer().name(), "CD");
  EXPECT_EQ(LinearInterpolationImputer().name(), "LI");
  EXPECT_EQ(SemiSupervisedImputer().name(), "SL");
  EXPECT_EQ(MiceImputer().name(), "MICE");
  EXPECT_EQ(MatrixFactorizationImputer().name(), "MF");
  EXPECT_EQ(BritsImputer().name(), "BRITS");
  EXPECT_EQ(SsganImputer().name(), "SSGAN");
}

}  // namespace
}  // namespace rmi::imputers
