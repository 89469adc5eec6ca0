#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bisim/bisim.h"
#include "common/missing.h"

namespace rmi::bisim {
namespace {

/// Appends one record to `map`.
void AddRecord(rmap::RadioMap* map, std::vector<double> rssi, bool has_rp,
               geom::Point rp, double time) {
  rmap::Record r;
  r.rssi = std::move(rssi);
  r.has_rp = has_rp;
  r.rp = rp;
  r.time = time;
  map->Add(r);
}

/// Builds the paper's Table III radio map (5 records, 5 APs, one path) with
/// the times of Table III — the golden input for the Table IV time-lag test.
rmap::RadioMap PaperTableIIIMap() {
  rmap::RadioMap map(5);
  const double n = kNull;
  AddRecord(&map, {-70, -83, -76, n, n}, true, {1, 1}, 1);   // t2 = 1
  AddRecord(&map, {-71, n, -78, n, n}, false, {}, 3);        // t3 = 3
  AddRecord(&map, {n, n, -80, -68, n}, true, {5, 5}, 8);     // t4 = 8
  AddRecord(&map, {-74, -77, n, n, -81}, false, {}, 12);     // t6 = 12
  AddRecord(&map, {n, n, n, n, n}, true, {8, 8}, 16);        // t8 = 16
  return map;
}

/// Mask treating every missing cell as MAR (m = 0) so the time-lag vectors
/// match Table IV exactly.
rmap::MaskMatrix AllMarMask(const rmap::RadioMap& map) {
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

BiSimConfig TestConfig() {
  BiSimConfig cfg;
  cfg.hidden = 8;
  cfg.attention_hidden = 8;
  cfg.epochs = 3;
  cfg.loc_scale = 1.0 / 10.0;
  cfg.time_scale = 1.0;  // keep raw seconds so Table IV matches
  return cfg;
}

TEST(BuildSequencesTest, ReproducesPaperTableIV) {
  const auto map = PaperTableIIIMap();
  const auto mask = AllMarMask(map);
  BiSimConfig cfg = TestConfig();
  cfg.seq_len = 5;
  const auto seqs = BuildSequences(map, mask, cfg);
  ASSERT_EQ(seqs.size(), 1u);
  const Sequence& s = seqs[0];
  ASSERT_EQ(s.size(), 5u);

  // Mask vectors m1..m5 (Table IV).
  const double m_expect[5][5] = {{1, 1, 1, 0, 0},
                                 {1, 0, 1, 0, 0},
                                 {0, 0, 1, 1, 0},
                                 {1, 1, 0, 0, 1},
                                 {0, 0, 0, 0, 0}};
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(s[i].m(0, j), m_expect[i][j]) << i << "," << j;
    }
  }

  // Time-lag vectors delta1..delta5 (Table IV), as the encoder reads them
  // in the forward direction.
  const std::vector<la::Matrix> delta =
      TimeLags(s, /*reversed=*/false, &StepFeatures::m);
  ASSERT_EQ(delta.size(), 5u);
  const double d_expect[5][5] = {{0, 0, 0, 0, 0},
                                 {2, 2, 2, 2, 2},
                                 {5, 7, 5, 7, 7},
                                 {9, 11, 4, 4, 11},
                                 {4, 4, 8, 8, 4}};
  // Note: the paper's Table IV uses slightly different dt values (3, 5, ...)
  // because its delta2 assumes t3 - t1 = 3 while the radio-map record times
  // are t2 = 1 and t3 = 3 (dt = 2). The recurrence structure (Eq. 1) is what
  // is checked here: observed previous -> plain dt; missing previous ->
  // accumulated lag.
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(delta[i](0, j), d_expect[i][j]) << i << "," << j;
    }
  }

  // RP masks k1..k5 (Table IV): records 1, 3, 5 have RPs.
  EXPECT_DOUBLE_EQ(s[0].k(0, 0), 1);
  EXPECT_DOUBLE_EQ(s[1].k(0, 0), 0);
  EXPECT_DOUBLE_EQ(s[2].k(0, 0), 1);
  EXPECT_DOUBLE_EQ(s[3].k(0, 0), 0);
  EXPECT_DOUBLE_EQ(s[4].k(0, 0), 1);

  // The same recurrence over k gives the decoder's 2-wide lags, and over
  // the reversed visiting order the backward direction's (dt = 4, 4, 5, 2
  // from the last record back).
  const double l_expect[5] = {0, 2, 7, 4, 8};
  const std::vector<la::Matrix> delta_l =
      TimeLags(s, /*reversed=*/false, &StepFeatures::k);
  const double r_expect[5] = {0, 4, 8, 5, 2};  // AP 3: m5, m4 miss it
  const std::vector<la::Matrix> delta_r =
      TimeLags(s, /*reversed=*/true, &StepFeatures::m);
  ASSERT_EQ(delta_l.size(), 5u);
  ASSERT_EQ(delta_r.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(delta_l[i].cols(), 2u);
    EXPECT_DOUBLE_EQ(delta_l[i](0, 0), l_expect[i]) << i;
    EXPECT_DOUBLE_EQ(delta_l[i](0, 1), l_expect[i]) << i;
    EXPECT_DOUBLE_EQ(delta_r[i](0, 2), r_expect[i]) << i;
  }
}

TEST(BuildSequencesTest, NormalizesRssiAndLocation) {
  const auto map = PaperTableIIIMap();
  const auto seqs = BuildSequences(map, AllMarMask(map), TestConfig());
  const Sequence& s = seqs[0];
  EXPECT_NEAR(s[0].f(0, 0), (-70 + 100) / 100.0, 1e-12);
  EXPECT_DOUBLE_EQ(s[0].f(0, 3), 0.0);  // missing -> 0
  EXPECT_NEAR(s[0].l(0, 0), 0.1, 1e-12);  // 1 * 1/10
}

TEST(BuildSequencesTest, SlicesLongPaths) {
  const auto map = PaperTableIIIMap();
  BiSimConfig cfg = TestConfig();
  cfg.seq_len = 2;
  const auto seqs = BuildSequences(map, AllMarMask(map), cfg);
  ASSERT_EQ(seqs.size(), 3u);  // 2 + 2 + 1
  EXPECT_EQ(seqs[0].size(), 2u);
  EXPECT_EQ(seqs[2].size(), 1u);
  // Each slice restarts its time lags (first unit delta = 0), although its
  // first record (t = 8) follows the previous slice's last (t = 3).
  EXPECT_DOUBLE_EQ(seqs[1][0].time, 8.0);
  const std::vector<la::Matrix> delta =
      TimeLags(seqs[1], /*reversed=*/false, &StepFeatures::m);
  for (size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(delta[0](0, j), 0.0) << j;
  // m3 misses AP 1: 0 + 4 within the slice, where the whole path has 5 + 4.
  EXPECT_DOUBLE_EQ(delta[1](0, 0), 4.0);
}

TEST(BiSimConfigDeathTest, ZeroSeqLenIsRejected) {
  // A zero slice length would never advance along a path.
  const auto map = PaperTableIIIMap();
  const auto mask = AllMarMask(map);
  BiSimConfig cfg = TestConfig();
  cfg.seq_len = 0;
  EXPECT_DEATH(BuildSequences(map, mask, cfg), "seq_len");
  OnlineBiSimImputer online(cfg);
  Rng rng(3);
  EXPECT_DEATH(online.Fit(map, mask, rng), "seq_len");
}

TEST(BiSimConfigDeathTest, ZeroBatchSizeIsRejected) {
  // An empty Adam batch would never step.
  const auto map = PaperTableIIIMap();
  const auto mask = AllMarMask(map);
  BiSimConfig cfg = TestConfig();
  const auto seqs = BuildSequences(map, mask, cfg);
  cfg.batch_size = 0;
  Rng rng(4);
  BiSimModel model(map.num_aps(), cfg, rng);
  EXPECT_DEATH(TrainBiSim(model, seqs, cfg, rng), "batch_size");
  BiSimImputer imputer(cfg);
  EXPECT_DEATH(imputer.Impute(map, mask, rng), "batch_size");
}

TEST(BiSimModelTest, ForwardShapesAndFiniteness) {
  Rng rng(1);
  BiSimModel model(5, TestConfig(), rng);
  const auto map = PaperTableIIIMap();
  const auto seqs = BuildSequences(map, AllMarMask(map), TestConfig());
  const auto out = model.Forward(seqs[0], /*compute_loss=*/true);
  ASSERT_EQ(out.f_hat.size(), 5u);
  ASSERT_EQ(out.l_hat.size(), 5u);
  for (const auto& f : out.f_hat) {
    EXPECT_EQ(f.cols(), 5u);
    EXPECT_TRUE(f.AllFinite());
  }
  EXPECT_TRUE(out.loss.defined());
  EXPECT_GE(out.loss.value()(0, 0), 0.0);
}

TEST(BiSimModelTest, CombinationKeepsObservedValues) {
  // f^c must equal the input where observed (Eq. 3 applied in both
  // directions, then averaged: observed entries are identical in both).
  Rng rng(2);
  BiSimModel model(5, TestConfig(), rng);
  const auto map = PaperTableIIIMap();
  const auto seqs = BuildSequences(map, AllMarMask(map), TestConfig());
  const auto out = model.Forward(seqs[0], false);
  const Sequence& s = seqs[0];
  for (size_t t = 0; t < s.size(); ++t) {
    for (size_t j = 0; j < 5; ++j) {
      if (s[t].m(0, j) == 1.0) {
        EXPECT_NEAR(out.f_hat[t](0, j), s[t].f(0, j), 1e-12);
      }
    }
  }
}

TEST(BiSimModelTest, LossBackwardPopulatesAllParams) {
  Rng rng(3);
  BiSimConfig cfg = TestConfig();
  BiSimModel model(5, cfg, rng);
  const auto map = PaperTableIIIMap();
  const auto seqs = BuildSequences(map, AllMarMask(map), cfg);
  auto out = model.Forward(seqs[0], true);
  out.loss.Backward();
  size_t nonzero = 0;
  for (const auto& p : model.Params()) {
    if (p.grad().MaxAbs() > 0) ++nonzero;
  }
  // All but possibly the unused decoder-time-lag params receive gradient.
  EXPECT_GE(nonzero, model.Params().size() - 2);
}

TEST(BiSimModelTest, LossGradientMatchesCentralDifferences) {
  // The whole model's Backward() against central differences of its loss:
  // D = 4 APs, hidden 3, attention_hidden 3, T = 3, with the default
  // sparsity-friendly attention and encoder time lag.
  rmap::RadioMap map(4);
  const double n = kNull;
  AddRecord(&map, {-62, -75, n, -83}, true, {2, 3}, 1);
  AddRecord(&map, {-66, n, -71, n}, false, {}, 4);
  AddRecord(&map, {n, -70, -74, -79}, true, {6, 2}, 9);
  BiSimConfig cfg;
  cfg.hidden = 3;
  cfg.attention_hidden = 3;
  cfg.seq_len = 3;
  cfg.loc_scale = 1.0 / 10.0;
  const auto seqs = BuildSequences(map, AllMarMask(map), cfg);
  ASSERT_EQ(seqs.size(), 1u);
  ASSERT_EQ(seqs[0].size(), 3u);

  Rng rng(41);
  BiSimModel model(4, cfg, rng);
  // Every entry random and at least 0.1 from zero. The default zero
  // b_gamma, with the zero time lag at t = 0, would put the decay's ReLU
  // exactly on its kink, where central differences disagree with any
  // one-sided derivative.
  std::vector<ad::Tensor> params = model.Params();
  Rng prng(42);
  for (ad::Tensor& p : params) {
    for (double& v : p.mutable_value().data()) {
      v = (prng.Uniform() < 0.5 ? -1.0 : 1.0) * prng.Uniform(0.1, 0.6);
    }
  }

  auto loss = [&]() { return model.Forward(seqs[0], true).loss; };
  for (ad::Tensor& p : params) p.ZeroGrad();
  loss().Backward();
  const double eps = 1e-6;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    const la::Matrix analytic = params[pi].grad();
    la::Matrix& w = params[pi].mutable_value();
    for (size_t i = 0; i < w.size(); ++i) {
      const double orig = w.data()[i];
      w.data()[i] = orig + eps;
      const double up = loss().value()(0, 0);
      w.data()[i] = orig - eps;
      const double down = loss().value()(0, 0);
      w.data()[i] = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(analytic.data()[i], numeric,
                  1e-5 * std::max(std::fabs(numeric), 1e-3))
          << "param " << pi << " entry " << i;
    }
  }
}

class AblationTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AblationTest, AllVariantsRunAndTrain) {
  auto [att, lag] = GetParam();
  BiSimConfig cfg = TestConfig();
  cfg.attention = static_cast<BiSimConfig::Attention>(att);
  cfg.time_lag = static_cast<BiSimConfig::TimeLag>(lag);
  Rng rng(4);
  BiSimModel model(5, cfg, rng);
  const auto map = PaperTableIIIMap();
  const auto seqs = BuildSequences(map, AllMarMask(map), cfg);
  auto out = model.Forward(seqs[0], true);
  EXPECT_TRUE(std::isfinite(out.loss.value()(0, 0)));
  out.loss.Backward();  // no crash, finite grads
  for (const auto& p : model.Params()) EXPECT_TRUE(p.grad().AllFinite());
}

INSTANTIATE_TEST_SUITE_P(
    Variants, AblationTest,
    ::testing::Combine(::testing::Range(0, 3),   // attention variants
                       ::testing::Range(0, 4))); // time-lag variants

TEST(BiSimImputerTest, ProducesCompleteMap) {
  const auto map = PaperTableIIIMap();
  auto mask = AllMarMask(map);
  BiSimImputer imputer(TestConfig());
  Rng rng(5);
  const auto imputed = imputer.Impute(map, mask, rng);
  ASSERT_EQ(imputed.size(), map.size());
  for (size_t i = 0; i < imputed.size(); ++i) {
    EXPECT_TRUE(imputed.record(i).has_rp);
    for (double v : imputed.record(i).rssi) {
      EXPECT_FALSE(IsNull(v));
      EXPECT_GE(v, -100.0);
      EXPECT_LE(v, 0.0);
    }
  }
  // Observed values unchanged.
  EXPECT_DOUBLE_EQ(imputed.record(0).rssi[0], -70);
  EXPECT_DOUBLE_EQ(imputed.record(0).rp.x, 1.0);
}

TEST(BiSimImputerTest, TrainingReducesLoss) {
  // Loss after 12 epochs should beat loss after 1 on a small synthetic map.
  rmap::RadioMap map(3);
  Rng gen(6);
  for (int p = 0; p < 6; ++p) {
    for (int t = 0; t < 10; ++t) {
      rmap::Record r;
      const double base = -60.0 + 2.0 * t;
      r.rssi = {base, base - 5, kNull};
      if (t % 3 == 0) r.rssi[0] = kNull;
      r.has_rp = (t % 2 == 0);
      r.rp = {double(t), double(p)};
      r.time = t * 2.0;
      r.path_id = p;
      map.Add(r);
    }
  }
  rmap::MaskMatrix mask(map.size(), 3);
  for (size_t i = 0; i < map.size(); ++i) {
    for (size_t j = 0; j < 3; ++j) {
      if (IsNull(map.record(i).rssi[j])) mask.set(i, j, rmap::MaskValue::kMar);
    }
  }
  BiSimConfig cfg = TestConfig();
  cfg.loc_scale = 0.1;
  cfg.epochs = 1;
  BiSimImputer one(cfg);
  Rng r1(7);
  one.Impute(map, mask, r1);
  cfg.epochs = 12;
  BiSimImputer many(cfg);
  Rng r2(7);
  many.Impute(map, mask, r2);
  EXPECT_LT(many.last_training_loss(), one.last_training_loss());
}

TEST(BiSimImputerTest, SingleRecordSequence) {
  // A path with one record must not crash (attention over T = 1).
  rmap::RadioMap map(2);
  rmap::Record r;
  r.rssi = {-50.0, kNull};
  r.has_rp = true;
  r.rp = {1, 1};
  r.time = 0;
  map.Add(r);
  rmap::MaskMatrix mask(1, 2);
  mask.set(0, 1, rmap::MaskValue::kMar);
  BiSimImputer imputer(TestConfig());
  Rng rng(8);
  const auto imputed = imputer.Impute(map, mask, rng);
  EXPECT_FALSE(IsNull(imputed.record(0).rssi[1]));
}

}  // namespace
}  // namespace rmi::bisim
