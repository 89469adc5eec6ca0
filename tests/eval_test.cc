#include <gtest/gtest.h>

#include "eval/factories.h"
#include "eval/metrics.h"
#include "eval/pipeline.h"
#include "imputers/traditional.h"
#include "survey/survey.h"

namespace rmi::eval {
namespace {

TEST(MetricsTest, ApeBasic) {
  std::vector<geom::Point> est = {{0, 0}, {3, 4}};
  std::vector<geom::Point> truth = {{0, 0}, {0, 0}};
  EXPECT_DOUBLE_EQ(AveragePositioningError(est, truth), 2.5);
  EXPECT_DOUBLE_EQ(AveragePositioningError({}, {}), 0.0);
}

TEST(MetricsTest, RssiMaeOverRemovedCells) {
  rmap::RadioMap map(2);
  rmap::Record r;
  r.rssi = {-50, -60};
  r.has_rp = true;
  r.rp = {1, 1};
  map.Add(r);
  std::vector<rmap::RemovedRssi> removed = {{0, 0, -54.0}, {0, 1, -58.0}};
  EXPECT_DOUBLE_EQ(RssiMae(map, removed), 3.0);
  EXPECT_DOUBLE_EQ(RssiMae(map, {}), 0.0);
}

TEST(MetricsTest, RpEuclideanOverRemoved) {
  rmap::RadioMap map(1);
  rmap::Record r;
  r.rssi = {-50};
  r.has_rp = true;
  r.rp = {3, 4};
  map.Add(r);
  std::vector<rmap::RemovedRp> removed = {{0, {0, 0}}};
  EXPECT_DOUBLE_EQ(RpEuclideanError(map, removed), 5.0);
}

TEST(MetricsTest, DeletedRecordsSkipped) {
  rmap::RadioMap map(1);
  rmap::Record r;
  r.rssi = {-50};
  r.has_rp = true;
  r.rp = {0, 0};
  r.id = 7;  // the only surviving record has id 7
  map.Add(r);
  std::vector<rmap::RemovedRssi> removed = {{3, 0, -60.0}, {7, 0, -52.0}};
  EXPECT_DOUBLE_EQ(RssiMae(map, removed), 2.0);  // id 3 skipped
}

TEST(BenchEnvTest, DefaultsWithoutEnv) {
  unsetenv("RMI_BENCH_SCALE");
  unsetenv("RMI_BENCH_EPOCHS");
  const BenchEnv env = BenchEnv::FromEnv(0.15, 25);
  EXPECT_DOUBLE_EQ(env.scale, 0.15);
  EXPECT_EQ(env.epochs, 25u);
}

TEST(BenchEnvTest, ReadsOverrides) {
  setenv("RMI_BENCH_SCALE", "0.5", 1);
  setenv("RMI_BENCH_EPOCHS", "7", 1);
  const BenchEnv env = BenchEnv::FromEnv(0.15, 25);
  EXPECT_DOUBLE_EQ(env.scale, 0.5);
  EXPECT_EQ(env.epochs, 7u);
  unsetenv("RMI_BENCH_SCALE");
  unsetenv("RMI_BENCH_EPOCHS");
}

TEST(BenchEnvDeathTest, RejectsMalformedValues) {
  // A bench must not run with a value it did not get: "abc" or "0" epochs
  // would train nothing, a negative scale would reach the venue, and "7x"
  // is not 7.
  unsetenv("RMI_BENCH_SCALE");
  unsetenv("RMI_BENCH_EPOCHS");
  for (const char* bad : {"abc", "0", "-1", "7x", "1.5", " 7", "+7"}) {
    setenv("RMI_BENCH_EPOCHS", bad, 1);
    EXPECT_DEATH(BenchEnv::FromEnv(0.15, 25), "RMI_BENCH_EPOCHS") << bad;
  }
  unsetenv("RMI_BENCH_EPOCHS");
  for (const char* bad : {"abc", "0", "-1", "7x", "nan", "inf"}) {
    setenv("RMI_BENCH_SCALE", bad, 1);
    EXPECT_DEATH(BenchEnv::FromEnv(0.15, 25), "RMI_BENCH_SCALE") << bad;
  }
  unsetenv("RMI_BENCH_SCALE");
}

class FactoriesTest : public ::testing::Test {
 protected:
  FactoriesTest() : ds_(survey::MakeKaideDataset(/*scale=*/0.04)) {}
  survey::SurveyDataset ds_;
  BenchEnv env_;
};

TEST_F(FactoriesTest, AllDifferentiatorNames) {
  for (const char* name :
       {"TopoAC", "DasaKM", "ElbowKM", "DBSCAN", "MAR-only", "MNAR-only"}) {
    auto d = MakeDifferentiator(name, &ds_.venue);
    ASSERT_NE(d, nullptr) << name;
    EXPECT_EQ(d->name(), name);
  }
}

TEST_F(FactoriesTest, AllImputerNames) {
  for (const char* name :
       {"CD", "LI", "SL", "MICE", "MF", "BRITS", "SSGAN", "BiSIM"}) {
    auto im = MakeImputer(name, ds_.venue, env_);
    ASSERT_NE(im, nullptr) << name;
    EXPECT_EQ(im->name(), name);
  }
}

TEST_F(FactoriesTest, AllEstimatorNames) {
  for (const char* name : {"KNN", "WKNN", "RF"}) {
    auto e = MakeEstimator(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_EQ(e->name(), name);
  }
}

TEST_F(FactoriesTest, DefaultBiSimConfigScalesLocation) {
  const auto cfg = DefaultBiSimConfig(ds_.venue, env_);
  EXPECT_NEAR(cfg.loc_scale * std::max(ds_.venue.width, ds_.venue.height),
              1.0, 1e-12);
  EXPECT_EQ(cfg.epochs, env_.epochs);
}

TEST(PipelineTest, EndToEndWithTraditionalImputer) {
  const auto ds = survey::MakeKaideDataset(/*scale=*/0.04);
  auto diff = MakeDifferentiator("MNAR-only", &ds.venue);
  imputers::LinearInterpolationImputer li;
  positioning::KnnEstimator wknn(3, true);
  PipelineOptions opt;
  opt.seed = 42;
  const PipelineResult res = RunPipeline(ds.map, *diff, li, wknn, opt);
  EXPECT_GT(res.num_test, 0u);
  EXPECT_GT(res.ape, 0.0);
  EXPECT_LT(res.ape, ds.venue.width);  // sane scale
  EXPECT_GT(res.impute_seconds, 0.0);
}

TEST(PipelineTest, DeterministicForSeed) {
  const auto ds = survey::MakeKaideDataset(/*scale=*/0.04);
  auto diff = MakeDifferentiator("MAR-only", &ds.venue);
  imputers::LinearInterpolationImputer li;
  positioning::KnnEstimator knn(3, false);
  PipelineOptions opt;
  opt.seed = 7;
  const double a = RunPipeline(ds.map, *diff, li, knn, opt).ape;
  const double b = RunPipeline(ds.map, *diff, li, knn, opt).ape;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(PipelineTest, CaseDeletionHandlesDeletedTestRecords) {
  const auto ds = survey::MakeKaideDataset(/*scale=*/0.04);
  auto diff = MakeDifferentiator("MNAR-only", &ds.venue);
  imputers::CaseDeletionImputer cd;
  positioning::KnnEstimator wknn(3, true);
  PipelineOptions opt;
  opt.seed = 13;
  const PipelineResult res = RunPipeline(ds.map, *diff, cd, wknn, opt);
  EXPECT_GT(res.ape, 0.0);  // must not crash; falls back to -100 fill
}

TEST(PipelineTest, DifferentiateAndImputeReportsMarShare) {
  const auto ds = survey::MakeKaideDataset(/*scale=*/0.04);
  auto diff = MakeDifferentiator("TopoAC", &ds.venue);
  imputers::LinearInterpolationImputer li;
  Rng rng(3);
  double share = -1.0;
  const auto imputed = DifferentiateAndImpute(ds.map, *diff, li, rng, &share);
  EXPECT_GE(share, 0.0);
  EXPECT_LT(share, 0.6);
  EXPECT_EQ(imputed.size(), ds.map.size());
}

TEST(BetaExperimentTest, ReportsBothErrors) {
  const auto ds = survey::MakeKaideDataset(/*scale=*/0.04);
  auto diff = MakeDifferentiator("MNAR-only", &ds.venue);
  imputers::LinearInterpolationImputer li;
  const auto res =
      RunBetaExperiment(ds.map, *diff, li, /*beta_rssi=*/0.2, /*beta_rp=*/0.2,
                        /*seed=*/5);
  EXPECT_GT(res.rssi_mae, 0.0);
  EXPECT_GT(res.rp_euclidean, 0.0);
  EXPECT_LT(res.rp_euclidean, ds.venue.width);
}

TEST(BetaExperimentTest, MoreRemovalHurtsLi) {
  const auto ds = survey::MakeKaideDataset(/*scale=*/0.04);
  auto diff = MakeDifferentiator("MNAR-only", &ds.venue);
  imputers::LinearInterpolationImputer li;
  const double e10 =
      RunBetaExperiment(ds.map, *diff, li, 0.0, 0.1, 5).rp_euclidean;
  const double e50 =
      RunBetaExperiment(ds.map, *diff, li, 0.0, 0.5, 5).rp_euclidean;
  EXPECT_LT(e10, e50 * 1.5);  // loose monotonicity
}

}  // namespace
}  // namespace rmi::eval
