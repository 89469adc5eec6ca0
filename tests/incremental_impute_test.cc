// Incremental re-imputation correctness (Imputer::ImputeIncremental):
//  * dirty-row propagation marks exactly the delta rows plus the previous
//    rows whose fingerprint neighborhoods the deltas touch;
//  * when the dirty set covers the map the call falls back to a cold
//    Impute bit-for-bit;
//  * under partial deltas the spliced result keeps clean rows verbatim and
//    stays within an accuracy budget of the cold rebuild (vs ground truth);
//  * BiSIM's warm start restores the previous rebuild's weights, fine-tunes
//    deterministically, and stays within the accuracy budget;
//  * the end-to-end update scenario's APE with incremental rebuilds is
//    within 5% of the cold-rebuild APE.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "bisim/bisim.h"
#include "common/missing.h"
#include "common/rng.h"
#include "eval/update_scenario.h"
#include "imputers/autocorrelation.h"
#include "imputers/imputer.h"
#include "imputers/traditional.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/synthetic.h"

namespace rmi::imputers {
namespace {

/// A sparse copy of a complete map: MAR holes punched per `missing_rssi`,
/// RPs dropped per `missing_rp`; the amended mask marks the holes kMar.
struct SparseCase {
  rmap::RadioMap map;
  rmap::MaskMatrix mask;
};

SparseCase PunchHoles(const rmap::RadioMap& complete, double missing_rssi,
                      double missing_rp, uint64_t seed) {
  SparseCase c{complete,
               rmap::MaskMatrix(complete.size(), complete.num_aps())};
  Rng rng(seed);
  for (size_t i = 0; i < c.map.size(); ++i) {
    rmap::Record& r = c.map.record(i);
    for (size_t j = 0; j < c.map.num_aps(); ++j) {
      if (rng.Bernoulli(missing_rssi)) {
        r.rssi[j] = kNull;
        c.mask.set(i, j, rmap::MaskValue::kMar);
      }
    }
    if (r.NumObserved() == 0) {
      r.rssi[0] = complete.record(i).rssi[0];
      c.mask.set(i, 0, rmap::MaskValue::kObserved);
    }
    if (rng.Bernoulli(missing_rp)) {
      r.has_rp = false;
      r.rp = geom::Point{};
    }
  }
  return c;
}

/// Mean absolute error of the imputed MAR cells against the complete map.
double MarMae(const rmap::RadioMap& imputed, const rmap::RadioMap& truth,
              const rmap::MaskMatrix& mask) {
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < imputed.size(); ++i) {
    for (size_t j = 0; j < imputed.num_aps(); ++j) {
      if (mask.at(i, j) != rmap::MaskValue::kMar) continue;
      sum += std::fabs(imputed.record(i).rssi[j] - truth.record(i).rssi[j]);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// Splits `complete` into a base prefix and delta suffix, punches holes
/// into both, and returns (merged sparse map, mask, truth) with the base
/// rows first — the exact shape MapUpdater hands ImputeIncremental.
struct MergedCase {
  rmap::RadioMap merged;
  rmap::MaskMatrix mask;
  rmap::RadioMap base;        // sparse prefix only
  rmap::MaskMatrix base_mask;
  size_t num_previous = 0;
};

MergedCase SplitCase(const rmap::RadioMap& complete, size_t num_deltas,
                     uint64_t seed) {
  const SparseCase sparse = PunchHoles(complete, 0.2, 0.2, seed);
  MergedCase c;
  c.num_previous = complete.size() - num_deltas;
  c.merged = sparse.map;
  c.mask = sparse.mask;
  c.base = rmap::RadioMap(complete.num_aps());
  c.base_mask = rmap::MaskMatrix(c.num_previous, complete.num_aps());
  for (size_t i = 0; i < c.num_previous; ++i) {
    c.base.Add(sparse.map.record(i));
    for (size_t j = 0; j < complete.num_aps(); ++j) {
      c.base_mask.set(i, j, sparse.mask.at(i, j));
    }
  }
  return c;
}

TEST(PropagateDirtyRowsTest, MarksDeltaNeighborhoodsOnly) {
  // Two well-separated fingerprint clusters; the single delta lands in
  // cluster A, so only A rows (its nearest neighbors) may go dirty.
  rmap::RadioMap merged(2);
  auto add = [&](double a, double b) {
    rmap::Record r;
    r.rssi = {a, b};
    r.has_rp = true;
    r.rp = {0, 0};
    merged.Add(r);
  };
  for (int i = 0; i < 4; ++i) add(-50.0 - i, -60.0 - i);   // cluster A
  for (int i = 0; i < 4; ++i) add(-90.0 - i, -95.0 + i);   // cluster B
  add(-51.5, -61.5);                                        // delta, near A
  rmap::MaskMatrix mask(merged.size(), 2);
  const rmap::RadioMap previous = [&] {
    rmap::RadioMap p(2);
    for (size_t i = 0; i < 8; ++i) p.Add(merged.record(i));
    return p;
  }();

  const std::vector<uint8_t> dirty =
      PropagateDirtyRows(merged, mask, previous, 8, /*dirty_neighbors=*/2);
  ASSERT_EQ(dirty.size(), 9u);
  EXPECT_EQ(dirty[8], 1) << "the delta row itself is always dirty";
  size_t dirty_a = 0, dirty_b = 0;
  for (size_t i = 0; i < 4; ++i) dirty_a += dirty[i];
  for (size_t i = 4; i < 8; ++i) dirty_b += dirty[i];
  EXPECT_EQ(dirty_a, 2u) << "exactly k nearest previous rows go dirty";
  EXPECT_EQ(dirty_b, 0u) << "the far cluster must stay clean";
}

TEST(IncrementalImputeTest, AllRowsDirtyEqualsColdImputeBitForBit) {
  const auto complete = serving::MakeSyntheticServingMap(10, 8, 8, 77);
  const MergedCase c = SplitCase(complete, /*num_deltas=*/16, 78);
  const MiceImputer mice;
  const LinearInterpolationImputer li;
  for (const Imputer* imputer : {static_cast<const Imputer*>(&mice),
                                 static_cast<const Imputer*>(&li)}) {
    Rng cold_rng(3), inc_rng(3);
    const auto cold = imputer->Impute(c.merged, c.mask, cold_rng);

    Rng prev_rng(4);
    const auto previous = imputer->Impute(c.base, c.base_mask, prev_rng);
    IncrementalContext ctx;
    ctx.previous_imputed = &previous;
    ctx.num_previous_records = c.num_previous;
    ctx.dirty_neighbors = c.merged.size();  // every previous row goes dirty
    const auto inc = imputer->ImputeIncremental(c.merged, c.mask, ctx, inc_rng);

    ASSERT_EQ(inc.size(), cold.size()) << imputer->name();
    for (size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(inc.record(i).rssi.data(),
                               cold.record(i).rssi.data(),
                               cold.num_aps() * sizeof(double)))
          << imputer->name() << " record " << i;
    }
  }
}

TEST(IncrementalImputeTest, PartialDeltasSpliceCleanRowsAndStayInBudget) {
  const auto complete = serving::MakeSyntheticServingMap(14, 10, 10, 91);
  const MergedCase c = SplitCase(complete, /*num_deltas=*/10, 92);
  const MiceImputer mice;

  Rng prev_rng(5);
  const auto previous = mice.Impute(c.base, c.base_mask, prev_rng);
  IncrementalContext ctx;
  ctx.previous_imputed = &previous;
  ctx.num_previous_records = c.num_previous;
  ctx.dirty_neighbors = 4;
  Rng inc_rng(6);
  const auto inc = mice.ImputeIncremental(c.merged, c.mask, ctx, inc_rng);

  // Complete output, observed cells untouched.
  ASSERT_EQ(inc.size(), c.merged.size());
  const std::vector<uint8_t> dirty = PropagateDirtyRows(
      c.merged, c.mask, previous, c.num_previous, ctx.dirty_neighbors);
  size_t clean_checked = 0;
  for (size_t i = 0; i < inc.size(); ++i) {
    EXPECT_TRUE(inc.record(i).has_rp);
    for (size_t j = 0; j < inc.num_aps(); ++j) {
      EXPECT_FALSE(IsNull(inc.record(i).rssi[j]));
      if (c.mask.at(i, j) == rmap::MaskValue::kObserved) {
        EXPECT_DOUBLE_EQ(inc.record(i).rssi[j], c.merged.record(i).rssi[j]);
      } else if (i < c.num_previous && !dirty[i]) {
        // Clean rows splice verbatim from the previous imputation.
        EXPECT_DOUBLE_EQ(inc.record(i).rssi[j], previous.record(i).rssi[j]);
        ++clean_checked;
      }
    }
  }
  EXPECT_GT(clean_checked, 0u) << "the partial case must have clean rows";

  // Accuracy budget vs the cold rebuild, both measured against truth.
  Rng cold_rng(6);
  const auto cold = mice.Impute(c.merged, c.mask, cold_rng);
  const double inc_mae = MarMae(inc, complete, c.mask);
  const double cold_mae = MarMae(cold, complete, c.mask);
  EXPECT_LT(inc_mae, cold_mae * 1.25 + 0.5)
      << "incremental " << inc_mae << " vs cold " << cold_mae;
}

TEST(IncrementalImputeTest, BiSimWarmStartIsDeterministicAndInBudget) {
  const auto complete = serving::MakeSyntheticServingMap(8, 6, 6, 33);
  const MergedCase merged = SplitCase(complete, /*num_deltas=*/8, 34);

  bisim::BiSimConfig cfg;
  cfg.hidden = 8;
  cfg.attention_hidden = 8;
  cfg.epochs = 10;
  cfg.fine_tune_epochs = 3;
  cfg.num_threads = 1;
  const bisim::BiSimImputer imputer(cfg);

  // First build (the base prefix only): no previous state — cold training,
  // state exported.
  std::shared_ptr<const ImputerState> state;
  IncrementalContext first_ctx;
  first_ctx.state_out = &state;
  Rng first_rng(7), cold_rng(7);
  const auto first = imputer.ImputeIncremental(merged.base, merged.base_mask,
                                               first_ctx, first_rng);
  const auto cold = imputer.Impute(merged.base, merged.base_mask, cold_rng);
  ASSERT_EQ(first.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(first.record(i).rssi.data(),
                             cold.record(i).rssi.data(),
                             cold.num_aps() * sizeof(double)))
        << "first incremental build must equal cold training, record " << i;
  }
  const auto* warm_state = dynamic_cast<const bisim::BiSimWarmState*>(
      state.get());
  ASSERT_NE(warm_state, nullptr);
  EXPECT_EQ(warm_state->num_aps, complete.num_aps());
  EXPECT_FALSE(warm_state->weights.empty());

  // Second build: the merged map (base + 8 fresh delta rows) with the
  // previous imputation and the trained weights as warm start.
  IncrementalContext warm_ctx;
  warm_ctx.previous_imputed = &first;
  warm_ctx.num_previous_records = merged.num_previous;
  warm_ctx.previous_state = state;
  std::shared_ptr<const ImputerState> state2;
  warm_ctx.state_out = &state2;

  auto run_warm = [&] {
    Rng rng(9);
    return imputer.ImputeIncremental(merged.merged, merged.mask, warm_ctx,
                                     rng);
  };
  const auto warm1 = run_warm();
  const auto warm2 = run_warm();
  ASSERT_EQ(warm1.size(), merged.merged.size());
  for (size_t i = 0; i < warm1.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(warm1.record(i).rssi.data(),
                             warm2.record(i).rssi.data(),
                             warm1.num_aps() * sizeof(double)))
        << "warm fine-tune must be deterministic, record " << i;
    EXPECT_TRUE(warm1.record(i).has_rp);
    for (size_t j = 0; j < warm1.num_aps(); ++j) {
      EXPECT_FALSE(IsNull(warm1.record(i).rssi[j]));
    }
  }
  EXPECT_NE(dynamic_cast<const bisim::BiSimWarmState*>(state2.get()), nullptr);

  // Accuracy budget: the 3-epoch fine-tune must land near the full cold
  // retrain of the merged map (both vs ground truth).
  Rng cold2_rng(9);
  const auto cold2 = imputer.Impute(merged.merged, merged.mask, cold2_rng);
  const double warm_mae = MarMae(warm1, complete, merged.mask);
  const double cold_mae = MarMae(cold2, complete, merged.mask);
  EXPECT_LT(warm_mae, cold_mae * 1.5 + 1.0)
      << "warm " << warm_mae << " vs cold " << cold_mae;
}

TEST(IncrementalImputeTest, RecordDroppingBackendNeverSplicesMisaligned) {
  // CaseDeletion drops null-RP records, so its output is *shorter* than
  // the base it imputed — the incremental splice would pair fingerprints
  // with the wrong records' positions. The updater reports the merged-map
  // row count the previous imputation claims to cover; the base
  // implementation's alignment guard must see the mismatch and rebuild
  // cold, publishing only correctly-positioned references.
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

  // Fresh deltas (all with RPs) trip a second — incremental — rebuild.
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
  // fingerprint it is — a misaligned splice pairs them off-by-`dropped`.
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

TEST(IncrementalImputeTest, UpdateScenarioApeWithinFivePercentOfCold) {
  cluster::MarOnlyDifferentiator differentiator;
  MiceImputer imputer;
  const auto factory = [] {
    return std::make_unique<positioning::KnnEstimator>(3, true);
  };
  eval::UpdateScenarioOptions opt;
  opt.resurvey_fraction = 0.35;  // partial deltas: the incremental path
                                 // must engage, not fall back to cold
  opt.incremental_rebuild = false;
  const auto cold = eval::RunAccuracyUnderUpdate(differentiator, imputer,
                                                 factory, opt);
  opt.incremental_rebuild = true;
  const auto inc = eval::RunAccuracyUnderUpdate(differentiator, imputer,
                                                factory, opt);

  // Both repair the drifted shard...
  EXPECT_LT(cold.updated_ape, cold.stale_ape);
  EXPECT_LT(inc.updated_ape, inc.stale_ape);
  // ...and the incremental rebuild's accuracy is within the 5% budget of
  // the cold rebuild (plus 5 cm of absolute slack for near-zero APEs).
  EXPECT_LE(std::fabs(inc.updated_ape - cold.updated_ape),
            0.05 * cold.updated_ape + 0.05)
      << "incremental " << inc.updated_ape << " vs cold " << cold.updated_ape;
}

}  // namespace
}  // namespace rmi::imputers
