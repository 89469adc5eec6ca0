// History independence of MapUpdater rebuilds. Every rebuild runs the cold
// paper pipeline — differentiate, MNAR fill, impute, fit — over the whole
// folded survey base, and rebuild V draws the shard's RNG fork V. Nothing
// carries over from the previous rebuild, so a published version depends
// only on the folded base and its version number: two updaters that fold
// the same observations in the same order publish bit-equal snapshots at
// the same version, however the deltas were batched into rebuilds.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "clustering/differentiation.h"
#include "common/missing.h"
#include "common/rng.h"
#include "imputers/autocorrelation.h"
#include "positioning/estimators.h"
#include "radiomap/radio_map.h"
#include "serving/map_updater.h"
#include "serving/synthetic.h"

namespace rmi::serving {
namespace {

/// Nulls each RSSI with probability `missing_rssi` (every record keeps at
/// least one observed AP) and drops each RP with probability `missing_rp`.
void Sparsify(rmap::RadioMap* map, double missing_rssi, double missing_rp,
              uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < map->size(); ++i) {
    rmap::Record& r = map->record(i);
    const double kept = r.rssi[0];
    for (double& v : r.rssi) {
      if (rng.Bernoulli(missing_rssi)) v = kNull;
    }
    if (r.NumObserved() == 0) r.rssi[0] = kept;
    if (rng.Bernoulli(missing_rp)) {
      r.has_rp = false;
      r.rp = geom::Point{};
    }
  }
}

TEST(HistoryIndependenceTest, PublishedVersionDependsOnlyOnFoldedBase) {
  const rmap::ShardId id{0, 0};
  rmap::RadioMap base = MakeSyntheticServingMap(12, 9, 10, 31);
  Sparsify(&base, 0.3, 0.2, 32);

  // Eight fresh observations that carry nulls of their own.
  const rmap::RadioMap survey = MakeSyntheticServingMap(12, 9, 10, 33);
  std::vector<rmap::Record> deltas;
  Rng pick(34);
  for (size_t i = 0; i < 8; ++i) {
    rmap::Record r = survey.record(pick.Index(survey.size()));
    r.id = rmap::Record::kUnassignedId;
    r.time += 1000.0 + double(i);
    r.rssi[i % r.rssi.size()] = kNull;
    r.rssi[(i + 3) % r.rssi.size()] = kNull;
    if (i % 3 == 0) {
      r.has_rp = false;
      r.rp = geom::Point{};
    }
    deltas.push_back(r);
  }

  cluster::MarOnlyDifferentiator differentiator;
  imputers::MiceImputer imputer;
  MapUpdaterOptions opt;
  opt.min_new_observations = 1u << 30;  // RebuildNow only
  const EstimatorFactory factory = [] {
    return std::make_unique<positioning::KnnEstimator>(3, true);
  };

  // Updater A: 4 deltas, rebuild (v2), 4 more, rebuild (v3).
  ShardedSnapshotStore store_a;
  MapUpdater a(&store_a, &differentiator, &imputer, factory, opt);
  a.RegisterShard(id, base);
  for (size_t i = 0; i < 4; ++i) a.Ingest(id, deltas[i]);
  ASSERT_TRUE(a.RebuildNow(id));
  for (size_t i = 4; i < 8; ++i) a.Ingest(id, deltas[i]);
  ASSERT_TRUE(a.RebuildNow(id));

  // Updater B: a rebuild with no deltas (v2), then all 8 at once (v3).
  ShardedSnapshotStore store_b;
  MapUpdater b(&store_b, &differentiator, &imputer, factory, opt);
  b.RegisterShard(id, base);
  ASSERT_TRUE(b.RebuildNow(id));
  for (const rmap::Record& r : deltas) b.Ingest(id, r);
  ASSERT_TRUE(b.RebuildNow(id));

  const auto va = store_a.Current(id);
  const auto vb = store_b.Current(id);
  ASSERT_EQ(va->version, 3u);
  ASSERT_EQ(vb->version, 3u);
  ASSERT_EQ(va->num_refs(), base.size() + deltas.size());
  ASSERT_EQ(vb->num_refs(), va->num_refs());
  ASSERT_EQ(vb->num_aps(), va->num_aps());

  size_t differing_cells = 0;
  for (size_t r = 0; r < va->num_refs(); ++r) {
    for (size_t j = 0; j < va->num_aps(); ++j) {
      const double fa = va->fingerprints()(r, j);
      const double fb = vb->fingerprints()(r, j);
      differing_cells += std::memcmp(&fa, &fb, sizeof(double)) != 0;
    }
    EXPECT_EQ(0, std::memcmp(&va->positions()[r], &vb->positions()[r],
                             sizeof(geom::Point)))
        << "position of reference " << r;
  }
  EXPECT_EQ(differing_cells, 0u)
      << "of " << va->num_refs() * va->num_aps() << " reference cells";
}

}  // namespace
}  // namespace rmi::serving
