// Exactness of delta-aware differentiation, the warm rebuild stage that
// claims bit-identity with its cold counterpart for row-local
// differentiators. These tests pin that claim down, including every
// documented cold-fallback trigger.
#include <gtest/gtest.h>

#include <vector>

#include "clustering/differentiation.h"
#include "common/missing.h"
#include "common/rng.h"
#include "radiomap/radio_map.h"

namespace rmi::serving {
namespace {

/// Survey map with nulls: two areas, append-only growth between rebuilds.
rmap::RadioMap SurveyMap(size_t num_records) {
  rmap::RadioMap map(4);
  const double nul = kNull;
  for (size_t i = 0; i < num_records; ++i) {
    rmap::Record r;
    const bool left = (i % 2) == 0;
    const double base = -50.0 - double(i % 7);
    r.rssi = left ? std::vector<double>{base, base - 10.0, nul, nul}
                  : std::vector<double>{nul, nul, base - 20.0, base - 30.0};
    if (i % 5 == 3) r.rssi[left ? 1 : 2] = nul;  // a MAR-style hole
    r.rp = {left ? double(i) * 0.5 : 10.0 + double(i) * 0.5, 1.0};
    r.has_rp = true;
    r.time = double(i);
    map.Add(r);
  }
  return map;
}

void ExpectMasksEqual(const rmap::MaskMatrix& got,
                      const rmap::MaskMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < want.rows(); ++i) {
    for (size_t j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(got.at(i, j), want.at(i, j)) << "cell (" << i << "," << j << ")";
    }
  }
}

TEST(DifferentiateDeltaTest, RowLocalDeltaEqualsFullDifferentiation) {
  const cluster::MarOnlyDifferentiator differentiator;
  const rmap::RadioMap full = SurveyMap(30);
  const rmap::RadioMap base = SurveyMap(22);  // byte-identical prefix

  Rng rng_a(3), rng_b(3), rng_c(3);
  const rmap::MaskMatrix previous = differentiator.Differentiate(base, rng_a);
  const rmap::MaskMatrix delta =
      differentiator.DifferentiateDelta(full, previous, base.size(), rng_b);
  const rmap::MaskMatrix want = differentiator.Differentiate(full, rng_c);
  ExpectMasksEqual(delta, want);
}

TEST(DifferentiateDeltaTest, FallsBackToFullDifferentiation) {
  const cluster::MarOnlyDifferentiator differentiator;
  const rmap::RadioMap full = SurveyMap(16);
  Rng rng_a(9), rng_b(9), rng_c(9), rng_d(9);
  const rmap::MaskMatrix want = differentiator.Differentiate(full, rng_a);

  // No previous rows: nothing to splice.
  const rmap::MaskMatrix empty_previous(0, full.num_aps());
  ExpectMasksEqual(
      differentiator.DifferentiateDelta(full, empty_previous, 0, rng_b), want);

  // Shrunk map: a previous rebuild that labeled more rows than the map now
  // has (num_previous > N) cannot be spliced.
  Rng mk(1);
  const rmap::MaskMatrix drifted =
      cluster::MarOnlyDifferentiator().Differentiate(SurveyMap(12), mk);
  ExpectMasksEqual(
      differentiator.DifferentiateDelta(full, drifted, full.size() + 5, rng_c),
      want);

  // num_previous larger than the previous mask: inconsistent inputs.
  const rmap::MaskMatrix previous(8, full.num_aps());
  ExpectMasksEqual(
      differentiator.DifferentiateDelta(full, previous, 12, rng_d), want);
}

}  // namespace
}  // namespace rmi::serving
