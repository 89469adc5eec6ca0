#include "imputers/imputer.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/missing.h"
#include "la/kernels.h"
#include "la/matrix.h"

namespace rmi::imputers {

namespace {

/// Fills the null cells (and missing RP) of `out`'s row `row` from the
/// aligned `source` record — the splice step of the incremental path.
/// Observed merged cells always win; only the holes take imputed values.
void FillRowFrom(rmap::RadioMap* out, size_t row, const rmap::Record& source) {
  rmap::Record& r = out->record(row);
  for (size_t j = 0; j < r.rssi.size(); ++j) {
    if (IsNull(r.rssi[j])) r.rssi[j] = source.rssi[j];
  }
  if (!r.has_rp && source.has_rp) {
    r.rp = source.rp;
    r.has_rp = true;
  }
}

}  // namespace

std::vector<uint8_t> PropagateDirtyRows(const rmap::RadioMap& merged,
                                        const rmap::MaskMatrix& amended_mask,
                                        const rmap::RadioMap& previous_imputed,
                                        size_t num_previous,
                                        size_t dirty_neighbors) {
  const size_t n = merged.size();
  const size_t d = merged.num_aps();
  RMI_CHECK_LE(num_previous, n);
  RMI_CHECK_EQ(previous_imputed.size(), num_previous);
  RMI_CHECK_EQ(amended_mask.rows(), n);
  std::vector<uint8_t> dirty(n, 0);
  for (size_t i = num_previous; i < n; ++i) dirty[i] = 1;
  if (num_previous == 0 || n == num_previous || dirty_neighbors == 0) {
    return dirty;
  }

  // Complete fingerprints of the previous rows (the clustering structure
  // the deltas perturb).
  la::Matrix refs(num_previous, d);
  for (size_t i = 0; i < num_previous; ++i) {
    const rmap::Record& r = previous_imputed.record(i);
    for (size_t j = 0; j < d; ++j) refs(i, j) = r.rssi[j];
  }

  const size_t k = std::min(dirty_neighbors, num_previous);
  std::vector<double> query(d);
  std::vector<std::pair<double, size_t>> dist(num_previous);
  for (size_t t = num_previous; t < n; ++t) {
    const rmap::Record& r = merged.record(t);
    size_t observed_dims = 0;
    for (size_t j = 0; j < d; ++j) {
      const bool observed =
          amended_mask.at(t, j) == rmap::MaskValue::kObserved &&
          !IsNull(r.rssi[j]);
      query[j] = observed ? r.rssi[j] : kNull;  // kNull skipped by the kernel
      observed_dims += observed;
    }
    // A fully unobserved delta has no fingerprint neighborhood: every
    // distance would tie at 0 and flag an arbitrary first-k rows. It stays
    // dirty itself but propagates nothing.
    if (observed_dims == 0) continue;
    for (size_t i = 0; i < num_previous; ++i) {
      dist[i] = {la::QuerySquaredDistance(query.data(), refs, i), i};
    }
    std::partial_sort(dist.begin(), dist.begin() + k, dist.end());
    for (size_t i = 0; i < k; ++i) dirty[dist[i].second] = 1;
  }
  return dirty;
}

rmap::RadioMap Imputer::ImputeIncremental(const rmap::RadioMap& merged,
                                          const rmap::MaskMatrix& amended_mask,
                                          const IncrementalContext& ctx,
                                          Rng& rng) const {
  const size_t n = merged.size();
  const size_t prev = ctx.num_previous_records;
  const rmap::RadioMap* previous = ctx.previous_imputed;
  // No usable warm start (first build, a record-dropping backend, or
  // alignment broken by one): exactly the cold pipeline.
  if (MayDropRecords() || previous == nullptr || prev == 0 || prev > n ||
      previous->size() != prev || previous->num_aps() != merged.num_aps()) {
    return Impute(merged, amended_mask, rng);
  }

  const std::vector<uint8_t> dirty = PropagateDirtyRows(
      merged, amended_mask, *previous, prev, ctx.dirty_neighbors);
  const size_t dirty_count =
      static_cast<size_t>(std::count(dirty.begin(), dirty.end(), uint8_t{1}));

  if (dirty_count == 0) {
    // Forced republish with no deltas: nothing moved, so the previous
    // imputation still answers every hole.
    rmap::RadioMap out = merged;
    for (size_t i = 0; i < prev; ++i) FillRowFrom(&out, i, previous->record(i));
    return out;
  }
  if (static_cast<double>(dirty_count) >=
      ctx.max_dirty_fraction * static_cast<double>(n)) {
    // The delta wave touched most of the map — incremental bookkeeping
    // would cost more than it saves, and falling back keeps this case
    // bit-identical to a cold rebuild.
    return Impute(merged, amended_mask, rng);
  }

  // Cold-impute the dirty sub-map only. Records keep their path_id/time, so
  // sequence-based backends retain (partial) path context; the accuracy
  // budget of that approximation is what the incremental tests bound.
  const size_t d = merged.num_aps();
  rmap::RadioMap sub(d);
  rmap::MaskMatrix submask(dirty_count, d);
  std::vector<size_t> sub_rows;
  sub_rows.reserve(dirty_count);
  for (size_t i = 0; i < n; ++i) {
    if (!dirty[i]) continue;
    const size_t r = sub_rows.size();
    sub.Add(merged.record(i));
    for (size_t j = 0; j < d; ++j) submask.set(r, j, amended_mask.at(i, j));
    sub_rows.push_back(i);
  }
  // Checkpoint the generator: the defensive fallback below must replay the
  // exact cold rebuild, not a cold rebuild on a partially-consumed stream.
  const Rng rng_checkpoint = rng;
  const rmap::RadioMap sub_out = Impute(sub, submask, rng);
  if (sub_out.size() != sub_rows.size()) {
    // Defense in depth: a backend that drops records *without* declaring
    // MayDropRecords() (those are routed cold up front) cannot be spliced
    // by row index — rewind the rng and pay for the cold rebuild.
    rng = rng_checkpoint;
    return Impute(merged, amended_mask, rng);
  }

  rmap::RadioMap out = merged;
  for (size_t i = 0; i < prev; ++i) {
    if (!dirty[i]) FillRowFrom(&out, i, previous->record(i));
  }
  for (size_t r = 0; r < sub_rows.size(); ++r) {
    FillRowFrom(&out, sub_rows[r], sub_out.record(r));
  }
  return out;
}

size_t FillMnar(rmap::RadioMap* map, rmap::MaskMatrix* mask) {
  RMI_CHECK(map != nullptr);
  RMI_CHECK(mask != nullptr);
  RMI_CHECK_EQ(mask->rows(), map->size());
  RMI_CHECK_EQ(mask->cols(), map->num_aps());
  size_t filled = 0;
  for (size_t i = 0; i < map->size(); ++i) {
    rmap::Record& r = map->record(i);
    for (size_t j = 0; j < map->num_aps(); ++j) {
      if (mask->at(i, j) == rmap::MaskValue::kMnar) {
        RMI_CHECK(IsNull(r.rssi[j]));
        r.rssi[j] = kMnarFillDbm;
        mask->set(i, j, rmap::MaskValue::kObserved);
        ++filled;
      }
    }
  }
  return filled;
}

}  // namespace rmi::imputers
