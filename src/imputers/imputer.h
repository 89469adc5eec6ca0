// Common interface of all data imputers (module B of the framework).
//
// Contract: Impute() receives the sparse radio map together with the
// *amended* mask M' (paper Section IV): MNAR cells have already been filled
// with -100 dBm and flipped to "observed" in the mask, so the only 0-cells
// left are MARs. The returned radio map must be complete — no null RSSIs
// and no null RPs (CaseDeletion instead drops the null-RP records).
#ifndef RMI_IMPUTERS_IMPUTER_H_
#define RMI_IMPUTERS_IMPUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "radiomap/radio_map.h"

namespace rmi::imputers {

/// Opaque backend-defined warm-start state handed across consecutive
/// incremental imputations of the same shard. The *caller* owns it (e.g.
/// serving::MapUpdater keeps one per shard), which keeps imputers stateless
/// and safe to share const across threads; a backend that has nothing to
/// carry simply never produces one.
class ImputerState {
 public:
  virtual ~ImputerState() = default;
};

/// Everything ImputeIncremental may exploit beyond the merged map itself.
/// All fields are optional; a default-constructed context degrades the call
/// to a cold Impute.
struct IncrementalContext {
  /// Output of the previous imputation pass, row-aligned with the first
  /// `num_previous_records` rows of the merged map (the pre-delta base).
  /// nullptr on the first build — or whenever the caller cannot guarantee
  /// alignment (a backend that drops records, like CaseDeletion, breaks it;
  /// the base implementation re-checks sizes and falls back to cold).
  const rmap::RadioMap* previous_imputed = nullptr;
  size_t num_previous_records = 0;
  /// Warm-start blob returned by this imputer's previous incremental call
  /// (via state_out) — e.g. trained BiSIM weights. Backends must tolerate
  /// a stale or foreign blob (dynamic_cast + shape checks, cold fallback).
  std::shared_ptr<const ImputerState> previous_state;
  /// When non-null, the backend may deposit its refreshed warm-start state
  /// here for the caller to pass back next time.
  std::shared_ptr<const ImputerState>* state_out = nullptr;
  /// Dirty-row propagation: each delta observation marks its
  /// `dirty_neighbors` nearest previous rows (fingerprint distance over the
  /// delta's observed APs) for re-imputation.
  size_t dirty_neighbors = 8;
  /// Once the dirty set covers at least this fraction of all rows, the
  /// incremental path stops paying its bookkeeping and the call runs a cold
  /// Impute of the whole merged map (bit-identical to Impute).
  double max_dirty_fraction = 0.6;
};

/// Common interface of all data imputers.
///
/// Thread-safety: implementations are stateless after construction —
/// Impute()/ImputeIncremental() are const and safe to call concurrently
/// from multiple threads (all mutable state lives in locals, the
/// caller-provided Rng, and the caller-owned IncrementalContext; callers
/// must not share one Rng or one context across threads).
/// Ownership: imputers never retain references to the input map or mask.
class Imputer {
 public:
  virtual ~Imputer() = default;

  /// Produces a fully imputed radio map: no null RSSIs, no null RPs
  /// (CaseDeletion instead drops the null-RP records).
  virtual rmap::RadioMap Impute(const rmap::RadioMap& map,
                                const rmap::MaskMatrix& amended_mask,
                                Rng& rng) const = 0;

  /// Incremental re-imputation — the live-update loop's re-fit entry point
  /// (serving::MapUpdater). `merged` holds the previously surveyed records
  /// plus the newly ingested delta observations (appended after row
  /// `ctx.num_previous_records`), and `amended_mask` is its amended mask
  /// (same contract as Impute).
  ///
  /// The base implementation no longer defaults to a cold Impute: when the
  /// context carries an aligned previous imputation it propagates dirtiness
  /// from the delta rows through the fingerprint-neighborhood structure
  /// (each delta marks its `ctx.dirty_neighbors` nearest previous rows),
  /// cold-imputes only the dirty sub-map, and splices clean rows straight
  /// from `previous_imputed`. Exactness degrades gracefully: with no usable
  /// context — or once the dirty set reaches `ctx.max_dirty_fraction` — the
  /// call is exactly Impute(merged); with an empty delta set it returns the
  /// previous imputation re-spliced (a forced republish re-imputes
  /// nothing). Backends with trainable state (BiSIM) override this to also
  /// warm-start training from `ctx.previous_state`.
  ///
  /// Must return a complete map, exactly like Impute.
  virtual rmap::RadioMap ImputeIncremental(const rmap::RadioMap& merged,
                                           const rmap::MaskMatrix& amended_mask,
                                           const IncrementalContext& ctx,
                                           Rng& rng) const;

  /// True for backends whose Impute may return fewer records than it was
  /// given (CaseDeletion). The incremental path cannot splice by row index
  /// against such a backend, so it skips straight to the cold rebuild
  /// instead of paying for a dirty-sub-map imputation it would have to
  /// throw away on the size check.
  virtual bool MayDropRecords() const { return false; }

  virtual std::string name() const = 0;
};

/// First step of the Data Imputer module: fills every MNAR cell with
/// -100 dBm in `map` and amends `mask` (MNAR -> observed), leaving 0s only
/// for MARs. Returns the number of cells filled.
size_t FillMnar(rmap::RadioMap* map, rmap::MaskMatrix* mask);

/// Dirty-row propagation used by the base ImputeIncremental (exposed for
/// tests and benches): flags every delta row (index >= num_previous) plus,
/// for each delta, its `dirty_neighbors` nearest previous rows by squared
/// fingerprint distance over the delta's observed APs — the rows whose AP
/// neighborhoods the delta set touches. `previous_imputed` supplies the
/// complete fingerprints of the previous rows and must be row-aligned with
/// the first `num_previous` rows of `merged`.
std::vector<uint8_t> PropagateDirtyRows(const rmap::RadioMap& merged,
                                        const rmap::MaskMatrix& amended_mask,
                                        const rmap::RadioMap& previous_imputed,
                                        size_t num_previous,
                                        size_t dirty_neighbors);

}  // namespace rmi::imputers

#endif  // RMI_IMPUTERS_IMPUTER_H_
