// Query execution against the current snapshot.
//
// Two paths, both exact:
//  * LocalizeBatch — the throughput path. All rows of a coalesced batch go
//    through the estimator's EstimateBatch: one int8 Gemm over the whole
//    reference matrix (plus a masked second Gemm when rows carry kNull),
//    then an exact rescore of the top candidates.
//  * Localize — the latency path for a single query. The spatial index
//    prunes reference rows via its triangle-inequality bound before the
//    exact pass.
//
// Every entry point grabs the snapshot once (epoch-pinned, no refcount
// traffic) and uses it for the whole request, so a concurrent hot-swap
// cannot mix two serving states inside one query.
#ifndef RMI_SERVING_BATCH_LOCALIZER_H_
#define RMI_SERVING_BATCH_LOCALIZER_H_

#include <memory>
#include <vector>

#include "geometry/geometry.h"
#include "la/matrix.h"
#include "serving/snapshot.h"

namespace rmi::serving {

/// nullptr when `fingerprint` (length `size`) is a well-formed query for
/// `snapshot`; otherwise a static reason string — wrong width, a ±inf
/// entry (NaN is the null encoding; an infinity poisons every distance),
/// or all-null (no distance signal). The single per-request validation
/// rule: the server rejects through the request's promise, the shard
/// router throws, both with this reason — a malformed query must never
/// abort the serving process. Survey records have their own rule,
/// rmap::RecordValidationError.
const char* QueryValidationError(const MapSnapshot& snapshot,
                                 const double* fingerprint, size_t size);

/// Stateless query executor over a snapshot store.
///
/// Thread-safety: all entry points are const (or static) and safe to call
/// concurrently; each grabs one snapshot and never mutates it. Ownership:
/// the localizer borrows `store` (which must outlive it) and retains no
/// per-query state. Null-fingerprint semantics follow the KNN estimator
/// contract: kNull entries are legal (distance over the observed APs), and
/// all-null scans are rejected (asserted).
class BatchLocalizer {
 public:
  /// `store` must outlive the localizer.
  explicit BatchLocalizer(const MapSnapshotStore* store) : store_(store) {}

  /// One fingerprint (kNull entries allowed) -> location, by
  /// spatial-index pruned exact KNN.
  geom::Point Localize(const std::vector<double>& fingerprint) const;

  /// B x D batch -> B locations via the estimator's batched path. All rows
  /// are answered from one snapshot.
  std::vector<geom::Point> LocalizeBatch(const la::Matrix& fingerprints) const;

  /// Same as LocalizeBatch but against an explicitly pinned snapshot (the
  /// server pins once per coalesced batch).
  static std::vector<geom::Point> LocalizeBatchOn(
      const MapSnapshot& snapshot, const la::Matrix& fingerprints);

  /// Single-query path against an explicitly pinned snapshot (the shard
  /// router pins per shard). Same exact-KNN pruning as Localize.
  static geom::Point LocalizeOn(const MapSnapshot& snapshot,
                                const std::vector<double>& fingerprint);

  std::shared_ptr<const MapSnapshot> snapshot() const {
    return store_->Current();
  }

 private:
  const MapSnapshotStore* store_;
};

}  // namespace rmi::serving

#endif  // RMI_SERVING_BATCH_LOCALIZER_H_
