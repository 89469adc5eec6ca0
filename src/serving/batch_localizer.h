// Query execution against one snapshot.
//
// Two paths, both exact:
//  * LocalizeBatchOn — the throughput path. All rows of a coalesced batch
//    go through the estimator's EstimateBatch: one int8 Gemm over the
//    whole reference matrix (plus a masked second Gemm when rows carry
//    kNull), then an exact rescore of the top candidates.
//  * LocalizeOn — the latency path for a single query. The spatial index
//    prunes reference rows via its triangle-inequality bound before the
//    exact pass.
//
// The caller reads the snapshot once (MapSnapshotStore::Current) and holds
// it for the whole request, so a concurrent hot-swap cannot mix two serving
// states inside one query.
#ifndef RMI_SERVING_BATCH_LOCALIZER_H_
#define RMI_SERVING_BATCH_LOCALIZER_H_

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

/// Stateless query executor over one snapshot.
///
/// Thread-safety: both entry points are static and safe to call
/// concurrently; they only read the snapshot. Null-fingerprint semantics
/// follow the KNN estimator contract: kNull entries are legal (distance
/// over the observed APs), and all-null scans are rejected (asserted).
class BatchLocalizer {
 public:
  /// B x D batch -> B locations via the estimator's batched path (the
  /// server reads one snapshot per coalesced batch).
  static std::vector<geom::Point> LocalizeBatchOn(
      const MapSnapshot& snapshot, const la::Matrix& fingerprints);

  /// One fingerprint (kNull entries allowed) -> location, by spatial-index
  /// pruned exact KNN (the shard router reads one snapshot per query).
  static geom::Point LocalizeOn(const MapSnapshot& snapshot,
                                const std::vector<double>& fingerprint);
};

}  // namespace rmi::serving

#endif  // RMI_SERVING_BATCH_LOCALIZER_H_
