// Radio map data structures: sparse fingerprint/RP records, the MAR/MNAR
// mask matrix, binarized AP profiles (Algorithm 1), and the removal
// operators used by the paper's sparsity experiments (alpha, beta).
#ifndef RMI_RADIOMAP_RADIO_MAP_H_
#define RMI_RADIOMAP_RADIO_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/missing.h"
#include "common/rng.h"
#include "geometry/geometry.h"

namespace rmi::rmap {

/// Identifies one radio-map shard: a single floor of a building. The
/// serving layer keys snapshot stores, query routing, and the live-update
/// loop by ShardId; a RadioMap carries the id of the shard it surveys.
struct ShardId {
  int32_t building = 0;
  int32_t floor = 0;

  friend bool operator==(const ShardId& a, const ShardId& b) {
    return a.building == b.building && a.floor == b.floor;
  }
  friend bool operator!=(const ShardId& a, const ShardId& b) {
    return !(a == b);
  }
  /// Lexicographic (building, floor) — also the deterministic final
  /// tie-break of the serving layer's floor classifier.
  friend bool operator<(const ShardId& a, const ShardId& b) {
    return a.building != b.building ? a.building < b.building
                                    : a.floor < b.floor;
  }
};

/// "b<building>/f<floor>" — for logs, test diagnostics, and bench tables.
std::string ToString(const ShardId& id);

/// One radio map record: a fingerprint (RSSI vector with nulls), an optional
/// reference point, and the collection time (kept for the time-lag
/// mechanism, cf. paper Table III).
struct Record {
  std::vector<double> rssi;   ///< D entries; kNull = missing
  geom::Point rp;             ///< valid iff has_rp
  bool has_rp = false;
  double time = 0.0;          ///< seconds since survey start (per path)
  size_t path_id = 0;         ///< originating survey path
  /// Stable identity assigned on first Add; survives imputer copies and
  /// record deletion (CaseDeletion), letting evaluation match records
  /// across pipeline stages.
  size_t id = kUnassignedId;
  static constexpr size_t kUnassignedId = static_cast<size_t>(-1);

  /// Number of observed (non-null) RSSIs.
  size_t NumObserved() const {
    size_t n = 0;
    for (double v : rssi) n += !IsNull(v);
    return n;
  }
};

/// nullptr when `r` is a well-formed survey record for a map `num_aps`
/// wide; otherwise a static reason string — wrong width, a ±inf RSSI (NaN
/// is the null encoding; an infinity would reach the quantization scales
/// and the spatial grid as if it were a measurement), or a non-finite RP
/// on a labeled record. The one record rule, as
/// serving::QueryValidationError is for queries: MapUpdater::Ingest, WAL
/// replay and a snapshot file's base section all apply it.
const char* RecordValidationError(const Record& r, size_t num_aps);

/// A radio map: N records over D APs.
class RadioMap {
 public:
  RadioMap() = default;
  explicit RadioMap(size_t num_aps) : num_aps_(num_aps) {}

  void Add(Record r);

  size_t num_aps() const { return num_aps_; }

  /// Shard metadata: which (building, floor) this map surveys. Defaults to
  /// shard (0, 0) for the single-map pipelines; the sharded serving layer
  /// sets it on registration. Imputers build fresh output maps, so stages
  /// that need the id re-stamp it (serving::MapUpdater does).
  const ShardId& shard() const { return shard_; }
  void set_shard(const ShardId& shard) { shard_ = shard; }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const Record& record(size_t i) const { return records_[i]; }
  Record& record(size_t i) { return records_[i]; }
  const std::vector<Record>& records() const { return records_; }

  /// Fraction of null RSSI cells.
  double MissingRssiRate() const;
  /// Fraction of records without an RP.
  double MissingRpRate() const;

  /// Record indices grouped by path, each group sorted by time — the
  /// sequences fed to sequential imputers.
  std::vector<std::vector<size_t>> PathSequences() const;

  /// Per-record RP with nulls filled by linear interpolation along each
  /// path (previous/next observed RP weighted by time); endpoints clamp to
  /// the nearest observed RP. Records on paths with no observed RP get the
  /// centroid of all observed RPs. (Algorithm 2 line 4 and baseline LI.)
  std::vector<geom::Point> InterpolatedRps() const;

 private:
  size_t num_aps_ = 0;
  ShardId shard_;
  std::vector<Record> records_;
};

/// Differentiation mask values (paper Section III).
enum class MaskValue : int8_t {
  kMnar = -1,  ///< missing not at random (unobservable AP)
  kMar = 0,    ///< missing at random
  kObserved = 1,
};

/// N x D matrix over {-1, 0, 1}.
class MaskMatrix {
 public:
  MaskMatrix() = default;
  MaskMatrix(size_t n, size_t d, MaskValue fill = MaskValue::kObserved)
      : n_(n), d_(d), values_(n * d, static_cast<int8_t>(fill)) {}

  MaskValue at(size_t i, size_t j) const {
    return static_cast<MaskValue>(values_[i * d_ + j]);
  }
  void set(size_t i, size_t j, MaskValue v) {
    values_[i * d_ + j] = static_cast<int8_t>(v);
  }

  size_t rows() const { return n_; }
  size_t cols() const { return d_; }

  size_t CountOf(MaskValue v) const;

  /// Fraction of missing cells labeled MAR (the paper reports ~7-10%).
  double MarShareOfMissing() const;

 private:
  size_t n_ = 0;
  size_t d_ = 0;
  std::vector<int8_t> values_;
};

/// BINARIZATION (Algorithm 1): b[d] = 1 iff AP d observed in the fingerprint.
std::vector<uint8_t> Binarization(const std::vector<double>& fingerprint);

/// A removed cell (used as imputation ground truth in the beta experiments).
/// `record` is the stable Record::id, so lookups survive imputer copies and
/// deletions.
struct RemovedRssi {
  size_t record;
  size_t ap;
  double value;
};
struct RemovedRp {
  size_t record;
  geom::Point rp;
};

/// Nullifies a fraction `ratio` of the observed RSSIs, uniformly at random;
/// returns what was removed. (Paper's alpha and beta removal.)
std::vector<RemovedRssi> RemoveRandomRssis(RadioMap* map, double ratio,
                                           Rng& rng);

/// Nullifies a fraction `ratio` of the observed RPs; returns what was
/// removed. (Paper's beta removal on RPs.)
std::vector<RemovedRp> RemoveRandomRps(RadioMap* map, double ratio, Rng& rng);

}  // namespace rmi::rmap

#endif  // RMI_RADIOMAP_RADIO_MAP_H_
