// The mmap-able shard snapshot file (".rmsnap").
//
// One file freezes the source state of a shard's serving snapshot — and
// everything the updater needs to resume evolving it:
//
//   section            contents                              element type
//   -----------------  ------------------------------------  ------------
//   kSecFloatRefs      imputed reference rows, rows x cols   f64
//   kSecPositions      reference locations, rows x (x, y)    f64 pairs
//   kSecApIds          AP identity per column                u64
//   kSecBaseRecords    folded survey base, record frames     framed codec
//
// Nothing derived is written: the int8 ranking copy and the spatial index
// are rebuilt at restore by the same serving::BuildSnapshot call a live
// rebuild makes, so a file can never disagree with what this code would
// derive from it.
//
// Layout discipline: little-endian throughout (the header carries an
// endianness check value), a fixed 4 KiB header page up front, every
// section offset 64-byte aligned (kSectionAlign), zeroed padding, no
// timestamps. The same logical snapshot therefore always serializes to the
// same bytes, which is what lets the crash-consistency tests assert a
// restarted updater's snapshot file is checksum-equal to the never-crashed
// run's, and lets CI pin a sample file as an ABI canary.
//
// Integrity: CRC32C twice — header_crc over the header fields, payload_crc
// over every byte after the header page. Readers validate both, then check
// every section against the header's shape fields with overflow-checked
// arithmetic, before any section pointer escapes — so a torn, bit-flipped
// or self-contradicting file is refused as a unit (the loader then falls
// back to the next-oldest file).
//
// Publish protocol: WriteSnapshotFile emits to "<path>.tmp", fsyncs the
// file, renames it in, and fsyncs the directory — readers only ever see
// absent or complete files, and a writer losing the rename race leaves a
// ".tmp" orphan that the loader ignores.
//
// Reading: MappedSnapshot mmaps and validates a file; MapSnapshotView is
// the plain borrowed-pointer struct over the mapping that restore reads
// its rows from. Views never outlive their mapping.
#ifndef RMI_STORE_SNAPSHOT_FORMAT_H_
#define RMI_STORE_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "geometry/geometry.h"
#include "radiomap/radio_map.h"

namespace rmi::store {

/// "RMSNAP01" little-endian.
inline constexpr uint64_t kSnapshotMagic = 0x313050414E534D52ull;
/// A file of any other version is refused at map time, and the shard
/// rebuilds cold.
inline constexpr uint32_t kSnapshotFormatVersion = 2;
/// Written as the literal 0x01020304: a big-endian reader sees 0x04030201
/// and refuses the file instead of silently mis-reading every section.
inline constexpr uint32_t kEndianCheck = 0x01020304u;
/// Section alignment: keeps each section cache-line clean and aligned for
/// any vector load over its elements.
inline constexpr size_t kSectionAlign = 64;
/// Fixed header page; sections start after it.
inline constexpr size_t kSnapshotHeaderBytes = 4096;
inline constexpr char kSnapshotSuffix[] = ".rmsnap";

enum SectionId : uint32_t {
  kSecFloatRefs = 0,
  kSecPositions,
  kSecApIds,
  kSecBaseRecords,
  kNumSections,
};

/// Optional-section presence bit (SnapshotHeader::flags).
inline constexpr uint32_t kFlagHasBase = 1u << 0;

struct SectionRange {
  uint64_t offset = 0;  ///< from file start; kSectionAlign-aligned
  uint64_t size = 0;    ///< bytes; 0 = section absent
};

/// The on-disk header, memcpy'd to/from the first bytes of the file.
/// Fields are ordered for natural alignment; header_crc is last and is
/// computed over the bytes before it.
struct SnapshotHeader {
  uint64_t magic = kSnapshotMagic;
  uint32_t format_version = kSnapshotFormatVersion;
  uint32_t endian_check = kEndianCheck;
  /// The shard's published snapshot version this file freezes.
  uint64_t snapshot_version = 0;
  int32_t building = 0;
  int32_t floor = 0;
  /// WAL segment watermark: every segment with seq < this was folded into
  /// this file's base section. Restart replays only segments >= the
  /// watermark, so a crash between snapshot rename and segment deletion
  /// never double-applies a delta.
  uint64_t wal_watermark = 0;
  uint64_t num_refs = 0;
  uint64_t num_aps = 0;
  /// Record count of the kSecBaseRecords section.
  uint64_t base_records = 0;
  uint32_t flags = 0;
  /// CRC32C over [kSnapshotHeaderBytes, file_bytes).
  uint32_t payload_crc = 0;
  uint64_t file_bytes = 0;
  SectionRange sections[kNumSections];
  /// CRC32C over the header bytes preceding this field.
  uint32_t header_crc = 0;
};
static_assert(std::is_standard_layout_v<SnapshotHeader>,
              "header is memcpy'd to disk");
static_assert(sizeof(SnapshotHeader) <= kSnapshotHeaderBytes,
              "header must fit its reserved page");

/// Everything WriteSnapshotFile serializes. All pointers borrow; the
/// request must stay valid for the call only.
struct SnapshotWriteRequest {
  uint64_t snapshot_version = 0;
  rmap::ShardId shard;
  uint64_t wal_watermark = 0;
  size_t num_refs = 0;
  size_t num_aps = 0;
  const double* refs = nullptr;            ///< num_refs x num_aps
  const geom::Point* positions = nullptr;  ///< num_refs
  /// Per-column AP identity; nullptr writes the identity mapping 0..D-1.
  const uint64_t* ap_ids = nullptr;
  const rmap::RadioMap* base = nullptr;  ///< optional survey-base section
};

/// Serializes `req` to `path` via temp file + fsync + atomic rename +
/// directory fsync. False (with *error filled) on any I/O failure; a
/// failed write never leaves a partial file under the final name.
bool WriteSnapshotFile(const std::string& path,
                       const SnapshotWriteRequest& req, std::string* error);

/// Borrowed view over a validated mapping: plain pointers into the
/// sections. Copy freely, but never let one outlive the MappedSnapshot it
/// came from.
struct MapSnapshotView {
  uint64_t snapshot_version = 0;
  rmap::ShardId shard;
  size_t num_refs = 0;
  size_t num_aps = 0;
  const double* refs = nullptr;            ///< num_refs x num_aps
  const geom::Point* positions = nullptr;  ///< num_refs
  const uint64_t* ap_ids = nullptr;        ///< num_aps
};

/// An open, validated snapshot mapping. Map() refuses anything structurally
/// unsound — bad magic/version/endianness, header or payload CRC mismatch,
/// short file, misaligned or out-of-range sections, section sizes that
/// disagree with the header's shape (products overflow-checked, none larger
/// than the file, no empty required section for a non-empty shape) — so
/// holders can trust every section pointer. Read-only MAP_SHARED: N
/// processes mapping the same published file share one page-cache copy.
class MappedSnapshot {
 public:
  /// nullptr (with *error filled) on open/validation failure.
  static std::shared_ptr<const MappedSnapshot> Map(const std::string& path,
                                                   std::string* error);
  ~MappedSnapshot();

  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  const SnapshotHeader& header() const { return header_; }
  const std::string& path() const { return path_; }
  size_t size_bytes() const { return size_; }

  /// The borrowed section view (valid while this mapping lives).
  MapSnapshotView view() const;

  /// Decodes the survey-base section into a RadioMap with this file's
  /// width and shard id (false when absent or malformed, or when a record
  /// fails rmap::RecordValidationError).
  bool DecodeBase(rmap::RadioMap* out) const;

 private:
  MappedSnapshot() = default;

  const uint8_t* Section(SectionId id) const {
    return data_ + header_.sections[id].offset;
  }

  std::string path_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  SnapshotHeader header_;
};

/// Canonical file name for a snapshot version: "snapshot.<version>.rmsnap"
/// with the version zero-padded to 20 digits (lexical order == numeric).
std::string SnapshotFileName(uint64_t version);

/// Snapshot files under `dir`, sorted newest (highest embedded version)
/// first. Non-snapshot names — ".tmp" orphans from a lost rename race
/// included — are ignored. A missing directory is an empty list.
std::vector<std::string> ListSnapshotFiles(const std::string& dir);

/// Maps the newest snapshot in `dir` that passes full validation, walking
/// down the version order past corrupt/torn/incompatible files. nullptr
/// (with *error describing the last failure, or "no snapshot files") when
/// nothing valid exists.
std::shared_ptr<const MappedSnapshot> MapNewestValid(const std::string& dir,
                                                     std::string* error);

}  // namespace rmi::store

#endif  // RMI_STORE_SNAPSHOT_FORMAT_H_
