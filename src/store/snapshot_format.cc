#include "store/snapshot_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "store/crc32c.h"
#include "store/record_codec.h"

namespace rmi::store {

namespace {

namespace fs = std::filesystem;

static_assert(sizeof(geom::Point) == 2 * sizeof(double) &&
                  std::is_standard_layout_v<geom::Point>,
              "positions section is memcpy'd as (x, y) double pairs");

struct StoreMetrics {
  obs::Counter& writes = obs::GetCounter(
      "rmi_store_snapshot_writes_total", "Snapshot files durably published");
  obs::Counter& write_failures =
      obs::GetCounter("rmi_store_snapshot_write_failures_total",
                      "Snapshot writes aborted by an I/O error");
  obs::Counter& bytes_written =
      obs::GetCounter("rmi_store_snapshot_bytes_written_total",
                      "Bytes of snapshot payload durably written");
  obs::Histogram& write_us =
      obs::GetHistogram("rmi_store_snapshot_write_us",
                        "Full snapshot publish latency: serialize + write + "
                        "fsync + rename + dir fsync (microseconds)");
  obs::Histogram& fsync_us = obs::GetHistogram(
      "rmi_store_fsync_us", "Durability fsync latency (microseconds)");
  obs::Counter& maps = obs::GetCounter("rmi_store_snapshot_maps_total",
                                       "Snapshot files successfully mapped");
  obs::Counter& map_failures =
      obs::GetCounter("rmi_store_snapshot_map_failures_total",
                      "Snapshot files refused at map time (torn, corrupt, "
                      "or incompatible)");
  obs::Gauge& mapped_bytes = obs::GetGauge(
      "rmi_store_mapped_bytes", "Bytes currently mapped from snapshot files");

  static StoreMetrics& Get() {
    static StoreMetrics* m = new StoreMetrics();
    return *m;
  }
};

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Pads `buf` to the section alignment with zero bytes (zeros, not
/// uninitialized, so identical logical content is identical bytes), then
/// appends the section and returns its range.
SectionRange AddSection(std::string* buf, const void* data, size_t bytes) {
  while (buf->size() % kSectionAlign != 0) buf->push_back('\0');
  SectionRange range;
  range.offset = buf->size();
  range.size = bytes;
  if (bytes > 0) {
    buf->append(static_cast<const char*>(data), bytes);
  }
  return range;
}

bool WriteAll(int fd, const char* data, size_t len, std::string* error) {
  size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      SetError(error, Errno("write"));
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool FsyncFd(int fd, std::string* error) {
  obs::ScopedStageTimer timer(StoreMetrics::Get().fsync_us);
  if (::fsync(fd) != 0) {
    SetError(error, Errno("fsync"));
    return false;
  }
  return true;
}

bool FsyncDirOf(const std::string& path, std::string* error) {
  const fs::path dir = fs::path(path).parent_path();
  const std::string dir_str = dir.empty() ? "." : dir.string();
  const int fd = ::open(dir_str.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, Errno("open dir " + dir_str));
    return false;
  }
  const bool ok = FsyncFd(fd, error);
  ::close(fd);
  return ok;
}

/// Section sizes against the header's shape fields — a file whose CRCs
/// pass but whose section table disagrees with its own shape is still
/// refused before any pointer escapes. Shape products are overflow-checked
/// (a wrapped product could match a 0-byte section), no expected size may
/// exceed the file, and a non-empty shape needs every required section.
bool ValidateSectionShapes(const SnapshotHeader& h, std::string* error) {
  uint64_t cells = 0, refs_bytes = 0, positions_bytes = 0, ap_ids_bytes = 0;
  if (__builtin_mul_overflow(h.num_refs, h.num_aps, &cells) ||
      __builtin_mul_overflow(cells, sizeof(double), &refs_bytes) ||
      __builtin_mul_overflow(h.num_refs, sizeof(geom::Point),
                             &positions_bytes) ||
      __builtin_mul_overflow(h.num_aps, sizeof(uint64_t), &ap_ids_bytes)) {
    SetError(error, "shape " + std::to_string(h.num_refs) + " x " +
                        std::to_string(h.num_aps) + " overflows");
    return false;
  }
  struct Expect {
    SectionId id;
    uint64_t size;
  };
  const Expect expected[] = {
      {kSecFloatRefs, refs_bytes},
      {kSecPositions, positions_bytes},
      {kSecApIds, ap_ids_bytes},
  };
  for (const Expect& e : expected) {
    const uint64_t actual = h.sections[e.id].size;
    if (e.size > h.file_bytes) {
      SetError(error, "section " + std::to_string(e.id) + " expects " +
                          std::to_string(e.size) + " bytes, more than the "
                          "whole file");
      return false;
    }
    if (actual != e.size) {
      SetError(error, "section " + std::to_string(e.id) + " size " +
                          std::to_string(actual) + " != expected " +
                          std::to_string(e.size));
      return false;
    }
    if (h.num_refs > 0 && actual == 0) {
      SetError(error, "section " + std::to_string(e.id) +
                          " is empty for a non-empty shape");
      return false;
    }
  }
  if (((h.flags & kFlagHasBase) != 0) != (h.sections[kSecBaseRecords].size > 0)) {
    SetError(error, "base flag / section disagreement");
    return false;
  }
  return true;
}

}  // namespace

bool WriteSnapshotFile(const std::string& path,
                       const SnapshotWriteRequest& req, std::string* error) {
  StoreMetrics& metrics = StoreMetrics::Get();
  obs::ScopedStageTimer timer(metrics.write_us);

  SnapshotHeader header;
  header.snapshot_version = req.snapshot_version;
  header.building = req.shard.building;
  header.floor = req.shard.floor;
  header.wal_watermark = req.wal_watermark;
  header.num_refs = req.num_refs;
  header.num_aps = req.num_aps;

  // Serialize the whole file into one buffer first: the header page, then
  // each section at its aligned offset. One buffer, one write, and the
  // payload CRC is computed over exactly the bytes that land on disk.
  std::string file(kSnapshotHeaderBytes, '\0');

  RMI_CHECK(req.refs != nullptr);
  RMI_CHECK(req.positions != nullptr);
  header.sections[kSecFloatRefs] = AddSection(
      &file, req.refs, req.num_refs * req.num_aps * sizeof(double));
  header.sections[kSecPositions] =
      AddSection(&file, req.positions, req.num_refs * 2 * sizeof(double));

  if (req.ap_ids != nullptr) {
    header.sections[kSecApIds] =
        AddSection(&file, req.ap_ids, req.num_aps * sizeof(uint64_t));
  } else {
    std::vector<uint64_t> identity(req.num_aps);
    for (size_t j = 0; j < identity.size(); ++j) identity[j] = j;
    header.sections[kSecApIds] = AddSection(
        &file, identity.data(), identity.size() * sizeof(uint64_t));
  }

  if (req.base != nullptr && !req.base->empty()) {
    header.flags |= kFlagHasBase;
    header.base_records = req.base->size();
    std::string frames;
    for (const rmap::Record& r : req.base->records()) {
      AppendRecordFrame(r, &frames);
    }
    header.sections[kSecBaseRecords] =
        AddSection(&file, frames.data(), frames.size());
  }

  header.file_bytes = file.size();
  header.payload_crc =
      Crc32c(file.data() + kSnapshotHeaderBytes,
             file.size() - kSnapshotHeaderBytes);
  header.header_crc = Crc32c(&header, offsetof(SnapshotHeader, header_crc));
  std::memcpy(file.data(), &header, sizeof(header));

  // Durable publish: temp file, fsync, atomic rename, directory fsync.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    SetError(error, Errno("open " + tmp));
    metrics.write_failures.Add();
    return false;
  }
  if (!WriteAll(fd, file.data(), file.size(), error) ||
      !FsyncFd(fd, error)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    metrics.write_failures.Add();
    return false;
  }
  if (::close(fd) != 0) {
    SetError(error, Errno("close " + tmp));
    ::unlink(tmp.c_str());
    metrics.write_failures.Add();
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    SetError(error, Errno("rename " + tmp + " -> " + path));
    ::unlink(tmp.c_str());
    metrics.write_failures.Add();
    return false;
  }
  if (!FsyncDirOf(path, error)) {
    metrics.write_failures.Add();
    return false;
  }

  metrics.writes.Add();
  metrics.bytes_written.Add(file.size());
  return true;
}

std::shared_ptr<const MappedSnapshot> MappedSnapshot::Map(
    const std::string& path, std::string* error) {
  StoreMetrics& metrics = StoreMetrics::Get();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, Errno("open " + path));
    metrics.map_failures.Add();
    return nullptr;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    SetError(error, Errno("fstat " + path));
    ::close(fd);
    metrics.map_failures.Add();
    return nullptr;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kSnapshotHeaderBytes) {
    SetError(error, path + ": short file (" + std::to_string(size) +
                        " bytes < header page)");
    ::close(fd);
    metrics.map_failures.Add();
    return nullptr;
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the inode alive
  if (mapping == MAP_FAILED) {
    SetError(error, Errno("mmap " + path));
    metrics.map_failures.Add();
    return nullptr;
  }
  const auto* data = static_cast<const uint8_t*>(mapping);

  // Validate before any section pointer escapes. Failures unmap and refuse
  // the file as a unit.
  std::string why;
  SnapshotHeader h;
  std::memcpy(&h, data, sizeof(h));
  if (h.magic != kSnapshotMagic) {
    why = "bad magic";
  } else if (h.endian_check != kEndianCheck) {
    why = "endianness mismatch";
  } else if (h.format_version != kSnapshotFormatVersion) {
    why = "format version " + std::to_string(h.format_version) +
          " != supported " + std::to_string(kSnapshotFormatVersion);
  } else if (Crc32c(&h, offsetof(SnapshotHeader, header_crc)) !=
             h.header_crc) {
    why = "header CRC mismatch";
  } else if (h.file_bytes != size) {
    why = "file_bytes " + std::to_string(h.file_bytes) + " != actual size " +
          std::to_string(size);
  } else if (Crc32c(data + kSnapshotHeaderBytes,
                    size - kSnapshotHeaderBytes) != h.payload_crc) {
    why = "payload CRC mismatch";
  } else {
    for (uint32_t s = 0; s < kNumSections && why.empty(); ++s) {
      const SectionRange& r = h.sections[s];
      if (r.size == 0) continue;
      if (r.offset % kSectionAlign != 0) {
        why = "section " + std::to_string(s) + " misaligned";
      } else if (r.offset < kSnapshotHeaderBytes || r.offset > size ||
                 r.size > size - r.offset) {
        why = "section " + std::to_string(s) + " out of range";
      }
    }
    if (why.empty()) ValidateSectionShapes(h, &why);
  }
  if (!why.empty()) {
    ::munmap(mapping, size);
    SetError(error, path + ": " + why);
    metrics.map_failures.Add();
    return nullptr;
  }

  auto snap = std::shared_ptr<MappedSnapshot>(new MappedSnapshot());
  snap->path_ = path;
  snap->data_ = data;
  snap->size_ = size;
  snap->header_ = h;
  metrics.maps.Add();
  metrics.mapped_bytes.Add(static_cast<double>(size));
  return snap;
}

MappedSnapshot::~MappedSnapshot() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
    StoreMetrics::Get().mapped_bytes.Sub(static_cast<double>(size_));
  }
}

MapSnapshotView MappedSnapshot::view() const {
  MapSnapshotView v;
  v.snapshot_version = header_.snapshot_version;
  v.shard = rmap::ShardId{header_.building, header_.floor};
  v.num_refs = header_.num_refs;
  v.num_aps = header_.num_aps;
  v.refs = reinterpret_cast<const double*>(Section(kSecFloatRefs));
  v.positions = reinterpret_cast<const geom::Point*>(Section(kSecPositions));
  v.ap_ids = reinterpret_cast<const uint64_t*>(Section(kSecApIds));
  return v;
}

bool MappedSnapshot::DecodeBase(rmap::RadioMap* out) const {
  if ((header_.flags & kFlagHasBase) == 0) return false;
  rmap::RadioMap base(header_.num_aps);
  base.set_shard(rmap::ShardId{header_.building, header_.floor});
  const uint8_t* p = Section(kSecBaseRecords);
  size_t remaining = header_.sections[kSecBaseRecords].size;
  uint64_t count = 0;
  while (remaining > 0) {
    rmap::Record r;
    size_t consumed = 0;
    // The payload CRC already vouched for these bytes; any frame-level
    // failure here means the file lies about itself — refuse it.
    if (ParseRecordFrame(p, remaining, &r, &consumed) != FrameStatus::kOk) {
      return false;
    }
    if (rmap::RecordValidationError(r, header_.num_aps) != nullptr) {
      return false;
    }
    base.Add(std::move(r));
    p += consumed;
    remaining -= consumed;
    ++count;
  }
  if (count != header_.base_records) return false;
  *out = std::move(base);
  return true;
}

std::string SnapshotFileName(uint64_t version) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snapshot.%020llu%s",
                static_cast<unsigned long long>(version), kSnapshotSuffix);
  return buf;
}

std::vector<std::string> ListSnapshotFiles(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    constexpr char kPrefix[] = "snapshot.";
    const size_t suffix_len = sizeof(kSnapshotSuffix) - 1;
    if (name.size() <= sizeof(kPrefix) - 1 + suffix_len) continue;
    if (name.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) continue;
    if (name.compare(name.size() - suffix_len, suffix_len,
                     kSnapshotSuffix) != 0) {
      continue;  // ".tmp" orphans and strangers
    }
    names.push_back(name);
  }
  // Versions are zero-padded, so descending lexical == descending numeric.
  std::sort(names.begin(), names.end(), std::greater<std::string>());
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const std::string& n : names) {
    paths.push_back((fs::path(dir) / n).string());
  }
  return paths;
}

std::shared_ptr<const MappedSnapshot> MapNewestValid(const std::string& dir,
                                                     std::string* error) {
  std::string last_error = "no snapshot files in " + dir;
  for (const std::string& path : ListSnapshotFiles(dir)) {
    std::string why;
    auto snap = MappedSnapshot::Map(path, &why);
    if (snap != nullptr) return snap;
    last_error = why;
  }
  SetError(error, last_error);
  return nullptr;
}

}  // namespace rmi::store
