// The store layer's crash-consistency and ABI contracts:
//  * record codec round-trips every field — kNull RSSIs, unassigned ids,
//    RP-less records — and classifies torn vs corrupt frames;
//  * snapshot files round-trip bit-exactly (reference rows, positions, AP
//    ids, survey base), are byte-deterministic, and keep every section
//    64-byte aligned;
//  * validation refuses bit flips (header and payload CRC), truncation,
//    format-version skew, and CRC-valid headers whose shape fields
//    overflow, outgrow the file, or leave a required section empty;
//    MapNewestValid walks past torn files and ".tmp" rename-race orphans
//    to the newest valid one;
//  * the WAL replays appends in order across rotation, deletes sealed
//    segments below the watermark, tolerates torn tails, and stops a
//    segment at a CRC-failed frame.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/missing.h"
#include "common/rng.h"
#include "positioning/estimators.h"
#include "serving/synthetic.h"
#include "store/crc32c.h"
#include "store/record_codec.h"
#include "store/snapshot_format.h"
#include "store/wal.h"

namespace rmi::store {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test case (removed and recreated, so a
/// rerun never sees a previous run's files).
std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void FlipByte(const std::string& path, size_t offset) {
  std::string bytes = ReadFile(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5A);
  WriteFile(path, bytes);
}

void TruncateFile(const std::string& path, size_t new_size) {
  std::string bytes = ReadFile(path);
  ASSERT_LE(new_size, bytes.size());
  bytes.resize(new_size);
  WriteFile(path, bytes);
}

/// Rewrites the header of the snapshot file at `path` through `patch` and
/// re-stamps header_crc (the payload CRC is left alone), so a refusal is
/// the structural validation itself, not CRC collateral.
template <typename Patch>
void PatchHeader(const std::string& path, Patch patch) {
  std::string bytes = ReadFile(path);
  SnapshotHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  patch(&h);
  h.header_crc = Crc32c(&h, offsetof(SnapshotHeader, header_crc));
  std::memcpy(bytes.data(), &h, sizeof(h));
  WriteFile(path, bytes);
}

/// Field-exact record equality, NaN cells compared as bit patterns.
void ExpectRecordsEqual(const rmap::Record& a, const rmap::Record& b) {
  ASSERT_EQ(a.rssi.size(), b.rssi.size());
  for (size_t j = 0; j < a.rssi.size(); ++j) {
    uint64_t ba = 0;
    uint64_t bb = 0;
    std::memcpy(&ba, &a.rssi[j], sizeof(ba));
    std::memcpy(&bb, &b.rssi[j], sizeof(bb));
    EXPECT_EQ(ba, bb) << "rssi[" << j << "]";
  }
  EXPECT_EQ(a.has_rp, b.has_rp);
  if (a.has_rp && b.has_rp) {
    EXPECT_EQ(a.rp.x, b.rp.x);
    EXPECT_EQ(a.rp.y, b.rp.y);
  }
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.path_id, b.path_id);
  EXPECT_EQ(a.id, b.id);
}

rmap::Record MakeRecord(size_t width, uint64_t salt) {
  rmap::Record r;
  r.rssi.resize(width);
  for (size_t j = 0; j < width; ++j) {
    r.rssi[j] = (j + salt) % 3 == 0
                    ? kNull
                    : -30.0 - static_cast<double>((j * 7 + salt) % 60);
  }
  r.rp = {1.5 * static_cast<double>(salt), 0.25 + static_cast<double>(salt)};
  r.has_rp = salt % 2 == 0;
  r.time = 0.125 * static_cast<double>(salt);
  r.path_id = salt % 5;
  r.id = salt % 4 == 0 ? rmap::Record::kUnassignedId : 1000 + salt;
  return r;
}

/// A fitted WKNN over a small complete synthetic map plus the matching
/// snapshot write request — the fixture most snapshot tests start from.
struct FittedShard {
  rmap::RadioMap map;
  positioning::KnnEstimator knn{3, true};

  explicit FittedShard(uint64_t seed = 7) : knn(3, true) {
    map = serving::MakeSyntheticServingMap(8, 6, 12, seed);
    map.set_shard({2, 5});
    Rng rng(seed);
    knn.Fit(map, rng);
  }

  SnapshotWriteRequest Request(uint64_t version, uint64_t watermark) const {
    SnapshotWriteRequest req;
    req.snapshot_version = version;
    req.shard = map.shard();
    req.wal_watermark = watermark;
    req.num_refs = knn.labels().size();
    req.num_aps = map.num_aps();
    req.refs = knn.features().data().data();
    req.positions = knn.labels().data();
    req.base = &map;
    return req;
  }
};

// ---------------------------------------------------------------- codec --

TEST(RecordCodec, FrameRoundTripsEveryFieldIncludingNullsAndUnassignedIds) {
  for (uint64_t salt = 0; salt < 8; ++salt) {
    const rmap::Record original = MakeRecord(11, salt);
    std::string buf;
    AppendRecordFrame(original, &buf);

    rmap::Record parsed;
    size_t consumed = 0;
    ASSERT_EQ(ParseRecordFrame(reinterpret_cast<const uint8_t*>(buf.data()),
                               buf.size(), &parsed, &consumed),
              FrameStatus::kOk);
    EXPECT_EQ(consumed, buf.size());
    ExpectRecordsEqual(original, parsed);
  }
}

TEST(RecordCodec, ShortBufferIsTornNotCorrupt) {
  std::string buf;
  AppendRecordFrame(MakeRecord(9, 3), &buf);

  rmap::Record out;
  size_t consumed = 0;
  const auto* p = reinterpret_cast<const uint8_t*>(buf.data());
  // Every strict prefix — mid-header and mid-payload — is a torn tail.
  for (size_t avail = 0; avail < buf.size(); ++avail) {
    EXPECT_EQ(ParseRecordFrame(p, avail, &out, &consumed),
              FrameStatus::kTruncated)
        << "avail=" << avail;
  }
}

TEST(RecordCodec, BitFlippedPayloadIsCorrupt) {
  std::string buf;
  AppendRecordFrame(MakeRecord(9, 4), &buf);
  buf[kFrameHeaderBytes + 5] ^= 0x10;

  rmap::Record out;
  size_t consumed = 0;
  EXPECT_EQ(ParseRecordFrame(reinterpret_cast<const uint8_t*>(buf.data()),
                             buf.size(), &out, &consumed),
            FrameStatus::kCorrupt);
}

// ------------------------------------------------------------- snapshot --

TEST(SnapshotFormat, WriteMapRoundTripsEverySection) {
  const std::string dir = ScratchDir("snap_roundtrip");
  const FittedShard shard;
  const std::string path = dir + "/" + SnapshotFileName(42);

  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, shard.Request(42, 9), &error)) << error;

  auto mapped = MappedSnapshot::Map(path, &error);
  ASSERT_NE(mapped, nullptr) << error;

  const SnapshotHeader& h = mapped->header();
  EXPECT_EQ(h.snapshot_version, 42u);
  EXPECT_EQ(h.building, 2);
  EXPECT_EQ(h.floor, 5);
  EXPECT_EQ(h.wal_watermark, 9u);
  EXPECT_EQ(h.num_refs, shard.knn.labels().size());
  EXPECT_EQ(h.num_aps, shard.map.num_aps());
  EXPECT_EQ(h.flags, kFlagHasBase);

  const MapSnapshotView view = mapped->view();
  EXPECT_EQ(std::memcmp(view.refs, shard.knn.features().data().data(),
                        view.num_refs * view.num_aps * sizeof(double)),
            0);
  for (size_t r = 0; r < view.num_refs; ++r) {
    EXPECT_EQ(view.positions[r].x, shard.knn.labels()[r].x);
    EXPECT_EQ(view.positions[r].y, shard.knn.labels()[r].y);
  }
  for (size_t j = 0; j < view.num_aps; ++j) {
    EXPECT_EQ(view.ap_ids[j], j);  // identity mapping when none supplied
  }

  rmap::RadioMap base;
  ASSERT_TRUE(mapped->DecodeBase(&base));
  ASSERT_EQ(base.size(), shard.map.size());
  EXPECT_EQ(base.num_aps(), shard.map.num_aps());
  for (size_t i = 0; i < base.size(); ++i) {
    ExpectRecordsEqual(shard.map.record(i), base.record(i));
  }
}

TEST(SnapshotFormat, EverySectionOffsetIsCacheLineAligned) {
  const std::string dir = ScratchDir("snap_align");
  const FittedShard shard;
  const std::string path = dir + "/" + SnapshotFileName(1);
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, shard.Request(1, 1), &error)) << error;

  auto mapped = MappedSnapshot::Map(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  for (uint32_t s = 0; s < kNumSections; ++s) {
    const SectionRange& range = mapped->header().sections[s];
    EXPECT_EQ(range.offset % kSectionAlign, 0u) << "section " << s;
    if (range.size != 0) {
      EXPECT_GE(range.offset, kSnapshotHeaderBytes) << "section " << s;
    }
  }
}

TEST(SnapshotFormat, SameStateSerializesToIdenticalBytes) {
  // The determinism contract the restart-equality tests and the CI ABI
  // canary stand on: no timestamps, zeroed padding, stable section order.
  const std::string dir = ScratchDir("snap_determinism");
  const FittedShard shard;
  std::string error;
  ASSERT_TRUE(
      WriteSnapshotFile(dir + "/a.rmsnap", shard.Request(7, 3), &error))
      << error;
  ASSERT_TRUE(
      WriteSnapshotFile(dir + "/b.rmsnap", shard.Request(7, 3), &error))
      << error;
  EXPECT_EQ(ReadFile(dir + "/a.rmsnap"), ReadFile(dir + "/b.rmsnap"));
}

TEST(SnapshotFormat, HeaderBitFlipIsRefused) {
  const std::string dir = ScratchDir("snap_hdr_flip");
  const FittedShard shard;
  const std::string path = dir + "/" + SnapshotFileName(1);
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, shard.Request(1, 1), &error)) << error;

  FlipByte(path, offsetof(SnapshotHeader, num_refs));
  EXPECT_EQ(MappedSnapshot::Map(path, &error), nullptr);
  EXPECT_NE(error.find("header"), std::string::npos) << error;
}

TEST(SnapshotFormat, PayloadBitFlipIsRefused) {
  const std::string dir = ScratchDir("snap_payload_flip");
  const FittedShard shard;
  const std::string path = dir + "/" + SnapshotFileName(1);
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, shard.Request(1, 1), &error)) << error;

  FlipByte(path, kSnapshotHeaderBytes + 17);
  EXPECT_EQ(MappedSnapshot::Map(path, &error), nullptr);
  EXPECT_NE(error.find("payload"), std::string::npos) << error;
}

TEST(SnapshotFormat, FutureFormatVersionIsRefusedEvenWithValidCrc) {
  const std::string dir = ScratchDir("snap_version");
  const FittedShard shard;
  const std::string path = dir + "/" + SnapshotFileName(1);
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, shard.Request(1, 1), &error)) << error;

  PatchHeader(path, [](SnapshotHeader* h) {
    h->format_version = kSnapshotFormatVersion + 1;
  });

  EXPECT_EQ(MappedSnapshot::Map(path, &error), nullptr);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SnapshotFormat, CrcValidHeaderWithBadShapeIsRefused) {
  const std::string dir = ScratchDir("snap_shape");
  const FittedShard shard;
  const std::string path = dir + "/" + SnapshotFileName(1);
  const std::string pristine = [&] {
    std::string error;
    EXPECT_TRUE(WriteSnapshotFile(path, shard.Request(1, 1), &error))
        << error;
    return ReadFile(path);
  }();
  std::string error;

  // num_refs = 2^62 wraps refs (x 12 APs x 8 bytes) and positions (x 16
  // bytes) to 0 in 64-bit arithmetic: with both row sections sized 0, an
  // unchecked product would match them and hand out pointers past the
  // mapping.
  PatchHeader(path, [](SnapshotHeader* h) {
    h->num_refs = uint64_t{1} << 62;
    h->sections[kSecFloatRefs].size = 0;
    h->sections[kSecPositions].size = 0;
  });
  EXPECT_EQ(MappedSnapshot::Map(path, &error), nullptr);
  EXPECT_NE(error.find("overflow"), std::string::npos) << error;

  // A shape that does not overflow but needs more bytes than the file has.
  WriteFile(path, pristine);
  PatchHeader(path, [](SnapshotHeader* h) { h->num_refs = uint64_t{1} << 40; });
  EXPECT_EQ(MappedSnapshot::Map(path, &error), nullptr);
  EXPECT_NE(error.find("more than the whole file"), std::string::npos)
      << error;

  // Zero APs make the row products 0: the empty sections then match the
  // shape, and only the non-empty-shape rule refuses them.
  WriteFile(path, pristine);
  PatchHeader(path, [](SnapshotHeader* h) {
    h->num_aps = 0;
    h->sections[kSecFloatRefs].size = 0;
    h->sections[kSecApIds].size = 0;
  });
  EXPECT_EQ(MappedSnapshot::Map(path, &error), nullptr);
  EXPECT_NE(error.find("empty"), std::string::npos) << error;

  WriteFile(path, pristine);
  EXPECT_NE(MappedSnapshot::Map(path, &error), nullptr) << error;
}

TEST(SnapshotFormat, TruncatedFileIsRefused) {
  const std::string dir = ScratchDir("snap_trunc");
  const FittedShard shard;
  const std::string path = dir + "/" + SnapshotFileName(1);
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, shard.Request(1, 1), &error)) << error;

  const size_t full = fs::file_size(path);
  TruncateFile(path, full - 1);
  EXPECT_EQ(MappedSnapshot::Map(path, &error), nullptr);
  TruncateFile(path, kSnapshotHeaderBytes / 2);  // even the header is torn
  EXPECT_EQ(MappedSnapshot::Map(path, &error), nullptr);
}

TEST(SnapshotFormat, MapNewestValidWalksPastTornFilesAndTmpOrphans) {
  const std::string dir = ScratchDir("snap_newest");
  const FittedShard shard;
  std::string error;
  // Version 5: valid. Version 9: torn mid-write. Plus a ".tmp" orphan from
  // a writer that lost the rename race.
  ASSERT_TRUE(WriteSnapshotFile(dir + "/" + SnapshotFileName(5),
                                shard.Request(5, 2), &error))
      << error;
  ASSERT_TRUE(WriteSnapshotFile(dir + "/" + SnapshotFileName(9),
                                shard.Request(9, 4), &error))
      << error;
  TruncateFile(dir + "/" + SnapshotFileName(9), kSnapshotHeaderBytes + 100);
  WriteFile(dir + "/" + SnapshotFileName(11) + ".tmp", "partial write");

  const std::vector<std::string> files = ListSnapshotFiles(dir);
  ASSERT_EQ(files.size(), 2u);  // the .tmp orphan is not a snapshot
  EXPECT_NE(files[0].find(SnapshotFileName(9)), std::string::npos);

  auto mapped = MapNewestValid(dir, &error);
  ASSERT_NE(mapped, nullptr) << error;
  EXPECT_EQ(mapped->header().snapshot_version, 5u);

  // An empty or missing directory is a clean miss, not an error crash.
  EXPECT_EQ(MapNewestValid(dir + "/does_not_exist", &error), nullptr);
}

// ------------------------------------------------------------------ WAL --

std::vector<rmap::Record> MakeWalRecords(size_t count, size_t width) {
  std::vector<rmap::Record> records;
  for (size_t i = 0; i < count; ++i) records.push_back(MakeRecord(width, i));
  return records;
}

TEST(Wal, ReplaysAppendsInOrderAcrossReopen) {
  const std::string dir = ScratchDir("wal_replay");
  const std::vector<rmap::Record> records = MakeWalRecords(10, 7);
  std::string error;
  {
    Wal::ReplayResult replay;
    auto wal = Wal::Open(dir, 0, {.sync_every = 4}, &replay, &error);
    ASSERT_NE(wal, nullptr) << error;
    EXPECT_TRUE(replay.records.empty());
    EXPECT_EQ(wal->active_segment(), 1u);
    for (const rmap::Record& r : records) {
      ASSERT_TRUE(wal->Append(r, &error)) << error;
    }
  }  // dtor syncs the group-commit tail

  Wal::ReplayResult replay;
  auto wal = Wal::Open(dir, 0, {}, &replay, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(replay.segments_replayed, 1u);
  EXPECT_EQ(replay.segments_deleted, 0u);
  EXPECT_FALSE(replay.tail_truncated);
  EXPECT_FALSE(replay.corrupt_frame);
  ASSERT_EQ(replay.records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ExpectRecordsEqual(records[i], replay.records[i]);
  }
  // A reopened log appends to a *fresh* segment, never a pre-existing one.
  EXPECT_EQ(wal->active_segment(), 2u);
}

TEST(Wal, WatermarkDeletesSealedSegmentsAndReplaysTheRest) {
  const std::string dir = ScratchDir("wal_watermark");
  const std::vector<rmap::Record> records = MakeWalRecords(6, 5);
  std::string error;
  uint64_t watermark = 0;
  {
    Wal::ReplayResult replay;
    auto wal = Wal::Open(dir, 0, {}, &replay, &error);
    ASSERT_NE(wal, nullptr) << error;
    // Segment 1: records 0..2. Rotate (the publish step). Segment 2: 3..5.
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal->Append(records[i], &error)) << error;
    }
    watermark = wal->Rotate(&error);
    ASSERT_EQ(watermark, 2u) << error;
    for (size_t i = 3; i < 6; ++i) {
      ASSERT_TRUE(wal->Append(records[i], &error)) << error;
    }
  }

  // Restart with the snapshot's watermark: the sealed segment below it is
  // deleted (those records live in the snapshot's base section) and only
  // the post-rotation records replay.
  Wal::ReplayResult replay;
  auto wal = Wal::Open(dir, watermark, {}, &replay, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(replay.segments_deleted, 1u);
  ASSERT_EQ(replay.records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ExpectRecordsEqual(records[3 + i], replay.records[i]);
  }
  EXPECT_FALSE(fs::exists(fs::path(dir) / WalSegmentFileName(1)));
}

TEST(Wal, TornTailIsToleratedCrcFailureIsFlagged) {
  const std::string dir = ScratchDir("wal_torn");
  const std::vector<rmap::Record> records = MakeWalRecords(5, 6);
  std::string error;
  {
    Wal::ReplayResult replay;
    auto wal = Wal::Open(dir, 0, {}, &replay, &error);
    ASSERT_NE(wal, nullptr) << error;
    for (const rmap::Record& r : records) {
      ASSERT_TRUE(wal->Append(r, &error)) << error;
    }
  }
  const std::string segment =
      (fs::path(dir) / WalSegmentFileName(1)).string();

  // Crash mid-append: shear a few bytes off the tail. Replay recovers
  // every complete frame and flags the torn (not corrupt) tail.
  TruncateFile(segment, fs::file_size(segment) - 3);
  {
    Wal::ReplayResult replay;
    auto wal = Wal::Open(dir, 0, {}, &replay, &error);
    ASSERT_NE(wal, nullptr) << error;
    EXPECT_TRUE(replay.tail_truncated);
    EXPECT_FALSE(replay.corrupt_frame);
    ASSERT_EQ(replay.records.size(), records.size() - 1);
    for (size_t i = 0; i + 1 < records.size(); ++i) {
      ExpectRecordsEqual(records[i], replay.records[i]);
    }
  }

  // Bit rot mid-segment: a CRC-failed frame with a plausible header stops
  // that segment's replay and is flagged as corruption.
  const std::string segment2 =
      (fs::path(dir) / WalSegmentFileName(1)).string();
  std::string frame0;
  AppendRecordFrame(records[0], &frame0);
  FlipByte(segment2, kWalHeaderBytes + frame0.size() + kFrameHeaderBytes + 2);
  {
    Wal::ReplayResult replay;
    auto wal = Wal::Open(dir, 0, {}, &replay, &error);
    ASSERT_NE(wal, nullptr) << error;
    EXPECT_TRUE(replay.corrupt_frame);
    ASSERT_EQ(replay.records.size(), 1u);  // only the frame before the rot
    ExpectRecordsEqual(records[0], replay.records[0]);
  }
}

TEST(Wal, HeaderlessStubSegmentIsATornTail) {
  const std::string dir = ScratchDir("wal_stub");
  std::string error;
  {
    Wal::ReplayResult replay;
    auto wal = Wal::Open(dir, 0, {}, &replay, &error);
    ASSERT_NE(wal, nullptr) << error;
    ASSERT_TRUE(wal->Append(MakeRecord(4, 1), &error)) << error;
  }
  // A crash immediately after segment creation leaves a short stub.
  TruncateFile((fs::path(dir) / WalSegmentFileName(1)).string(),
               kWalHeaderBytes / 2);

  Wal::ReplayResult replay;
  auto wal = Wal::Open(dir, 0, {}, &replay, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_TRUE(replay.tail_truncated);
  EXPECT_FALSE(replay.corrupt_frame);
  EXPECT_TRUE(replay.records.empty());
}

}  // namespace
}  // namespace rmi::store
