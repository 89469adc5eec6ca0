#include <gtest/gtest.h>

#include <cstdio>

#include "common/missing.h"
#include "radiomap/io.h"

namespace rmi::rmap {
namespace {

RadioMap SampleMap() {
  RadioMap map(3);
  Record a;
  a.rssi = {-70.5, kNull, -88.25};
  a.has_rp = true;
  a.rp = {12.5, 3.75};
  a.time = 1.5;
  a.path_id = 2;
  map.Add(a);
  Record b;
  b.rssi = {kNull, kNull, kNull};
  b.has_rp = false;
  b.time = 3.0;
  b.path_id = 2;
  map.Add(b);
  return map;
}

TEST(RadioMapIoTest, RoundTripPreservesEverything) {
  const RadioMap original = SampleMap();
  RadioMap restored;
  const Status s = RadioMapFromCsv(RadioMapToCsv(original), &restored);
  ASSERT_TRUE(s.ok()) << s.message();
  ASSERT_EQ(restored.size(), original.size());
  ASSERT_EQ(restored.num_aps(), original.num_aps());
  for (size_t i = 0; i < original.size(); ++i) {
    const Record& o = original.record(i);
    const Record& r = restored.record(i);
    EXPECT_EQ(r.id, o.id);
    EXPECT_EQ(r.path_id, o.path_id);
    EXPECT_DOUBLE_EQ(r.time, o.time);
    EXPECT_EQ(r.has_rp, o.has_rp);
    if (o.has_rp) {
      EXPECT_DOUBLE_EQ(r.rp.x, o.rp.x);
      EXPECT_DOUBLE_EQ(r.rp.y, o.rp.y);
    }
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(IsNull(r.rssi[j]), IsNull(o.rssi[j]));
      if (!IsNull(o.rssi[j])) {
        EXPECT_DOUBLE_EQ(r.rssi[j], o.rssi[j]);
      }
    }
  }
}

TEST(RadioMapIoTest, HeaderValidation) {
  RadioMap out;
  EXPECT_FALSE(RadioMapFromCsv("", &out).ok());
  EXPECT_FALSE(RadioMapFromCsv("not a header\n", &out).ok());
  EXPECT_FALSE(RadioMapFromCsv("# rmi-radio-map v1 num_aps=0\nid\n", &out).ok());
}

TEST(RadioMapIoTest, FieldCountValidation) {
  const std::string csv =
      "# rmi-radio-map v1 num_aps=2\nid,path_id,time,rp_x,rp_y,r0,r1\n"
      "0,0,1.0,,\n";  // too few fields
  RadioMap out;
  const Status s = RadioMapFromCsv(csv, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("expected"), std::string::npos);
}

TEST(RadioMapIoTest, HalfSpecifiedRpRejected) {
  const std::string csv =
      "# rmi-radio-map v1 num_aps=1\nid,path_id,time,rp_x,rp_y,r0\n"
      "0,0,1.0,5.0,,-50\n";
  RadioMap out;
  EXPECT_FALSE(RadioMapFromCsv(csv, &out).ok());
}

TEST(RadioMapIoTest, EmptyMapRoundTrips) {
  RadioMap empty(4);
  RadioMap restored;
  ASSERT_TRUE(RadioMapFromCsv(RadioMapToCsv(empty), &restored).ok());
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_EQ(restored.num_aps(), 4u);
}

TEST(RadioMapIoTest, FileRoundTrip) {
  const RadioMap original = SampleMap();
  const std::string path = "/tmp/rmi_io_test_map.csv";
  ASSERT_TRUE(SaveRadioMapCsv(original, path).ok());
  RadioMap restored;
  ASSERT_TRUE(LoadRadioMapCsv(path, &restored).ok());
  EXPECT_EQ(restored.size(), original.size());
  std::remove(path.c_str());
}

TEST(RadioMapIoTest, MissingFileReportsNotFound) {
  RadioMap out;
  const Status s = LoadRadioMapCsv("/nonexistent/rmi.csv", &out);
  EXPECT_EQ(s.code(), Status::Code::kNotFound);
}

}  // namespace
}  // namespace rmi::rmap
