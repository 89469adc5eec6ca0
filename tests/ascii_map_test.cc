#include <gtest/gtest.h>

#include "indoor/ascii_map.h"

namespace rmi::indoor {
namespace {

Venue SmallVenue() {
  VenueSpec s;
  s.width = 30;
  s.height = 30;
  s.rooms_x = 2;
  s.rooms_y = 2;
  s.hallway_width = 3;
  s.num_aps = 10;
  s.rp_spacing = 5;
  s.seed = 4;
  return GenerateVenue(s);
}

TEST(AsciiMapTest, ContainsAllGlyphKinds) {
  const Venue v = SmallVenue();
  const std::string art = RenderVenueAscii(v);
  EXPECT_NE(art.find('#'), std::string::npos);  // walls
  EXPECT_NE(art.find('A'), std::string::npos);  // APs
  EXPECT_NE(art.find('o'), std::string::npos);  // RPs
  EXPECT_NE(art.find('\n'), std::string::npos);
}

TEST(AsciiMapTest, RespectsWidth) {
  const Venue v = SmallVenue();
  AsciiMapOptions opt;
  opt.width_chars = 40;
  const std::string art = RenderVenueAscii(v, opt);
  const size_t first_line = art.find('\n');
  EXPECT_EQ(first_line, 40u);
  // All rows equal width.
  size_t pos = 0;
  while (pos < art.size()) {
    const size_t next = art.find('\n', pos);
    ASSERT_NE(next, std::string::npos);
    EXPECT_EQ(next - pos, 40u);
    pos = next + 1;
  }
}

TEST(AsciiMapTest, TogglesLayers) {
  const Venue v = SmallVenue();
  AsciiMapOptions opt;
  opt.show_aps = false;
  opt.show_rps = false;
  const std::string art = RenderVenueAscii(v, opt);
  EXPECT_EQ(art.find('A'), std::string::npos);
  EXPECT_EQ(art.find('o'), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(AsciiMapTest, OutOfBoundsPointIgnored) {
  Venue v = SmallVenue();
  v.aps = {AccessPoint{{-5.0, 500.0}}};
  const std::string art = RenderVenueAscii(v);
  EXPECT_EQ(art.find('A'), std::string::npos);
}

TEST(AsciiMapTest, TopRowIsMaxY) {
  Venue v = SmallVenue();
  // One AP near the top edge (max y); it must appear on row 0.
  v.aps = {AccessPoint{{15.0, 29.9}}};
  const std::string art =
      RenderVenueAscii(v, AsciiMapOptions{.width_chars = 40,
                                          .show_aps = true,
                                          .show_rps = false,
                                          .show_walls = false});
  const size_t marker = art.find('A');
  ASSERT_NE(marker, std::string::npos);
  EXPECT_LT(marker, art.find('\n'));
}

}  // namespace
}  // namespace rmi::indoor
