#include "indoor/ascii_map.h"

#include <cmath>

#include "common/check.h"

namespace rmi::indoor {

namespace {

class Raster {
 public:
  Raster(const Venue& venue, size_t width_chars) : venue_(venue) {
    RMI_CHECK_GE(width_chars, 8u);
    cols_ = width_chars;
    // Terminal cells are ~2x taller than wide; halve the row count to keep
    // the aspect ratio roughly square.
    rows_ = std::max<size_t>(
        4, static_cast<size_t>(std::round(
               static_cast<double>(width_chars) * venue.height /
               venue.width / 2.0)));
    grid_.assign(rows_, std::string(cols_, ' '));
  }

  void Paint(const geom::Point& p, char glyph) {
    if (p.x < 0 || p.y < 0 || p.x > venue_.width || p.y > venue_.height) {
      return;
    }
    const size_t c = std::min(
        cols_ - 1,
        static_cast<size_t>(std::lround(p.x / venue_.width * (cols_ - 1))));
    const size_t r = std::min(
        rows_ - 1,
        static_cast<size_t>(std::lround(p.y / venue_.height * (rows_ - 1))));
    grid_[rows_ - 1 - r][c] = glyph;  // top row = max y
  }

  /// Rasterizes polygon edges.
  void StrokePolygon(const geom::Polygon& poly, char glyph) {
    for (size_t e = 0; e < poly.size(); ++e) {
      const geom::Segment s = poly.Edge(e);
      const double len = geom::Distance(s.a, s.b);
      const int steps = std::max(1, static_cast<int>(len / venue_.width *
                                                     static_cast<double>(cols_) * 2));
      for (int i = 0; i <= steps; ++i) {
        const double f = static_cast<double>(i) / steps;
        Paint(s.a + (s.b - s.a) * f, glyph);
      }
    }
  }

  std::string ToString() const {
    std::string out;
    for (const std::string& row : grid_) {
      out += row;
      out += '\n';
    }
    return out;
  }

 private:
  const Venue& venue_;
  size_t rows_ = 0, cols_ = 0;
  std::vector<std::string> grid_;
};

}  // namespace

std::string RenderVenueAscii(const Venue& venue,
                             const AsciiMapOptions& options) {
  Raster raster(venue, options.width_chars);
  if (options.show_walls) {
    for (const geom::Polygon& wall : venue.walls.polygons()) {
      raster.StrokePolygon(wall, '#');
    }
  }
  if (options.show_rps) {
    for (const geom::Point& rp : venue.rps) raster.Paint(rp, 'o');
  }
  if (options.show_aps) {
    for (const AccessPoint& ap : venue.aps) raster.Paint(ap.position, 'A');
  }
  return raster.ToString();
}

}  // namespace rmi::indoor
