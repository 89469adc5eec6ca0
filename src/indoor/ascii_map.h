// ASCII floor-plan renderer — a dependency-free way to eyeball generated
// venues, AP placements and reference points in a terminal (the library's
// stand-in for the paper's Figs. 2/3).
#ifndef RMI_INDOOR_ASCII_MAP_H_
#define RMI_INDOOR_ASCII_MAP_H_

#include <string>

#include "indoor/venue.h"

namespace rmi::indoor {

struct AsciiMapOptions {
  size_t width_chars = 72;   ///< output raster width (height keeps aspect)
  bool show_aps = true;      ///< 'A'
  bool show_rps = true;      ///< 'o'
  bool show_walls = true;    ///< '#'
};

/// Renders the venue floor plan. Glyphs: '#' wall, 'A' AP, 'o' RP,
/// '.' free floor, newline-terminated rows (top row = max y).
std::string RenderVenueAscii(const Venue& venue,
                             const AsciiMapOptions& options = {});

}  // namespace rmi::indoor

#endif  // RMI_INDOOR_ASCII_MAP_H_
