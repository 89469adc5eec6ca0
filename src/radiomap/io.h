// Radio-map persistence: a simple CSV interchange format so users can feed
// their own walking-survey data into the framework (and export imputed
// maps to positioning systems).
//
// Format (one header line, then one line per record):
//   # rmi-radio-map v1 num_aps=<D>
//   id,path_id,time,rp_x,rp_y,r0,r1,...,r<D-1>
// Missing values (null RSSIs, missing RPs) are empty fields.
//
// No bench or example calls these (they generate synthetic surveys, and
// only io_test reaches this file), but they stay: they are the only way to
// load a real survey into the library.
#ifndef RMI_RADIOMAP_IO_H_
#define RMI_RADIOMAP_IO_H_

#include <string>

#include "common/status.h"
#include "radiomap/radio_map.h"

namespace rmi::rmap {

/// Serializes a radio map to the CSV interchange format.
std::string RadioMapToCsv(const RadioMap& map);

/// Parses the CSV interchange format. Returns Invalid on malformed input.
Status RadioMapFromCsv(const std::string& csv, RadioMap* out);

/// File wrappers.
Status SaveRadioMapCsv(const RadioMap& map, const std::string& path);
Status LoadRadioMapCsv(const std::string& path, RadioMap* out);

}  // namespace rmi::rmap

#endif  // RMI_RADIOMAP_IO_H_
