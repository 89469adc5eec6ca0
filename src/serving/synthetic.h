// Synthetic serving workloads — the reference-map and query generators
// shared by tests/serving_test.cc and bench/bench_serving_throughput.cc so
// correctness checks and acceptance numbers run on the same distribution.
#ifndef RMI_SERVING_SYNTHETIC_H_
#define RMI_SERVING_SYNTHETIC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "radiomap/radio_map.h"

namespace rmi::serving {

/// Complete, fully labeled radio map: nx * ny reference points on a 1 m
/// grid, distance-decay RSSIs from APs scattered deterministically over the
/// floor, plus uniform jitter.
rmap::RadioMap MakeSyntheticServingMap(size_t nx, size_t ny, size_t num_aps,
                                       uint64_t seed);

/// `count` online fingerprints drawn near random reference rows of `map`
/// (RSSI jitter +-2 dBm); each cell is independently nulled with
/// probability `null_fraction`. Rows are guaranteed to observe at least
/// one AP.
la::Matrix MakeSyntheticQueries(const rmap::RadioMap& map, size_t count,
                                double null_fraction, uint64_t seed);

/// Row `i` of `m` as a vector (the estimators' scalar-query shape).
std::vector<double> MatrixRow(const la::Matrix& m, size_t i);

/// One floor of a synthetic multi-building venue: a complete, fully
/// labeled radio map over the *global* AP dimension. APs not audible on
/// the floor hold exactly the -100 dBm MNAR fill (the convention the
/// shard profiles key on).
struct VenueShard {
  rmap::ShardId id;
  rmap::RadioMap map;
  /// Global AP indices audible on this floor (own block + bleed-through
  /// from adjacent floors of the same building).
  std::vector<size_t> audible_aps;
};

struct VenueOptions {
  size_t num_buildings = 2;
  size_t floors_per_building = 3;
  /// Reference grid per floor (1 m pitch), as in MakeSyntheticServingMap.
  size_t nx = 12;
  size_t ny = 9;
  /// APs mounted on each floor; the global dimension is
  /// num_buildings * floors_per_building * aps_per_floor.
  size_t aps_per_floor = 10;
  /// Of each adjacent floor's APs, how many bleed through the slab and are
  /// audible (attenuated) on this floor — the classifier's hard case.
  size_t bleed_aps = 3;
  /// Signal attenuation of a bleed-through AP, dB.
  double floor_attenuation_db = 18.0;
  uint64_t seed = 1;
};

/// Deterministic multi-floor venue: every floor gets its own AP block plus
/// attenuated bleed-through APs from the floors directly above/below in
/// the same building. Shards are returned in ascending ShardId order.
std::vector<VenueShard> MakeSyntheticVenue(const VenueOptions& options);

}  // namespace rmi::serving

#endif  // RMI_SERVING_SYNTHETIC_H_
