#include "serving/synthetic.h"

#include <algorithm>
#include <utility>

#include "common/missing.h"
#include "common/rng.h"
#include "geometry/geometry.h"

namespace rmi::serving {

namespace {

/// Floor-plane position of local AP `a` — the single deterministic
/// scatter shared by the one-floor map and the venue floors, so floors
/// are structurally alike.
geom::Point LocalApPosition(size_t a, size_t nx, size_t ny) {
  return {double((a * 7 + 1) % nx), double((a * 3 + 2) % ny)};
}

}  // namespace

rmap::RadioMap MakeSyntheticServingMap(size_t nx, size_t ny, size_t num_aps,
                                       uint64_t seed) {
  rmap::RadioMap map(num_aps);
  std::vector<geom::Point> ap_pos;
  for (size_t a = 0; a < num_aps; ++a) {
    ap_pos.push_back(LocalApPosition(a, nx, ny));
  }
  Rng rng(seed);
  for (size_t y = 0; y < ny; ++y) {
    for (size_t x = 0; x < nx; ++x) {
      rmap::Record r;
      r.rssi.resize(num_aps);
      const geom::Point pos{double(x), double(y)};
      for (size_t a = 0; a < num_aps; ++a) {
        const double d = geom::Distance(pos, ap_pos[a]);
        r.rssi[a] = ClampRssi(-28.0 - 2.1 * d + rng.Uniform(-1.5, 1.5));
      }
      r.has_rp = true;
      r.rp = pos;
      r.time = double(y * nx + x);
      r.path_id = y;
      map.Add(r);
    }
  }
  return map;
}

la::Matrix MakeSyntheticQueries(const rmap::RadioMap& map, size_t count,
                                double null_fraction, uint64_t seed) {
  Rng rng(seed);
  la::Matrix q(count, map.num_aps());
  for (size_t i = 0; i < count; ++i) {
    const rmap::Record& r = map.record(rng.Index(map.size()));
    size_t observed = 0;
    for (size_t j = 0; j < map.num_aps(); ++j) {
      if (rng.Bernoulli(null_fraction)) {
        q(i, j) = kNull;
      } else {
        q(i, j) = ClampRssi(r.rssi[j] + rng.Uniform(-2.0, 2.0));
        ++observed;
      }
    }
    if (observed == 0) q(i, 0) = ClampRssi(r.rssi[0]);  // never all-null
  }
  return q;
}

std::vector<double> MatrixRow(const la::Matrix& m, size_t i) {
  std::vector<double> row(m.cols());
  for (size_t j = 0; j < m.cols(); ++j) row[j] = m(i, j);
  return row;
}

std::vector<VenueShard> MakeSyntheticVenue(const VenueOptions& options) {
  const size_t floors = options.floors_per_building;
  const size_t per_floor = options.aps_per_floor;
  const size_t num_shards = options.num_buildings * floors;
  const size_t num_aps = num_shards * per_floor;
  Rng rng(options.seed);

  std::vector<VenueShard> shards;
  shards.reserve(num_shards);
  for (size_t b = 0; b < options.num_buildings; ++b) {
    for (size_t f = 0; f < floors; ++f) {
      const size_t s = b * floors + f;
      VenueShard shard;
      shard.id = rmap::ShardId{int32_t(b), int32_t(f)};

      // Audible APs: the floor's own block at full strength, plus the
      // first bleed_aps of each vertically adjacent floor, attenuated.
      // (global AP index, extra path loss dB)
      std::vector<std::pair<size_t, double>> audible;
      for (size_t a = 0; a < per_floor; ++a) {
        audible.emplace_back(s * per_floor + a, 0.0);
      }
      for (int df : {-1, 1}) {
        const int nf = int(f) + df;
        if (nf < 0 || nf >= int(floors)) continue;
        const size_t ns = b * floors + size_t(nf);
        for (size_t a = 0; a < std::min(options.bleed_aps, per_floor); ++a) {
          audible.emplace_back(ns * per_floor + a,
                               options.floor_attenuation_db);
        }
      }

      rmap::RadioMap map(num_aps);
      map.set_shard(shard.id);
      for (size_t y = 0; y < options.ny; ++y) {
        for (size_t x = 0; x < options.nx; ++x) {
          rmap::Record r;
          r.rssi.assign(num_aps, kMnarFillDbm);
          const geom::Point pos{double(x), double(y)};
          for (const auto& [ap, attenuation] : audible) {
            const geom::Point ap_pos =
                LocalApPosition(ap % per_floor, options.nx, options.ny);
            const double d = geom::Distance(pos, ap_pos);
            r.rssi[ap] = ClampRssi(-28.0 - 2.1 * d - attenuation +
                                   rng.Uniform(-1.5, 1.5));
          }
          r.has_rp = true;
          r.rp = pos;
          r.time = double(y * options.nx + x);
          r.path_id = y;
          map.Add(r);
        }
      }
      shard.map = std::move(map);
      shard.audible_aps.reserve(audible.size());
      for (const auto& [ap, attenuation] : audible) {
        shard.audible_aps.push_back(ap);
      }
      std::sort(shard.audible_aps.begin(), shard.audible_aps.end());
      shards.push_back(std::move(shard));
    }
  }
  return shards;
}

}  // namespace rmi::serving
