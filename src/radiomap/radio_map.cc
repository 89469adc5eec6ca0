#include "radiomap/radio_map.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"

namespace rmi::rmap {

std::string ToString(const ShardId& id) {
  return "b" + std::to_string(id.building) + "/f" + std::to_string(id.floor);
}

const char* RecordValidationError(const Record& r, size_t num_aps) {
  if (r.rssi.size() != num_aps) return "record width does not match the map";
  for (double v : r.rssi) {
    if (std::isinf(v)) return "record carries an infinite RSSI";
  }
  if (r.has_rp && !(std::isfinite(r.rp.x) && std::isfinite(r.rp.y))) {
    return "labeled record has a non-finite RP";
  }
  return nullptr;
}

void RadioMap::Add(Record r) {
  RMI_CHECK_EQ(r.rssi.size(), num_aps_);
  if (r.id == Record::kUnassignedId) r.id = records_.size();
  records_.push_back(std::move(r));
}

double RadioMap::MissingRssiRate() const {
  if (records_.empty() || num_aps_ == 0) return 0.0;
  size_t missing = 0;
  for (const Record& r : records_) missing += num_aps_ - r.NumObserved();
  return static_cast<double>(missing) /
         static_cast<double>(records_.size() * num_aps_);
}

double RadioMap::MissingRpRate() const {
  if (records_.empty()) return 0.0;
  size_t missing = 0;
  for (const Record& r : records_) missing += !r.has_rp;
  return static_cast<double>(missing) / static_cast<double>(records_.size());
}

std::vector<std::vector<size_t>> RadioMap::PathSequences() const {
  std::map<size_t, std::vector<size_t>> by_path;
  for (size_t i = 0; i < records_.size(); ++i) {
    by_path[records_[i].path_id].push_back(i);
  }
  std::vector<std::vector<size_t>> out;
  out.reserve(by_path.size());
  for (auto& [path, idx] : by_path) {
    std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      return records_[a].time < records_[b].time;
    });
    out.push_back(std::move(idx));
  }
  return out;
}

std::vector<geom::Point> RadioMap::InterpolatedRps() const {
  std::vector<geom::Point> out(records_.size());
  // Global fallback: centroid of observed RPs.
  geom::Point centroid{0.0, 0.0};
  size_t n_obs = 0;
  for (const Record& r : records_) {
    if (r.has_rp) {
      centroid = centroid + r.rp;
      ++n_obs;
    }
  }
  if (n_obs > 0) centroid = centroid * (1.0 / static_cast<double>(n_obs));

  for (const auto& seq : PathSequences()) {
    // Positions of observed RPs within the sequence.
    std::vector<size_t> obs;
    for (size_t k = 0; k < seq.size(); ++k) {
      if (records_[seq[k]].has_rp) obs.push_back(k);
    }
    for (size_t k = 0; k < seq.size(); ++k) {
      const Record& r = records_[seq[k]];
      if (r.has_rp) {
        out[seq[k]] = r.rp;
        continue;
      }
      if (obs.empty()) {
        out[seq[k]] = centroid;
        continue;
      }
      // prev = last observed <= k, next = first observed >= k.
      auto it = std::lower_bound(obs.begin(), obs.end(), k);
      if (it == obs.begin()) {
        out[seq[k]] = records_[seq[obs.front()]].rp;
      } else if (it == obs.end()) {
        out[seq[k]] = records_[seq[obs.back()]].rp;
      } else {
        const size_t next = *it;
        const size_t prev = *(it - 1);
        const Record& a = records_[seq[prev]];
        const Record& b = records_[seq[next]];
        const double span = b.time - a.time;
        const double w = span > 0 ? (r.time - a.time) / span : 0.5;
        out[seq[k]] = a.rp + (b.rp - a.rp) * w;
      }
    }
  }
  return out;
}

size_t MaskMatrix::CountOf(MaskValue v) const {
  size_t n = 0;
  for (int8_t x : values_) n += (x == static_cast<int8_t>(v));
  return n;
}

double MaskMatrix::MarShareOfMissing() const {
  const size_t mar = CountOf(MaskValue::kMar);
  const size_t mnar = CountOf(MaskValue::kMnar);
  return (mar + mnar) ? static_cast<double>(mar) /
                            static_cast<double>(mar + mnar)
                      : 0.0;
}

std::vector<uint8_t> Binarization(const std::vector<double>& fingerprint) {
  std::vector<uint8_t> b(fingerprint.size(), 1);
  for (size_t d = 0; d < fingerprint.size(); ++d) {
    if (IsNull(fingerprint[d])) b[d] = 0;
  }
  return b;
}

std::vector<RemovedRssi> RemoveRandomRssis(RadioMap* map, double ratio,
                                           Rng& rng) {
  RMI_CHECK(map != nullptr);
  RMI_CHECK(ratio >= 0.0 && ratio <= 1.0);
  std::vector<std::pair<size_t, size_t>> observed;
  for (size_t i = 0; i < map->size(); ++i) {
    const Record& r = map->record(i);
    for (size_t d = 0; d < r.rssi.size(); ++d) {
      if (!IsNull(r.rssi[d])) observed.emplace_back(i, d);
    }
  }
  const size_t k = static_cast<size_t>(
      ratio * static_cast<double>(observed.size()) + 0.5);
  std::vector<RemovedRssi> removed;
  removed.reserve(k);
  for (size_t pick : rng.SampleWithoutReplacement(observed.size(), k)) {
    const auto [i, d] = observed[pick];
    removed.push_back({map->record(i).id, d, map->record(i).rssi[d]});
    map->record(i).rssi[d] = kNull;
  }
  return removed;
}

std::vector<RemovedRp> RemoveRandomRps(RadioMap* map, double ratio, Rng& rng) {
  RMI_CHECK(map != nullptr);
  RMI_CHECK(ratio >= 0.0 && ratio <= 1.0);
  std::vector<size_t> observed;
  for (size_t i = 0; i < map->size(); ++i) {
    if (map->record(i).has_rp) observed.push_back(i);
  }
  const size_t k = static_cast<size_t>(
      ratio * static_cast<double>(observed.size()) + 0.5);
  std::vector<RemovedRp> removed;
  removed.reserve(k);
  for (size_t pick : rng.SampleWithoutReplacement(observed.size(), k)) {
    const size_t i = observed[pick];
    removed.push_back({map->record(i).id, map->record(i).rp});
    map->record(i).has_rp = false;
    map->record(i).rp = geom::Point{};
  }
  return removed;
}

}  // namespace rmi::rmap
