#include "eval/metrics.h"

#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "common/missing.h"

namespace rmi::eval {

double AveragePositioningError(const std::vector<geom::Point>& estimates,
                               const std::vector<geom::Point>& truths) {
  RMI_CHECK_EQ(estimates.size(), truths.size());
  if (estimates.empty()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < estimates.size(); ++i) {
    sum += geom::Distance(estimates[i], truths[i]);
  }
  return sum / static_cast<double>(estimates.size());
}

namespace {

/// record id -> index in `map`.
std::unordered_map<size_t, size_t> IdIndex(const rmap::RadioMap& map) {
  std::unordered_map<size_t, size_t> idx;
  idx.reserve(map.size());
  for (size_t i = 0; i < map.size(); ++i) idx[map.record(i).id] = i;
  return idx;
}

}  // namespace

double RssiMae(const rmap::RadioMap& imputed,
               const std::vector<rmap::RemovedRssi>& removed) {
  if (removed.empty()) return 0.0;
  const auto idx = IdIndex(imputed);
  double sum = 0.0;
  size_t count = 0;
  for (const rmap::RemovedRssi& cell : removed) {
    auto it = idx.find(cell.record);
    if (it == idx.end()) continue;  // record deleted by the imputer
    const double v = imputed.record(it->second).rssi[cell.ap];
    RMI_CHECK(!IsNull(v));
    sum += std::fabs(v - cell.value);
    ++count;
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

double RpEuclideanError(const rmap::RadioMap& imputed,
                        const std::vector<rmap::RemovedRp>& removed) {
  if (removed.empty()) return 0.0;
  const auto idx = IdIndex(imputed);
  double sum = 0.0;
  size_t count = 0;
  for (const rmap::RemovedRp& cell : removed) {
    auto it = idx.find(cell.record);
    if (it == idx.end()) continue;
    const rmap::Record& r = imputed.record(it->second);
    RMI_CHECK(r.has_rp);
    sum += geom::Distance(r.rp, cell.rp);
    ++count;
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace rmi::eval
