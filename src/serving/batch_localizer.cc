#include "serving/batch_localizer.h"

#include <cmath>

#include "common/check.h"
#include "common/missing.h"

namespace rmi::serving {

const char* QueryValidationError(const MapSnapshot& snapshot,
                                 const double* fingerprint, size_t size) {
  if (size != snapshot.num_aps()) {
    return "fingerprint width does not match the snapshot";
  }
  size_t observed = 0;
  for (size_t j = 0; j < size; ++j) {
    if (std::isinf(fingerprint[j])) {
      return "fingerprint carries an infinite RSSI";
    }
    observed += !IsNull(fingerprint[j]);
  }
  if (observed == 0) return "fingerprint observes no AP";
  return nullptr;
}

geom::Point BatchLocalizer::LocalizeOn(const MapSnapshot& snapshot,
                                       const std::vector<double>& fingerprint) {
  RMI_CHECK_EQ(fingerprint.size(), snapshot.num_aps());
  // Same contract as Estimate/EstimateBatch: an all-null scan has no
  // distance signal (every masked distance is 0) and must not silently
  // decay to the first k reference rows.
  size_t observed = 0;
  for (double v : fingerprint) observed += !IsNull(v);
  RMI_CHECK_GT(observed, 0u);
  std::vector<Neighbor> candidates = snapshot.index.Search(
      snapshot.fingerprints(), fingerprint, snapshot.estimator->k());
  return snapshot.estimator->EstimateFromCandidates(std::move(candidates));
}

std::vector<geom::Point> BatchLocalizer::LocalizeBatchOn(
    const MapSnapshot& snapshot, const la::Matrix& fingerprints) {
  RMI_CHECK_EQ(fingerprints.cols(), snapshot.num_aps());
  return snapshot.estimator->EstimateBatch(fingerprints);
}

}  // namespace rmi::serving
