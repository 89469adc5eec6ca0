// Evaluation metrics (paper Section V): APE, fingerprint MAE, RP Euclidean
// distance.
#ifndef RMI_EVAL_METRICS_H_
#define RMI_EVAL_METRICS_H_

#include <vector>

#include "geometry/geometry.h"
#include "radiomap/radio_map.h"

namespace rmi::eval {

/// Average positioning error: mean Euclidean distance between estimates and
/// ground-truth locations.
double AveragePositioningError(const std::vector<geom::Point>& estimates,
                               const std::vector<geom::Point>& truths);

/// Mean absolute error of imputed RSSIs over the removed (ground-truth)
/// cells. `imputed` must contain the same record ids as the map the cells
/// were removed from.
double RssiMae(const rmap::RadioMap& imputed,
               const std::vector<rmap::RemovedRssi>& removed);

/// Mean Euclidean distance between imputed RPs and the removed ground-truth
/// RPs.
double RpEuclideanError(const rmap::RadioMap& imputed,
                        const std::vector<rmap::RemovedRp>& removed);

}  // namespace rmi::eval

#endif  // RMI_EVAL_METRICS_H_
