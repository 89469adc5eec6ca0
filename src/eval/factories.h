// Name-based factories wiring the whole framework together — used by the
// bench harness and the examples to build module A (differentiator),
// module B (imputer), and module C (estimator) from the paper's labels.
#ifndef RMI_EVAL_FACTORIES_H_
#define RMI_EVAL_FACTORIES_H_

#include <memory>
#include <string>

#include "bisim/bisim.h"
#include "clustering/differentiation.h"
#include "imputers/imputer.h"
#include "indoor/venue.h"
#include "positioning/estimators.h"

namespace rmi::eval {

/// Bench sizing: venue AP-count scale and neural-imputer training epochs.
struct BenchEnv {
  double scale = 0.18;
  size_t epochs = 35;

  /// A bench's own defaults, each overridden by its environment variable
  /// when that is set and non-empty: RMI_BENCH_SCALE (a number > 0) and
  /// RMI_BENCH_EPOCHS (an integer > 0). A value that does not parse whole
  /// or is not > 0 aborts with a message naming the variable.
  static BenchEnv FromEnv(double default_scale, size_t default_epochs);
};

/// Differentiators: "TopoAC", "DasaKM", "ElbowKM", "DBSCAN", "MAR-only",
/// "MNAR-only". TopoAC needs the venue's wall multipolygon (`venue` must
/// outlive the differentiator).
std::shared_ptr<cluster::Differentiator> MakeDifferentiator(
    const std::string& name, const indoor::Venue* venue, double eta = 0.1);

/// Imputers: "CD", "LI", "SL", "MICE", "MF", "BRITS", "SSGAN", "BiSIM".
/// `venue` provides the location normalization scale for the neural models;
/// `env` provides the epoch budget. Variants of BiSIM for the ablations are
/// built directly via bisim::BiSimConfig.
std::unique_ptr<imputers::Imputer> MakeImputer(const std::string& name,
                                               const indoor::Venue& venue,
                                               const BenchEnv& env);

/// Estimators: "KNN", "WKNN", "RF".
std::unique_ptr<positioning::LocationEstimator> MakeEstimator(
    const std::string& name);

/// Default BiSIM configuration for a venue (normalization + epoch budget).
bisim::BiSimConfig DefaultBiSimConfig(const indoor::Venue& venue,
                                      const BenchEnv& env);

}  // namespace rmi::eval

#endif  // RMI_EVAL_FACTORIES_H_
