// Missing-RSSI differentiation (paper Section III, Algorithm 2) and the
// differentiation-accuracy (DA) machinery of DasaKM (Section III-B).
//
// A Differentiator labels a whole map at once: the offline pipeline and
// every serving::MapUpdater rebuild call the same Differentiate over the
// full merged survey base, so a clustering differentiator always sees the
// whole cluster structure, never a delta slice of it.
#ifndef RMI_CLUSTERING_DIFFERENTIATION_H_
#define RMI_CLUSTERING_DIFFERENTIATION_H_

#include <memory>
#include <string>
#include <vector>

#include "clustering/clusterer.h"
#include "radiomap/radio_map.h"

namespace rmi::cluster {

/// Algorithm 2: clusters the sample set and marks, per cluster and AP
/// dimension, the missing cells as MAR when the observed fraction of that AP
/// within the cluster exceeds `eta`, MNAR otherwise.
rmap::MaskMatrix DifferentiateWithClustering(const SampleSet& samples,
                                             const Clustering& clustering,
                                             double eta);

/// Differentiator strategy used by the evaluation pipeline (module A).
class Differentiator {
 public:
  virtual ~Differentiator() = default;
  /// Returns the N x D mask over {-1 MNAR, 0 MAR, 1 observed}.
  virtual rmap::MaskMatrix Differentiate(const rmap::RadioMap& map,
                                         Rng& rng) const = 0;
  virtual std::string name() const = 0;
};

/// Baseline: every missing RSSI treated as MAR.
class MarOnlyDifferentiator : public Differentiator {
 public:
  rmap::MaskMatrix Differentiate(const rmap::RadioMap& map,
                                 Rng& rng) const override;
  std::string name() const override { return "MAR-only"; }
};

/// Baseline: every missing RSSI treated as MNAR.
class MnarOnlyDifferentiator : public Differentiator {
 public:
  rmap::MaskMatrix Differentiate(const rmap::RadioMap& map,
                                 Rng& rng) const override;
  std::string name() const override { return "MNAR-only"; }
};

/// Algorithm 2 with a pluggable clustering strategy (DasaKM / TopoAC /
/// ElbowKM / DBSCAN).
class ClusteringDifferentiator : public Differentiator {
 public:
  ClusteringDifferentiator(std::shared_ptr<const Clusterer> clusterer,
                           double eta = 0.1, double location_weight = 0.1)
      : clusterer_(std::move(clusterer)),
        eta_(eta),
        location_weight_(location_weight) {}

  rmap::MaskMatrix Differentiate(const rmap::RadioMap& map,
                                 Rng& rng) const override;
  std::string name() const override { return clusterer_->name(); }

  double eta() const { return eta_; }

 private:
  std::shared_ptr<const Clusterer> clusterer_;
  double eta_;
  double location_weight_;
};

/// One labeled cell of a sampled ground-truth set (Section III-B).
struct GroundTruthCell {
  size_t sample;  ///< record index
  size_t ap;      ///< AP dimension
  bool is_mar;    ///< true: sampled MAR; false: sampled MNAR
};

/// A sampled ground-truth set plus the modified sample set X_gamma (MAR
/// cells nullified in the profiles/features).
struct SampledGroundTruth {
  std::vector<GroundTruthCell> cells;
  SampleSet modified;  ///< X_gamma
};

/// Ground-truth sampling procedure: "creates" MARs by nullifying observed
/// cells, and MNARs by locating groups of `mnar_group_size` spatially
/// adjacent samples that all miss the same AP. `gamma` is the target
/// #MNARs / #MARs proportion.
SampledGroundTruth SampleGroundTruth(const SampleSet& samples, double gamma,
                                     size_t num_mnar, size_t mnar_group_size,
                                     Rng& rng);

/// Differentiation accuracy: balanced accuracy (mean of MAR true-positive
/// rate and MNAR true-negative rate) of the Algorithm-2 rule applied to
/// `clustering` over the ground-truth cells.
double DifferentiationAccuracy(const SampleSet& modified,
                               const Clustering& clustering,
                               const std::vector<GroundTruthCell>& cells,
                               double eta);

}  // namespace rmi::cluster

#endif  // RMI_CLUSTERING_DIFFERENTIATION_H_
