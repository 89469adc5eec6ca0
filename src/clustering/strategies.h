// Concrete clustering strategies for the missing-RSSI differentiator:
//  * ElbowKM  — K-means with the elbow heuristic for K (Section III-B
//               strawman, evaluated in Figs. 12-13);
//  * DasaKM   — Algorithm 3: differentiation-accuracy-aware, sampling-based
//               K selection;
//  * TopoAC   — Algorithm 5: topology-aware agglomerative clustering with
//               the EntityExist heuristic (Algorithm 4);
//  * DBSCAN   — density-based comparison point (paper footnote 6).
#ifndef RMI_CLUSTERING_STRATEGIES_H_
#define RMI_CLUSTERING_STRATEGIES_H_

#include <atomic>
#include <vector>

#include "clustering/clusterer.h"
#include "clustering/kmeans.h"
#include "geometry/geometry.h"

namespace rmi::cluster {

/// K-means, K chosen by the elbow method over a candidate ladder in [1, U].
class ElbowKMeansClusterer : public Clusterer {
 public:
  explicit ElbowKMeansClusterer(size_t max_k = 60) : max_k_(max_k) {}

  Clustering Cluster(const SampleSet& samples, Rng& rng) const override;
  std::string name() const override { return "ElbowKM"; }

 private:
  size_t max_k_;
};

/// Algorithm 3 (DasaKM): for each candidate K, average the differentiation
/// accuracy over ground-truth sets sampled at the proportions in `gammas`;
/// pick the K with the best average; return K-means on the original data.
class DasaKMeansClusterer : public Clusterer {
 public:
  struct Params {
    size_t max_k = 60;                      ///< paper: U = 200
    std::vector<double> gammas = {1, 2, 4, 8, 16};  ///< paper: 1..20
    size_t num_mnar = 600;                  ///< sampled MNAR cells per set
    size_t mnar_group_size = 6;             ///< paper footnote 4
    double eta = 0.1;                       ///< DA rule threshold
  };

  DasaKMeansClusterer() : params_() {}
  explicit DasaKMeansClusterer(const Params& params) : params_(params) {}

  Clustering Cluster(const SampleSet& samples, Rng& rng) const override;
  std::string name() const override { return "DasaKM"; }

  /// The K selected by the last Cluster() call, 0 for an empty sample set
  /// (diagnostic; atomic so concurrent Cluster calls on a shared instance
  /// stay well-defined).
  size_t last_k() const { return last_k_.load(std::memory_order_relaxed); }

 private:
  Params params_;
  mutable std::atomic<size_t> last_k_{0};
};

/// Algorithm 5 (TopoAC): agglomerative merging by minimum center-to-center
/// distance, rejecting merges whose convex hull intersects a topological
/// entity. Hyperparameter-free given the venue's wall multipolygon.
class TopoACClusterer : public Clusterer {
 public:
  explicit TopoACClusterer(const geom::MultiPolygon* entities)
      : entities_(entities) {}

  Clustering Cluster(const SampleSet& samples, Rng& rng) const override;
  std::string name() const override { return "TopoAC"; }

 private:
  const geom::MultiPolygon* entities_;  // not owned
};

/// EntityExist (Algorithm 4): true iff the convex hull of the cluster
/// members' locations intersects any topological entity.
bool EntityExist(const std::vector<geom::Point>& cluster_locations,
                 const geom::MultiPolygon& entities);

/// DBSCAN over the sample features (comparison; inferior per the paper).
class DbscanClusterer : public Clusterer {
 public:
  DbscanClusterer(double eps, size_t min_pts)
      : eps_(eps), min_pts_(min_pts) {}

  Clustering Cluster(const SampleSet& samples, Rng& rng) const override;
  std::string name() const override { return "DBSCAN"; }

 private:
  double eps_;
  size_t min_pts_;
};

}  // namespace rmi::cluster

#endif  // RMI_CLUSTERING_STRATEGIES_H_
