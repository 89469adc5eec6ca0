// Online location estimation (module C, paper Section II-A):
//  * KNN  [57] — mean of the K nearest fingerprints' RPs;
//  * WKNN [19] — inverse-distance-weighted mean;
//  * RF   [28] — random-forest regression from fingerprint to (x, y).
//
// Estimators consume a *complete* radio map (the imputers' output contract).
// Online fingerprints may carry kNull entries (a device rarely hears every
// AP): KNN/WKNN measure distance over the observed dimensions only, and are
// bit-identical to the historical all-dimensions path when the fingerprint
// is complete.
#ifndef RMI_POSITIONING_ESTIMATORS_H_
#define RMI_POSITIONING_ESTIMATORS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geometry/geometry.h"
#include "la/matrix.h"
#include "la/quant.h"
#include "radiomap/radio_map.h"

namespace rmi::positioning {

/// Common interface of the location estimators (module C).
///
/// Lifecycle and thread-safety: Fit() mutates and must complete before any
/// query; estimators never retain references to the map they were fitted
/// on (fitted state is copied out). After Fit, Estimate/EstimateBatch/
/// EstimateFromCandidates are const and safe to call concurrently from
/// multiple threads — no shared mutable scratch. Use Clone() to give
/// parallel evaluation runs private instances.
///
/// Null-fingerprint semantics: KNN/WKNN accept online fingerprints with
/// kNull entries (distance over the observed APs); RF does not (a NaN
/// silently mis-compares in its tree thresholds), which is one reason the
/// serving snapshots are KNN-only. An all-null fingerprint is always
/// invalid (asserted — it has no distance signal). Reference maps handed
/// to Fit must be complete (the imputers' output contract).
class LocationEstimator {
 public:
  virtual ~LocationEstimator() = default;

  /// Builds the estimator from an imputed radio map.
  virtual void Fit(const rmap::RadioMap& map, Rng& rng) = 0;

  /// Estimates the location of one online fingerprint (length D; kNull
  /// entries allowed where the estimator supports partial fingerprints).
  virtual geom::Point Estimate(const std::vector<double>& fingerprint) const = 0;

  /// Estimates every row of `fingerprints` (B x D) in one call — the
  /// serving hot path. The base implementation is the scalar loop over
  /// Estimate; KnnEstimator overrides it with the int8 ranking pass.
  /// Must be thread-safe on a fitted estimator (const, no shared scratch).
  virtual std::vector<geom::Point> EstimateBatch(
      const la::Matrix& fingerprints) const;

  virtual std::string name() const = 0;

  /// Deep copy (including any fitted state) — lets independent evaluation
  /// runs fan out over threads with private estimator instances.
  virtual std::unique_ptr<LocationEstimator> Clone() const = 0;
};

/// KNN / WKNN (weighted = inverse distance).
class KnnEstimator : public LocationEstimator {
 public:
  explicit KnnEstimator(size_t k = 3, bool weighted = false)
      : k_(k), weighted_(weighted) {}

  void Fit(const rmap::RadioMap& map, Rng& rng) override;
  /// Fingerprints must observe at least one AP (asserted): an all-null
  /// scan has no distance signal and would silently decay to the first k
  /// reference rows.
  geom::Point Estimate(const std::vector<double>& fingerprint) const override;
  /// Batched KNN: every query is ranked against the int8 copy in one
  /// integer Gemm via ||q - f||^2 = ||q||^2 + ||f||^2 - 2 q.f (partial
  /// fingerprints zero their nulls and take a masked reference norm). The
  /// integer pass only *ranks*; the top candidates — plus every reference
  /// inside the band the analytic quantization bound opens above the
  /// selection boundary, so quantization can never evict a true neighbor —
  /// are re-scored with the exact scalar distance, and results match
  /// per-record Estimate bit-for-bit.
  std::vector<geom::Point> EstimateBatch(
      const la::Matrix& fingerprints) const override;
  std::string name() const override { return weighted_ ? "WKNN" : "KNN"; }
  std::unique_ptr<LocationEstimator> Clone() const override {
    return std::make_unique<KnnEstimator>(*this);
  }

  size_t k() const { return k_; }
  bool weighted() const { return weighted_; }
  /// The int8 ranking copy built by Fit — the serving snapshot exposes it
  /// as MapSnapshot::quantized.
  const la::QuantizedRefs& quantized() const { return quant_; }
  /// Fitted reference fingerprints as an R x D matrix (row r aligned with
  /// labels()[r]) — the serving snapshot and its spatial index read these.
  const la::Matrix& features() const { return features_mat_; }
  const std::vector<geom::Point>& labels() const { return labels_; }

  /// Serving hook: combines externally produced exact KNN candidates
  /// (squared distance to a features() row, row index) into a location with
  /// this estimator's k/weighting. Equals Estimate() whenever `candidates`
  /// is a superset of the true top-k by (distance, index) order.
  geom::Point EstimateFromCandidates(
      std::vector<std::pair<double, size_t>> candidates) const;

 private:
  size_t k_;
  bool weighted_;
  std::vector<geom::Point> labels_;
  /// Fitted reference state: the R x D float master every estimate is
  /// re-scored against, and the int8 ranking copy (per-AP scale/zero-point,
  /// SoA, padded) EstimateBatch ranks with.
  la::Matrix features_mat_;
  la::QuantizedRefs quant_;
};

/// Random-forest regression (CART trees, bagging, feature subsampling,
/// variance-reduction splits on the combined x/y variance). Does not
/// support partial fingerprints: a kNull (NaN) silently mis-compares in
/// the tree threshold logic. Used by the offline paper pipeline only.
class RandomForestEstimator : public LocationEstimator {
 public:
  struct Params {
    size_t num_trees = 20;
    size_t max_depth = 12;
    size_t min_leaf = 3;
    /// Features tried per split; 0 = sqrt(D).
    size_t features_per_split = 0;
  };

  RandomForestEstimator() : params_() {}
  explicit RandomForestEstimator(const Params& params) : params_(params) {}

  void Fit(const rmap::RadioMap& map, Rng& rng) override;
  geom::Point Estimate(const std::vector<double>& fingerprint) const override;
  std::string name() const override { return "RF"; }
  std::unique_ptr<LocationEstimator> Clone() const override {
    return std::make_unique<RandomForestEstimator>(*this);
  }

 private:
  struct TreeNode {
    int feature = -1;       ///< -1 marks a leaf
    double threshold = 0.0;
    int left = -1, right = -1;
    geom::Point prediction;
  };
  struct Tree {
    std::vector<TreeNode> nodes;
  };

  int BuildNode(Tree* tree, const std::vector<size_t>& rows, size_t depth,
                Rng& rng);
  geom::Point PredictTree(const Tree& tree,
                          const std::vector<double>& fingerprint) const;

  Params params_;
  std::vector<std::vector<double>> features_;
  std::vector<geom::Point> labels_;
  std::vector<Tree> trees_;
};

}  // namespace rmi::positioning

#endif  // RMI_POSITIONING_ESTIMATORS_H_
