// K-means (k-means++ init, Lloyd iterations) on squared Euclidean distance,
// plus the elbow heuristic for K selection.
#ifndef RMI_CLUSTERING_KMEANS_H_
#define RMI_CLUSTERING_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "la/matrix.h"

namespace rmi::cluster {

struct KMeansParams {
  size_t k = 2;
  size_t max_iters = 25;
};

struct KMeansResult {
  std::vector<int> assignment;  ///< cluster id per row of x
  la::Matrix centers;           ///< k x F
  double wss = 0.0;             ///< within-cluster sum of squares
};

/// Runs k-means on the rows of x (N x F). Every seeding and assignment
/// distance is a full sum from la::SquaredDistances (la/gemm_repro.h), so
/// the result is bit-identical on every ISA clone; assignment ties go to
/// the lowest center index.
KMeansResult KMeans(const la::Matrix& x, const KMeansParams& params, Rng& rng);

/// Elbow method: evaluates WSS over `candidates` (ascending K values) and
/// returns the K at the knee (max discrete second difference of WSS).
size_t ChooseKElbow(const la::Matrix& x, const std::vector<size_t>& candidates,
                    const KMeansParams& base, Rng& rng);

/// Default geometric-ish candidate ladder 1..max_k used by ElbowKM/DasaKM
/// (iterating every K in [1, U] as in the paper is O(U^2) k-means work; the
/// ladder preserves the selection quality at a fraction of the cost).
std::vector<size_t> KCandidateLadder(size_t max_k);

}  // namespace rmi::cluster

#endif  // RMI_CLUSTERING_KMEANS_H_
