// Exact KNN candidate pruning for the serving layer.
//
// Reference points are bucketed on a uniform grid over their *locations*
// (nearby RPs hear similar APs, so a location cell is a tight cluster in
// fingerprint space too). Each cell precomputes the centroid of its member
// fingerprints and the radius max_i ||f_i - centroid||. A query visits
// cells in increasing triangle-inequality lower bound
//
//     lb(cell) = max(0, ||q - centroid|| - radius)
//
// and stops as soon as lb exceeds the current kth-best exact distance: no
// member of that cell (or of any later cell — they are sorted) can enter
// the top-k. Members of visited cells are scored with the same scalar
// distance loop brute force uses, so the returned set is *exactly* the
// brute-force KNN set, ties broken by (distance, index).
//
// Partial fingerprints (kNull entries) stay exact: the masked distance is
// the L2 norm of a coordinate subvector, so by the triangle inequality
// ||(q - f) o m|| >= ||(q - c) o m|| - ||(c - f) o m||, and the masked
// member term is bounded by the full-dimension radius.
//
// The index is derived state: every snapshot build — a live rebuild and a
// restart from a snapshot file alike — builds it cold from the reference
// rows, and nothing of it is written to disk.
#ifndef RMI_SERVING_SPATIAL_INDEX_H_
#define RMI_SERVING_SPATIAL_INDEX_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "geometry/geometry.h"
#include "la/matrix.h"

namespace rmi::serving {

/// (squared distance, reference row) — ordered like the estimators order
/// candidates.
using Neighbor = std::pair<double, size_t>;

/// Brute-force exact KNN over every row of `refs`, ascending by
/// (distance, index). Test oracle: the reference implementation the index
/// must match (serving_test); no serving path calls it.
std::vector<Neighbor> BruteForceKnn(const la::Matrix& refs,
                                    const std::vector<double>& query,
                                    size_t k);

class SpatialIndex {
 public:
  SpatialIndex() = default;

  /// Builds the grid. `refs` is the R x D reference fingerprint matrix,
  /// `positions` the R reference locations (meters), `cell_size_m` the grid
  /// pitch. The matrix is not retained — Search takes it again, so the
  /// owner (a snapshot) keeps exactly one copy.
  void Build(const la::Matrix& refs, const std::vector<geom::Point>& positions,
             double cell_size_m);

  /// Exact KNN of `query` (kNull entries allowed), identical to
  /// BruteForceKnn(refs, query, k) — including at the boundaries: k >=
  /// the reference count returns every row ascending by (distance, index),
  /// and k == 0 or an empty index returns an empty set. `refs` must be the
  /// matrix Build saw.
  std::vector<Neighbor> Search(const la::Matrix& refs,
                               const std::vector<double>& query,
                               size_t k) const;

  bool empty() const { return cells_.empty(); }
  size_t num_cells() const { return cells_.size(); }
  size_t num_refs() const { return num_refs_; }
  double cell_size_m() const { return cell_size_m_; }

  /// Rows scored by the last Search on this thread, for prune-rate
  /// diagnostics (thread-local; benches read it right after a Search).
  static size_t last_scored();

 private:
  struct Cell {
    std::vector<size_t> members;     ///< reference rows in this cell
    std::vector<double> centroid;    ///< fingerprint-space centroid (D)
    double radius = 0.0;             ///< max member distance to centroid
  };

  /// Computes `cell`'s centroid and covering radius from its members.
  void SummarizeCell(Cell* cell, const la::Matrix& refs) const;

  std::vector<Cell> cells_;
  double cell_size_m_ = 0.0;
  size_t dim_ = 0;
  size_t num_refs_ = 0;
};

}  // namespace rmi::serving

#endif  // RMI_SERVING_SPATIAL_INDEX_H_
