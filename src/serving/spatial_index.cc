#include "serving/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/missing.h"
#include "common/topc.h"
#include "la/kernels.h"

namespace rmi::serving {

namespace {

/// Pruning safety margin: the lower bound goes through a sqrt, so give it
/// generous headroom before skipping a cell — visiting one extra cell is
/// cheap, wrongly skipping one breaks exactness.
constexpr double kPruneSlack = 1e-9;

size_t& LastScoredSlot() {
  thread_local size_t scored = 0;
  return scored;
}

}  // namespace

std::vector<Neighbor> BruteForceKnn(const la::Matrix& refs,
                                    const std::vector<double>& query,
                                    size_t k) {
  RMI_CHECK_EQ(query.size(), refs.cols());
  // The one shared scoring loop (la::QuerySquaredDistance): the estimators'
  // scalar/batch paths and the index must sum identically for the pruned
  // path to equal brute force bit-for-bit.
  std::vector<Neighbor> all;
  all.reserve(refs.rows());
  for (size_t i = 0; i < refs.rows(); ++i) {
    all.emplace_back(la::QuerySquaredDistance(query.data(), refs, i), i);
  }
  const size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(take),
                    all.end());
  all.resize(take);
  return all;
}

void SpatialIndex::Build(const la::Matrix& refs,
                         const std::vector<geom::Point>& positions,
                         double cell_size_m) {
  RMI_CHECK_EQ(refs.rows(), positions.size());
  RMI_CHECK_GT(cell_size_m, 0.0);
  cells_.clear();
  cell_size_m_ = cell_size_m;
  dim_ = refs.cols();
  num_refs_ = refs.rows();
  if (num_refs_ == 0) return;

  double min_x = positions[0].x, max_x = positions[0].x;
  double min_y = positions[0].y, max_y = positions[0].y;
  for (const geom::Point& p : positions) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const size_t grid_cols = std::max<size_t>(
      1, static_cast<size_t>(std::ceil((max_x - min_x) / cell_size_m)) + 1);
  const size_t grid_rows = std::max<size_t>(
      1, static_cast<size_t>(std::ceil((max_y - min_y) / cell_size_m)) + 1);
  std::vector<int> slot(grid_rows * grid_cols, -1);  // -1 = empty cell
  for (size_t i = 0; i < num_refs_; ++i) {
    size_t gx = static_cast<size_t>((positions[i].x - min_x) / cell_size_m);
    size_t gy = static_cast<size_t>((positions[i].y - min_y) / cell_size_m);
    gx = std::min(gx, grid_cols - 1);
    gy = std::min(gy, grid_rows - 1);
    int& s = slot[gy * grid_cols + gx];
    if (s < 0) {
      s = static_cast<int>(cells_.size());
      cells_.emplace_back();
    }
    cells_[static_cast<size_t>(s)].members.push_back(i);
  }

  for (Cell& cell : cells_) SummarizeCell(&cell, refs);
}

void SpatialIndex::SummarizeCell(Cell* cell, const la::Matrix& refs) const {
  // Fingerprint-space centroid + covering radius over the members, summed
  // in member order (ascending row).
  cell->centroid.assign(dim_, 0.0);
  for (size_t m : cell->members) {
    const double* row = refs.data().data() + m * dim_;
    for (size_t j = 0; j < dim_; ++j) cell->centroid[j] += row[j];
  }
  const double inv = 1.0 / static_cast<double>(cell->members.size());
  for (double& v : cell->centroid) v *= inv;
  double max_sq = 0.0;
  for (size_t m : cell->members) {
    const double* row = refs.data().data() + m * dim_;
    double s = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      const double d = row[j] - cell->centroid[j];
      s += d * d;
    }
    max_sq = std::max(max_sq, s);
  }
  cell->radius = std::sqrt(max_sq);
}

size_t SpatialIndex::last_scored() { return LastScoredSlot(); }

std::vector<Neighbor> SpatialIndex::Search(const la::Matrix& refs,
                                           const std::vector<double>& query,
                                           size_t k) const {
  RMI_CHECK_EQ(refs.rows(), num_refs_);
  RMI_CHECK_EQ(query.size(), dim_);
  // Boundary contracts (matching BruteForceKnn): an empty index or k == 0
  // has nothing to return; k >= num_refs degrades to scoring every row.
  const size_t take = std::min(k, num_refs_);
  if (take == 0) {
    LastScoredSlot() = 0;
    return {};
  }
  RMI_CHECK_EQ(refs.cols(), dim_);

  // Cells in increasing lower bound.
  std::vector<std::pair<double, size_t>> order;  // (lb^2, cell)
  order.reserve(cells_.size());
  for (size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    double s = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      if (IsNull(query[j])) continue;
      const double d = query[j] - cell.centroid[j];
      s += d * d;
    }
    const double lb = std::max(0.0, std::sqrt(s) - cell.radius);
    order.emplace_back(lb * lb, c);
  }
  std::sort(order.begin(), order.end());

  // Streaming best-`take` by (distance, index) pair order, kept in a
  // sorted sentinel-filled buffer (branchless bubble insert — cheaper than
  // a heap at KNN-sized k); worst() is the retained-candidate boundary,
  // +inf until `take` rows have been scored (which disables pruning, as
  // the half-full heap did).
  StreamingTopC<Neighbor> best(
      take, Neighbor(std::numeric_limits<double>::infinity(),
                     std::numeric_limits<size_t>::max()));
  size_t scored = 0;
  for (const auto& [lb_sq, c] : order) {
    if (lb_sq > best.worst().first * (1.0 + kPruneSlack) + kPruneSlack) {
      break;  // sorted: no later cell can beat the worst retained candidate
    }
    for (size_t m : cells_[c].members) {
      best.Push(Neighbor(la::QuerySquaredDistance(query.data(), refs, m), m));
      ++scored;
    }
  }
  LastScoredSlot() = scored;
  return best.Take();
}

}  // namespace rmi::serving
