#include "positioning/estimators.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/missing.h"
#include "common/topc.h"
#include "la/kernels.h"
#include "la/quant.h"
#include "obs/metrics.h"

namespace rmi::positioning {

namespace {

/// Per-batch stage histograms of the batched KNN path (one timer pair per
/// batch — 4 clock reads total, nothing per row).
struct EstimatorMetrics {
  obs::Histogram& rank_us = obs::GetHistogram(
      "rmi_estimator_stage_rank_us",
      "Int8 cross-term ranking per batch, microseconds");
  obs::Histogram& rescore_us = obs::GetHistogram(
      "rmi_estimator_stage_rescore_us",
      "Top-c selection + exact rescore per batch, microseconds");

  static EstimatorMetrics& Get() {
    static EstimatorMetrics* m = new EstimatorMetrics();
    return *m;
  }
};

/// Extracts the labeled (has_rp) rows of an imputed map, in map order:
/// fingerprints as an R x D matrix plus index-aligned RP labels. Every row
/// must be complete (asserted). The one extraction rule both estimators
/// fit from.
void ExtractLabeledRows(const rmap::RadioMap& map, la::Matrix* fingerprints,
                        std::vector<geom::Point>* labels) {
  labels->clear();
  const size_t d = map.num_aps();
  size_t num_labeled = 0;
  for (size_t i = 0; i < map.size(); ++i) {
    num_labeled += map.record(i).has_rp;
  }
  RMI_CHECK_GT(num_labeled, 0u);
  fingerprints->Reshape(num_labeled, d);
  labels->reserve(num_labeled);
  size_t row = 0;
  for (size_t i = 0; i < map.size(); ++i) {
    const rmap::Record& r = map.record(i);
    if (!r.has_rp) continue;  // estimators need labeled rows
    RMI_CHECK_EQ(r.rssi.size(), d);
    for (double v : r.rssi) RMI_CHECK(!IsNull(v));
    std::copy(r.rssi.begin(), r.rssi.end(),
              fingerprints->data().begin() + static_cast<long>(row * d));
    labels->push_back(r.rp);
    ++row;
  }
}

/// Combines exact KNN candidates — (squared distance to reference row,
/// row index) pairs — into a location: the mean of the k nearest labels,
/// inverse-distance weighted when `weighted`. Candidates beyond the true
/// top-k are ignored (partial sort by pair order), so any superset of the
/// top-k yields the same answer.
geom::Point CombineKnnCandidates(
    std::vector<std::pair<double, size_t>> candidates,
    const geom::Point* labels, size_t k, bool weighted) {
  RMI_CHECK(!candidates.empty());
  const size_t take = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + take,
                    candidates.end());
  geom::Point acc;
  double wsum = 0.0;
  for (size_t t = 0; t < take; ++t) {
    const double w =
        weighted ? 1.0 / (std::sqrt(candidates[t].first) + 1e-6) : 1.0;
    acc = acc + labels[candidates[t].second] * w;
    wsum += w;
  }
  return acc * (1.0 / wsum);
}

/// ExtractLabeledRows reshaped into the vector-of-rows form the random
/// forest's split search indexes by.
void ExtractTrainingData(const rmap::RadioMap& map,
                         std::vector<std::vector<double>>* features,
                         std::vector<geom::Point>* labels) {
  la::Matrix fingerprints;
  ExtractLabeledRows(map, &fingerprints, labels);
  features->assign(fingerprints.rows(),
                   std::vector<double>(fingerprints.cols()));
  for (size_t i = 0; i < fingerprints.rows(); ++i) {
    const double* row = fingerprints.data().data() + i * fingerprints.cols();
    std::copy(row, row + fingerprints.cols(), (*features)[i].begin());
  }
}

bool HasNull(const double* v, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    if (IsNull(v[j])) return true;
  }
  return false;
}

bool HasObserved(const double* v, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    if (!IsNull(v[j])) return true;
  }
  return false;
}

}  // namespace

std::vector<geom::Point> LocationEstimator::EstimateBatch(
    const la::Matrix& fingerprints) const {
  std::vector<geom::Point> out(fingerprints.rows());
  std::vector<double> row(fingerprints.cols());
  for (size_t i = 0; i < fingerprints.rows(); ++i) {
    const double* src = fingerprints.data().data() + i * fingerprints.cols();
    std::copy(src, src + fingerprints.cols(), row.begin());
    out[i] = Estimate(row);
  }
  return out;
}

void KnnEstimator::Fit(const rmap::RadioMap& map, Rng&) {
  ExtractLabeledRows(map, &features_mat_, &labels_);
  quant_ = la::QuantizeRefs(features_mat_);
}

geom::Point KnnEstimator::EstimateFromCandidates(
    std::vector<std::pair<double, size_t>> candidates) const {
  return CombineKnnCandidates(std::move(candidates), labels_.data(), k_,
                              weighted_);
}

geom::Point KnnEstimator::Estimate(
    const std::vector<double>& fingerprint) const {
  RMI_CHECK(!labels_.empty());
  RMI_CHECK_EQ(fingerprint.size(), features_mat_.cols());
  RMI_CHECK(HasObserved(fingerprint.data(), fingerprint.size()));
  std::vector<std::pair<double, size_t>> dist;
  dist.reserve(labels_.size());
  for (size_t i = 0; i < labels_.size(); ++i) {
    dist.emplace_back(la::QuerySquaredDistance(fingerprint.data(),
                                               features_mat_, i),
                      i);
  }
  return EstimateFromCandidates(std::move(dist));
}

std::vector<geom::Point> KnnEstimator::EstimateBatch(
    const la::Matrix& queries) const {
  RMI_CHECK(!labels_.empty());
  const size_t b = queries.rows();
  const size_t d = features_mat_.cols();
  const size_t r = labels_.size();
  const size_t rp = quant_.padded;
  const double* refs = features_mat_.data().data();
  std::vector<geom::Point> out(b);
  if (b == 0) return out;
  RMI_CHECK_EQ(queries.cols(), d);

  // Quantize every query row with the reference side's per-AP parameters:
  // int8 values (kNull -> 0), a 0/1 observation mask, the integer query
  // norm over observed dims, and the per-row analytic error bound E.
  std::vector<int8_t> qvals(b * d), qmask(b * d);
  std::vector<int32_t> qnorm(b);
  std::vector<double> qerr(b);
  std::vector<uint8_t> partial(b, 0);
  bool any_partial = false;
  std::vector<int32_t> cross(b * rp);
  std::vector<int32_t> masked_norms;
  {
    obs::ScopedStageTimer rank_timer(EstimatorMetrics::Get().rank_us);
    for (size_t i = 0; i < b; ++i) {
      const double* row = queries.data().data() + i * d;
      RMI_CHECK(HasObserved(row, d));
      partial[i] = HasNull(row, d);
      any_partial |= partial[i] != 0;
      qnorm[i] = la::QuantizeQueryRow(quant_, row, qvals.data() + i * d,
                                      qmask.data() + i * d, &qerr[i]);
    }

    // Integer distance expansion: I(i, j) = |dq_i|^2 + |df_j|^2 - 2 dq.df
    // over the observed dims (nulls hold dq = 0 and mask = 0, so they drop
    // out of every term). Exact integer arithmetic — the only information
    // loss is the quantization itself, which E bounds.
    la::GemmQuantNN(qvals.data(), quant_.values.data(), cross.data(), b, d,
                    rp);
    if (any_partial) {
      masked_norms.resize(b * rp);
      la::MaskedQuantRowNorms(qmask.data(), quant_.squares.data(),
                              masked_norms.data(), b, d, rp);
    }
  }

  const size_t num_candidates = std::min(r, k_ + std::max<size_t>(k_, 8));
  std::vector<int32_t> keys(r);
  std::vector<std::pair<double, size_t>> exact;
  StreamingTopC<int32_t> top(num_candidates,
                             std::numeric_limits<int32_t>::max());
  obs::ScopedStageTimer rescore_timer(EstimatorMetrics::Get().rescore_us);
  for (size_t i = 0; i < b; ++i) {
    const int32_t* crow = cross.data() + i * rp;
    const int32_t* norms =
        partial[i] ? masked_norms.data() + i * rp : quant_.norms.data();
    top.Reset();
    for (size_t j = 0; j < r; ++j) {
      const int32_t key = qnorm[i] + norms[j] - 2 * crow[j];
      keys[j] = key;
      top.Push(key);
    }
    // Candidate band from the quantization bound. With I_c the c-th
    // smallest integer key and E the per-query bound, every one of those c
    // rows has true distance <= (s_max sqrt(I_c) + E)^2, so the k-th
    // smallest true distance does too (k <= c). A row can only belong to
    // the true top-k if its lower bound s_min sqrt(I_j) - E reaches that
    // value, i.e. sqrt(I_j) <= (s_max sqrt(I_c) + 2 E) / s_min — rescore
    // exactly those rows. Conservative slack on the float conversion only
    // ever widens the band.
    const int32_t boundary = top.worst();
    double threshold_sq = std::numeric_limits<double>::infinity();
    if (boundary != std::numeric_limits<int32_t>::max()) {
      const double a_c =
          quant_.max_scale * std::sqrt(static_cast<double>(boundary));
      const double t = (a_c + 2.0 * qerr[i]) / quant_.min_scale;
      threshold_sq = t * t * (1.0 + 1e-9) + 1.0;
    }
    const int32_t threshold =
        threshold_sq >= static_cast<double>(std::numeric_limits<int32_t>::max())
            ? std::numeric_limits<int32_t>::max()
            : static_cast<int32_t>(threshold_sq);
    const double* src = queries.data().data() + i * d;
    exact.clear();
    for (size_t j = 0; j < r; ++j) {
      if (keys[j] <= threshold) {
        exact.emplace_back(la::QuerySquaredDistanceRow(src, refs + j * d, d),
                           j);
      }
    }
    out[i] = CombineKnnCandidates(exact, labels_.data(), k_, weighted_);
  }
  return out;
}

void RandomForestEstimator::Fit(const rmap::RadioMap& map, Rng& rng) {
  ExtractTrainingData(map, &features_, &labels_);
  RMI_CHECK(!features_.empty());
  trees_.clear();
  const size_t n = features_.size();
  for (size_t t = 0; t < params_.num_trees; ++t) {
    // Bootstrap sample.
    std::vector<size_t> rows(n);
    for (size_t i = 0; i < n; ++i) rows[i] = rng.Index(n);
    Tree tree;
    BuildNode(&tree, rows, 0, rng);
    trees_.push_back(std::move(tree));
  }
}

int RandomForestEstimator::BuildNode(Tree* tree,
                                     const std::vector<size_t>& rows,
                                     size_t depth, Rng& rng) {
  auto mean_of = [&](const std::vector<size_t>& rs) {
    geom::Point m;
    for (size_t r : rs) m = m + labels_[r];
    return m * (1.0 / static_cast<double>(rs.size()));
  };
  auto variance_of = [&](const std::vector<size_t>& rs) {
    if (rs.size() < 2) return 0.0;
    const geom::Point m = mean_of(rs);
    double v = 0.0;
    for (size_t r : rs) v += geom::SquaredDistance(labels_[r], m);
    return v;  // un-normalized total variance: fine for split comparison
  };

  const int node_id = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();

  const bool make_leaf = depth >= params_.max_depth ||
                         rows.size() <= 2 * params_.min_leaf ||
                         variance_of(rows) < 1e-9;
  if (!make_leaf) {
    const size_t d = features_[0].size();
    const size_t mtry = params_.features_per_split
                            ? params_.features_per_split
                            : std::max<size_t>(1, static_cast<size_t>(
                                                      std::sqrt(double(d))));
    double best_gain = 0.0;
    int best_feature = -1;
    double best_threshold = 0.0;
    const double parent_var = variance_of(rows);
    for (size_t trial = 0; trial < mtry; ++trial) {
      const size_t f = rng.Index(d);
      // Candidate thresholds: a few random value quantiles.
      for (int q = 0; q < 3; ++q) {
        const double threshold = features_[rows[rng.Index(rows.size())]][f];
        std::vector<size_t> left, right;
        for (size_t r : rows) {
          (features_[r][f] <= threshold ? left : right).push_back(r);
        }
        if (left.size() < params_.min_leaf || right.size() < params_.min_leaf) {
          continue;
        }
        const double gain = parent_var - variance_of(left) - variance_of(right);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = threshold;
        }
      }
    }
    if (best_feature >= 0) {
      std::vector<size_t> left, right;
      for (size_t r : rows) {
        (features_[r][static_cast<size_t>(best_feature)] <= best_threshold
             ? left
             : right)
            .push_back(r);
      }
      const int l = BuildNode(tree, left, depth + 1, rng);
      const int r = BuildNode(tree, right, depth + 1, rng);
      TreeNode& node = tree->nodes[static_cast<size_t>(node_id)];
      node.feature = best_feature;
      node.threshold = best_threshold;
      node.left = l;
      node.right = r;
      return node_id;
    }
  }
  tree->nodes[static_cast<size_t>(node_id)].prediction = mean_of(rows);
  return node_id;
}

geom::Point RandomForestEstimator::PredictTree(
    const Tree& tree, const std::vector<double>& fingerprint) const {
  int cur = 0;
  while (tree.nodes[static_cast<size_t>(cur)].feature >= 0) {
    const TreeNode& n = tree.nodes[static_cast<size_t>(cur)];
    cur = fingerprint[static_cast<size_t>(n.feature)] <= n.threshold ? n.left
                                                                     : n.right;
  }
  return tree.nodes[static_cast<size_t>(cur)].prediction;
}

geom::Point RandomForestEstimator::Estimate(
    const std::vector<double>& fingerprint) const {
  RMI_CHECK(!trees_.empty());
  geom::Point acc;
  for (const Tree& t : trees_) {
    acc = acc + PredictTree(t, fingerprint);
  }
  return acc * (1.0 / static_cast<double>(trees_.size()));
}

}  // namespace rmi::positioning
