#include "clustering/kmeans.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "la/gemm_repro.h"
#include "la/kernels.h"

namespace rmi::cluster {

namespace {

size_t PadToLanes(size_t n) {
  return (n + la::kDistanceLanes - 1) / la::kDistanceLanes *
         la::kDistanceLanes;
}

/// m (R x C) transposed into C x PadToLanes(R) row-major, padding zero: the
/// la::SquaredDistances layout with m's rows as lanes. Eight rows of m at a
/// time, so every output write lands in one lane block.
void TransposePadded(const la::Matrix& m, std::vector<double>* out) {
  const size_t rows = m.rows(), cols = m.cols(), ld = PadToLanes(rows);
  out->assign(cols * ld, 0.0);
  const double* src = m.data().data();
  for (size_t i0 = 0; i0 < rows; i0 += la::kDistanceLanes) {
    const size_t lanes = std::min(la::kDistanceLanes, rows - i0);
    for (size_t j = 0; j < cols; ++j) {
      double* dst = out->data() + j * ld + i0;
      for (size_t u = 0; u < lanes; ++u) dst[u] = src[(i0 + u) * cols + j];
    }
  }
}

/// c[0, f) += x[0, f). The fixed 8-wide blocks on rows that cannot alias
/// vectorize at -O2; each c[j] still takes one add.
void AddRow(const double* __restrict x, double* __restrict c, size_t f) {
  size_t j = 0;
  for (; j + 8 <= f; j += 8) {
    for (size_t u = 0; u < 8; ++u) c[j + u] += x[j + u];
  }
  for (; j < f; ++j) c[j] += x[j];
}

/// Rows of x per la::SquaredDistances call in the assignment step, so a
/// block's distances to every center stay in L1.
constexpr size_t kRowBlock = 32;

}  // namespace

KMeansResult KMeans(const la::Matrix& x, const KMeansParams& params, Rng& rng) {
  const size_t n = x.rows();
  const size_t f = x.cols();
  RMI_CHECK_GE(params.k, 1u);
  RMI_CHECK_GE(n, 1u);
  const size_t k = std::min(params.k, n);
  const double* px = x.data().data();

  // k-means++ seeding. Each new center is compared with every row at once,
  // against x transposed so that the rows are the kernel's lanes.
  la::Matrix centers(k, f);
  std::vector<double> min_d2(n, std::numeric_limits<double>::max());
  std::vector<double> transposed;
  std::vector<double> dist;
  if (k > 1) {
    TransposePadded(x, &transposed);
    dist.resize(PadToLanes(n));
  }
  size_t first = rng.Index(n);
  centers.SetRow(0, x.Row(first));
  for (size_t c = 1; c < k; ++c) {
    la::SquaredDistances(&centers.data()[(c - 1) * f], transposed.data(),
                         dist.data(), 1, f, PadToLanes(n));
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (dist[i] < min_d2[i]) min_d2[i] = dist[i];
      total += min_d2[i];
    }
    size_t pick = 0;
    if (total > 0.0) {
      double r = rng.Uniform(0.0, total);
      for (size_t i = 0; i < n; ++i) {
        r -= min_d2[i];
        if (r <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = rng.Index(n);
    }
    centers.SetRow(c, x.Row(pick));
  }

  KMeansResult res;
  res.assignment.assign(n, 0);
  std::vector<size_t> counts(k);
  const size_t k_pad = PadToLanes(k);
  dist.resize(kRowBlock * k_pad);
  for (size_t iter = 0; iter < params.max_iters; ++iter) {
    // Assignment against the centers transposed (lanes = centers): the
    // argmin runs in center order with a strict `<`, so exact ties go to
    // the lowest index.
    TransposePadded(centers, &transposed);
    bool changed = false;
    for (size_t i0 = 0; i0 < n; i0 += kRowBlock) {
      const size_t rows = std::min(kRowBlock, n - i0);
      la::SquaredDistances(px + i0 * f, transposed.data(), dist.data(), rows,
                           f, k_pad);
      for (size_t r = 0; r < rows; ++r) {
        const double* dr = &dist[r * k_pad];
        double best = std::numeric_limits<double>::max();
        int best_c = 0;
        for (size_t c = 0; c < k; ++c) {
          if (dr[c] < best) {
            best = dr[c];
            best_c = static_cast<int>(c);
          }
        }
        if (res.assignment[i0 + r] != best_c) {
          res.assignment[i0 + r] = best_c;
          changed = true;
        }
      }
    }
    if (!changed && iter > 0) break;
    // Recompute centers: per (c, j), x(i, j) added over i ascending.
    la::Fill(&centers, 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(res.assignment[i]);
      ++counts[c];
      AddRow(px + i * f, &centers.data()[c * f], f);
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        centers.SetRow(c, x.Row(rng.Index(n)));  // re-seed empty cluster
        continue;
      }
      for (size_t j = 0; j < f; ++j) {
        centers(c, j) /= static_cast<double>(counts[c]);
      }
    }
  }

  res.wss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    res.wss += la::RowSquaredDistance(x, i, centers,
                                      static_cast<size_t>(res.assignment[i]));
  }
  res.centers = std::move(centers);
  return res;
}

std::vector<size_t> KCandidateLadder(size_t max_k) {
  RMI_CHECK_GE(max_k, 1u);
  std::vector<size_t> ks;
  size_t k = 1;
  while (k <= max_k) {
    ks.push_back(k);
    if (k < 8) {
      k += 1;
    } else if (k < 24) {
      k += 4;
    } else {
      k += 8;
    }
  }
  if (ks.back() != max_k) ks.push_back(max_k);
  return ks;
}

size_t ChooseKElbow(const la::Matrix& x, const std::vector<size_t>& candidates,
                    const KMeansParams& base, Rng& rng) {
  RMI_CHECK_GE(candidates.size(), 1u);
  if (candidates.size() <= 2) return candidates.back();
  std::vector<double> wss(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    KMeansParams p = base;
    p.k = candidates[i];
    wss[i] = KMeans(x, p, rng).wss;
  }
  // Knee = max second difference, normalized by the candidate spacing.
  size_t best = 1;
  double best_curv = -std::numeric_limits<double>::max();
  for (size_t i = 1; i + 1 < candidates.size(); ++i) {
    const double left =
        (wss[i - 1] - wss[i]) /
        static_cast<double>(candidates[i] - candidates[i - 1]);
    const double right =
        (wss[i] - wss[i + 1]) /
        static_cast<double>(candidates[i + 1] - candidates[i]);
    const double curv = left - right;
    if (curv > best_curv) {
      best_curv = curv;
      best = i;
    }
  }
  return candidates[best];
}

}  // namespace rmi::cluster
