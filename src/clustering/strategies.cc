#include "clustering/strategies.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "clustering/differentiation.h"
#include "common/check.h"
#include "la/kernels.h"

namespace rmi::cluster {

namespace {

Clustering FromKMeans(const KMeansResult& km) {
  Clustering c;
  c.assignment = km.assignment;
  int max_c = -1;
  for (int a : km.assignment) max_c = std::max(max_c, a);
  c.k = static_cast<size_t>(max_c + 1);
  return c;
}

}  // namespace

Clustering ElbowKMeansClusterer::Cluster(const SampleSet& samples,
                                         Rng& rng) const {
  if (samples.size() == 0) return Clustering{};
  KMeansParams base;
  base.max_iters = 15;
  const auto ladder = KCandidateLadder(std::min(max_k_, samples.size()));
  const size_t k = ChooseKElbow(samples.features, ladder, base, rng);
  KMeansParams final_params;
  final_params.k = k;
  final_params.max_iters = 30;
  return FromKMeans(KMeans(samples.features, final_params, rng));
}

Clustering DasaKMeansClusterer::Cluster(const SampleSet& samples,
                                        Rng& rng) const {
  if (samples.size() == 0) {
    last_k_.store(0, std::memory_order_relaxed);
    return Clustering{};
  }
  // Pre-sample one ground-truth set per gamma (Algorithm 3 lines 1-3).
  std::vector<SampledGroundTruth> gts;
  gts.reserve(params_.gammas.size());
  for (double gamma : params_.gammas) {
    gts.push_back(SampleGroundTruth(samples, gamma, params_.num_mnar,
                                    params_.mnar_group_size, rng));
  }

  // Scan K candidates; keep the K with the best mean DA (lines 4-10).
  double best_da = -1.0;
  size_t best_k = 1;
  const auto ladder = KCandidateLadder(std::min(params_.max_k, samples.size()));
  for (size_t k : ladder) {
    double da_sum = 0.0;
    for (const SampledGroundTruth& gt : gts) {
      KMeansParams p;
      p.k = k;
      p.max_iters = 12;
      const Clustering c = FromKMeans(KMeans(gt.modified.features, p, rng));
      da_sum += DifferentiationAccuracy(gt.modified, c, gt.cells, params_.eta);
    }
    const double da = da_sum / static_cast<double>(gts.size());
    if (da > best_da) {
      best_da = da;
      best_k = k;
    }
  }
  last_k_.store(best_k, std::memory_order_relaxed);

  KMeansParams p;
  p.k = best_k;
  p.max_iters = 30;
  return FromKMeans(KMeans(samples.features, p, rng));  // line 11
}

bool EntityExist(const std::vector<geom::Point>& cluster_locations,
                 const geom::MultiPolygon& entities) {
  if (cluster_locations.empty()) return false;
  const geom::Polygon hull = geom::ConvexHull(cluster_locations);
  return geom::IntersectsAny(hull, entities);
}

Clustering TopoACClusterer::Cluster(const SampleSet& samples, Rng&) const {
  RMI_CHECK(entities_ != nullptr);
  const size_t n = samples.size();

  // Live clusters: member lists, feature centers, location lists.
  struct Node {
    std::vector<size_t> members;
    la::Matrix center;  // 1 x F
    std::vector<geom::Point> locations;
    geom::Point loc_centroid;
    bool alive = true;
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    Node nd;
    nd.members = {i};
    nd.center = samples.features.Row(i);
    nd.locations = {samples.locations[i]};
    nd.loc_centroid = samples.locations[i];
    nodes.push_back(std::move(nd));
  }

  // Candidate merges ordered by center distance. A candidate that fails the
  // topology check is discarded permanently: its endpoints never change
  // (merges create new node ids), so the check outcome cannot change.
  struct Cand {
    double dist;
    size_t a, b;
    bool operator>(const Cand& o) const { return dist > o.dist; }
  };
  // Candidate generation is restricted to each node's `kNeighbors` nearest
  // live nodes: an exact global-min pair scan is O(N^2) space/time, which
  // does not fit the larger venues; nearest-neighbor candidates preserve the
  // greedy min-distance behaviour in practice because valid merges are
  // local by construction (the topology check rejects far pairs anyway).
  constexpr size_t kNeighbors = 8;
  // Spatial pre-filter: only pairs whose location centroids are within
  // kSpatialRadius can merge (the topology check rejects far pairs anyway,
  // and the cheap 2-D test avoids O(N^2) full feature-distance work).
  constexpr double kSpatialRadius = 14.0;  // meters
  constexpr double kSpatialRadius2 = kSpatialRadius * kSpatialRadius;
  std::priority_queue<Cand, std::vector<Cand>, std::greater<Cand>> heap;
  auto push_pairs_for = [&](size_t idx) {
    std::vector<Cand> cands;
    for (size_t j = 0; j < nodes.size(); ++j) {
      if (j == idx || !nodes[j].alive) continue;
      if (geom::SquaredDistance(nodes[idx].loc_centroid,
                                nodes[j].loc_centroid) > kSpatialRadius2) {
        continue;
      }
      const double d2 =
          la::Matrix::SquaredDistance(nodes[idx].center, nodes[j].center);
      cands.push_back(Cand{d2, std::min(idx, j), std::max(idx, j)});
    }
    const size_t take = std::min(kNeighbors, cands.size());
    std::partial_sort(cands.begin(), cands.begin() + take, cands.end(),
                      [](const Cand& a, const Cand& b) { return a.dist < b.dist; });
    for (size_t t = 0; t < take; ++t) heap.push(cands[t]);
  };
  for (size_t i = 0; i < n; ++i) push_pairs_for(i);

  while (!heap.empty()) {
    const Cand c = heap.top();
    heap.pop();
    if (!nodes[c.a].alive || !nodes[c.b].alive) continue;
    // Topological examination of the tentative merge (Algorithm 4).
    std::vector<geom::Point> merged_locs = nodes[c.a].locations;
    merged_locs.insert(merged_locs.end(), nodes[c.b].locations.begin(),
                       nodes[c.b].locations.end());
    if (EntityExist(merged_locs, *entities_)) continue;  // reject forever

    // Merge a and b into a new node.
    Node merged;
    merged.members = nodes[c.a].members;
    merged.members.insert(merged.members.end(), nodes[c.b].members.begin(),
                          nodes[c.b].members.end());
    const double wa = static_cast<double>(nodes[c.a].members.size());
    const double wb = static_cast<double>(nodes[c.b].members.size());
    merged.center =
        (nodes[c.a].center * wa + nodes[c.b].center * wb) * (1.0 / (wa + wb));
    merged.loc_centroid =
        (nodes[c.a].loc_centroid * wa + nodes[c.b].loc_centroid * wb) *
        (1.0 / (wa + wb));
    merged.locations = std::move(merged_locs);
    nodes[c.a].alive = false;
    nodes[c.b].alive = false;
    nodes.push_back(std::move(merged));
    push_pairs_for(nodes.size() - 1);
  }

  Clustering result;
  result.assignment.assign(n, -1);
  size_t next_id = 0;
  for (const Node& nd : nodes) {
    if (!nd.alive) continue;
    for (size_t m : nd.members) {
      result.assignment[m] = static_cast<int>(next_id);
    }
    ++next_id;
  }
  result.k = next_id;
  for (int a : result.assignment) RMI_CHECK_GE(a, 0);
  return result;
}

Clustering DbscanClusterer::Cluster(const SampleSet& samples, Rng&) const {
  const size_t n = samples.size();
  const double eps2 = eps_ * eps_;
  const la::Matrix& x = samples.features;

  auto neighbors = [&](size_t i) {
    std::vector<size_t> out;
    for (size_t j = 0; j < n; ++j) {
      if (la::RowSquaredDistance(x, i, x, j) <= eps2) out.push_back(j);
    }
    return out;
  };

  constexpr int kUnvisited = -2;
  constexpr int kNoise = -1;
  std::vector<int> label(n, kUnvisited);
  int cluster_id = 0;
  for (size_t i = 0; i < n; ++i) {
    if (label[i] != kUnvisited) continue;
    std::vector<size_t> nb = neighbors(i);
    if (nb.size() < min_pts_) {
      label[i] = kNoise;
      continue;
    }
    label[i] = cluster_id;
    std::vector<size_t> frontier = nb;
    for (size_t f = 0; f < frontier.size(); ++f) {
      const size_t q = frontier[f];
      if (label[q] == kNoise) label[q] = cluster_id;
      if (label[q] != kUnvisited) continue;
      label[q] = cluster_id;
      std::vector<size_t> qn = neighbors(q);
      if (qn.size() >= min_pts_) {
        frontier.insert(frontier.end(), qn.begin(), qn.end());
      }
    }
    ++cluster_id;
  }
  // Noise points become singleton clusters (the differentiator needs a
  // total assignment).
  Clustering result;
  result.assignment.assign(n, 0);
  int next = cluster_id;
  for (size_t i = 0; i < n; ++i) {
    result.assignment[i] = label[i] >= 0 ? label[i] : next++;
  }
  result.k = static_cast<size_t>(next);
  return result;
}

}  // namespace rmi::cluster
