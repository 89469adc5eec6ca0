#include "clustering/differentiation.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/missing.h"

namespace rmi::cluster {

namespace {

/// Observed fraction of AP `ap` across the cluster members, computed from
/// binary profiles.
double ObservedFraction(const SampleSet& samples,
                        const std::vector<size_t>& members, size_t ap) {
  if (members.empty()) return 0.0;
  size_t obs = 0;
  for (size_t i : members) obs += samples.profiles[i][ap];
  return static_cast<double>(obs) / static_cast<double>(members.size());
}

rmap::MaskMatrix UniformMask(const rmap::RadioMap& map, rmap::MaskValue v) {
  rmap::MaskMatrix m(map.size(), map.num_aps());
  for (size_t i = 0; i < map.size(); ++i) {
    const rmap::Record& r = map.record(i);
    for (size_t d = 0; d < map.num_aps(); ++d) {
      if (IsNull(r.rssi[d])) m.set(i, d, v);
    }
  }
  return m;
}

}  // namespace

rmap::MaskMatrix DifferentiateWithClustering(const SampleSet& samples,
                                             const Clustering& clustering,
                                             double eta) {
  const size_t n = samples.size();
  const size_t d = samples.num_aps;
  rmap::MaskMatrix mask(n, d);
  for (const std::vector<size_t>& members : clustering.Groups()) {
    if (members.empty()) continue;
    for (size_t ap = 0; ap < d; ++ap) {
      const double frac = ObservedFraction(samples, members, ap);
      const rmap::MaskValue missing_label = frac > eta
                                                ? rmap::MaskValue::kMar
                                                : rmap::MaskValue::kMnar;
      for (size_t i : members) {
        if (samples.profiles[i][ap] == 0) mask.set(i, ap, missing_label);
      }
    }
  }
  return mask;
}

rmap::MaskMatrix MarOnlyDifferentiator::Differentiate(const rmap::RadioMap& map,
                                                      Rng&) const {
  return UniformMask(map, rmap::MaskValue::kMar);
}

rmap::MaskMatrix MnarOnlyDifferentiator::Differentiate(
    const rmap::RadioMap& map, Rng&) const {
  return UniformMask(map, rmap::MaskValue::kMnar);
}

rmap::MaskMatrix ClusteringDifferentiator::Differentiate(
    const rmap::RadioMap& map, Rng& rng) const {
  const SampleSet samples = BuildSampleSet(map, location_weight_);
  const Clustering clustering = clusterer_->Cluster(samples, rng);
  return DifferentiateWithClustering(samples, clustering, eta_);
}

SampledGroundTruth SampleGroundTruth(const SampleSet& samples, double gamma,
                                     size_t num_mnar, size_t mnar_group_size,
                                     Rng& rng) {
  RMI_CHECK_GT(gamma, 0.0);
  RMI_CHECK_GE(mnar_group_size, 2u);
  SampledGroundTruth gt;
  gt.modified = samples;
  const size_t n = samples.size();
  const size_t d = samples.num_aps;

  // --- Sample MNARs: groups of adjacent samples all missing the same AP.
  size_t mnar_found = 0;
  std::vector<size_t> ap_order(d);
  for (size_t j = 0; j < d; ++j) ap_order[j] = j;
  rng.Shuffle(&ap_order);
  for (size_t ap : ap_order) {
    if (mnar_found >= num_mnar) break;
    std::vector<size_t> missing;
    for (size_t i = 0; i < n; ++i) {
      if (samples.profiles[i][ap] == 0) missing.push_back(i);
    }
    if (missing.size() < mnar_group_size) continue;
    // Seed on a random missing sample, gather its nearest missing peers.
    const size_t seed = missing[rng.Index(missing.size())];
    std::vector<std::pair<double, size_t>> by_dist;
    by_dist.reserve(missing.size());
    for (size_t i : missing) {
      by_dist.emplace_back(
          geom::SquaredDistance(samples.locations[seed], samples.locations[i]),
          i);
    }
    std::nth_element(by_dist.begin(), by_dist.begin() + mnar_group_size - 1,
                     by_dist.end());
    for (size_t g = 0; g < mnar_group_size && mnar_found < num_mnar; ++g) {
      gt.cells.push_back({by_dist[g].second, ap, /*is_mar=*/false});
      ++mnar_found;
    }
  }

  // --- Sample MARs: nullify observed cells at the target proportion.
  const size_t num_mar = std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(mnar_found) / gamma)));
  std::vector<std::pair<size_t, size_t>> observed;
  for (size_t i = 0; i < n; ++i) {
    for (size_t ap = 0; ap < d; ++ap) {
      if (samples.profiles[i][ap] == 1) observed.emplace_back(i, ap);
    }
  }
  const size_t take = std::min(num_mar, observed.size());
  for (size_t pick : rng.SampleWithoutReplacement(observed.size(), take)) {
    const auto [i, ap] = observed[pick];
    gt.cells.push_back({i, ap, /*is_mar=*/true});
    gt.modified.profiles[i][ap] = 0;
    gt.modified.features(i, ap) = 0.0;
  }
  return gt;
}

double DifferentiationAccuracy(const SampleSet& modified,
                               const Clustering& clustering,
                               const std::vector<GroundTruthCell>& cells,
                               double eta) {
  // Observed fraction per (cluster, ap) is reused across cells: cache.
  const auto groups = clustering.Groups();
  std::vector<std::vector<double>> frac_cache(
      groups.size(), std::vector<double>(modified.num_aps, -1.0));

  size_t mar_total = 0, mar_correct = 0;
  size_t mnar_total = 0, mnar_correct = 0;
  for (const GroundTruthCell& cell : cells) {
    const int c = clustering.assignment[cell.sample];
    RMI_CHECK_GE(c, 0);
    double& frac = frac_cache[static_cast<size_t>(c)][cell.ap];
    if (frac < 0.0) {
      frac = ObservedFraction(modified, groups[static_cast<size_t>(c)], cell.ap);
    }
    const bool predicted_mar = frac > eta;
    if (cell.is_mar) {
      ++mar_total;
      mar_correct += predicted_mar;
    } else {
      ++mnar_total;
      mnar_correct += !predicted_mar;
    }
  }
  const double tpr = mar_total ? static_cast<double>(mar_correct) /
                                     static_cast<double>(mar_total)
                               : 0.0;
  const double tnr = mnar_total ? static_cast<double>(mnar_correct) /
                                      static_cast<double>(mnar_total)
                                : 0.0;
  return (tpr + tnr) / 2.0;
}

}  // namespace rmi::cluster
