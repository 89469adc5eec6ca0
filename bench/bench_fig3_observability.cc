// Fig. 3 + Fig. 5: the exploratory analyses behind the differentiator.
//
// Fig. 3 — observability of a selected AP's signals at different RPs: RPs
// near the AP observe it consistently (missing events there are MARs); RPs
// far away never observe it (MNARs). We quantify this as the observability
// rate vs distance band.
//
// Fig. 5 — preliminary clustering: K-means clusters of binarized AP
// profiles are spatially coherent. We quantify coherence as the mean
// intra-cluster pairwise distance vs the all-pairs mean distance (< 1
// means clusters are spatially tight, confirming the locality hypothesis).
#include "bench/bench_common.h"
#include "clustering/clusterer.h"
#include "clustering/kmeans.h"
#include "radio/propagation.h"

namespace rmi {
namespace {

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.15, /*epochs=*/1);
  bench::Banner("Fig. 3 / Fig. 5", "AP observability locality + profile "
                "cluster coherence", env);
  for (const char* venue_name : {"Kaide", "Wanda"}) {
    const auto ds = bench::MakeDataset(venue_name, env.scale);
    const radio::PropagationModel model = ds.Model();

    // --- Fig. 3: observability vs distance band for a central AP.
    size_t ap = 0;
    double best = 1e18;
    const geom::Point center{ds.venue.width / 2, ds.venue.height / 2};
    for (size_t a = 0; a < ds.venue.aps.size(); ++a) {
      const double d = geom::Distance(ds.venue.aps[a].position, center);
      if (d < best) {
        best = d;
        ap = a;
      }
    }
    Table obs({"distance band (m)", "#RPs", "observability rate"});
    const std::vector<std::pair<double, double>> bands = {
        {0, 5}, {5, 10}, {10, 20}, {20, 40}, {40, 100}};
    for (const auto& [lo, hi] : bands) {
      size_t n = 0, observable = 0;
      for (const auto& rp : ds.venue.rps) {
        const double d = geom::Distance(rp, ds.venue.aps[ap].position);
        if (d < lo || d >= hi) continue;
        ++n;
        observable += model.IsObservable(ap, rp);
      }
      if (n == 0) continue;
      obs.AddRow({Table::Num(lo, 0) + "-" + Table::Num(hi, 0),
                  std::to_string(n),
                  Table::Num(double(observable) / double(n), 2)});
    }
    std::printf("-- %s: observability of a central AP by distance --\n",
                venue_name);
    obs.Print();

    // --- Fig. 5: spatial coherence of K-means profile clusters.
    const auto samples = cluster::BuildSampleSet(ds.map, 0.1);
    Rng rng(3);
    cluster::KMeansParams kp;
    kp.k = 12;
    const auto km = cluster::KMeans(samples.features, kp, rng);
    double intra = 0.0, intra_n = 0.0, all = 0.0, all_n = 0.0;
    for (size_t i = 0; i < samples.size(); ++i) {
      for (size_t j = i + 1; j < samples.size(); ++j) {
        const double d =
            geom::Distance(samples.locations[i], samples.locations[j]);
        all += d;
        all_n += 1.0;
        if (km.assignment[i] == km.assignment[j]) {
          intra += d;
          intra_n += 1.0;
        }
      }
    }
    std::printf(
        "cluster spatial coherence: mean intra-cluster RP distance %.2f m "
        "vs all-pairs %.2f m (ratio %.2f; << 1 supports the locality "
        "hypothesis)\n\n",
        intra / intra_n, all / all_n, (intra / intra_n) / (all / all_n));
  }
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
