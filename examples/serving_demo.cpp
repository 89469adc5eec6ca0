// The online localization engine end to end: build a snapshot from an
// imputed radio map, serve concurrent partial-fingerprint queries through
// the batching LocalizationServer, and hot-swap a re-imputed snapshot under
// load without dropping a single request — with the observability layer
// on, so shutdown prints the Prometheus scrape and one sampled request
// trace the way a production sidecar would see them.
#include <algorithm>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "eval/factories.h"
#include "eval/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "survey/survey.h"

int main() {
  using namespace rmi;
  // Metrics are on by default; turn on request tracing too (1-in-16 —
  // the demo submits ~120 requests, so a handful get traced).
  obs::Tracer::Global().SetSampleEvery(16);
  const survey::SurveyDataset ds = survey::MakeKaideDataset(/*scale=*/0.12);
  std::printf("venue: %zu APs, %zu survey records (%.0f%% RSSIs missing)\n",
              ds.venue.aps.size(), ds.map.size(),
              100.0 * ds.map.MissingRssiRate());

  // Offline pipeline: differentiate + impute, then freeze a snapshot.
  auto diff = eval::MakeDifferentiator("TopoAC", &ds.venue);
  eval::BenchEnv env;
  env.epochs = 10;
  Rng rng(7);
  auto imputer_v0 = eval::MakeImputer("LI", ds.venue, env);
  rmap::RadioMap imputed_v0 =
      eval::DifferentiateAndImpute(ds.map, *diff, *imputer_v0, rng);
  auto snap_v0 = serving::BuildSnapshot(
      imputed_v0, std::make_unique<positioning::KnnEstimator>(4, true), rng,
      serving::SnapshotOptions{/*version=*/0, /*cell_size_m=*/6.0});
  std::printf("snapshot v0: %zu reference points, %zu grid cells\n",
              snap_v0->num_refs(), snap_v0->index.num_cells());

  serving::MapSnapshotStore store(snap_v0);
  serving::ServerOptions opt;
  opt.max_batch = 32;
  opt.max_wait_us = 300.0;
  opt.num_workers = 2;
  serving::LocalizationServer server(&store, opt);

  // Background re-imputation (a richer imputer) publishing v1 mid-load —
  // the production re-survey/re-fit cycle in miniature.
  std::thread republisher([&] {
    Rng bg_rng(13);
    auto imputer_v1 = eval::MakeImputer("SL", ds.venue, env);
    rmap::RadioMap imputed_v1 =
        eval::DifferentiateAndImpute(ds.map, *diff, *imputer_v1, bg_rng);
    auto snap_v1 = serving::BuildSnapshot(
        imputed_v1, std::make_unique<positioning::KnnEstimator>(4, true),
        bg_rng, serving::SnapshotOptions{/*version=*/1, /*cell_size_m=*/6.0});
    store.Publish(snap_v1);
    std::printf("hot-swapped snapshot v1 (publish #%llu)\n",
                static_cast<unsigned long long>(store.publish_count()));
  });

  // Online: simulated devices with lossy scans (half the audible APs).
  const radio::PropagationModel model = ds.Model();
  const size_t num_clients = 3, queries_per_client = 40;
  std::vector<std::thread> clients;
  std::vector<double> client_err(num_clients, 0.0);
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng device_rng(100 + c);
      double err = 0.0;
      for (size_t q = 0; q < queries_per_client; ++q) {
        const geom::Point truth =
            ds.venue.rps[device_rng.Index(ds.venue.rps.size())];
        std::vector<double> scan(ds.venue.aps.size(), kNull);
        bool heard_any = false;
        for (size_t ap = 0; ap < ds.venue.aps.size(); ++ap) {
          if (!model.IsObservable(ap, truth)) continue;
          if (device_rng.Bernoulli(0.5)) continue;  // lossy scan moment
          scan[ap] = model.SampleRssi(ap, truth, device_rng);
          heard_any = true;
        }
        if (!heard_any) {
          // A totally deaf scan has no distance signal — a real client
          // would rescan; fall back to the -100 dBm floor fingerprint.
          std::fill(scan.begin(), scan.end(), kMnarFillDbm);
        }
        err += geom::Distance(server.Localize(std::move(scan)), truth);
      }
      client_err[c] = err / double(queries_per_client);
    });
  }
  for (auto& t : clients) t.join();
  republisher.join();
  server.Stop();

  for (size_t c = 0; c < num_clients; ++c) {
    std::printf("client %zu mean positioning error: %.2f m\n", c,
                client_err[c]);
  }
  const serving::ServerStats stats = server.Stats();
  const obs::Histogram& fulfill_us =
      obs::GetHistogram("rmi_server_fulfill_us", "");
  std::printf("server: %zu requests in %zu batches (mean %.1f), "
              "p50 %.0f us, p95 %.0f us, p99 %.0f us\n",
              stats.completed, stats.batches, stats.mean_batch_size,
              fulfill_us.Percentile(50.0), fulfill_us.Percentile(95.0),
              fulfill_us.Percentile(99.0));

  // What a metrics sidecar would scrape from this process right now.
  std::printf("\n--- /metrics (Prometheus text format) ---\n%s",
              obs::DumpPrometheusText().c_str());

  // One sampled request, stage by stage (the most recent completed one).
  const std::vector<obs::Trace> traces = obs::Tracer::Global().Recent();
  if (!traces.empty()) {
    std::printf("--- sampled trace (%llu finished, ring keeps %zu) ---\n%s",
                static_cast<unsigned long long>(
                    obs::Tracer::Global().finished_total()),
                traces.size(), traces.back().ToString().c_str());
  }
  return 0;
}
