// Serving-layer load generator: batched KNN matching vs the scalar loop,
// spatial-index pruning, and the LocalizationServer under concurrent
// clients with hot-swaps mid-load.
//
//   ./bench_serving_throughput            # full sizes, console table
//   ./bench_serving_throughput --smoke    # CI sizes + BENCH_serving.json
//   ./bench_serving_throughput --json=out.json
//
// The headline number: EstimateBatch (one int8 ranking pass over the
// reference matrix + exact rescore of the top candidates) vs per-query
// Estimate on a 2k-RP map at batch size 64.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "geometry/geometry.h"
#include "obs/metrics.h"
#include "positioning/estimators.h"
#include "serving/batch_localizer.h"
#include "serving/server.h"
#include "serving/snapshot.h"
#include "serving/spatial_index.h"
#include "serving/synthetic.h"

namespace {

using namespace rmi;
using serving::MakeSyntheticQueries;
using serving::MakeSyntheticServingMap;
using serving::MatrixRow;

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      if (json_path.empty()) json_path = "BENCH_serving.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  // 2000 reference points, ~100 APs — the acceptance configuration.
  const size_t nx = 50, ny = 40, num_aps = 96;
  const size_t batch_size = 64;
  const size_t num_queries = smoke ? 2048 : 8192;
  std::printf("=== serving throughput — %zu-RP map, %zu APs, batch %zu ===\n",
              nx * ny, num_aps, batch_size);

  const rmap::RadioMap map = MakeSyntheticServingMap(nx, ny, num_aps, 11);
  Rng rng(7);
  auto snapshot = serving::BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(5, true), rng);
  const positioning::KnnEstimator* knn = snapshot->estimator.get();
  const la::Matrix queries = MakeSyntheticQueries(map, num_queries, 0.0, 21);
  const la::Matrix partial_queries = MakeSyntheticQueries(map, num_queries, 0.3, 22);

  // --- scalar loop vs batched ranking -----------------------------------
  double scalar_qps = 0.0, batch_qps = 0.0, partial_batch_qps = 0.0;
  {
    std::vector<double> q(num_aps);
    Timer t;
    geom::Point sink;
    for (size_t i = 0; i < num_queries; ++i) {
      const double* src = queries.data().data() + i * num_aps;
      std::copy(src, src + num_aps, q.begin());
      sink = sink + knn->Estimate(q);
    }
    scalar_qps = double(num_queries) / t.ElapsedSeconds();
    std::printf("scalar Estimate loop:        %10.0f qps   (sink %.3f)\n",
                scalar_qps, sink.x);
  }
  {
    Timer t;
    geom::Point sink;
    for (size_t off = 0; off < num_queries; off += batch_size) {
      const la::Matrix block =
          queries.SliceRows(off, std::min(off + batch_size, num_queries));
      for (const geom::Point& p : knn->EstimateBatch(block)) sink = sink + p;
    }
    batch_qps = double(num_queries) / t.ElapsedSeconds();
    std::printf("EstimateBatch:               %10.0f qps   (sink %.3f)\n",
                batch_qps, sink.x);
  }
  {
    Timer t;
    for (size_t off = 0; off < num_queries; off += batch_size) {
      const la::Matrix block = partial_queries.SliceRows(
          off, std::min(off + batch_size, num_queries));
      knn->EstimateBatch(block);
    }
    partial_batch_qps = double(num_queries) / t.ElapsedSeconds();
    std::printf("EstimateBatch (30%% nulls):   %10.0f qps\n",
                partial_batch_qps);
  }
  const double speedup = batch_qps / scalar_qps;
  std::printf("batch vs scalar speedup:     %10.2fx\n\n", speedup);

  // --- spatial-index pruned single queries ------------------------------
  double pruned_qps = 0.0, scored_fraction = 0.0;
  {
    const size_t n = snapshot->num_refs();
    size_t scored = 0;
    Timer t;
    for (size_t i = 0; i < num_queries; ++i) {
      const std::vector<double> q = MatrixRow(queries, i);
      snapshot->index.Search(snapshot->fingerprints(), q, knn->k());
      scored += serving::SpatialIndex::last_scored();
    }
    pruned_qps = double(num_queries) / t.ElapsedSeconds();
    scored_fraction = double(scored) / double(num_queries * n);
    std::printf("index-pruned single query:   %10.0f qps   "
                "(%.1f%% of rows scored)\n\n",
                pruned_qps, 100.0 * scored_fraction);
  }

  // --- server under concurrent clients with hot-swaps -------------------
  serving::MapSnapshotStore store(snapshot);
  Rng swap_rng(77);
  auto alternate = serving::BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(5, true), swap_rng,
      serving::SnapshotOptions{/*version=*/1, /*cell_size_m=*/6.0});
  serving::ServerOptions server_opt;
  server_opt.max_batch = batch_size;
  server_opt.max_wait_us = 200.0;
  server_opt.num_workers = 2;
  serving::ServerStats stats;
  size_t hot_swaps = 0;
  {
    serving::LocalizationServer server(&store, server_opt);
    const size_t num_clients = 4;
    const size_t per_client = num_queries / num_clients;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        // Windowed submission (16 in flight per client): keeps the
        // coalescer fed without measuring pure queue backlog as latency.
        const size_t window = 16;
        std::vector<std::future<geom::Point>> inflight;
        inflight.reserve(window);
        for (size_t i = 0; i < per_client; ++i) {
          inflight.push_back(
              server.Submit(MatrixRow(partial_queries, (c * per_client + i))));
          if (inflight.size() == window) {
            for (auto& f : inflight) f.get();
            inflight.clear();
          }
        }
        for (auto& f : inflight) f.get();
      });
    }
    // Publisher: re-publish alternating snapshots while clients hammer.
    std::thread publisher([&] {
      for (int s = 0; s < 20; ++s) {
        store.Publish(s % 2 == 0 ? alternate : snapshot);
        ++hot_swaps;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    for (auto& t : clients) t.join();
    publisher.join();
    server.Stop();
    stats = server.Stats();
  }
  // Request latency from the registry series every server feeds; this
  // process runs one server.
  const obs::Histogram& fulfill_us =
      obs::GetHistogram("rmi_server_fulfill_us", "");
  const double p50_us = fulfill_us.Percentile(50.0);
  const double p95_us = fulfill_us.Percentile(95.0);
  const double p99_us = fulfill_us.Percentile(99.0);
  std::printf("server (4 clients, %zu hot-swaps in flight):\n", hot_swaps);
  std::printf("  completed %zu   qps %.0f   mean batch %.1f\n",
              stats.completed, stats.qps, stats.mean_batch_size);
  std::printf("  latency p50 %.0f us   p95 %.0f us   p99 %.0f us\n", p50_us,
              p95_us, p99_us);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"map\": {\"rps\": %zu, \"aps\": %zu},\n"
        "  \"batch_size\": %zu,\n"
        "  \"scalar_qps\": %.1f,\n"
        "  \"batch_qps\": %.1f,\n"
        "  \"batch_speedup\": %.3f,\n"
        "  \"partial_batch_qps\": %.1f,\n",
        nx * ny, num_aps, batch_size, scalar_qps, batch_qps, speedup,
        partial_batch_qps);
    std::fprintf(
        f,
        "  \"index_pruned_qps\": %.1f,\n"
        "  \"index_scored_fraction\": %.4f,\n"
        "  \"server\": {\"qps\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f,"
        " \"p99_us\": %.1f, \"mean_batch\": %.2f, \"hot_swaps\": %zu},\n",
        pruned_qps, scored_fraction, stats.qps, p50_us, p95_us, p99_us,
        stats.mean_batch_size, hot_swaps);
    rmi::bench::WriteObsMetricsJson(f);
    rmi::bench::WriteHardwareJson(f, server_opt.num_workers);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "WARNING: batch speedup %.2fx below the 3x acceptance bar\n",
                 speedup);
  }
  return 0;
}
