// Multicore scaling of the serving path: the same workload at 1 / 2 / 4 /
// hardware_concurrency threads, so the epoch-pinned snapshot reads and the
// parallel rebuild path show their scaling curve instead of a single-point
// qps.
//
//   ./bench_multicore_scaling            # full sizes, console table
//   ./bench_multicore_scaling --smoke    # CI sizes + BENCH_scaling.json
//   ./bench_multicore_scaling --json=out.json
//
// Emits BENCH_scaling.json (schema in docs/REPRODUCE.md): per-thread-count
// qps/p95 for two sections plus the 4-thread-vs-1-thread speedups the
// regression gate checks on runners with >= 4 cores —
//   serving  — T client threads, each PinnedRead + EstimateBatch on its
//              own query stripe against one MapSnapshotStore (the
//              epoch-read scaling: no refcount line to bounce);
//   rebuild  — the venue's shards re-imputed concurrently on a T-wide
//              pool.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "clustering/differentiation.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "imputers/autocorrelation.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/synthetic.h"

namespace {

using namespace rmi;
using serving::MakeSyntheticQueries;
using serving::MakeSyntheticServingMap;

/// The swept thread counts: 1, 2, 4, and the machine width, deduped and
/// ascending. On a small runner the over-wide points still run (the OS
/// time-slices them) — the JSON records hardware_concurrency so the gate
/// knows which points were real parallelism.
std::vector<size_t> ThreadCounts() {
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<size_t> counts = {1, 2, 4, hw};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

struct Point {
  size_t threads = 0;
  double qps = 0.0;
  double p95_us = 0.0;  ///< per-batch latency (0 where not measured)
};

/// qps at 4 threads over qps at 1 thread (the acceptance ratio); falls
/// back to the widest measured point when 4 was not in the sweep.
double SpeedupAt4(const std::vector<Point>& curve) {
  double base = 0.0, at4 = 0.0;
  for (const Point& p : curve) {
    if (p.threads == 1) base = p.qps;
    if (p.threads == 4) at4 = p.qps;
  }
  if (at4 == 0.0 && !curve.empty()) at4 = curve.back().qps;
  return base > 0.0 ? at4 / base : 0.0;
}

/// T client threads, each looping PinnedRead + EstimateBatch over its own
/// stripe of `queries`. Every batch re-pins the snapshot — the per-query
/// acquisition cost this PR moved off the refcount — so the curve measures
/// exactly the hot path the server runs.
Point MeasureServing(const serving::MapSnapshotStore& store,
                     const la::Matrix& queries, size_t threads,
                     size_t batch_size) {
  const size_t n = queries.rows();
  std::vector<std::vector<double>> lat(threads);
  Timer t;
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (size_t c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      geom::Point sink;
      for (size_t off = c * batch_size; off < n;
           off += threads * batch_size) {
        Timer bt;
        const la::Matrix block =
            queries.SliceRows(off, std::min(off + batch_size, n));
        const serving::PinnedSnapshot snap = store.PinnedRead();
        for (const geom::Point& p : snap->estimator->EstimateBatch(block)) {
          sink = sink + p;
        }
        lat[c].push_back(1e6 * bt.ElapsedSeconds());
      }
      if (sink.x == 0.12345) std::printf("-");  // keep the sink alive
    });
  }
  for (std::thread& c : clients) c.join();
  const double elapsed = t.ElapsedSeconds();
  std::vector<double> all;
  for (const std::vector<double>& l : lat) all.insert(all.end(), l.begin(), l.end());
  Point p;
  p.threads = threads;
  p.qps = double(n) / elapsed;
  p.p95_us = all.empty() ? 0.0 : Percentile(std::move(all), 95.0);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      if (json_path.empty()) json_path = "BENCH_scaling.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  const std::vector<size_t> counts = ThreadCounts();
  std::printf("=== multicore scaling — hardware_concurrency %u ===\n\n",
              std::thread::hardware_concurrency());

  // --- serving: T clients over one epoch-pinned store -------------------
  const size_t num_aps = 96;
  const size_t batch_size = 64;
  const size_t num_queries = smoke ? 4096 : 16384;
  const rmap::RadioMap map = MakeSyntheticServingMap(50, 40, num_aps, 11);
  Rng rng(7);
  serving::MapSnapshotStore store(serving::BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(5, true), rng));
  const la::Matrix queries = MakeSyntheticQueries(map, num_queries, 0.1, 21);
  std::vector<Point> serving_curve;
  for (size_t t : counts) {
    serving_curve.push_back(MeasureServing(store, queries, t, batch_size));
    const Point& p = serving_curve.back();
    std::printf("serving  %2zu threads:  %10.0f qps   batch p95 %7.0f us\n",
                p.threads, p.qps, p.p95_us);
  }
  const double serving_speedup = SpeedupAt4(serving_curve);
  std::printf("serving speedup @4t: %.2fx\n\n", serving_speedup);

  // --- rebuild: the venue's shards re-imputed on a T-wide pool ----------
  serving::VenueOptions vopt;
  vopt.nx = smoke ? 10 : 14;
  vopt.ny = smoke ? 8 : 10;
  const std::vector<serving::VenueShard> venue =
      serving::MakeSyntheticVenue(vopt);
  const cluster::MarOnlyDifferentiator differentiator;
  const imputers::MiceImputer imputer;
  std::vector<Point> rebuild_curve;
  const size_t rebuild_rounds = smoke ? 2 : 4;
  for (size_t t : counts) {
    serving::ShardedSnapshotStore rb_store;
    serving::MapUpdaterOptions uopt;
    uopt.rebuild_threads = t;
    uopt.seed = 29;
    serving::MapUpdater updater(
        &rb_store, &differentiator, &imputer,
        [] { return std::make_unique<positioning::KnnEstimator>(3, true); },
        uopt);
    for (const serving::VenueShard& shard : venue) {
      updater.RegisterShard(shard.id, shard.map);
    }
    Rng obs_rng(55);
    ThreadPool pool(t);
    Timer timer;
    for (size_t r = 0; r < rebuild_rounds; ++r) {
      for (const serving::VenueShard& shard : venue) {
        for (size_t o = 0; o < 4; ++o) {
          rmap::Record obs = shard.map.record(obs_rng.Index(shard.map.size()));
          obs.time += double((r + 1) * shard.map.size());
          updater.Ingest(shard.id, std::move(obs));
        }
      }
      // Fan the per-shard rebuilds over the pool directly (RebuildNow runs
      // on the calling thread; independent shards overlap, same-shard
      // ordering is the updater's rebuild_mu).
      pool.ParallelFor(venue.size(), [&](size_t /*worker*/, size_t s) {
        updater.RebuildNow(venue[s].id);
      });
    }
    Point p;
    p.threads = t;
    p.qps = double(rebuild_rounds * venue.size()) / timer.ElapsedSeconds();
    rebuild_curve.push_back(p);
    std::printf("rebuild  %2zu threads:  %10.2f rebuilds/s\n", p.threads,
                p.qps);
  }
  const double rebuild_speedup = SpeedupAt4(rebuild_curve);
  std::printf("rebuild speedup @4t: %.2fx\n", rebuild_speedup);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const auto emit_curve = [f](const char* name,
                                const std::vector<Point>& curve,
                                bool with_p95) {
      std::fprintf(f, "  \"%s\": {", name);
      for (size_t i = 0; i < curve.size(); ++i) {
        std::fprintf(f, "%s\"t%zu\": {\"qps\": %.2f", i == 0 ? "" : ", ",
                     curve[i].threads, curve[i].qps);
        if (with_p95) std::fprintf(f, ", \"p95_us\": %.1f", curve[i].p95_us);
        std::fprintf(f, "}");
      }
      std::fprintf(f, "},\n");
    };
    std::fprintf(f, "{\n");
    emit_curve("serving", serving_curve, true);
    emit_curve("rebuild", rebuild_curve, false);
    std::fprintf(f,
                 "  \"serving_speedup_4t\": %.3f,\n"
                 "  \"rebuild_speedup_4t\": %.3f,\n",
                 serving_speedup, rebuild_speedup);
    bench::WriteObsMetricsJson(f);
    bench::WriteHardwareJson(f, counts.back());
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (std::thread::hardware_concurrency() >= 4 && serving_speedup < 1.5) {
    std::fprintf(stderr,
                 "WARNING: serving speedup %.2fx at 4 threads below the "
                 "1.5x acceptance bar\n",
                 serving_speedup);
  }
  return 0;
}
