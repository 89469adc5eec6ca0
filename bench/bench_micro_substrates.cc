// Micro-benchmarks of the substrates (google-benchmark): dense matmul, the
// reproducible Gemm at the BiSIM tape's shapes, k-means, convex hull, TopoAC
// topological checks, WKNN queries, and one BiSIM forward/backward step.
// Useful for tracking performance regressions in the hand-rolled numeric
// kernels.
#include <benchmark/benchmark.h>

#include "bisim/bisim.h"
#include "clustering/differentiation.h"
#include "clustering/kmeans.h"
#include "clustering/strategies.h"
#include "geometry/geometry.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "positioning/estimators.h"
#include "survey/survey.h"

namespace rmi {
namespace {

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  la::Matrix a = la::Matrix::Random(n, n, rng);
  la::Matrix b = la::Matrix::Random(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128);

// One la::Gemm call at a shape the BiSIM training tape uses (Kaide at
// scale 0.12: D = 80 APs, hidden 24, attention_hidden 24, T = 5). Args are
// (op, m, k, n): op 0 = NN, a forward matmul (beta 0); op 1 = NT, an input
// gradient (beta 1); op 2 = TN, a weight gradient (beta 1).
void BM_GemmTapeShape(benchmark::State& state) {
  const int op = static_cast<int>(state.range(0));
  const size_t m = static_cast<size_t>(state.range(1));
  const size_t k = static_cast<size_t>(state.range(2));
  const size_t n = static_cast<size_t>(state.range(3));
  const bool ta = op == 2, tb = op == 1;
  Rng rng(9);
  la::Matrix a = ta ? la::Matrix::Random(k, m, rng)
                    : la::Matrix::Random(m, k, rng);
  la::Matrix b = tb ? la::Matrix::Random(n, k, rng)
                    : la::Matrix::Random(k, n, rng);
  la::Matrix c = la::Matrix::Random(m, n, rng);
  const double beta = op == 0 ? 0.0 : 1.0;
  for (auto _ : state) {
    la::Gemm(1.0, a, ta, b, tb, beta, &c);
    benchmark::DoNotOptimize(c.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_GemmTapeShape)
    ->ArgNames({"op", "m", "k", "n"})
    ->Args({0, 1, 184, 96})   // LSTM gates: encoder, [f^c | m | h] x W
    ->Args({0, 1, 106, 96})   // decoder, [l^c | c | s] x W
    ->Args({0, 5, 104, 24})   // attention MLP, T rows of [s | h'']
    ->Args({1, 1, 96, 184})   // their input gradients
    ->Args({1, 1, 96, 106})
    ->Args({1, 5, 24, 104})
    ->Args({2, 184, 1, 96})   // their weight gradients
    ->Args({2, 106, 1, 96})
    ->Args({2, 104, 5, 24});

void BM_CholeskySolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  la::Matrix m = la::Matrix::Random(n, n, rng);
  la::Matrix a = m.Transpose().MatMul(m) + la::Matrix::Identity(n);
  la::Matrix b = la::Matrix::Random(n, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::CholeskySolve(a, b));
  }
}
BENCHMARK(BM_CholeskySolve)->Arg(16)->Arg(64);

void BM_ConvexHull(benchmark::State& state) {
  Rng rng(3);
  std::vector<geom::Point> pts;
  for (int i = 0; i < state.range(0); ++i) {
    pts.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::ConvexHull(pts));
  }
}
BENCHMARK(BM_ConvexHull)->Arg(64)->Arg(1024);

void BM_KMeans(benchmark::State& state) {
  Rng rng(4);
  la::Matrix x = la::Matrix::Random(400, 64, rng);
  cluster::KMeansParams p;
  p.k = static_cast<size_t>(state.range(0));
  p.max_iters = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::KMeans(x, p, rng));
  }
}
BENCHMARK(BM_KMeans)->Arg(4)->Arg(32);

void BM_WknnQuery(benchmark::State& state) {
  const auto ds = survey::MakeKaideDataset(0.08);
  rmap::RadioMap complete = ds.map;
  for (size_t i = 0; i < complete.size(); ++i) {
    auto& r = complete.record(i);
    for (double& v : r.rssi) {
      if (IsNull(v)) v = kMnarFillDbm;
    }
    r.has_rp = true;
  }
  positioning::KnnEstimator wknn(3, true);
  Rng rng(5);
  wknn.Fit(complete, rng);
  const std::vector<double> probe = complete.record(0).rssi;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wknn.Estimate(probe));
  }
}
BENCHMARK(BM_WknnQuery);

void BM_TopoEntityExist(benchmark::State& state) {
  const auto ds = survey::MakeKaideDataset(0.08);
  Rng rng(6);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({rng.Uniform(0, ds.venue.width),
                   rng.Uniform(0, ds.venue.height)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::EntityExist(pts, ds.venue.walls));
  }
}
BENCHMARK(BM_TopoEntityExist);

void BM_BiSimStep(benchmark::State& state) {
  const auto ds = survey::MakeKaideDataset(0.08);
  bisim::BiSimConfig cfg;
  cfg.loc_scale = 1.0 / 57.0;
  Rng rng(7);
  bisim::BiSimModel model(ds.map.num_aps(), cfg, rng);
  cluster::MarOnlyDifferentiator diff;
  Rng drng(8);
  const auto mask = diff.Differentiate(ds.map, drng);
  const auto seqs = bisim::BuildSequences(ds.map, mask, cfg);
  size_t i = 0;
  for (auto _ : state) {
    auto out = model.Forward(seqs[i % seqs.size()], /*compute_loss=*/true);
    out.loss.Backward();
    benchmark::DoNotOptimize(out);
    ++i;
  }
}
BENCHMARK(BM_BiSimStep);

}  // namespace
}  // namespace rmi

BENCHMARK_MAIN();
