// Micro-benchmarks of the substrates (google-benchmark): dense matmul, the
// reproducible Gemm at the BiSIM tape's shapes, k-means (alone and as
// DasaKM runs it), convex hull, TopoAC topological checks, WKNN queries,
// one BiSIM forward/backward step, one Adam step over its parameters and
// one whole BiSIM training epoch per thread count. Useful for tracking
// performance regressions in the hand-rolled numeric kernels.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "autodiff/optimizer.h"
#include "bisim/bisim.h"
#include "clustering/differentiation.h"
#include "clustering/kmeans.h"
#include "clustering/strategies.h"
#include "eval/factories.h"
#include "geometry/geometry.h"
#include "imputers/imputer.h"
#include "la/gemm_repro.h"
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
// gradient (beta 1); op 2 = TN, one rank-1 weight-gradient update (beta 1);
// op 3 = the NT input gradient through la::GemmNTPacked on B^T, as the tape
// runs it for a parameter's packed transpose; op 4 = a parameter's k
// stacked weight-gradient rows through la::GemmTNRows, as the tape applies
// them once per pass (A and B passed as row pointers, adding onto C), the
// work of k op-2 calls.
void BM_GemmTapeShape(benchmark::State& state) {
  const int op = static_cast<int>(state.range(0));
  const size_t m = static_cast<size_t>(state.range(1));
  const size_t k = static_cast<size_t>(state.range(2));
  const size_t n = static_cast<size_t>(state.range(3));
  const bool ta = op == 2 || op == 4, tb = op == 1;
  Rng rng(9);
  la::Matrix a = ta ? la::Matrix::Random(k, m, rng)
                    : la::Matrix::Random(m, k, rng);
  la::Matrix b = tb ? la::Matrix::Random(n, k, rng)
                    : la::Matrix::Random(k, n, rng);
  la::Matrix c = la::Matrix::Random(m, n, rng);
  std::vector<const double*> a_rows, b_rows;
  for (size_t r = 0; r < k; ++r) {
    a_rows.push_back(a.data().data() + r * m);
    b_rows.push_back(b.data().data() + r * n);
  }
  const double beta = op == 0 ? 0.0 : 1.0;
  for (auto _ : state) {
    if (op == 3) {
      la::GemmNTPacked(1.0, a, b, &c);
    } else if (op == 4) {
      la::GemmTNRows(1.0, a_rows.data(), b_rows.data(), c.data().data(), m, k,
                     n, /*from_zero=*/false);
    } else {
      la::Gemm(1.0, a, ta, b, tb, beta, &c);
    }
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
    ->Args({3, 1, 96, 184})   // the same, packed
    ->Args({3, 1, 96, 106})
    ->Args({3, 5, 24, 104})
    ->Args({2, 184, 1, 96})   // their weight gradients, one step's
    ->Args({2, 106, 1, 96})
    ->Args({2, 104, 5, 24})
    ->Args({4, 184, 10, 96})  // and a pass's (T steps, two directions)
    ->Args({4, 106, 10, 96})
    ->Args({4, 104, 50, 24});

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

// The mall_burst set-up's differentiation (what repobench times as
// clustering.differentiate_s): DasaKM on Kaide at scale 0.12, dataset seed 5,
// 86 KMeans calls on its 768 x 82 sample set.
void BM_KMeansDasaKM(benchmark::State& state) {
  const auto ds = survey::MakeKaideDataset(0.12, 5);
  cluster::ClusteringDifferentiator diff(
      std::make_shared<cluster::DasaKMeansClusterer>());
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(diff.Differentiate(ds.map, rng));
  }
}
BENCHMARK(BM_KMeansDasaKM)->Unit(benchmark::kMillisecond);

// One KMeans call as DasaKM makes it (12 Lloyd iterations at most) on the
// same 768 x 82 sample set; the arg is k.
void BM_KMeansSampleSet(benchmark::State& state) {
  const auto ds = survey::MakeKaideDataset(0.12, 5);
  const cluster::SampleSet samples = cluster::BuildSampleSet(ds.map);
  cluster::KMeansParams p;
  p.k = static_cast<size_t>(state.range(0));
  p.max_iters = 12;
  for (auto _ : state) {
    Rng rng(4);
    benchmark::DoNotOptimize(cluster::KMeans(samples.features, p, rng));
  }
}
BENCHMARK(BM_KMeansSampleSet)->Arg(8)->Arg(60)->Unit(benchmark::kMillisecond);

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

// One Adam::Step as TrainBiSim takes it after each accumulation batch: the
// update, the packed-transpose refresh and the gradient reset over a BiSIM
// model's parameters at Kaide 0.12 (D = 80, hidden 24: 19 tensors, 36,667
// values). Every step gets the same random gradients (copied outside the
// timed region), so the update runs on realistic values.
void BM_AdamStep(benchmark::State& state) {
  const auto ds = survey::MakeKaideDataset(0.12, 5);
  bisim::BiSimConfig cfg;
  Rng rng(10);
  bisim::BiSimModel model(ds.map.num_aps(), cfg, rng);
  ad::Adam adam(model.Params(), cfg.lr);
  std::vector<la::Matrix> grads;
  for (const ad::Tensor& p : adam.params()) {
    grads.push_back(la::Matrix::Random(p.rows(), p.cols(), rng));
  }
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < grads.size(); ++i) {
      adam.params()[i].node()->grad = grads[i];
    }
    state.ResumeTiming();
    adam.Step();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AdamStep);

// One TrainBiSim epoch on the mall_burst set-up's input: Kaide at scale
// 0.12 (dataset seed 5; D = 80, hidden 24), the DasaKM mask after the MNAR
// fill and the default config. The arg is num_threads. The time is process
// CPU time, every worker included, so it prices the whole training loop
// (fan-out, per-sequence gradient sinks, their slot-order sum and the Adam
// steps) at each thread count, not just one kernel.
void BM_TrainBiSimEpoch(benchmark::State& state) {
  const auto ds = survey::MakeKaideDataset(0.12, 5);
  eval::BenchEnv env;
  env.scale = 0.12;
  env.epochs = 1;
  bisim::BiSimConfig cfg = eval::DefaultBiSimConfig(ds.venue, env);
  cfg.num_threads = static_cast<size_t>(state.range(0));
  Rng rng(7);
  rmap::MaskMatrix mask =
      eval::MakeDifferentiator("DasaKM", &ds.venue)->Differentiate(ds.map, rng);
  rmap::RadioMap working = ds.map;
  imputers::FillMnar(&working, &mask);
  const auto seqs = bisim::BuildSequences(working, mask, cfg);
  bisim::BiSimModel model(working.num_aps(), cfg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bisim::TrainBiSim(model, seqs, cfg, rng));
  }
  state.counters["sequences"] = static_cast<double>(seqs.size());
}
BENCHMARK(BM_TrainBiSimEpoch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rmi

BENCHMARK_MAIN();
