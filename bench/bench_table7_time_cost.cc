// Table VII: data-imputation wall-clock cost per imputer (google-benchmark,
// one iteration per imputer on each venue — imputation is an offline,
// run-once procedure).
//
// Paper shape: LI < SL << MICE ~ BRITS ~ *-BiSIM < SSGAN < MF (MF slowest:
// SGD convergence stalls under extreme sparsity). Absolute values are not
// comparable to the paper's GPU server; the relative ordering is.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "eval/pipeline.h"

namespace rmi {
namespace {

struct Shared {
  eval::BenchEnv env = eval::BenchEnv::FromEnv(0.12, 15);
  survey::SurveyDataset kaide = survey::MakeKaideDataset(env.scale);
  survey::SurveyDataset wanda = survey::MakeWandaDataset(env.scale);
};

Shared& shared() {
  static Shared s;
  return s;
}

void BM_Impute(benchmark::State& state, const std::string& venue,
               const std::string& diff_name, const std::string& imp_name) {
  const auto& ds = venue == "Kaide" ? shared().kaide : shared().wanda;
  for (auto _ : state) {
    auto diff = eval::MakeDifferentiator(diff_name, &ds.venue);
    auto imputer = eval::MakeImputer(imp_name, ds.venue, shared().env);
    Rng rng(7);
    auto imputed = eval::DifferentiateAndImpute(ds.map, *diff, *imputer, rng);
    benchmark::DoNotOptimize(imputed);
  }
}

void RegisterAll() {
  struct Config {
    const char* label;
    const char* diff;
    const char* imp;
  };
  const std::vector<Config> configs = {
      {"LI", "MNAR-only", "LI"},      {"SL", "MNAR-only", "SL"},
      {"MICE", "TopoAC", "MICE"},     {"MF", "TopoAC", "MF"},
      {"BRITS", "TopoAC", "BRITS"},   {"SSGAN", "TopoAC", "SSGAN"},
      {"D-BiSIM", "DasaKM", "BiSIM"}, {"T-BiSIM", "TopoAC", "BiSIM"},
  };
  for (const char* venue : {"Kaide", "Wanda"}) {
    for (const auto& c : configs) {
      benchmark::RegisterBenchmark(
          (std::string("TableVII/") + venue + "/" + c.label).c_str(),
          [venue, c](benchmark::State& st) {
            BM_Impute(st, venue, c.diff, c.imp);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

}  // namespace
}  // namespace rmi

int main(int argc, char** argv) {
  std::printf("=== Table VII — imputation time cost (relative ordering; "
              "paper unit: minutes on a GPU server) ===\n");
  rmi::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
