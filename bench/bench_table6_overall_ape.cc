// Table VI: overall APE comparison — nine imputers x three location
// estimators (KNN, WKNN, RF) on Kaide and Wanda. Traditional and
// autocorrelation imputers use the paper's wiring (CD/LI/SL are
// differentiation-free; MICE/MF/BRITS/SSGAN use TopoAC's MAR results);
// D-BiSIM = DasaKM + BiSIM, T-BiSIM = TopoAC + BiSIM.
//
// Paper shape: *-BiSIM best everywhere; T-BiSIM > D-BiSIM; neural >
// autocorrelation and traditional; WKNN usually the best estimator.
#include "bench/bench_common.h"
#include "eval/pipeline.h"

namespace rmi {
namespace {

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.15, /*epochs=*/25);
  bench::Banner("Table VI", "overall APE comparison (meters)", env);
  struct Config {
    const char* label;
    const char* differentiator;
    const char* imputer;
  };
  const std::vector<Config> configs = {
      {"CD", "MNAR-only", "CD"},        {"LI", "MNAR-only", "LI"},
      {"SL", "MNAR-only", "SL"},        {"MICE", "TopoAC", "MICE"},
      {"MF", "TopoAC", "MF"},           {"BRITS", "TopoAC", "BRITS"},
      {"SSGAN", "TopoAC", "SSGAN"},     {"D-BiSIM", "DasaKM", "BiSIM"},
      {"T-BiSIM", "TopoAC", "BiSIM"},
  };
  for (const char* venue : {"Kaide", "Wanda"}) {
    const auto ds = bench::MakeDataset(venue, env.scale);
    std::vector<std::string> header = {"estimator"};
    for (const auto& c : configs) header.push_back(c.label);
    Table table(header);
    std::vector<std::vector<std::string>> rows = {
        {"KNN"}, {"WKNN"}, {"RF"}};
    for (const auto& c : configs) {
      auto diff = eval::MakeDifferentiator(c.differentiator, &ds.venue);
      auto imputer = eval::MakeImputer(c.imputer, ds.venue, env);
      auto knn = eval::MakeEstimator("KNN");
      auto wknn = eval::MakeEstimator("WKNN");
      auto rf = eval::MakeEstimator("RF");
      eval::PipelineOptions opt;
      opt.seed = 90;
      opt.test_fraction = bench::kBenchTestFraction;
      const auto res = eval::RunPipelineMultiEstimators(
          ds.map, *diff, *imputer, {knn.get(), wknn.get(), rf.get()}, opt);
      for (size_t e = 0; e < 3; ++e) rows[e].push_back(Table::Num(res[e].ape));
    }
    for (auto& r : rows) table.AddRow(std::move(r));
    std::printf("-- %s --\n", venue);
    table.Print();
    table.MaybeWriteCsv(std::string("table6_") + venue);
    std::printf("\n");
  }
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
