// Table VIII: generalizability — APE of all nine imputers x three
// estimators on the Bluetooth venue Longhu.
//
// Paper shape: absolute errors larger than the Wi-Fi venues (weaker radio,
// bigger floor); *-BiSIM still clearly best; traditional imputers worst.
#include "bench/bench_common.h"
#include "eval/pipeline.h"

namespace rmi {
namespace {

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.15, /*epochs=*/20);
  bench::Banner("Table VIII", "APE on Bluetooth data (Longhu, meters)", env);
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
  const auto ds = bench::MakeDataset("Longhu", env.scale);
  std::printf("Longhu: %zu records, %zu Bluetooth APs, %.1f%% missing "
              "RSSIs\n\n",
              ds.map.size(), ds.map.num_aps(),
              100.0 * ds.map.MissingRssiRate());
  std::vector<std::string> header = {"estimator"};
  for (const auto& c : configs) header.push_back(c.label);
  Table table(header);
  std::vector<std::vector<std::string>> rows = {{"KNN"}, {"WKNN"}, {"RF"}};
  for (const auto& c : configs) {
    auto diff = eval::MakeDifferentiator(c.differentiator, &ds.venue);
    auto imputer = eval::MakeImputer(c.imputer, ds.venue, env);
    auto knn = eval::MakeEstimator("KNN");
    auto wknn = eval::MakeEstimator("WKNN");
    auto rf = eval::MakeEstimator("RF");
    eval::PipelineOptions opt;
    opt.seed = 800;
    opt.test_fraction = bench::kBenchTestFraction;
    const auto res = eval::RunPipelineMultiEstimators(
        ds.map, *diff, *imputer, {knn.get(), wknn.get(), rf.get()}, opt);
    for (size_t e = 0; e < 3; ++e) rows[e].push_back(Table::Num(res[e].ape));
  }
  for (auto& r : rows) table.AddRow(std::move(r));
  table.Print();
  table.MaybeWriteCsv("table8_longhu");
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
