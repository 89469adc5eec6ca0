// Fig. 15: removal ratio beta (of RPs) vs RP Euclidean distance for
// {T-BiSIM, D-BiSIM, LI, SL, MICE, MF}.
//
// Paper shape: error grows with beta; *-BiSIM best (robust to RP sparsity);
// MICE/MF worst (they cannot exploit the path structure).
#include "bench/bench_common.h"
#include "eval/pipeline.h"

namespace rmi {
namespace {

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.10, /*epochs=*/18);
  bench::Banner("Fig. 15", "removal ratio beta vs RP Euclidean distance (m)",
                env);
  struct Config {
    const char* label;
    const char* diff;
    const char* imp;
  };
  const std::vector<Config> configs = {
      {"T-BiSIM", "TopoAC", "BiSIM"}, {"D-BiSIM", "DasaKM", "BiSIM"},
      {"LI", "MNAR-only", "LI"},      {"SL", "MNAR-only", "SL"},
      {"MICE", "TopoAC", "MICE"},     {"MF", "TopoAC", "MF"},
  };
  for (const char* venue : {"Kaide", "Wanda"}) {
    const auto ds = bench::MakeDataset(venue, env.scale);
    std::vector<std::string> header = {"beta(%)"};
    for (const auto& c : configs) header.push_back(c.label);
    Table table(header);
    for (int beta : {10, 20, 30, 40, 50}) {
      std::vector<std::string> row = {std::to_string(beta)};
      for (const auto& c : configs) {
        auto diff = eval::MakeDifferentiator(c.diff, &ds.venue);
        auto imputer = eval::MakeImputer(c.imp, ds.venue, env);
        const auto res = eval::RunBetaExperiment(
            ds.map, *diff, *imputer, /*beta_rssi=*/0.0, beta / 100.0,
            /*seed=*/600 + beta);
        row.push_back(Table::Num(res.rp_euclidean));
      }
      table.AddRow(std::move(row));
    }
    std::printf("-- %s (Euclidean distance, meters) --\n", venue);
    table.Print();
    table.MaybeWriteCsv(std::string("fig15_") + venue);
    std::printf("\n");
  }
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
