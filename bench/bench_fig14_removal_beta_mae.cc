// Fig. 14: removal ratio beta (of RSSIs, applied after the MNAR fill) vs
// fingerprint MAE for {T-BiSIM, D-BiSIM, SSGAN, BRITS, MF, MICE}.
//
// Paper shape: MAE grows with beta for everyone; *-BiSIM best and flattest;
// MICE/MF degrade fastest (their autocorrelation signal thins out).
#include "bench/bench_common.h"
#include "eval/pipeline.h"

namespace rmi {
namespace {

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.10, /*epochs=*/18);
  bench::Banner("Fig. 14", "removal ratio beta vs RSSI MAE (dBm)", env);
  struct Config {
    const char* label;
    const char* diff;
    const char* imp;
  };
  const std::vector<Config> configs = {
      {"T-BiSIM", "TopoAC", "BiSIM"}, {"D-BiSIM", "DasaKM", "BiSIM"},
      {"SSGAN", "TopoAC", "SSGAN"},   {"BRITS", "TopoAC", "BRITS"},
      {"MF", "TopoAC", "MF"},         {"MICE", "TopoAC", "MICE"},
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
            ds.map, *diff, *imputer, beta / 100.0, /*beta_rp=*/0.0,
            /*seed=*/500 + beta);
        row.push_back(Table::Num(res.rssi_mae));
      }
      table.AddRow(std::move(row));
    }
    std::printf("-- %s (MAE, dBm) --\n", venue);
    table.Print();
    table.MaybeWriteCsv(std::string("fig14_") + venue);
    std::printf("\n");
  }
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
