// Fig. 12: removal ratio alpha vs APE for the five differentiators
// (TopoAC, DasaKM, ElbowKM, MAR-only, MNAR-only), with B = BiSIM and
// C = WKNN, on Kaide and Wanda.
//
// Paper shape to reproduce: all methods degrade with alpha; the three
// clustering differentiators beat MAR-only and MNAR-only; MAR-only beats
// MNAR-only; TopoAC is best overall.
#include "bench/bench_common.h"
#include "eval/pipeline.h"

namespace rmi {
namespace {

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.10, /*epochs=*/10);
  bench::Banner("Fig. 12", "removal ratio alpha vs APE (B=BiSIM, C=WKNN)",
                env);
  const std::vector<int> alphas = {0, 5, 10, 15, 20};
  const std::vector<std::string> diffs = {"TopoAC", "DasaKM", "ElbowKM",
                                          "MAR-only", "MNAR-only"};
  for (const char* venue : {"Kaide", "Wanda"}) {
    const auto ds = bench::MakeDataset(venue, env.scale);
    Table table({"alpha(%)", "TopoAC", "DasaKM", "ElbowKM", "MAR-only",
                 "MNAR-only"});
    for (int alpha : alphas) {
      rmap::RadioMap map = ds.map;
      Rng rng(1000 + alpha);
      rmap::RemoveRandomRssis(&map, alpha / 100.0, rng);
      std::vector<std::string> row = {std::to_string(alpha)};
      for (const std::string& diff_name : diffs) {
        auto diff = eval::MakeDifferentiator(diff_name, &ds.venue);
        auto bisim = eval::MakeImputer("BiSIM", ds.venue, env);
        auto wknn = eval::MakeEstimator("WKNN");
        row.push_back(Table::Num(bench::MeanApe(map, *diff, *bisim, *wknn,
                                                /*base_seed=*/77)));
      }
      table.AddRow(std::move(row));
    }
    std::printf("-- %s (APE, meters; missing RSSI rate %.1f%%) --\n", venue,
                100.0 * ds.map.MissingRssiRate());
    table.Print();
    table.MaybeWriteCsv(std::string("fig12_") + venue);
    std::printf("\n");
  }
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
