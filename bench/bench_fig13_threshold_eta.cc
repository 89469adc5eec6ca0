// Fig. 13: fraction threshold eta vs APE for the three clustering
// differentiators plus the MAR-only / MNAR-only references (B = BiSIM,
// C = WKNN). Also prints the Section V-B "distribution of differentiated
// results": the MAR share of missing RSSIs under TopoAC's default setting.
//
// Paper shape: eta = 0 coincides with MAR-only; eta = 0.1 is best;
// larger eta degrades (ElbowKM fastest); TopoAC best overall.
#include "bench/bench_common.h"
#include "eval/pipeline.h"

namespace rmi {
namespace {

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.10, /*epochs=*/10);
  bench::Banner("Fig. 13", "threshold eta vs APE (B=BiSIM, C=WKNN)", env);
  const std::vector<double> etas = {0.0, 0.1, 0.2, 0.3};
  const std::vector<std::string> diffs = {"TopoAC", "DasaKM", "ElbowKM"};
  for (const char* venue : {"Kaide", "Wanda"}) {
    const auto ds = bench::MakeDataset(venue, env.scale);
    Table table({"eta", "TopoAC", "DasaKM", "ElbowKM", "MAR-only",
                 "MNAR-only"});
    // The baselines are eta-independent; evaluate once.
    std::vector<std::string> baseline_ape;
    for (const char* base : {"MAR-only", "MNAR-only"}) {
      auto diff = eval::MakeDifferentiator(base, &ds.venue);
      auto bisim = eval::MakeImputer("BiSIM", ds.venue, env);
      auto wknn = eval::MakeEstimator("WKNN");
      baseline_ape.push_back(
          Table::Num(bench::MeanApe(ds.map, *diff, *bisim, *wknn, 78)));
    }
    double topo_mar_share = 0.0;
    for (double eta : etas) {
      std::vector<std::string> row = {Table::Num(eta, 1)};
      for (const std::string& diff_name : diffs) {
        auto diff = eval::MakeDifferentiator(diff_name, &ds.venue, eta);
        auto bisim = eval::MakeImputer("BiSIM", ds.venue, env);
        auto wknn = eval::MakeEstimator("WKNN");
        eval::PipelineOptions opt;
        opt.seed = 78;
        opt.test_fraction = bench::kBenchTestFraction;
        const auto res = eval::RunPipeline(ds.map, *diff, *bisim, *wknn, opt);
        row.push_back(Table::Num(res.ape));
        if (diff_name == "TopoAC" && eta == 0.1) {
          topo_mar_share = res.mar_share;
        }
      }
      row.push_back(baseline_ape[0]);
      row.push_back(baseline_ape[1]);
      table.AddRow(std::move(row));
    }
    std::printf("-- %s (APE, meters) --\n", venue);
    table.Print();
    table.MaybeWriteCsv(std::string("fig13_") + venue);
    std::printf(
        "TopoAC default (eta=0.1): MARs account for %.2f%% of missing "
        "RSSIs (paper estimate: 10.12%% Kaide / 7.06%% Wanda)\n\n",
        100.0 * topo_mar_share);
  }
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
