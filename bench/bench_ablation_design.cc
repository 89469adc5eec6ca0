// Design-choice ablations beyond the paper's Figs. 17-18 — the knobs
// DESIGN.md calls out:
//   * sequence length T (the paper tunes T = 5);
//   * latent size (the paper uses 64; we default to a CPU-scale 24);
//   * the location_weight that makes the clustering sample features
//     commensurate (Algorithm 2 concatenates raw meters; we scale them).
// Each sweep reports T-BiSIM APE with C = WKNN on Kaide.
#include "bench/bench_common.h"
#include "bisim/bisim.h"
#include "clustering/strategies.h"
#include "eval/pipeline.h"

namespace rmi {
namespace {

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.12, /*epochs=*/18);
  bench::Banner("Design ablations", "seq length / latent size / "
                "location weight (T-BiSIM + WKNN, Kaide)", env);
  const auto ds = bench::MakeDataset("Kaide", env.scale);
  auto topo = eval::MakeDifferentiator("TopoAC", &ds.venue);

  {
    Table t({"sequence length T", "APE (m)"});
    for (size_t seq_len : {2, 5, 8, 12}) {
      bisim::BiSimConfig cfg = eval::DefaultBiSimConfig(ds.venue, env);
      cfg.seq_len = seq_len;
      bisim::BiSimImputer imputer(cfg);
      auto wknn = eval::MakeEstimator("WKNN");
      t.AddRow({std::to_string(seq_len),
                Table::Num(bench::MeanApe(ds.map, *topo, imputer, *wknn, 210,
                                          /*repeats=*/2))});
    }
    std::printf("-- sequence length (paper-tuned optimum: 5) --\n");
    t.Print();
    t.MaybeWriteCsv("ablation_seq_len");
    std::printf("\n");
  }

  {
    Table t({"latent size", "APE (m)"});
    for (size_t hidden : {8, 24, 48}) {
      bisim::BiSimConfig cfg = eval::DefaultBiSimConfig(ds.venue, env);
      cfg.hidden = hidden;
      cfg.attention_hidden = hidden;
      bisim::BiSimImputer imputer(cfg);
      auto wknn = eval::MakeEstimator("WKNN");
      t.AddRow({std::to_string(hidden),
                Table::Num(bench::MeanApe(ds.map, *topo, imputer, *wknn, 220,
                                          /*repeats=*/2))});
    }
    std::printf("-- latent size (paper: 64 on GPU) --\n");
    t.Print();
    t.MaybeWriteCsv("ablation_latent");
    std::printf("\n");
  }

  {
    Table t({"location weight", "APE (m)"});
    for (double w : {0.0, 0.05, 0.1, 0.3}) {
      auto diff = std::make_shared<cluster::ClusteringDifferentiator>(
          std::make_shared<cluster::TopoACClusterer>(&ds.venue.walls),
          /*eta=*/0.1, /*location_weight=*/w);
      auto bisim = eval::MakeImputer("BiSIM", ds.venue, env);
      auto wknn = eval::MakeEstimator("WKNN");
      t.AddRow({Table::Num(w, 2),
                Table::Num(bench::MeanApe(ds.map, *diff, *bisim, *wknn, 230,
                                          /*repeats=*/2))});
    }
    std::printf("-- clustering location weight (Algorithm 2 sample "
                "construction) --\n");
    t.Print();
    t.MaybeWriteCsv("ablation_location_weight");
  }
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
