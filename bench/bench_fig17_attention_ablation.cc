// Fig. 17: attention ablation — T-BiSIM with (1) the adapted
// sparsity-friendly Bahdanau attention (ours), (2) classic Bahdanau
// attention, (3) no attention; C = WKNN.
//
// Paper shape: adapted < classic < none (APE).
#include "bench/bench_common.h"
#include "bisim/bisim.h"
#include "eval/pipeline.h"

namespace rmi {
namespace {

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.15, /*epochs=*/25);
  bench::Banner("Fig. 17", "attention ablation for T-BiSIM (APE, meters)",
                env);
  struct Variant {
    const char* label;
    bisim::BiSimConfig::Attention attention;
  };
  const std::vector<Variant> variants = {
      {"Adapted Bahdanau Attention",
       bisim::BiSimConfig::Attention::kSparsityFriendly},
      {"Bahdanau Attention", bisim::BiSimConfig::Attention::kClassicBahdanau},
      {"No Attention", bisim::BiSimConfig::Attention::kNone},
  };
  Table table({"variant", "Kaide", "Wanda"});
  std::vector<std::vector<std::string>> rows(variants.size());
  for (size_t v = 0; v < variants.size(); ++v) rows[v] = {variants[v].label};
  for (const char* venue : {"Kaide", "Wanda"}) {
    const auto ds = bench::MakeDataset(venue, env.scale);
    auto diff = eval::MakeDifferentiator("TopoAC", &ds.venue);
    for (size_t v = 0; v < variants.size(); ++v) {
      bisim::BiSimConfig cfg = eval::DefaultBiSimConfig(ds.venue, env);
      cfg.attention = variants[v].attention;
      bisim::BiSimImputer imputer(cfg);
      auto wknn = eval::MakeEstimator("WKNN");
      rows[v].push_back(Table::Num(
          bench::MeanApe(ds.map, *diff, imputer, *wknn, 170, /*repeats=*/2)));
    }
  }
  for (auto& r : rows) table.AddRow(std::move(r));
  table.Print();
  table.MaybeWriteCsv("fig17");
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
