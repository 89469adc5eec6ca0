// Fig. 18: time-lag ablation — T-BiSIM with the time-lag mechanism in
// (1) encoders only (ours), (2) decoders only, (3) both, (4) none; C = WKNN.
//
// Paper shape: encoder-only best; none worst; enc+dec worse than enc-only
// (extra decoder lag over-parameterizes).
#include "bench/bench_common.h"
#include "bisim/bisim.h"
#include "eval/pipeline.h"

namespace rmi {
namespace {

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.15, /*epochs=*/25);
  bench::Banner("Fig. 18", "time-lag ablation for T-BiSIM (APE, meters)",
                env);
  struct Variant {
    const char* label;
    bisim::BiSimConfig::TimeLag time_lag;
  };
  const std::vector<Variant> variants = {
      {"Time-lag in Enc. (ours)", bisim::BiSimConfig::TimeLag::kEncoder},
      {"Time-lag in Dec.", bisim::BiSimConfig::TimeLag::kDecoder},
      {"Time-lag in Enc. and Dec.", bisim::BiSimConfig::TimeLag::kBoth},
      {"No Time-lag", bisim::BiSimConfig::TimeLag::kNone},
  };
  Table table({"variant", "Kaide", "Wanda"});
  std::vector<std::vector<std::string>> rows(variants.size());
  for (size_t v = 0; v < variants.size(); ++v) rows[v] = {variants[v].label};
  for (const char* venue : {"Kaide", "Wanda"}) {
    const auto ds = bench::MakeDataset(venue, env.scale);
    auto diff = eval::MakeDifferentiator("TopoAC", &ds.venue);
    for (size_t v = 0; v < variants.size(); ++v) {
      bisim::BiSimConfig cfg = eval::DefaultBiSimConfig(ds.venue, env);
      cfg.time_lag = variants[v].time_lag;
      bisim::BiSimImputer imputer(cfg);
      auto wknn = eval::MakeEstimator("WKNN");
      rows[v].push_back(Table::Num(
          bench::MeanApe(ds.map, *diff, imputer, *wknn, 180, /*repeats=*/2)));
    }
  }
  for (auto& r : rows) table.AddRow(std::move(r));
  table.Print();
  table.MaybeWriteCsv("fig18");
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
