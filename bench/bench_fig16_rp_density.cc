// Fig. 16: RP density (keeping 60-100% of RP records in the raw walking
// survey) vs APE for T-BiSIM (C = WKNN) on Kaide and Wanda.
//
// Paper shape: APE improves monotonically with density; Kaide (denser RPs)
// stays below Wanda throughout.
#include "bench/bench_common.h"
#include "eval/pipeline.h"
#include "radio/propagation.h"

namespace rmi {
namespace {

survey::SurveyDataset DatasetWithDensity(const std::string& venue,
                                         double scale, double keep) {
  indoor::VenueSpec vs = venue == "Kaide" ? indoor::KaideSpec(scale)
                                          : indoor::WandaSpec(scale);
  radio::PropagationParams rp;
  survey::SurveySpec ss;
  ss.rounds = venue == "Kaide" ? 2 : 8;
  ss.rp_keep_fraction = keep;
  ss.seed = 5;
  if (venue == "Wanda") rp.seed = 199;
  return survey::GenerateDataset(vs, rp, ss);
}

void Run() {
  const auto env = eval::BenchEnv::FromEnv(/*scale=*/0.10, /*epochs=*/12);
  bench::Banner("Fig. 16", "RP density vs APE for T-BiSIM (C=WKNN)", env);
  Table table({"RP density(%)", "Kaide", "Wanda"});
  std::vector<std::vector<std::string>> rows;
  for (int density : {60, 70, 80, 90, 100}) {
    std::vector<std::string> row = {std::to_string(density)};
    for (const char* venue : {"Kaide", "Wanda"}) {
      const auto ds = DatasetWithDensity(venue, env.scale, density / 100.0);
      auto diff = eval::MakeDifferentiator("TopoAC", &ds.venue);
      auto bisim = eval::MakeImputer("BiSIM", ds.venue, env);
      auto wknn = eval::MakeEstimator("WKNN");
      row.push_back(Table::Num(
          bench::MeanApe(ds.map, *diff, *bisim, *wknn, 160, /*repeats=*/2)));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  table.MaybeWriteCsv("fig16");
}

}  // namespace
}  // namespace rmi

int main() {
  rmi::Run();
  return 0;
}
