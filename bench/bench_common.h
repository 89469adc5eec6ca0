// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench prints the corresponding paper table/figure as an aligned
// console table (and mirrors it to CSV when RMI_BENCH_CSV_DIR is set).
// Sizing knobs: RMI_BENCH_SCALE / RMI_BENCH_EPOCHS override each bench's
// built-in defaults through eval::BenchEnv::FromEnv (benches that sweep many
// configurations use smaller defaults so the whole harness stays
// laptop-friendly).
#ifndef RMI_BENCH_BENCH_COMMON_H_
#define RMI_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "eval/factories.h"
#include "eval/pipeline.h"
#include "survey/survey.h"

namespace rmi::bench {

/// Dataset for a venue preset by name ("Kaide", "Wanda", "Longhu").
inline survey::SurveyDataset MakeDataset(const std::string& venue,
                                         double scale) {
  if (venue == "Kaide") return survey::MakeKaideDataset(scale);
  if (venue == "Wanda") return survey::MakeWandaDataset(scale);
  return survey::MakeLonghuDataset(scale);
}

/// Header banner shared by all benches.
inline void Banner(const char* exp_id, const char* what,
                   const eval::BenchEnv& env) {
  std::printf("=== %s — %s ===\n", exp_id, what);
  std::printf("(venue scale %.2f, neural epochs %zu; override with "
              "RMI_BENCH_SCALE / RMI_BENCH_EPOCHS)\n\n",
              env.scale, env.epochs);
}

/// Test-split sizing for benches. The paper holds out 10% of the
/// observed-RP records; at bench scale that is only a handful of points, so
/// we hold out 30% to keep APE estimates stable (both the proposed methods
/// and the baselines see the identical protocol).
inline constexpr double kBenchTestFraction = 0.3;

/// Average APE of (differentiator, imputer, WKNN) over `repeats` test
/// splits (seeds base_seed..base_seed+repeats-1).
inline double MeanApe(const rmap::RadioMap& map,
                      const cluster::Differentiator& diff,
                      const imputers::Imputer& imputer,
                      positioning::LocationEstimator& estimator,
                      uint64_t base_seed, size_t repeats = 1) {
  // The repeats are fully independent pipeline runs (each seeds its own
  // Rng and fits a private clone of the estimator), so they fan out over
  // a pool; summing the pre-sized slots in repeat order keeps the result
  // identical to the serial loop.
  std::vector<double> apes(repeats);
  ThreadPool pool(std::min(ThreadPool::DefaultThreads(),
                           std::max<size_t>(1, repeats)));
  pool.ParallelFor(repeats, [&](size_t /*worker*/, size_t r) {
    eval::PipelineOptions opt;
    opt.seed = base_seed + r;
    opt.test_fraction = kBenchTestFraction;
    auto private_estimator = estimator.Clone();
    apes[r] = eval::RunPipeline(map, diff, imputer, *private_estimator, opt).ape;
  });
  double sum = 0.0;
  for (double a : apes) sum += a;
  return sum / static_cast<double>(repeats);
}

/// CPU model string from /proc/cpuinfo ("unknown" off Linux or on parse
/// failure), sanitized for direct embedding in a JSON string literal.
inline std::string CpuModelName() {
  std::string model = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      if (const char* colon = std::strchr(line, ':')) {
        model.assign(colon + 1);
        while (!model.empty() && model.front() == ' ') model.erase(0, 1);
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == ' ')) {
          model.pop_back();
        }
      }
      break;
    }
    std::fclose(f);
  }
  if (model.empty()) model = "unknown";
  for (char& c : model) {
    if (c == '"' || c == '\\') c = '\'';
  }
  return model;
}

/// Writes the shared `"hardware"` JSON object (one line, no trailing
/// comma): the machine's hardware_concurrency, the thread count the bench
/// actually ran with, and the CPU model. Every BENCH_*.json carries it so
/// numbers are never compared across machines blind — and the regression
/// gate reads hardware_concurrency to skip multicore-scaling assertions on
/// small runners.
inline void WriteHardwareJson(std::FILE* f, size_t bench_threads) {
  std::fprintf(f,
               "  \"hardware\": {\"hardware_concurrency\": %u, "
               "\"bench_threads\": %zu, \"cpu_model\": \"%s\"}",
               std::thread::hardware_concurrency(), bench_threads,
               CpuModelName().c_str());
}

/// Writes the shared `"metrics"` JSON member (one line, trailing comma):
/// the observability registry's DumpJson() snapshot at the moment the
/// bench finishes. Every BENCH_*.json carries it so a regression report
/// can be cross-checked against what the engine actually did (batches
/// coalesced, rebuild phases, pool steals) instead of just the headline
/// qps. DumpJson() already emits a complete JSON object.
inline void WriteObsMetricsJson(std::FILE* f) {
  std::fprintf(f, "  \"metrics\": %s,\n", obs::DumpJson().c_str());
}

}  // namespace rmi::bench

#endif  // RMI_BENCH_BENCH_COMMON_H_
