#include "eval/factories.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "clustering/strategies.h"
#include "common/check.h"
#include "imputers/autocorrelation.h"
#include "imputers/neural.h"
#include "imputers/traditional.h"

namespace rmi::eval {

namespace {

[[noreturn]] void BadEnv(const char* name, const char* value,
                         const char* want) {
  std::fprintf(stderr, "%s=\"%s\": expected %s\n", name, value, want);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

BenchEnv BenchEnv::FromEnv(double default_scale, size_t default_epochs) {
  BenchEnv env;
  env.scale = default_scale;
  env.epochs = default_epochs;
  if (const char* s = std::getenv("RMI_BENCH_SCALE"); s != nullptr && *s) {
    char* end = nullptr;
    env.scale = std::strtod(s, &end);
    if (*end != '\0' || !(env.scale > 0.0) || !std::isfinite(env.scale)) {
      BadEnv("RMI_BENCH_SCALE", s, "a number > 0");
    }
  }
  if (const char* s = std::getenv("RMI_BENCH_EPOCHS"); s != nullptr && *s) {
    char* end = nullptr;
    errno = 0;
    const long long epochs = std::strtoll(s, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*s)) || *end != '\0' ||
        epochs <= 0 || errno == ERANGE) {
      BadEnv("RMI_BENCH_EPOCHS", s, "an integer > 0");
    }
    env.epochs = static_cast<size_t>(epochs);
  }
  return env;
}

std::shared_ptr<cluster::Differentiator> MakeDifferentiator(
    const std::string& name, const indoor::Venue* venue, double eta) {
  using cluster::ClusteringDifferentiator;
  if (name == "MAR-only") {
    return std::make_shared<cluster::MarOnlyDifferentiator>();
  }
  if (name == "MNAR-only") {
    return std::make_shared<cluster::MnarOnlyDifferentiator>();
  }
  if (name == "TopoAC") {
    RMI_CHECK(venue != nullptr);
    return std::make_shared<ClusteringDifferentiator>(
        std::make_shared<cluster::TopoACClusterer>(&venue->walls), eta);
  }
  if (name == "DasaKM") {
    return std::make_shared<ClusteringDifferentiator>(
        std::make_shared<cluster::DasaKMeansClusterer>(), eta);
  }
  if (name == "ElbowKM") {
    return std::make_shared<ClusteringDifferentiator>(
        std::make_shared<cluster::ElbowKMeansClusterer>(), eta);
  }
  if (name == "DBSCAN") {
    return std::make_shared<ClusteringDifferentiator>(
        std::make_shared<cluster::DbscanClusterer>(/*eps=*/2.0,
                                                   /*min_pts=*/4),
        eta);
  }
  RMI_CHECK(false);
  return nullptr;
}

bisim::BiSimConfig DefaultBiSimConfig(const indoor::Venue& venue,
                                      const BenchEnv& env) {
  bisim::BiSimConfig cfg;
  cfg.loc_scale = 1.0 / std::max(venue.width, venue.height);
  cfg.epochs = env.epochs;
  return cfg;
}

std::unique_ptr<imputers::Imputer> MakeImputer(const std::string& name,
                                               const indoor::Venue& venue,
                                               const BenchEnv& env) {
  if (name == "CD") return std::make_unique<imputers::CaseDeletionImputer>();
  if (name == "LI") {
    return std::make_unique<imputers::LinearInterpolationImputer>();
  }
  if (name == "SL") return std::make_unique<imputers::SemiSupervisedImputer>();
  if (name == "MICE") return std::make_unique<imputers::MiceImputer>();
  if (name == "MF") {
    return std::make_unique<imputers::MatrixFactorizationImputer>();
  }
  if (name == "BRITS") {
    imputers::NeuralParams p;
    p.epochs = env.epochs;
    return std::make_unique<imputers::BritsImputer>(p);
  }
  if (name == "SSGAN") {
    imputers::SsganImputer::Params p;
    p.epochs = env.epochs;
    return std::make_unique<imputers::SsganImputer>(p);
  }
  if (name == "BiSIM") {
    return std::make_unique<bisim::BiSimImputer>(DefaultBiSimConfig(venue, env));
  }
  RMI_CHECK(false);
  return nullptr;
}

std::unique_ptr<positioning::LocationEstimator> MakeEstimator(
    const std::string& name) {
  if (name == "KNN") {
    return std::make_unique<positioning::KnnEstimator>(3, /*weighted=*/false);
  }
  if (name == "WKNN") {
    return std::make_unique<positioning::KnnEstimator>(3, /*weighted=*/true);
  }
  if (name == "RF") {
    return std::make_unique<positioning::RandomForestEstimator>();
  }
  RMI_CHECK(false);
  return nullptr;
}

}  // namespace rmi::eval
