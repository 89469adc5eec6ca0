#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/missing.h"
#include "common/stats.h"
#include "workloads.h"

namespace repobench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"}, {"ape_m", "m"}, {"rss_mb", "MB"}};
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"query_p50_ms", "ms"},
      {"query_p99_ms", "ms"},
      {"max_qps_at_slo", "1/s"},
      {"workload.session.route_us", "us"},
      {"serving.shard_router.classify_us", "us"},
      {"serving.shard_router.unhinted_share", "ratio"},
      {"serving.snapshot.pin_us", "us"},
      {"serving.batch_localizer.validate_us", "us"},
      {"serving.batch_localizer.localize_us", "us"},
      {"serving.spatial_index.scored_share", "ratio"},
      {"serving.server.submit_us", "us"},
      {"serving.server.sojourn_us", "us"},
      {"serving.server.batch_size_mean", "count"},
      {"serving.server.wait_share", "ratio"},
      {"positioning.estimate_batch_us_per_query", "us"},
      {"la.quant.kernel_us_per_query", "us"},
      {"la.quant.ops_per_query", "count"},
      {"la.quant.bytes_per_query", "bytes"},
      {"clustering.differentiate_s", "s"},
      {"imputers.fill_mnar_ms", "ms"},
      {"bisim.impute_s", "s"},
      {"bisim.sequences", "count"},
      {"serving.snapshot.build_ms", "ms"},
      {"serving.map_updater.register_ms", "ms"},
      {"serving.map_updater.ingest_us", "us"},
      {"serving.map_updater.rebuilds", "count"},
      {"serving.map_updater.warm_share", "ratio"},
      {"serving.map_updater.queue_wait_ms", "ms"},
      {"imputers.rebuild_impute_ms", "ms"},
      {"serving.snapshot.fit_ms", "ms"},
      {"serving.snapshot.publish_us", "us"},
      {"serving.map_updater.trigger_delay_ms", "ms"},
      {"serving.map_updater.failures", "count"},
      {"refresh_p50_ms", "ms"},
      {"refresh_p95_ms", "ms"},
      {"error_rate", "ratio"},
      {"wrong_floor_rate", "ratio"},
      {"generator.lateness_p99_ms", "ms"},
      {"process.cpu_user_s", "s"},
      {"process.cpu_sys_s", "s"},
      {"process.invol_ctx_switches", "count"},
      {"process.minor_faults", "count"},
      {"process.peak_rss_mb", "MB"},
      {"env.steal_share", "ratio"},
      {"trace.overhead_share", "ratio"},
      {"trace.ledger_coverage", "ratio"},
      {"setup_wall_s", "s"},
      {"cpu_us_per_query", "us"},
  };
  return specs;
}

uint32_t ScanPool::Add(const std::vector<double>& dense) {
  for (size_t j = 0; j < dense.size(); ++j) {
    if (rmi::IsNull(dense[j])) continue;
    ap_.push_back(static_cast<uint16_t>(j));
    rssi_.push_back(static_cast<float>(dense[j]));
  }
  begin_.push_back(static_cast<uint32_t>(ap_.size()));
  return static_cast<uint32_t>(begin_.size() - 2);
}

void ScanPool::Expand(uint32_t i, std::vector<double>* out) const {
  out->assign(dim_, rmi::kNull);
  for (uint32_t k = begin_[i]; k < begin_[i + 1]; ++k) {
    (*out)[ap_[k]] = static_cast<double>(rssi_[k]);
  }
}

std::vector<int64_t> PoissonArrivalsNs(double rate, double seconds, Rng& rng) {
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.05) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    out.push_back(static_cast<int64_t>(t * 1e9));
  }
  return out;
}

std::vector<int64_t> BurstArrivalsNs(double mean_rate, double seconds,
                                     double period_s, double on_fraction,
                                     Rng& rng) {
  const double on_s = period_s * on_fraction;
  const double on_rate = mean_rate / on_fraction;
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(mean_rate * seconds * 1.05) + 16);
  for (double period = 0.0; period < seconds; period += period_s) {
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.Uniform()) / on_rate;
      if (t >= on_s || period + t >= seconds) break;
      out.push_back(static_cast<int64_t>((period + t) * 1e9));
    }
  }
  return out;
}

LatencySummary Summarize(const std::vector<Timing>& timings,
                         const std::vector<int64_t>& prev_end_ns,
                         double window_s, double trial_s) {
  LatencySummary s;
  if (timings.empty()) return s;
  const size_t trials =
      std::max<size_t>(1, static_cast<size_t>(std::floor(window_s / trial_s)));
  std::vector<std::vector<double>> per_trial(trials);
  std::vector<double> all, service_us, lateness_ms;
  all.reserve(timings.size());
  lateness_ms.reserve(timings.size());
  for (size_t i = 0; i < timings.size(); ++i) {
    const Timing& t = timings[i];
    const double latency_ms = t.ok ? (t.end_ns - t.due_ns) * 1e-6 : kFailedLatencyMs;
    const size_t trial = std::min(
        trials - 1, static_cast<size_t>(t.due_ns * 1e-9 / trial_s));
    per_trial[trial].push_back(latency_ms);
    all.push_back(latency_ms);
    lateness_ms.push_back(
        (t.start_ns - std::max(t.due_ns, prev_end_ns[i])) * 1e-6);
    if (t.ok) {
      ++s.answered;
      service_us.push_back((t.end_ns - t.start_ns) * 1e-3);
    } else {
      ++s.failed;
    }
  }
  for (const std::vector<double>& v : per_trial) {
    if (!v.empty()) s.trial_p99_ms.push_back(rmi::Percentile(v, 99.0));
  }
  s.p50_ms = rmi::Percentile(all, 50.0);
  s.p99_ms = rmi::Percentile(all, 99.0);
  s.median_trial_p99_ms = rmi::Percentile(s.trial_p99_ms, 50.0);
  s.mean_service_us = rmi::Mean(service_us);
  s.lateness_p99_ms = rmi::Percentile(lateness_ms, 99.0);
  return s;
}

double KneeQps(const std::vector<Rung>& rungs, double slo_ms) {
  if (rungs.empty()) return 0.0;
  // A failed request reads as kFailedLatencyMs; cap it so one failure
  // does not flatten the log-space interpolation.
  auto capped = [&](double p99) { return std::min(p99, 100.0 * slo_ms); };
  size_t first_fail = rungs.size();
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (!(rungs[i].p99_ms <= slo_ms)) {
      first_fail = i;
      break;
    }
  }
  if (first_fail == rungs.size()) return rungs.back().rate;
  const Rung& b = rungs[first_fail];
  const double log_b = std::log(capped(b.p99_ms));
  if (first_fail == 0) {
    // Even the lowest rung misses: scale it down to the SLO.
    return b.rate * slo_ms / capped(b.p99_ms);
  }
  const Rung& a = rungs[first_fail - 1];
  const double log_a = std::log(std::max(a.p99_ms, 1e-6));
  const double frac = (std::log(slo_ms) - log_a) / (log_b - log_a);
  return a.rate + std::clamp(frac, 0.0, 1.0) * (b.rate - a.rate);
}

void SetKnee(Report* report, const std::vector<Rung>& rungs, double slo_ms) {
  report->Set("max_qps_at_slo", KneeQps(rungs, slo_ms), "1/s");
  std::string note = "ladder p99 (SLO " + std::to_string(slo_ms) + " ms):";
  for (const Rung& r : rungs) {
    note += " " + std::to_string(static_cast<int>(r.rate)) + "->" +
            std::to_string(r.p99_ms);
  }
  report->Note(note);
}

void NoteTrials(Report* report, const LatencySummary& lat) {
  if (lat.trial_p99_ms.empty()) return;
  // Host stalls hit random trials and only ever add latency, so the lower
  // quartile shows the tail of the quieter trials beside the pooled p99.
  std::string note = "per-trial p99 ms (lower quartile " +
                     std::to_string(rmi::Percentile(lat.trial_p99_ms, 25.0)) +
                     "):";
  for (double v : lat.trial_p99_ms) note += " " + std::to_string(v);
  report->Note(note);
}

bool SamePoint(const rmi::geom::Point& a, const rmi::geom::Point& b) {
  return std::memcmp(&a.x, &b.x, sizeof(double)) == 0 &&
         std::memcmp(&a.y, &b.y, sizeof(double)) == 0;
}

void SetProcessMetrics(Report* report, const ProcessWindow& w,
                       double peak_rss_mb) {
  report->Set("process.cpu_user_s", w.user_s, "s");
  report->Set("process.cpu_sys_s", w.sys_s, "s");
  report->Set("process.invol_ctx_switches", w.invol_ctx, "count");
  report->Set("process.minor_faults", w.minor_faults, "count");
  report->Set("process.peak_rss_mb", peak_rss_mb, "MB");
  report->Set("env.steal_share", w.steal_share, "ratio");
}

}  // namespace repobench
