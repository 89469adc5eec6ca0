// The benchmark's three workloads and the pieces they share: compact scan
// storage, Poisson schedules, open-loop latency summaries and the
// saturation ladder.
#ifndef RMI_REPOBENCH_WORKLOADS_H_
#define RMI_REPOBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geometry/geometry.h"
#include "harness.h"

namespace repobench {

using rmi::Rng;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Each returns the process exit code after printing the report.
int RunVenueWalk(const Args& args);
int RunVenueRefresh(const Args& args);
int RunMallBurst(const Args& args);

/// The JSON metric sets: BENCHMARK.json's end_to_end and per_layer lists.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Scans stored as observed APs only: (AP index, RSSI) pairs per scan.
class ScanPool {
 public:
  explicit ScanPool(size_t dim) : dim_(dim) { begin_.push_back(0); }

  /// Appends a dense scan (kNull = not observed); returns its index.
  uint32_t Add(const std::vector<double>& dense);
  /// Writes scan `i` into `out` (resized to the full dimension).
  void Expand(uint32_t i, std::vector<double>* out) const;

  size_t size() const { return begin_.size() - 1; }

 private:
  size_t dim_;
  std::vector<uint32_t> begin_;
  std::vector<uint16_t> ap_;
  std::vector<float> rssi_;
};

/// Homogeneous Poisson arrival offsets (ns) in [0, seconds) at `rate`.
std::vector<int64_t> PoissonArrivalsNs(double rate, double seconds, Rng& rng);

/// ON/OFF Poisson bursts: each `period_s` starts with an ON phase of
/// `on_fraction * period_s` at rate mean_rate / on_fraction, then silence.
std::vector<int64_t> BurstArrivalsNs(double mean_rate, double seconds,
                                     double period_s, double on_fraction,
                                     Rng& rng);

/// What one request looked like on the clock, relative to its phase.
struct Timing {
  int64_t due_ns = 0;    ///< scheduled send instant
  int64_t start_ns = 0;  ///< actual send instant
  int64_t end_ns = 0;    ///< answer (or failure) instant
  bool ok = false;
};

/// A failed request counts as this late, beyond any latency limit (a
/// finite stand-in for "never answered", so percentiles stay finite).
constexpr double kFailedLatencyMs = 1e6;

/// Open-loop latency of a phase: every request from its due time to its
/// answer, pooled. The phase is also split into consecutive trials of
/// `trial_s` by due time, for the ladder's per-rung statistic and the
/// notes.
struct LatencySummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::vector<double> trial_p99_ms;
  double median_trial_p99_ms = 0.0;
  double mean_service_us = 0.0;  ///< send -> answer, answered requests
  double lateness_p99_ms = 0.0;  ///< pacing error, see Summarize
  size_t answered = 0;
  size_t failed = 0;
};

/// `timings` may come in any order. Pacing lateness is the send instant
/// minus max(due, the same thread's previous answer): the part of the wait
/// the generator, not the queue, caused (`prev_end_ns` parallels
/// `timings`).
LatencySummary Summarize(const std::vector<Timing>& timings,
                         const std::vector<int64_t>& prev_end_ns,
                         double window_s, double trial_s);

/// One rung of the saturation ladder.
struct Rung {
  double rate = 0.0;
  double p99_ms = 0.0;
};

/// Highest rate meeting the SLO, interpolated in log(p99) between the last
/// passing and the first failing rung (rungs ascending; the ladder stops
/// at its first failure).
double KneeQps(const std::vector<Rung>& rungs, double slo_ms);

/// Sets max_qps_at_slo from the ladder and notes every rung's p99.
void SetKnee(Report* report, const std::vector<Rung>& rungs, double slo_ms);

/// Notes the per-trial p99s of a window and their lower quartile.
void NoteTrials(Report* report, const LatencySummary& lat);

/// Bitwise equality: the answer checks demand identical doubles.
bool SamePoint(const rmi::geom::Point& a, const rmi::geom::Point& b);

/// Sets the process.* and env.* metrics of a measured window.
void SetProcessMetrics(Report* report, const ProcessWindow& window,
                       double peak_rss_mb);

}  // namespace repobench

#endif  // RMI_REPOBENCH_WORKLOADS_H_
