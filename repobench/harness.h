// Measurement substrate of the repo benchmark: clocks, open-loop pacing,
// order statistics, process/machine counters, and the metric report that
// ends every run with one JSON line.
#ifndef RMI_REPOBENCH_HARNESS_H_
#define RMI_REPOBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace repobench {

/// CLOCK_MONOTONIC in nanoseconds.
int64_t NowNs();
/// CPU time of the calling thread, nanoseconds.
int64_t ThreadCpuNs();
/// CPU time of the whole process (every thread), nanoseconds.
int64_t ProcessCpuNs();

/// Splits the allowed CPUs: the last `count` are reserved for the
/// benchmark's own threads (generators, feeder), and the calling thread —
/// with every thread it creates later, i.e. all of the program's pools —
/// is confined to the rest, so load generation and the system under test
/// never preempt each other. Call once from main before any other thread
/// exists. With fewer than count + 1 CPUs nothing is reserved.
void ReserveCpus(size_t count);

/// Pins the calling thread to reserved CPU `index` (modulo the reserved
/// count); no-op when nothing is reserved.
void PinToCpu(size_t index);

/// Open-loop pacing for one generator thread: spins through the last
/// 2 ms before each due time and sleeps (timer slack cut to 1 ns) only
/// through longer gaps. A sleeping vCPU of a VM can take milliseconds to
/// wake, which would read as request latency.
class Pacer {
 public:
  Pacer();  ///< call on the thread that paces
  void WaitUntil(int64_t due_ns);
};

/// CPU the benchmark itself burns on a thread (pacing, input expansion,
/// checks): the thread's CPU time minus the CPU spent inside the calls
/// under test. CPU-per-query subtracts it from the process total.
class OverheadMeter {
 public:
  OverheadMeter() : start_(ThreadCpuNs()), mark_(start_) {}
  /// Brackets one call under test.
  void BeginCall() { mark_ = ThreadCpuNs(); }
  void EndCall() { work_ns_ += ThreadCpuNs() - mark_; }
  /// Thread CPU since construction that was not inside a call, seconds.
  double OverheadSeconds() const {
    return (ThreadCpuNs() - start_ - work_ns_) * 1e-9;
  }

 private:
  int64_t start_;
  int64_t mark_;
  int64_t work_ns_ = 0;
};

/// Process resource usage (getrusage) plus the machine-wide steal and total
/// jiffies from /proc/stat, sampled at one instant.
struct ProcessSample {
  double cpu_s = 0.0;  ///< CLOCK_PROCESS_CPUTIME_ID
  double user_s = 0.0;
  double sys_s = 0.0;
  double invol_ctx = 0.0;
  double minor_faults = 0.0;
  double max_rss_mb = 0.0;
  double steal_jiffies = 0.0;
  double total_jiffies = 0.0;

  static ProcessSample Take();
};

/// Hands the heap's free pages back to the OS (malloc_trim), then returns
/// the anonymous resident set, MB: live data, without what the allocator
/// happens to retain and without file-backed pages (the binary and shared
/// libraries), which fault-around maps according to the page cache, not
/// the program. rss_mb is this at the end of the window minus this before
/// set-up, once the benchmark's inputs and result buffers exist, so what
/// it counts belongs to the program.
double TrimmedRssMb();

/// Deltas of two samples over a measured window.
struct ProcessWindow {
  double cpu_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double invol_ctx = 0.0;
  double minor_faults = 0.0;
  double steal_share = 0.0;

  static ProcessWindow Between(const ProcessSample& a, const ProcessSample& b);
};

/// One metric of the JSON contract (a BENCHMARK.json entry).
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Named metrics with units, printed as a table and then as the final
/// JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// A human-readable note printed with the table (never in the JSON).
  void Note(const std::string& text);
  /// A failed answer check: the run reports correct=false and exits 1.
  void Fail(const std::string& why);
  bool ok() const { return failures_.empty(); }

  /// Prints the table, then the JSON line holding exactly the metrics in
  /// `specs`. With `zero_fill`, a metric this workload never exercised
  /// reads 0; without it, a missing metric is an error. Returns false on
  /// an error or a failed check.
  bool Print(const std::string& workload, const std::vector<MetricSpec>& specs,
             bool zero_fill, uint64_t attempted, uint64_t failed) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::vector<std::string> order_;
  std::map<std::string, Value> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

}  // namespace repobench

#endif  // RMI_REPOBENCH_HARNESS_H_
