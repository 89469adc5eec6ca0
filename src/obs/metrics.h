// Process-wide observability: a lock-free metrics registry.
//
// The design goal is a hot query path that adds a few relaxed atomic
// writes and no lock. Every instrument is one slot of relaxed atomics that
// all threads write, aligned to its own cache line so that two instruments
// never share one: totals stay exact under any interleaving, and a scrape
// reads the slot with plain relaxed loads, so reading is wait-free against
// writers and never perturbs them.
//
// Three instrument kinds:
//  * Counter — monotone u64; Add() is one relaxed fetch_add, Total() one
//    load.
//  * Gauge — signed double; Add()/Sub() accumulate deltas (the
//    queue-depth idiom: producers +1, consumers -1), Set() stores a value
//    (the updater's last-rebuild stage timings), Value() is one load.
//  * Histogram — HDR-style log-bucketed latency histogram: fixed buckets
//    at 4 sub-buckets per octave (<= 25% bucket width) covering the full
//    u64 range, plus exact count/sum/sumsq/min/max moments, so a scrape
//    can produce both bucket-interpolated percentiles and an exact
//    RunningStats summary (common/stats.h).
//
// Registration is by name through the process-global Registry (names may
// carry a Prometheus label suffix, e.g. shard="b0/f2"); handles are
// stable for the process lifetime, so instrumentation sites cache them in
// function-local statics and pay only the slot write per event. The layer
// is always on; the request tracer bounds its own cost by sampling
// (obs/trace.h).
//
// Exposition: DumpPrometheusText() (text format 0.0.4) and DumpJson()
// (one JSON object, embeddable in the BENCH_*.json metrics block).
#ifndef RMI_OBS_METRICS_H_
#define RMI_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/stats.h"

namespace rmi::obs {

/// Monotonic microseconds since an arbitrary process-local origin (the
/// steady clock) — the shared time base of spans and stage timers.
inline double MonotonicUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace detail {

/// Relaxed add on an atomic double stored as bits (C++17 has no atomic
/// double fetch_add). A racing writer makes the CAS retry, never lose the
/// delta.
inline void AtomicDoubleAdd(std::atomic<uint64_t>* cell, double delta) {
  uint64_t expected = cell->load(std::memory_order_relaxed);
  double current;
  uint64_t desired;
  do {
    std::memcpy(&current, &expected, sizeof(double));
    const double next = current + delta;
    std::memcpy(&desired, &next, sizeof(double));
  } while (!cell->compare_exchange_weak(expected, desired,
                                        std::memory_order_relaxed));
}

inline double AtomicDoubleLoad(const std::atomic<uint64_t>* cell) {
  const uint64_t bits = cell->load(std::memory_order_relaxed);
  double value;
  std::memcpy(&value, &bits, sizeof(double));
  return value;
}

inline void AtomicDoubleStore(std::atomic<uint64_t>* cell, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(double));
  cell->store(bits, std::memory_order_relaxed);
}

/// Relaxed min/max on an atomic double (non-negative domain).
inline void AtomicDoubleMin(std::atomic<uint64_t>* cell, double value) {
  uint64_t expected = cell->load(std::memory_order_relaxed);
  double current;
  uint64_t desired;
  std::memcpy(&desired, &value, sizeof(double));
  do {
    std::memcpy(&current, &expected, sizeof(double));
    if (value >= current) return;
  } while (!cell->compare_exchange_weak(expected, desired,
                                        std::memory_order_relaxed));
}

inline void AtomicDoubleMax(std::atomic<uint64_t>* cell, double value) {
  uint64_t expected = cell->load(std::memory_order_relaxed);
  double current;
  uint64_t desired;
  std::memcpy(&desired, &value, sizeof(double));
  do {
    std::memcpy(&current, &expected, sizeof(double));
    if (value <= current) return;
  } while (!cell->compare_exchange_weak(expected, desired,
                                        std::memory_order_relaxed));
}

}  // namespace detail

/// Monotone event counter.
class alignas(64) Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Total() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Signed double gauge: Add/Sub accumulate deltas, Set replaces the value.
class alignas(64) Gauge {
 public:
  void Add(double delta) { detail::AtomicDoubleAdd(&bits_, delta); }
  void Sub(double delta) { Add(-delta); }
  void Set(double value) { detail::AtomicDoubleStore(&bits_, value); }
  double Value() const { return detail::AtomicDoubleLoad(&bits_); }

 private:
  std::atomic<uint64_t> bits_{0};  ///< double 0.0 is all-zero bits
};

/// Log-bucketed latency histogram with exact moments.
///
/// Values are non-negative (negatives clamp to 0) in whatever unit the
/// series declares (microseconds for the *_us series). Buckets: values
/// 0..3 exact, then 4 sub-buckets per octave up to the full u64 range —
/// bucket width <= 25% of its lower bound, so interpolated percentiles
/// carry at most ~12% quantization error. Observe() is a handful of
/// relaxed atomics.
class alignas(64) Histogram {
 public:
  static constexpr size_t kSubBits = 2;
  static constexpr size_t kSub = 1u << kSubBits;  // 4 sub-buckets/octave
  static constexpr size_t kNumBuckets = 256;      // covers e up to 63

  Histogram();

  void Observe(double value);

  /// Index of the bucket holding `v`. Test hook: Observe computes it
  /// inline, and obs_test checks the bucket contract through it.
  static size_t BucketIndex(uint64_t v);
  /// Inclusive value range [lower, upper] of bucket `b`.
  static void BucketBounds(size_t b, uint64_t* lower, uint64_t* upper);
  /// Linear-interpolated percentile, p in [0, 100], of the counts in
  /// `buckets` (kNumBuckets entries, e.g. a difference of two Buckets()
  /// reads). 0 when every count is 0. Monotone in p.
  static double BucketPercentile(const uint64_t* buckets, double p);

  uint64_t Count() const;
  double Sum() const;
  /// Bucket counts (kNumBuckets entries).
  void Buckets(uint64_t* out) const;
  /// BucketPercentile over Buckets().
  double Percentile(double p) const;
  /// Exact moment summary: count/mean/variance match a single-stream
  /// RunningStats of every observed value (post-clamp) up to rounding.
  RunningStats Summary() const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets];
  std::atomic<uint64_t> count_;
  std::atomic<uint64_t> sum_bits_;    ///< double
  std::atomic<uint64_t> sumsq_bits_;  ///< double
  std::atomic<uint64_t> min_bits_;    ///< double, +inf when empty
  std::atomic<uint64_t> max_bits_;    ///< double
};

/// The process-global named-metric registry. Get* registers on first use
/// and returns the existing handle afterwards (registering a name with a
/// second instrument kind aborts — it is a programming error). Handles are
/// valid for the process lifetime; instrumentation sites cache them in
/// function-local statics. `labels` is a raw Prometheus label body, e.g.
/// `shard="b0/f2"` — series with the same name but different labels are
/// distinct metrics of one family, exposed as one group under one
/// HELP/TYPE header.
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(const std::string& name, const std::string& help,
                      const std::string& labels = "");
  Gauge& GetGauge(const std::string& name, const std::string& help,
                  const std::string& labels = "");
  Histogram& GetHistogram(const std::string& name, const std::string& help,
                          const std::string& labels = "");

  /// A gauge evaluated at scrape time (e.g. a queue's instantaneous
  /// depth). The callback must stay valid until replaced — re-registering
  /// the same series swaps the callback, so an owner with a shorter
  /// lifetime than the process should re-point it at teardown. No library
  /// series registers one at present (obs_test covers it); it is the hook
  /// for process-level gauges such as CPU time and resident memory.
  void SetCallbackGauge(const std::string& name, const std::string& help,
                        std::function<double()> fn,
                        const std::string& labels = "");

  /// Prometheus text exposition (format 0.0.4) of every registered
  /// series, family by family in first-registration order. Histograms
  /// emit cumulative le-buckets (empty buckets are skipped), _sum and
  /// _count.
  std::string DumpPrometheusText() const;
  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, stddev, min, max, p50, p95,
  /// p99}}}. Valid JSON — embeddable as the BENCH_*.json metrics block.
  std::string DumpJson() const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Convenience wrappers over Registry::Global().
inline Counter& GetCounter(const std::string& name, const std::string& help,
                           const std::string& labels = "") {
  return Registry::Global().GetCounter(name, help, labels);
}
inline Gauge& GetGauge(const std::string& name, const std::string& help,
                       const std::string& labels = "") {
  return Registry::Global().GetGauge(name, help, labels);
}
inline Histogram& GetHistogram(const std::string& name,
                               const std::string& help,
                               const std::string& labels = "") {
  return Registry::Global().GetHistogram(name, help, labels);
}
inline std::string DumpPrometheusText() {
  return Registry::Global().DumpPrometheusText();
}
inline std::string DumpJson() { return Registry::Global().DumpJson(); }

/// Times a stage and observes the elapsed microseconds into `hist` on
/// destruction.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(Histogram& hist)
      : hist_(hist), start_us_(MonotonicUs()) {}
  ~ScopedStageTimer() { hist_.Observe(MonotonicUs() - start_us_); }
  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  Histogram& hist_;
  double start_us_;
};

}  // namespace rmi::obs

#endif  // RMI_OBS_METRICS_H_
