// Process-wide observability: a lock-free metrics registry.
//
// The design goal is a hot query path that adds only *private* writes.
// Every metric is sharded over cache-line-padded slots; a thread claims a
// shard index once (thread_local, round-robin) and all of its Add/Observe
// traffic lands in relaxed atomics on that private line. Two threads can
// share a shard (more threads than kShards) without losing exactness — the
// slots are still atomic — they merely start sharing a line. A scrape
// merges the shards with plain relaxed loads, so reading is wait-free
// against writers and never perturbs them.
//
// Three instrument kinds:
//  * Counter — monotone u64; Add() is one relaxed fetch_add on the
//    thread's slot, Total() sums the slots.
//  * Gauge — signed double; Add()/Sub() accumulate per-shard deltas (the
//    queue-depth idiom: producers +1 on their slot, consumers -1 on
//    theirs, Value() sums), Set() is for rare single-writer series (the
//    updater's last-rebuild stage timings).
//  * Histogram — HDR-style log-bucketed latency histogram: fixed buckets
//    at 4 sub-buckets per octave (<= 25% bucket width) covering the full
//    u64 range, plus exact per-shard count/sum/sumsq/min/max moments, so
//    a scrape can produce both bucket-interpolated percentiles and an
//    exact mergeable RunningStats summary (common/stats.h Merge).
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

/// Shard index of the calling thread: claimed once per thread,
/// round-robin over kShards. Exactness never depends on uniqueness —
/// shards are atomic — only contention does.
size_t ThreadShardIndex();

/// Number of per-thread slots each metric is sharded over.
inline constexpr size_t kShards = 32;

namespace detail {

/// Relaxed add on an atomic double stored as bits (C++17 has no atomic
/// double fetch_add). The CAS loop is on the caller's private slot, so it
/// effectively never retries.
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

/// Monotone event counter, sharded per thread.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    slots_[ThreadShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Total() const {
    uint64_t total = 0;
    for (const Slot& s : slots_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };
  Slot slots_[kShards];
};

/// Signed double gauge. Add/Sub accumulate per-shard deltas (private
/// writes — the queue-depth idiom); Set is for rare single-writer series
/// and collapses every shard onto slot 0 (racing Adds may be absorbed or
/// lost — use Set only where one writer owns the series).
class Gauge {
 public:
  void Add(double delta) {
    detail::AtomicDoubleAdd(&slots_[ThreadShardIndex()].bits, delta);
  }
  void Sub(double delta) { Add(-delta); }

  void Set(double value) {
    for (size_t s = 1; s < kShards; ++s) {
      detail::AtomicDoubleStore(&slots_[s].bits, 0.0);
    }
    detail::AtomicDoubleStore(&slots_[0].bits, value);
  }

  double Value() const {
    double total = 0.0;
    for (const Slot& s : slots_) total += detail::AtomicDoubleLoad(&s.bits);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> bits{0};  ///< double 0.0 is all-zero bits
  };
  Slot slots_[kShards];
};

/// Log-bucketed latency histogram with exact mergeable moments.
///
/// Values are non-negative (negatives clamp to 0) in whatever unit the
/// series declares (microseconds for the *_us series). Buckets: values
/// 0..3 exact, then 4 sub-buckets per octave up to the full u64 range —
/// bucket width <= 25% of its lower bound, so interpolated percentiles
/// carry at most ~12% quantization error. Observe() is a handful of
/// relaxed atomics on the calling thread's private shard.
class Histogram {
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

  uint64_t Count() const;
  double Sum() const;
  /// Buckets merged over all shards (kNumBuckets entries).
  void MergedBuckets(uint64_t* out) const;
  /// Linear-interpolated percentile from the merged buckets, p in
  /// [0, 100]. 0 when empty. Monotone in p.
  double Percentile(double p) const;
  /// Exact moment summary, built by merging the per-shard moment sets
  /// with RunningStats::Merge — count/mean/variance match a single-stream
  /// accumulation of every observed value (post-clamp) up to rounding.
  RunningStats Summary() const;

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kNumBuckets];
    std::atomic<uint64_t> count;
    std::atomic<uint64_t> sum_bits;    ///< double
    std::atomic<uint64_t> sumsq_bits;  ///< double
    std::atomic<uint64_t> min_bits;    ///< double, +inf when empty
    std::atomic<uint64_t> max_bits;    ///< double
  };
  Shard shards_[kShards];
};

/// The process-global named-metric registry. Get* registers on first use
/// and returns the existing handle afterwards (re-registration with a
/// mismatched kind aborts — it is a programming error). Handles are valid
/// for the process lifetime; instrumentation sites cache them in
/// function-local statics. `labels` is a raw Prometheus label body, e.g.
/// `shard="b0/f2"` — series with the same name but different labels are
/// distinct metrics exposed under one HELP/TYPE header.
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
  /// series. Histograms emit cumulative le-buckets (empty buckets are
  /// skipped), _sum and _count.
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
