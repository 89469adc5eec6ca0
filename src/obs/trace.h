// Sampled per-request tracing.
//
// A Trace is a request-scoped breadcrumb: a process-unique id plus a
// small fixed-capacity span buffer (no allocation after the trace itself
// is created). The Tracer samples deterministically — every Nth sampled
// decision point starts a trace, driven by one atomic counter, so a run
// that submits M requests through one tracer samples exactly
// ceil(M / N) of them — and keeps a bounded ring of recently *completed*
// traces for debugging slow requests after the fact.
//
// Cost model: the unsampled path is one relaxed load (sampling off) or
// one relaxed fetch_add plus a modulo (sampling on). Only the 1-in-N
// sampled requests allocate a Trace and record spans; span recording is
// plain writes into the trace's private buffer (a trace is owned by one
// request and mutated by whichever thread currently processes it —
// handoff happens through the same queues that hand off the request).
//
// Wiring: LocalizationServer::Submit starts a trace per sampled request
// (a "submit" event) and carries it through coalescing into
// ProcessBatch, which records its "queue" and "rank" spans.
#ifndef RMI_OBS_TRACE_H_
#define RMI_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rmi::obs {

/// One timed stage inside a trace. Times are microseconds relative to
/// the trace's start.
struct Span {
  char name[24];  ///< NUL-terminated, truncated on copy
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// A sampled request's breadcrumb. Fixed capacity: spans past kMaxSpans
/// are counted (dropped_spans) but not stored.
class Trace {
 public:
  static constexpr size_t kMaxSpans = 16;

  explicit Trace(uint64_t id) : id_(id), origin_us_(MonotonicUs()) {}

  uint64_t id() const { return id_; }
  /// Microseconds since the trace started — span start offsets use this.
  double ElapsedUs() const { return MonotonicUs() - origin_us_; }

  /// Records a completed stage [start_us, start_us + dur_us), relative
  /// to the trace start.
  void AddSpan(const char* name, double start_us, double dur_us);
  /// Records an instantaneous event (zero-duration span) at now.
  void AddEvent(const char* name) { AddSpan(name, ElapsedUs(), 0.0); }

  size_t num_spans() const { return num_spans_; }
  size_t dropped_spans() const { return dropped_spans_; }
  const Span& span(size_t i) const { return spans_[i]; }

  /// Total request duration, stamped by Tracer::Finish.
  double total_us() const { return total_us_; }

  /// One human-readable line per span (the demo/debug rendering).
  std::string ToString() const;

 private:
  friend class Tracer;
  uint64_t id_;
  double origin_us_;
  double total_us_ = 0.0;
  size_t num_spans_ = 0;
  size_t dropped_spans_ = 0;
  Span spans_[kMaxSpans];
};

/// Deterministic 1-in-N sampler plus the completed-trace ring.
///
/// Thread-safety: MaybeSample/Finish/Recent may be called concurrently.
/// The ring mutex is touched only for the rare sampled requests and for
/// Recent() — never on the unsampled hot path.
class Tracer {
 public:
  static constexpr size_t kRingCapacity = 64;

  /// The process-wide tracer the serving path records into.
  static Tracer& Global();

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// 0 disables sampling (the default); N samples every Nth decision.
  void SetSampleEvery(uint64_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  uint64_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// The sampling decision point. Returns a fresh trace for exactly the
  /// decisions whose sequence number is a multiple of N (deterministic
  /// given submission order), nullptr otherwise — and always nullptr
  /// when sampling is off.
  std::unique_ptr<Trace> MaybeSample();

  /// Completes `trace`: stamps its total duration and retires it into
  /// the recent ring (evicting the oldest). Null-safe.
  void Finish(std::unique_ptr<Trace> trace);

  /// Recently completed traces, oldest first. A bounded copy — callers
  /// may hold it as long as they like.
  std::vector<Trace> Recent() const;

  uint64_t sampled_total() const {
    return sampled_.load(std::memory_order_relaxed);
  }
  uint64_t finished_total() const {
    return finished_.load(std::memory_order_relaxed);
  }

  /// Rewinds the sequence counter and clears the ring (tests only — the
  /// sampler's determinism contract is per fresh counter).
  void ResetForTesting();

 private:
  std::atomic<uint64_t> sample_every_{0};
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> sampled_{0};
  std::atomic<uint64_t> finished_{0};

  mutable std::mutex ring_mu_;
  std::vector<Trace> ring_;   ///< kRingCapacity cap, ring_next_ is oldest
  size_t ring_next_ = 0;
};

}  // namespace rmi::obs

#endif  // RMI_OBS_TRACE_H_
