#include "obs/trace.h"

#include <cstdio>
#include <cstring>
#include <utility>

namespace rmi::obs {

void Trace::AddSpan(const char* name, double start_us, double dur_us) {
  if (num_spans_ >= kMaxSpans) {
    ++dropped_spans_;
    return;
  }
  Span& span = spans_[num_spans_++];
  std::snprintf(span.name, sizeof(span.name), "%s", name);
  span.start_us = start_us;
  span.dur_us = dur_us;
}

std::string Trace::ToString() const {
  char line[128];
  std::snprintf(line, sizeof(line), "trace %llu: total %.1f us, %zu span(s)",
                static_cast<unsigned long long>(id_), total_us_, num_spans_);
  std::string out = line;
  for (size_t i = 0; i < num_spans_; ++i) {
    std::snprintf(line, sizeof(line), "\n  %-22s @%9.1f us  +%9.1f us",
                  spans_[i].name, spans_[i].start_us, spans_[i].dur_us);
    out += line;
  }
  if (dropped_spans_ > 0) {
    std::snprintf(line, sizeof(line), "\n  (%zu span(s) dropped)",
                  dropped_spans_);
    out += line;
  }
  return out;
}

Tracer& Tracer::Global() {
  // Leaked like the metrics registry: requests may finish during static
  // destruction.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::unique_ptr<Trace> Tracer::MaybeSample() {
  const uint64_t n = sample_every_.load(std::memory_order_relaxed);
  if (n == 0) return nullptr;
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq % n != 0) return nullptr;
  sampled_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<Trace>(/*id=*/seq);
}

void Tracer::Finish(std::unique_ptr<Trace> trace) {
  if (trace == nullptr) return;
  trace->total_us_ = trace->ElapsedUs();
  finished_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_.size() < kRingCapacity) {
    ring_.push_back(*trace);
  } else {
    ring_[ring_next_] = *trace;
    ring_next_ = (ring_next_ + 1) % kRingCapacity;
  }
}

std::vector<Trace> Tracer::Recent() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  std::vector<Trace> out;
  out.reserve(ring_.size());
  // Oldest first: the ring write position is the oldest entry once the
  // ring has wrapped.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

void Tracer::ResetForTesting() {
  seq_.store(0, std::memory_order_relaxed);
  sampled_.store(0, std::memory_order_relaxed);
  finished_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ring_mu_);
  ring_.clear();
  ring_next_ = 0;
}

}  // namespace rmi::obs
