#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"

namespace rmi::obs {

namespace {

/// Escapes `"` and `\` for embedding in a JSON string literal (labels
/// carry raw quotes: shard="b0/f2").
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

// ---- Histogram --------------------------------------------------------------

Histogram::Histogram() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  detail::AtomicDoubleStore(&sum_bits_, 0.0);
  detail::AtomicDoubleStore(&sumsq_bits_, 0.0);
  detail::AtomicDoubleStore(&min_bits_,
                            std::numeric_limits<double>::infinity());
  detail::AtomicDoubleStore(&max_bits_, 0.0);
}

size_t Histogram::BucketIndex(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  // Exponent of the MSB (>= kSubBits here), then the next kSubBits of
  // mantissa pick the sub-bucket — contiguous with the exact low range.
  size_t e = 63;
  while ((v >> e) == 0) --e;
  const size_t sub = (v >> (e - kSubBits)) & (kSub - 1);
  return kSub + (e - kSubBits) * kSub + sub;
}

void Histogram::BucketBounds(size_t b, uint64_t* lower, uint64_t* upper) {
  RMI_CHECK_LT(b, kNumBuckets);
  if (b < kSub) {
    *lower = *upper = b;
    return;
  }
  const size_t e = kSubBits + (b - kSub) / kSub;
  const size_t sub = (b - kSub) % kSub;
  const uint64_t width = uint64_t{1} << (e - kSubBits);
  *lower = (uint64_t{1} << e) + sub * width;
  *upper = *lower + width - 1;
}

double Histogram::BucketPercentile(const uint64_t* buckets, double p) {
  uint64_t total = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) total += buckets[b];
  if (total == 0) return 0.0;
  const double target = std::max(1.0, p / 100.0 * static_cast<double>(total));
  uint64_t cum = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const uint64_t prev = cum;
    cum += buckets[b];
    if (static_cast<double>(cum) >= target) {
      uint64_t lower, upper;
      BucketBounds(b, &lower, &upper);
      const double fraction =
          (target - static_cast<double>(prev)) /
          static_cast<double>(buckets[b]);
      return static_cast<double>(lower) +
             fraction * static_cast<double>(upper - lower);
    }
  }
  uint64_t lower, upper;
  BucketBounds(kNumBuckets - 1, &lower, &upper);
  return static_cast<double>(upper);
}

void Histogram::Observe(double value) {
  if (!(value > 0.0)) value = 0.0;  // clamp negatives and NaN
  const uint64_t v = static_cast<uint64_t>(value + 0.5);
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::AtomicDoubleAdd(&sum_bits_, value);
  detail::AtomicDoubleAdd(&sumsq_bits_, value * value);
  detail::AtomicDoubleMin(&min_bits_, value);
  detail::AtomicDoubleMax(&max_bits_, value);
}

uint64_t Histogram::Count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::Sum() const { return detail::AtomicDoubleLoad(&sum_bits_); }

void Histogram::Buckets(uint64_t* out) const {
  for (size_t b = 0; b < kNumBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
  }
}

double Histogram::Percentile(double p) const {
  uint64_t buckets[kNumBuckets];
  Buckets(buckets);
  return BucketPercentile(buckets, p);
}

RunningStats Histogram::Summary() const {
  const uint64_t n = Count();
  if (n == 0) return RunningStats();
  const double mean = Sum() / static_cast<double>(n);
  // M2 = sum((x - mean)^2) = sumsq - n*mean^2; clamp the cancellation
  // residue at 0 (telemetry moments, not numerics-grade variance).
  const double m2 = std::max(0.0, detail::AtomicDoubleLoad(&sumsq_bits_) -
                                      static_cast<double>(n) * mean * mean);
  return RunningStats::FromMoments(n, mean, m2,
                                   detail::AtomicDoubleLoad(&min_bits_),
                                   detail::AtomicDoubleLoad(&max_bits_));
}

// ---- Registry ---------------------------------------------------------------

namespace {

enum class Kind { kCounter, kGauge, kHistogram, kCallbackGauge };

struct Series {
  std::string name;    ///< base metric name (no labels)
  std::string labels;  ///< raw label body, may be empty
  std::string help;
  Kind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
  std::function<double()> callback;

  std::string FullName() const {
    return labels.empty() ? name : name + "{" + labels + "}";
  }
};

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;
  /// Keyed by full series name.
  std::map<std::string, Series*> index;
  /// Exposition order: families (series sharing a base name) in
  /// first-registration order, each family's series together.
  std::vector<std::unique_ptr<Series>> series;

  Series& GetOrCreate(const std::string& name, const std::string& help,
                      const std::string& labels, Kind kind) {
    const std::string key =
        labels.empty() ? name : name + "{" + labels + "}";
    std::lock_guard<std::mutex> lock(mu);
    const auto it = index.find(key);
    if (it != index.end()) {
      RMI_CHECK(it->second->kind == kind);  // one name, one instrument kind
      return *it->second;
    }
    // A new series joins the end of its family, or starts a new one.
    const auto last_of_family =
        std::find_if(series.rbegin(), series.rend(),
                     [&name](const auto& s) { return s->name == name; });
    RMI_CHECK(last_of_family == series.rend() ||
              (*last_of_family)->kind == kind);
    auto s = std::make_unique<Series>();
    s->name = name;
    s->labels = labels;
    s->help = help;
    s->kind = kind;
    switch (kind) {
      case Kind::kCounter: s->counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: s->gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        s->histogram = std::make_unique<Histogram>();
        break;
      case Kind::kCallbackGauge: break;
    }
    Series* created = s.get();
    index[key] = created;
    series.insert(last_of_family == series.rend() ? series.end()
                                                  : last_of_family.base(),
                  std::move(s));
    return *created;
  }
};

Registry::Impl& Registry::impl() const {
  // Leaked on purpose: instrumented code (pool workers, server
  // destructors) may still observe during static destruction, and a
  // leaked registry makes every handle valid for the true process
  // lifetime.
  static Impl* impl = new Impl();
  return *impl;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name, const std::string& help,
                              const std::string& labels) {
  return *impl().GetOrCreate(name, help, labels, Kind::kCounter).counter;
}

Gauge& Registry::GetGauge(const std::string& name, const std::string& help,
                          const std::string& labels) {
  return *impl().GetOrCreate(name, help, labels, Kind::kGauge).gauge;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  const std::string& help,
                                  const std::string& labels) {
  return *impl().GetOrCreate(name, help, labels, Kind::kHistogram).histogram;
}

void Registry::SetCallbackGauge(const std::string& name,
                                const std::string& help,
                                std::function<double()> fn,
                                const std::string& labels) {
  Impl& i = impl();
  Series& s = i.GetOrCreate(name, help, labels, Kind::kCallbackGauge);
  std::lock_guard<std::mutex> lock(i.mu);
  s.callback = std::move(fn);
}

std::string Registry::DumpPrometheusText() const {
  Impl& i = impl();
  // Snapshot the series list under the lock, then read the (stable,
  // wait-free) instruments outside it — a scrape never blocks a
  // registration for long and never blocks a writer at all.
  std::vector<Series*> series;
  {
    std::lock_guard<std::mutex> lock(i.mu);
    series.reserve(i.series.size());
    for (auto& s : i.series) series.push_back(s.get());
  }
  std::string out;
  std::string last_header;
  for (Series* s : series) {
    if (s->name != last_header) {
      out += "# HELP " + s->name + " " + s->help + "\n";
      const char* type = s->kind == Kind::kCounter ? "counter"
                         : s->kind == Kind::kHistogram ? "histogram"
                                                       : "gauge";
      out += "# TYPE " + s->name + " " + type + "\n";
      last_header = s->name;
    }
    const std::string full = s->FullName();
    switch (s->kind) {
      case Kind::kCounter:
        out += full + " " + std::to_string(s->counter->Total()) + "\n";
        break;
      case Kind::kGauge:
        out += full + " " + FormatDouble(s->gauge->Value()) + "\n";
        break;
      case Kind::kCallbackGauge: {
        std::function<double()> fn;
        {
          std::lock_guard<std::mutex> lock(i.mu);
          fn = s->callback;
        }
        out += full + " " + FormatDouble(fn ? fn() : 0.0) + "\n";
        break;
      }
      case Kind::kHistogram: {
        uint64_t buckets[Histogram::kNumBuckets];
        s->histogram->Buckets(buckets);
        uint64_t cum = 0;
        const std::string sep = s->labels.empty() ? "" : ",";
        for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
          if (buckets[b] == 0) continue;  // cumulative — skips are lossless
          cum += buckets[b];
          uint64_t lower, upper;
          Histogram::BucketBounds(b, &lower, &upper);
          out += s->name + "_bucket{" + s->labels + sep + "le=\"" +
                 std::to_string(upper) + "\"} " + std::to_string(cum) + "\n";
        }
        out += s->name + "_bucket{" + s->labels + sep + "le=\"+Inf\"} " +
               std::to_string(cum) + "\n";
        out += s->name + "_sum" +
               (s->labels.empty() ? "" : "{" + s->labels + "}") + " " +
               FormatDouble(s->histogram->Sum()) + "\n";
        out += s->name + "_count" +
               (s->labels.empty() ? "" : "{" + s->labels + "}") + " " +
               std::to_string(cum) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string Registry::DumpJson() const {
  Impl& i = impl();
  std::vector<Series*> series;
  {
    std::lock_guard<std::mutex> lock(i.mu);
    series.reserve(i.series.size());
    for (auto& s : i.series) series.push_back(s.get());
  }
  std::string counters, gauges, histograms;
  for (Series* s : series) {
    const std::string key = "\"" + JsonEscape(s->FullName()) + "\": ";
    switch (s->kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ", ";
        counters += key + std::to_string(s->counter->Total());
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ", ";
        gauges += key + FormatDouble(s->gauge->Value());
        break;
      case Kind::kCallbackGauge: {
        std::function<double()> fn;
        {
          std::lock_guard<std::mutex> lock(i.mu);
          fn = s->callback;
        }
        if (!gauges.empty()) gauges += ", ";
        gauges += key + FormatDouble(fn ? fn() : 0.0);
        break;
      }
      case Kind::kHistogram: {
        if (!histograms.empty()) histograms += ", ";
        const RunningStats summary = s->histogram->Summary();
        histograms += key + "{\"count\": " + std::to_string(summary.count()) +
                      ", \"sum\": " + FormatDouble(s->histogram->Sum()) +
                      ", \"mean\": " + FormatDouble(summary.mean()) +
                      ", \"stddev\": " + FormatDouble(summary.stddev()) +
                      ", \"min\": " + FormatDouble(summary.min()) +
                      ", \"max\": " + FormatDouble(summary.max()) +
                      ", \"p50\": " + FormatDouble(s->histogram->Percentile(50)) +
                      ", \"p95\": " + FormatDouble(s->histogram->Percentile(95)) +
                      ", \"p99\": " + FormatDouble(s->histogram->Percentile(99)) +
                      "}";
        break;
      }
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

}  // namespace rmi::obs
