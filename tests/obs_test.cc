// The observability layer:
//  * Counter/Gauge/Histogram stay *exact* under multi-threaded hammering
//    of their one slot, and each instrument is one cache-line slot;
//  * a scrape (Prometheus text / JSON) may race writers freely and the
//    post-join totals are exact, and it emits each metric family as one
//    group under one HELP/TYPE header;
//  * Histogram buckets honor their <= 25% width contract, percentiles
//    interpolate inside the right bucket, and Summary() matches a
//    single-stream RunningStats;
//  * the trace sampler is deterministic 1-in-N with a bounded span buffer
//    and completed-trace ring;
//  * end-to-end: a live server + updater populate the registry, and one
//    scrape shows the per-stage latency histograms, queue depth,
//    batch size, pool steal counters and per-shard rebuild stage gauges
//    the dashboards key on.
// This suite runs under the CI TSan job with serving/updater tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clustering/differentiation.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"
#include "imputers/traditional.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/server.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/synthetic.h"

namespace rmi::obs {
namespace {

/// Value of sample line `name <value>` in a Prometheus text dump, anchored
/// at line start (a bare find would match the series name inside its own
/// `# HELP` line). -1 when the series is absent.
double ScrapeValue(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::stod(text.substr(pos + needle.size()));
}

/// The `# TYPE` lines of a Prometheus text dump that occur more than once.
std::vector<std::string> RepeatedTypeLines(const std::string& text) {
  std::vector<std::string> types;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) == 0) types.push_back(line);
  }
  std::sort(types.begin(), types.end());
  std::vector<std::string> repeated;
  for (size_t i = 1; i < types.size(); ++i) {
    if (types[i] == types[i - 1] &&
        (repeated.empty() || repeated.back() != types[i])) {
      repeated.push_back(types[i]);
    }
  }
  return repeated;
}

TEST(FootprintTest, EachInstrumentIsOneSlot) {
  EXPECT_LE(sizeof(Counter), 64u);
  EXPECT_LE(sizeof(Gauge), 64u);
  EXPECT_LE(sizeof(Histogram), 4096u);
}

TEST(CounterTest, ExactUnderConcurrentHammer) {
  Counter& counter = GetCounter("test_hammer_counter", "test");
  const uint64_t before = counter.Total();
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add();
      counter.Add(42);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Total() - before, kThreads * (kPerThread + 42));
}

TEST(GaugeTest, DeltasSumExactly) {
  Gauge& gauge = GetGauge("test_depth_gauge", "test");
  const double before = gauge.Value();
  constexpr size_t kThreads = 6;
  constexpr int kOps = 50000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge, t] {
      // Producers net +kOps, consumers net -kOps; pairs cancel.
      for (int i = 0; i < kOps; ++i) {
        if (t % 2 == 0) {
          gauge.Add(1.0);
        } else {
          gauge.Sub(1.0);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.Value(), before);  // 3 producers vs 3 consumers

  Gauge& single = GetGauge("test_set_gauge", "test");
  single.Set(3.25);
  EXPECT_DOUBLE_EQ(single.Value(), 3.25);
  single.Set(1.5);  // Set replaces, never accumulates
  EXPECT_DOUBLE_EQ(single.Value(), 1.5);
}

TEST(HistogramTest, BucketIndexRoundTripsAndBoundsWidth) {
  // Values 0..3 are exact buckets.
  for (uint64_t v = 0; v < 4; ++v) {
    uint64_t lo = 0, hi = 0;
    const size_t b = Histogram::BucketIndex(v);
    Histogram::BucketBounds(b, &lo, &hi);
    EXPECT_EQ(lo, v);
    EXPECT_EQ(hi, v);
  }
  // Every probed value lands inside its bucket's bounds and the bucket is
  // never wider than 25% of its lower bound.
  for (uint64_t v : {4ull, 5ull, 17ull, 100ull, 1000ull, 123456ull,
                     987654321ull, 1ull << 40, ~0ull}) {
    const size_t b = Histogram::BucketIndex(v);
    ASSERT_LT(b, Histogram::kNumBuckets) << v;
    uint64_t lo = 0, hi = 0;
    Histogram::BucketBounds(b, &lo, &hi);
    EXPECT_GE(v, lo) << v;
    EXPECT_LE(v, hi) << v;
    EXPECT_LE(static_cast<double>(hi - lo), 0.25 * static_cast<double>(lo))
        << v;
  }
  // Bucket indices are monotone in the value.
  size_t prev = 0;
  for (uint64_t v = 0; v < 4096; ++v) {
    const size_t b = Histogram::BucketIndex(v);
    EXPECT_GE(b, prev) << v;
    prev = b;
  }
}

TEST(HistogramTest, ExactMomentsUnderConcurrentHammer) {
  Histogram& hist = GetHistogram("test_hammer_hist", "test");
  const uint64_t count_before = hist.Count();
  const double sum_before = hist.Sum();
  constexpr size_t kThreads = 8;
  constexpr int kPerThread = 20000;
  // Integer-valued observations: double sums over them are exact.
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Observe(static_cast<double>(10 + (i + int(t)) % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.Count() - count_before, kThreads * size_t(kPerThread));
  // Each thread observes a full cycle of 10..109 repeated: per 100 values
  // the sum is (10 + 109) * 100 / 2.
  const double expected_sum =
      kThreads * (kPerThread / 100.0) * (10.0 + 109.0) * 100.0 / 2.0;
  EXPECT_DOUBLE_EQ(hist.Sum() - sum_before, expected_sum);
}

TEST(HistogramTest, SummaryMatchesSingleStreamRunningStats) {
  Histogram hist;  // private instance: exact expected moments
  RunningStats reference;
  Rng rng(9);
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> per_thread(4);
  for (auto& values : per_thread) {
    for (int i = 0; i < 5000; ++i) {
      values.push_back(std::floor(rng.Uniform(0.0, 10000.0)));
    }
    for (double v : values) reference.Add(v);
  }
  for (auto& values : per_thread) {
    threads.emplace_back([&hist, &values] {
      for (double v : values) hist.Observe(v);
    });
  }
  for (auto& t : threads) t.join();
  const RunningStats summary = hist.Summary();
  EXPECT_EQ(summary.count(), reference.count());
  EXPECT_NEAR(summary.mean(), reference.mean(), 1e-9 * reference.mean());
  EXPECT_NEAR(summary.stddev(), reference.stddev(),
              1e-6 * reference.stddev());
  EXPECT_DOUBLE_EQ(summary.min(), reference.min());
  EXPECT_DOUBLE_EQ(summary.max(), reference.max());
}

TEST(HistogramTest, PercentileLandsInTheRightBucket) {
  Histogram hist;
  for (int i = 0; i < 1000; ++i) hist.Observe(100.0);
  // Value 100 lives in bucket [96, 111]: any interpolated percentile must
  // stay inside, and the quantization error is within the 25% contract.
  for (double p : {1.0, 50.0, 99.0}) {
    const double v = hist.Percentile(p);
    EXPECT_GE(v, 96.0) << p;
    EXPECT_LE(v, 112.0) << p;
  }
  // Monotone in p across a two-mode distribution.
  Histogram two;
  for (int i = 0; i < 900; ++i) two.Observe(10.0);
  for (int i = 0; i < 100; ++i) two.Observe(10000.0);
  EXPECT_LE(two.Percentile(50.0), two.Percentile(95.0));
  EXPECT_LE(two.Percentile(95.0), two.Percentile(99.9));
  EXPECT_LT(two.Percentile(50.0), 20.0);
  EXPECT_GT(two.Percentile(99.0), 5000.0);
}

TEST(RegistryTest, ScrapeDuringWriteIsSafeAndFindsSeries) {
  Counter& counter = GetCounter("test_scrape_counter", "racing scrape");
  Histogram& hist = GetHistogram("test_scrape_hist_us", "racing scrape");
  const uint64_t count_before = counter.Total();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      // At least one write per thread even if the scrapes below finish
      // before this thread is first scheduled (1-core hosts).
      do {
        counter.Add();
        hist.Observe(123.0);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  // Scrapes race the writers; every dump must be well-formed and contain
  // the registered series.
  for (int i = 0; i < 50; ++i) {
    const std::string text = DumpPrometheusText();
    EXPECT_NE(text.find("# TYPE test_scrape_counter counter"),
              std::string::npos);
    EXPECT_NE(text.find("test_scrape_hist_us_bucket"), std::string::npos);
    const std::string json = DumpJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
    EXPECT_NE(json.find("\"histograms\": {"), std::string::npos);
    EXPECT_NE(json.find("\"test_scrape_hist_us\""), std::string::npos);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  EXPECT_GT(counter.Total(), count_before);
  // Post-join read is exact: one more Add must move the total by exactly 1.
  const uint64_t settled = counter.Total();
  counter.Add();
  EXPECT_EQ(counter.Total(), settled + 1);
}

TEST(RegistryTest, LabeledSeriesAreDistinct) {
  Counter& a = GetCounter("test_labeled_total", "per-shard", "shard=\"b0/f0\"");
  Counter& b = GetCounter("test_labeled_total", "per-shard", "shard=\"b0/f1\"");
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &GetCounter("test_labeled_total", "per-shard",
                            "shard=\"b0/f0\""));
  a.Add(3);
  b.Add(5);
  const std::string text = DumpPrometheusText();
  EXPECT_NE(text.find("test_labeled_total{shard=\"b0/f0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_labeled_total{shard=\"b0/f1\"}"),
            std::string::npos);
}

TEST(RegistryTest, EachFamilyScrapesAsOneGroup) {
  // Two labelled families registered shard by shard, interleaved the way
  // MapUpdater registers its per-shard series.
  for (const char* shard : {"shard=\"s0\"", "shard=\"s1\""}) {
    GetGauge("test_group_seconds", "per-shard gauge", shard).Set(1.0);
    GetHistogram("test_group_us", "per-shard histogram", shard).Observe(5.0);
  }
  const std::string text = DumpPrometheusText();
  EXPECT_EQ(RepeatedTypeLines(text), std::vector<std::string>{});
  const size_t gauge_type = text.find("# TYPE test_group_seconds gauge\n");
  const size_t gauge_s0 = text.find("test_group_seconds{shard=\"s0\"} ");
  const size_t gauge_s1 = text.find("test_group_seconds{shard=\"s1\"} ");
  const size_t hist_type = text.find("# TYPE test_group_us histogram\n");
  const size_t hist_s0 = text.find("test_group_us_count{shard=\"s0\"} ");
  const size_t hist_s1 = text.find("test_group_us_count{shard=\"s1\"} ");
  for (size_t pos : {gauge_type, gauge_s0, gauge_s1, hist_type, hist_s0,
                     hist_s1}) {
    ASSERT_NE(pos, std::string::npos) << text;
  }
  // Each family's header, then all of its series, then the next family.
  EXPECT_LT(gauge_type, gauge_s0);
  EXPECT_LT(gauge_s0, gauge_s1);
  EXPECT_LT(gauge_s1, hist_type);
  EXPECT_LT(hist_type, hist_s0);
  EXPECT_LT(hist_s0, hist_s1);
}

TEST(RegistryTest, CallbackGaugeEvaluatesAtScrape) {
  std::atomic<double> depth{7.0};
  Registry::Global().SetCallbackGauge("test_callback_gauge", "live depth",
                                      [&depth] { return depth.load(); });
  EXPECT_NE(DumpPrometheusText().find("test_callback_gauge 7"),
            std::string::npos);
  depth.store(11.0);
  EXPECT_NE(DumpPrometheusText().find("test_callback_gauge 11"),
            std::string::npos);
}

TEST(TracerTest, SamplerIsDeterministicOneInN) {
  Tracer& tracer = Tracer::Global();
  tracer.ResetForTesting();
  tracer.SetSampleEvery(8);
  std::vector<bool> sampled;
  for (int i = 0; i < 64; ++i) {
    auto trace = tracer.MaybeSample();
    sampled.push_back(trace != nullptr);
    tracer.Finish(std::move(trace));
  }
  // Exactly every 8th decision, starting at the first.
  for (int i = 0; i < 64; ++i) EXPECT_EQ(sampled[i], i % 8 == 0) << i;
  EXPECT_EQ(tracer.sampled_total(), 8u);
  EXPECT_EQ(tracer.finished_total(), 8u);
  // Re-run after reset: identical decisions (determinism is per fresh
  // counter, not per wall clock).
  tracer.ResetForTesting();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(tracer.MaybeSample() != nullptr, i % 8 == 0) << i;
  }
  tracer.SetSampleEvery(0);
  EXPECT_EQ(tracer.MaybeSample(), nullptr);
  tracer.ResetForTesting();
}

TEST(TracerTest, SpanBufferIsBoundedAndRingKeepsRecent) {
  Trace trace(/*id=*/1);
  for (size_t i = 0; i < Trace::kMaxSpans + 5; ++i) {
    trace.AddSpan("stage", 0.0, 1.0);
  }
  EXPECT_EQ(trace.num_spans(), Trace::kMaxSpans);
  EXPECT_EQ(trace.dropped_spans(), 5u);
  EXPECT_NE(trace.ToString().find("dropped"), std::string::npos);

  Tracer& tracer = Tracer::Global();
  tracer.ResetForTesting();
  tracer.SetSampleEvery(1);  // sample everything
  const size_t total = Tracer::kRingCapacity + 10;
  for (size_t i = 0; i < total; ++i) {
    auto trace_i = tracer.MaybeSample();
    ASSERT_NE(trace_i, nullptr);
    trace_i->AddEvent("done");
    tracer.Finish(std::move(trace_i));
  }
  const std::vector<Trace> recent = tracer.Recent();
  ASSERT_EQ(recent.size(), Tracer::kRingCapacity);
  // Oldest first, and only the newest kRingCapacity survive.
  EXPECT_EQ(recent.front().id(), 10u);
  EXPECT_EQ(recent.back().id(), total - 1);
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_LT(recent[i - 1].id(), recent[i].id());
  }
  tracer.SetSampleEvery(0);
  tracer.ResetForTesting();
}

TEST(ObsE2eTest, LiveServingScrapeShowsTheDashboardSeries) {
  using namespace rmi::serving;
  Tracer::Global().ResetForTesting();
  Tracer::Global().SetSampleEvery(16);

  // Updater side: register two shards (initial rebuild + publish each),
  // force a second rebuild of one, then let the trigger loop rebuild both
  // as one batch on the updater's rebuild pool.
  ShardedSnapshotStore store;
  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;
  MapUpdaterOptions uopt;
  uopt.min_new_observations = 1;  // one ingested observation trips a shard
  MapUpdater updater(&store, &differentiator, &imputer,
                     [] {
                       return std::make_unique<positioning::KnnEstimator>(
                           3, true);
                     },
                     uopt);
  VenueOptions vopt;
  vopt.num_buildings = 1;
  vopt.floors_per_building = 2;
  vopt.aps_per_floor = 8;
  const auto shards = MakeSyntheticVenue(vopt);
  for (const VenueShard& shard : shards) {
    updater.RegisterShard(shard.id, shard.map);
  }
  ASSERT_TRUE(updater.RebuildNow(shards[0].id));  // publishes v2 over v1
  // Both observations land before the loop starts, so its first poll finds
  // both shards tripped and fans them out over the pool.
  const size_t rebuilt_before = updater.Stats().rebuilds_completed;
  for (const VenueShard& shard : shards) {
    rmap::Record observation = shard.map.record(0);
    observation.id = rmap::Record::kUnassignedId;
    observation.time += 100.0;
    updater.Ingest(shard.id, std::move(observation));
  }
  updater.Start();
  const Timer waited;
  while (updater.Stats().rebuilds_completed < rebuilt_before + shards.size() &&
         waited.ElapsedSeconds() < 20.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  updater.Stop();
  ASSERT_EQ(updater.Stats().rebuilds_completed,
            rebuilt_before + shards.size());

  // Server side: coalesced batches over one shard's snapshot.
  const auto map = MakeSyntheticServingMap(14, 10, 10, 33);
  Rng rng(7);
  auto snap = BuildSnapshot(
      map, std::make_unique<positioning::KnnEstimator>(3, true), rng);
  MapSnapshotStore single_store(snap);
  ServerOptions sopt;
  sopt.max_batch = 16;
  sopt.num_workers = 2;
  LocalizationServer server(&single_store, sopt);
  const la::Matrix queries = MakeSyntheticQueries(map, 192, 0.2, 44);
  std::vector<std::future<geom::Point>> futures;
  for (size_t i = 0; i < queries.rows(); ++i) {
    futures.push_back(server.Submit(MatrixRow(queries, i)));
  }
  for (auto& f : futures) f.get();
  server.Stop();

  // One scrape shows every dashboard series with live data.
  const std::string text = DumpPrometheusText();
  // Per-stage request latency histograms (queue -> rank -> rescore) plus
  // end-to-end fulfill.
  for (const char* series :
       {"rmi_server_stage_queue_us_count", "rmi_server_stage_rank_us_count",
        "rmi_estimator_stage_rank_us_count",
        "rmi_estimator_stage_rescore_us_count", "rmi_server_fulfill_us_count",
        "rmi_server_batch_size_requests_count",
        "rmi_updater_stage_impute_us_count"}) {
    EXPECT_GT(ScrapeValue(text, series), 0.0) << series;
  }
  // Queue depth drained back to zero after Stop.
  EXPECT_DOUBLE_EQ(ScrapeValue(text, "rmi_server_queue_depth"), 0.0);
  // Pool steal/help counters exist (nonzero only on multi-core hosts) and
  // jobs ran.
  EXPECT_GE(ScrapeValue(text, "rmi_pool_steals_total"), 0.0);
  EXPECT_GE(ScrapeValue(text, "rmi_pool_help_front_total"), 0.0);
  EXPECT_GT(ScrapeValue(text, "rmi_pool_jobs_total"), 0.0);
  // Per-shard rebuild stage gauges carry the shard label.
  const std::string shard_label = rmap::ToString(shards[0].id);
  EXPECT_NE(text.find("rmi_updater_last_impute_seconds{shard=\"" +
                      shard_label + "\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rmi_updater_last_fit_seconds{shard=\"" + shard_label +
                      "\"}"),
            std::string::npos);
  // Each family is one group: the two shards' labelled series share one
  // header.
  EXPECT_EQ(RepeatedTypeLines(text), std::vector<std::string>{});
  // Completed requests reached the registry (server answered every row).
  EXPECT_GE(ScrapeValue(text, "rmi_server_requests_total"),
            static_cast<double>(queries.rows()));

  // Sampled traces completed and recorded the serving spans.
  EXPECT_GT(Tracer::Global().finished_total(), 0u);
  const std::vector<Trace> recent = Tracer::Global().Recent();
  ASSERT_FALSE(recent.empty());
  bool saw_queue_span = false;
  for (const Trace& t : recent) {
    for (size_t s = 0; s < t.num_spans(); ++s) {
      saw_queue_span |= std::string(t.span(s).name) == "queue";
    }
  }
  EXPECT_TRUE(saw_queue_span);
  Tracer::Global().SetSampleEvery(0);
  Tracer::Global().ResetForTesting();
}

}  // namespace
}  // namespace rmi::obs
