#include "workload/soak.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "clustering/differentiation.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "geometry/geometry.h"
#include "imputers/traditional.h"
#include "obs/metrics.h"
#include "positioning/estimators.h"
#include "serving/map_updater.h"
#include "serving/shard_router.h"

namespace rmi::workload {

namespace {

/// Scrape-delta view of a registry counter: Total() since construction.
class CounterDelta {
 public:
  explicit CounterDelta(obs::Counter* counter)
      : counter_(counter), before_(counter->Total()) {}
  uint64_t Value() const { return counter_->Total() - before_; }

 private:
  obs::Counter* counter_;
  uint64_t before_;
};

/// Scrape-delta view of a registry histogram: percentiles over only the
/// observations that landed since construction.
class HistogramDelta {
 public:
  explicit HistogramDelta(obs::Histogram* hist) : hist_(hist) {
    hist_->Buckets(before_);
  }

  double Percentile(double p) const {
    uint64_t delta[obs::Histogram::kNumBuckets];
    hist_->Buckets(delta);
    for (size_t b = 0; b < obs::Histogram::kNumBuckets; ++b) {
      delta[b] -= before_[b];
    }
    return obs::Histogram::BucketPercentile(delta, p);
  }

 private:
  obs::Histogram* hist_;
  uint64_t before_[obs::Histogram::kNumBuckets];
};

/// One mid-run churn event on the compressed wall clock.
struct ChurnEvent {
  double at_fraction;
  std::function<void()> run;
};

}  // namespace

SoakReport RunSoak(const SoakOptions& options) {
  RMI_CHECK_GT(options.client_threads, 0u);
  RMI_CHECK_GT(options.time_scale, 0.0);

  // --- World + serving stack -------------------------------------------
  auto venue = std::make_shared<const SoakVenue>(MakeSoakVenue(options.venue));
  const size_t num_shards = venue->num_shards();
  const size_t initial_aps = venue->num_aps();

  serving::ShardedSnapshotStore store;
  serving::ShardRouter router(&store);

  cluster::MarOnlyDifferentiator differentiator;
  imputers::LinearInterpolationImputer imputer;
  serving::MapUpdaterOptions uopt;
  uopt.min_new_observations = options.min_new_observations;
  uopt.rebuild_threads = options.rebuild_threads;
  uopt.seed = options.seed;
  serving::MapUpdater updater(
      &store, &differentiator, &imputer,
      [] { return std::make_unique<positioning::KnnEstimator>(5, true); },
      uopt);
  for (const serving::VenueShard& shard : venue->shards) {
    updater.RegisterShard(shard.id, shard.map);
  }
  updater.Start();

  // --- Deterministic workload ------------------------------------------
  const std::vector<WalkerTrace> walkers =
      GenerateWalkers(*venue, options.walkers);
  RMI_CHECK(!walkers.empty());
  const std::vector<double> schedule = PoissonArrivals(options.arrivals);

  std::vector<SessionRouter> sessions;
  sessions.reserve(walkers.size());
  for (size_t w = 0; w < walkers.size(); ++w) {
    sessions.emplace_back(&store, &router, options.session);
  }

  // --- Instruments + scrape-before baselines ---------------------------
  obs::Histogram& latency_hist = obs::GetHistogram(
      "rmi_workload_query_latency_us",
      "Open-loop query latency: scheduled arrival to answer, microseconds");
  obs::Histogram& ape_hist = obs::GetHistogram(
      "rmi_workload_ape_cm",
      "Positioning error vs trace ground truth, centimeters "
      "(correct-shard answers only)");
  obs::Counter& ok_counter = obs::GetCounter(
      "rmi_workload_queries_total", "Soak queries by outcome",
      "result=\"ok\"");
  obs::Counter& rejected_counter = obs::GetCounter(
      "rmi_workload_queries_total", "Soak queries by outcome",
      "result=\"rejected\"");
  obs::Counter& unroutable_counter = obs::GetCounter(
      "rmi_workload_queries_total", "Soak queries by outcome",
      "result=\"unroutable\"");
  obs::Counter& wrong_shard_counter = obs::GetCounter(
      "rmi_workload_wrong_shard_total",
      "Answers served by a shard other than the walker's true shard");
  obs::Histogram& staleness_hist = obs::GetHistogram(
      "rmi_updater_staleness_us",
      "Age of the oldest pending delta at snapshot publish, microseconds");

  HistogramDelta latency_delta(&latency_hist);
  HistogramDelta ape_delta(&ape_hist);
  HistogramDelta staleness_delta(&staleness_hist);
  CounterDelta ok_delta(&ok_counter);
  CounterDelta rejected_delta(&rejected_counter);
  CounterDelta unroutable_delta(&unroutable_counter);
  CounterDelta wrong_delta(&wrong_shard_counter);
  const serving::MapUpdaterStats ustats_before = updater.Stats();
  const uint64_t publishes_before = store.publish_count();

  // --- Shared mutable state the churn thread swaps ---------------------
  std::shared_ptr<const SoakVenue> live_venue = venue;
  std::atomic<size_t> dimension_changes{0};
  std::atomic<size_t> resurvey_fed{0};
  std::atomic<bool> stop_churn{false};

  const double virtual_duration = options.arrivals.duration_s;
  const double wall_duration_us =
      virtual_duration / options.time_scale * 1e6;
  const double origin_us = obs::MonotonicUs();
  const auto origin_wall = std::chrono::steady_clock::now();

  // --- Churn thread -----------------------------------------------------
  std::vector<ChurnEvent> events;
  const ChurnOptions& churn = options.churn;
  if (churn.resurvey_at <= 1.0 && churn.resurvey_shards > 0 &&
      churn.resurvey_observations > 0) {
    events.push_back({churn.resurvey_at, [&] {
      const size_t shards_hit = std::min(churn.resurvey_shards, num_shards);
      const auto gen = std::atomic_load_explicit(&live_venue,
                                                 std::memory_order_acquire);
      for (size_t s = 0; s < shards_hit; ++s) {
        auto observations = MakeResurveyObservations(
            *gen, s, churn.resurvey_observations, churn.drift_db,
            churn.resurvey_at * virtual_duration,
            SplitMix64Combine(options.seed, 0xe5));
        for (rmap::Record& record : observations) {
          updater.Ingest(gen->shards[s].id, std::move(record));
        }
        resurvey_fed.fetch_add(churn.resurvey_observations,
                               std::memory_order_relaxed);
      }
    }});
  }
  if (churn.ap_add_at <= 1.0 && churn.ap_add_count > 0) {
    events.push_back({churn.ap_add_at, [&] {
      const auto gen = std::atomic_load_explicit(&live_venue,
                                                 std::memory_order_acquire);
      auto widened = std::make_shared<const SoakVenue>(AddGlobalAps(
          *gen, churn.ap_add_count, SplitMix64Combine(options.seed, 0xad)));
      // Republish every shard at the new dimension through the updater's
      // re-register path (synchronous rebuild + hot-swap per shard); only
      // then switch the devices over to new-width scans. In the window,
      // old-width scans against re-registered shards are cleanly rejected
      // by snapshot validation — counted, never torn.
      for (const serving::VenueShard& shard : widened->shards) {
        updater.RegisterShard(shard.id, shard.map);
      }
      std::atomic_store_explicit(&live_venue, widened,
                                 std::memory_order_release);
      dimension_changes.fetch_add(1, std::memory_order_relaxed);
    }});
  }
  if (churn.ap_remove_at <= 1.0 && churn.ap_add_count > 0) {
    events.push_back({churn.ap_remove_at, [&] {
      const auto gen = std::atomic_load_explicit(&live_venue,
                                                 std::memory_order_acquire);
      if (gen->num_aps() <= initial_aps) return;  // addition never ran
      auto narrowed = std::make_shared<const SoakVenue>(
          RemoveLastGlobalAps(*gen, gen->num_aps() - initial_aps));
      for (const serving::VenueShard& shard : narrowed->shards) {
        updater.RegisterShard(shard.id, shard.map);
      }
      std::atomic_store_explicit(&live_venue, narrowed,
                                 std::memory_order_release);
      dimension_changes.fetch_add(1, std::memory_order_relaxed);
    }});
  }
  std::sort(events.begin(), events.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) {
              return a.at_fraction < b.at_fraction;
            });

  std::thread churn_thread([&] {
    for (const ChurnEvent& event : events) {
      const auto deadline =
          origin_wall + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double, std::micro>(
                                event.at_fraction * wall_duration_us));
      while (std::chrono::steady_clock::now() < deadline) {
        if (stop_churn.load(std::memory_order_relaxed)) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stop_churn.load(std::memory_order_relaxed)) return;
      event.run();
    }
  });

  // --- Open-loop clients ------------------------------------------------
  // Walker sessions are partitioned by walker index, so every session's
  // scan sequence replays in order on one thread and the synthesized
  // noise stream is deterministic per (seed, walker).
  const size_t num_threads = options.client_threads;
  std::vector<std::thread> clients;
  clients.reserve(num_threads);
  for (size_t k = 0; k < num_threads; ++k) {
    clients.emplace_back([&, k] {
      Rng scan_rng(SplitMix64Combine(options.seed, 0x5c0 + k));
      for (size_t i = 0; i < schedule.size(); ++i) {
        const size_t w = i % walkers.size();
        if (w % num_threads != k) continue;
        const double deadline_us =
            origin_us + schedule[i] / options.time_scale * 1e6;
        double now_us = obs::MonotonicUs();
        if (now_us < deadline_us) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
              deadline_us - now_us));
        }

        const auto gen = std::atomic_load_explicit(&live_venue,
                                                   std::memory_order_acquire);
        const WalkerTrace& walker = walkers[w];
        const TraceKey truth = walker.At(schedule[i]);
        const std::vector<double> fingerprint = SynthesizeFingerprint(
            *gen, truth, walker.device_bias_db, options.fingerprint,
            scan_rng);

        SessionRouter& session = sessions[w];
        const std::optional<rmap::ShardId> hint = session.Route(fingerprint);
        geom::Point position;
        rmap::ShardId served;
        bool answered = false;
        try {
          if (hint) {
            position = router.Localize(*hint, fingerprint);
            served = *hint;
          } else {
            const auto result = router.LocalizeAuto(fingerprint);
            position = result.position;
            served = result.route.shard;
          }
          answered = true;
        } catch (const std::runtime_error&) {
          // Unroutable or rejected by snapshot validation (e.g. a stale
          // width racing a dimension-changing republish). The session
          // re-homes on the next scan.
          if (hint) {
            rejected_counter.Add();
            session.Reset();
          } else {
            unroutable_counter.Add();
          }
        }
        if (answered) {
          // Open-loop latency: scheduled arrival to answer, so backlog
          // under overload shows up in the tail exactly like production.
          latency_hist.Observe(obs::MonotonicUs() - deadline_us);
          ok_counter.Add();
          if (served == truth.shard) {
            ape_hist.Observe(geom::Distance(position, truth.pos) * 100.0);
          } else {
            wrong_shard_counter.Add();
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double wall_us = obs::MonotonicUs() - origin_us;
  stop_churn.store(true, std::memory_order_relaxed);
  churn_thread.join();
  updater.Stop();

  // --- Scrape-delta SLO report -----------------------------------------
  SoakReport report;
  report.scheduled = schedule.size();
  report.ok = ok_delta.Value();
  report.rejected = rejected_delta.Value();
  report.unroutable = unroutable_delta.Value();
  report.sent = report.ok + report.rejected + report.unroutable;
  report.wall_seconds = wall_us / 1e6;
  report.achieved_qps =
      report.wall_seconds > 0.0 ? report.sent / report.wall_seconds : 0.0;

  report.p50_ms = latency_delta.Percentile(50.0) / 1e3;
  report.p99_ms = latency_delta.Percentile(99.0) / 1e3;
  report.p999_ms = latency_delta.Percentile(99.9) / 1e3;
  report.ape_p50_m = ape_delta.Percentile(50.0) / 100.0;
  report.ape_p95_m = ape_delta.Percentile(95.0) / 100.0;
  report.staleness_p50_ms = staleness_delta.Percentile(50.0) / 1e3;
  report.staleness_p95_ms = staleness_delta.Percentile(95.0) / 1e3;

  report.wrong_shard = wrong_delta.Value();
  report.handover_error_rate =
      report.ok > 0 ? static_cast<double>(report.wrong_shard) / report.ok
                    : 0.0;
  for (const SessionRouter& session : sessions) {
    report.session_switches += session.switches();
  }
  for (const WalkerTrace& walker : walkers) {
    report.true_transitions += walker.FloorTransitions();
  }

  const serving::MapUpdaterStats ustats = updater.Stats();
  report.rebuilds_completed =
      ustats.rebuilds_completed - ustats_before.rebuilds_completed;
  report.rebuild_failures =
      ustats.rebuilds_failed - ustats_before.rebuilds_failed;
  report.publishes = store.publish_count() - publishes_before;
  report.dimension_changes = dimension_changes.load();
  report.resurvey_observations = resurvey_fed.load();
  report.num_shards = num_shards;
  report.num_aps_initial = initial_aps;
  return report;
}

}  // namespace rmi::workload
