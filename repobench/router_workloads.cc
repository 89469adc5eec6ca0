// venue_walk and venue_refresh: walker sessions scanning a sharded venue,
// each scan routed SessionRouter::Route -> ShardRouter::Localize (or
// LocalizeAuto for devices without a session). venue_refresh adds a feeder
// streaming MapUpdater::Ingest, so volume-triggered rebuilds publish while
// queries keep flowing.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include <sys/prctl.h>
#include <time.h>

#include "clustering/differentiation.h"
#include "common/hash.h"
#include "common/missing.h"
#include "common/stats.h"
#include "imputers/autocorrelation.h"
#include "imputers/traditional.h"
#include "positioning/estimators.h"
#include "serving/batch_localizer.h"
#include "serving/epoch.h"
#include "serving/map_updater.h"
#include "serving/shard_router.h"
#include "serving/spatial_index.h"
#include "workload/session.h"
#include "workload/trace.h"
#include "workloads.h"

namespace repobench {
namespace {

using rmi::geom::Point;
using rmi::rmap::ShardId;
namespace serving = rmi::serving;
namespace workload = rmi::workload;

struct RouterConfig {
  std::string name;
  workload::SoakVenueOptions venue;
  /// Fraction of each shard's audible survey cells nulled before
  /// registration (0 = complete maps).
  double sparsify = 0.0;
  bool mice = false;  ///< MICE imputer (else linear interpolation)
  double cell_size_m = 6.0;  ///< spatial-index pitch of the snapshots
  size_t walkers = 512;
  /// Saturation ladder rates of the traced run (empty = no ladder).
  std::vector<double> ladder_qps;
  /// Ingest feed: trigger batch size (0 = no feed) and observations/s.
  size_t trigger = 0;
  double ingest_rate = 0.0;
};

/// One generator thread: more spinning vCPUs raised the host's steal to
/// 7-13 %.
constexpr size_t kGenerators = 1;
constexpr double kRateQps = 4000.0;
constexpr double kSloMs = 25.0;
constexpr double kRungS = 1.0;
constexpr size_t kSetupRepeats = 31;
/// Walkers with index % 8 == 7 carry no session: their scans go through
/// LocalizeAuto, the floor classifier's path.
constexpr uint32_t kSessionlessEvery = 8;
/// Every 64th request is re-derived with scalar Estimate.
constexpr size_t kCheckEvery = 64;
/// Virtual trace seconds per wall second: walkers move 8x real time.
constexpr double kTimeScale = 8.0;
constexpr double kWarmupS = 1.0;
constexpr double kTrialS = 0.5;
/// The soak's handover-error ceiling.
constexpr double kMaxWrongFloorRate = 0.10;

struct Request {
  int64_t due_ns;
  uint32_t scan;
  uint32_t walker;
  uint32_t truth_shard;
  float x, y;
};

/// Span durations of one traced request, ns. Every span is a child of the
/// request and they never overlap, so each duration is also a self time.
struct Spans {
  int64_t route = 0, classify = 0, pin = 0, validate = 0, localize = 0;
  double scored_share = 0.0;
  bool traced = false;
  bool routed = false;    ///< had a session (Route ran)
  bool unhinted = false;  ///< classified by ClassifyFloor
};

struct Stack {
  serving::ShardedSnapshotStore store;
  serving::ShardRouter router{&store, 1};
  rmi::cluster::MarOnlyDifferentiator differentiator;
  std::unique_ptr<rmi::imputers::Imputer> imputer;
  std::unique_ptr<serving::MapUpdater> updater;
};

/// Registers every shard into a fresh, memory-only stack; returns it ready
/// to serve.
std::unique_ptr<Stack> BuildStack(const RouterConfig& cfg,
                                  std::vector<rmi::rmap::RadioMap> bases,
                                  const std::vector<ShardId>& ids,
                                  std::vector<double>* register_ms) {
  auto stack = std::make_unique<Stack>();
  if (cfg.mice) {
    rmi::imputers::MiceImputer::Params params;
    params.max_predictors = 8;
    stack->imputer = std::make_unique<rmi::imputers::MiceImputer>(params);
  } else {
    stack->imputer =
        std::make_unique<rmi::imputers::LinearInterpolationImputer>();
  }
  serving::MapUpdaterOptions options;
  options.min_new_observations = cfg.trigger > 0 ? cfg.trigger : 64;
  options.rebuild_threads = 1;
  options.snapshot_cell_size_m = cfg.cell_size_m;
  stack->updater = std::make_unique<serving::MapUpdater>(
      &stack->store, &stack->differentiator, stack->imputer.get(),
      [] { return std::make_unique<rmi::positioning::KnnEstimator>(5, true); },
      options);
  for (size_t s = 0; s < ids.size(); ++s) {
    const int64_t t0 = NowNs();
    stack->updater->RegisterShard(ids[s], std::move(bases[s]));
    register_ms->push_back((NowNs() - t0) * 1e-6);
  }
  stack->updater->Start();
  return stack;
}

/// Everything one phase (warm-up, window or ladder rung) produced.
struct PhaseResult {
  std::vector<Timing> timings;
  std::vector<int64_t> prev_end;
  std::vector<Spans> spans;  ///< per request, traced runs only
  size_t sent = 0;
  size_t answered = 0;
  size_t correct_floor = 0;
  size_t wrong_floor = 0;
  double err_sum_m = 0.0;
  size_t checks = 0;
  size_t check_failures = 0;
  size_t checks_skipped = 0;
  double overhead_cpu_s = 0.0;  ///< generator CPU outside the calls
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
};

/// The per-request buffers of a phase of `n` requests, made before set-up
/// so that rss_mb leaves them out.
PhaseResult Buffers(size_t n, bool trace) {
  PhaseResult out;
  out.timings.resize(n);
  out.prev_end.resize(n);
  if (trace) out.spans.resize(n);
  return out;
}

class RouterRig {
 public:
  RouterRig(const RouterConfig& cfg, const workload::SoakVenue& venue,
            Stack* stack, const ScanPool& scans)
      : cfg_(cfg), venue_(venue), stack_(stack), scans_(scans) {
    sessions_.reserve(cfg.walkers);
    for (size_t w = 0; w < cfg.walkers; ++w) {
      sessions_.emplace_back(&stack->store, &stack->router);
    }
  }

  /// Replays `requests` open loop into `out` (from Buffers). With `trace`,
  /// every other request takes the traced path.
  void Run(const std::vector<Request>& requests, bool trace, PhaseResult* out) {
    std::mutex merge_mu;
    const int64_t origin = NowNs() + 2000000;  // 2 ms to spawn threads
    std::vector<std::thread> threads;
    for (size_t k = 0; k < kGenerators; ++k) {
      threads.emplace_back([&, k] {
        PinToCpu(k);
        PhaseResult local;
        OverheadMeter meter;
        Pacer pacer;
        std::vector<double> fp;
        int64_t prev_end = origin;
        for (size_t i = 0; i < requests.size(); ++i) {
          const Request& r = requests[i];
          if (r.walker % kGenerators != k) continue;
          scans_.Expand(r.scan, &fp);
          pacer.WaitUntil(origin + r.due_ns);
          Point pos;
          ShardId served;
          const bool sampled = i % kCheckEvery == 0;
          std::shared_ptr<const serving::MapSnapshot> checked;
          const bool traced = trace && i % 2 == 0;
          if (traced) out->spans[i].traced = true;
          meter.BeginCall();
          const int64_t start = NowNs();
          const bool ok =
              traced ? Traced(r, fp, sampled, &pos, &served, &out->spans[i],
                              &checked)
                     : Plain(r, fp, sampled, &pos, &served, &checked);
          const int64_t end = NowNs();
          meter.EndCall();
          out->timings[i] = Timing{r.due_ns, start - origin, end - origin, ok};
          out->prev_end[i] = prev_end - origin;
          prev_end = end;
          ++local.sent;
          if (!ok) continue;
          ++local.answered;
          if (served == venue_.shards[r.truth_shard].id) {
            ++local.correct_floor;
            local.err_sum_m += std::hypot(pos.x - r.x, pos.y - r.y);
          } else {
            ++local.wrong_floor;
          }
          if (sampled) {
            if (checked == nullptr) {
              ++local.checks_skipped;
            } else {
              ++local.checks;
              if (!SamePoint(checked->estimator->Estimate(fp), pos)) {
                ++local.check_failures;
              }
            }
          }
        }
        local.overhead_cpu_s = meter.OverheadSeconds();
        std::lock_guard<std::mutex> lock(merge_mu);
        out->sent += local.sent;
        out->answered += local.answered;
        out->correct_floor += local.correct_floor;
        out->wrong_floor += local.wrong_floor;
        out->err_sum_m += local.err_sum_m;
        out->checks += local.checks;
        out->check_failures += local.check_failures;
        out->checks_skipped += local.checks_skipped;
        out->overhead_cpu_s += local.overhead_cpu_s;
      });
    }
    for (std::thread& t : threads) t.join();
    out->begin_ns = origin;
    out->end_ns = NowNs();
  }

 private:
  bool Sessionless(uint32_t walker) const {
    return walker % kSessionlessEvery == kSessionlessEvery - 1;
  }

  /// The measured path: the router's own entry points. For a sampled
  /// request, `checked` receives the snapshot the call provably used (the
  /// same snapshot was current before and after it), or stays null when a
  /// publish raced the call.
  bool Plain(const Request& r, const std::vector<double>& fp, bool sampled,
             Point* pos, ShardId* served,
             std::shared_ptr<const serving::MapSnapshot>* checked) {
    std::optional<ShardId> hint;
    try {
      if (!Sessionless(r.walker)) hint = sessions_[r.walker].Route(fp);
      if (hint) {
        std::shared_ptr<const serving::MapSnapshot> before;
        if (sampled) before = stack_->store.Current(*hint);
        *pos = stack_->router.Localize(*hint, fp);
        *served = *hint;
        if (sampled && stack_->store.Current(*hint) == before) {
          *checked = std::move(before);
        }
      } else {
        const uint64_t publishes = stack_->store.publish_count();
        const serving::ShardRouter::AutoResult result =
            stack_->router.LocalizeAuto(fp);
        *pos = result.position;
        *served = result.route.shard;
        if (sampled) {
          auto after = stack_->store.Current(*served);
          if (stack_->store.publish_count() == publishes) {
            *checked = std::move(after);
          }
        }
      }
      return true;
    } catch (const std::runtime_error&) {
      if (hint) sessions_[r.walker].Reset();
      return false;
    }
  }

  /// The traced path: the same work as Plain, split into the public calls
  /// ShardRouter::Localize makes (Pinned -> QueryValidationError ->
  /// BatchLocalizer::LocalizeOn), each timed as a span.
  bool Traced(const Request& r, const std::vector<double>& fp, bool sampled,
              Point* pos, ShardId* served, Spans* spans,
              std::shared_ptr<const serving::MapSnapshot>* checked) {
    std::optional<ShardId> hint;
    int64_t t = NowNs();
    if (!Sessionless(r.walker)) {
      hint = sessions_[r.walker].Route(fp);
      const int64_t t1 = NowNs();
      spans->route = t1 - t;
      spans->routed = true;
      t = t1;
    }
    if (!hint) {
      const std::optional<serving::RouteDecision> decision =
          stack_->router.ClassifyFloor(fp);
      const int64_t t1 = NowNs();
      spans->classify = t1 - t;
      spans->unhinted = true;
      t = t1;
      if (!decision) return false;
      *served = decision->shard;
    } else {
      *served = *hint;
    }
    std::shared_ptr<const serving::MapSnapshot> before;
    if (sampled) before = stack_->store.Current(*served);
    t = NowNs();
    const serving::PinnedSnapshot snap = stack_->store.Pinned(*served);
    int64_t t1 = NowNs();
    spans->pin = t1 - t;
    if (!snap) {
      if (hint) sessions_[r.walker].Reset();
      return false;
    }
    t = t1;
    const char* reason =
        serving::QueryValidationError(*snap, fp.data(), fp.size());
    t1 = NowNs();
    spans->validate = t1 - t;
    if (reason != nullptr) {
      if (hint) sessions_[r.walker].Reset();
      return false;
    }
    t = t1;
    *pos = serving::BatchLocalizer::LocalizeOn(*snap, fp);
    t1 = NowNs();
    spans->localize = t1 - t;
    spans->scored_share = static_cast<double>(serving::SpatialIndex::last_scored()) /
                          static_cast<double>(snap->num_refs());
    if (sampled && before.get() == snap.get()) *checked = std::move(before);
    return true;
  }

  const RouterConfig& cfg_;
  const workload::SoakVenue& venue_;
  Stack* stack_;
  const ScanPool& scans_;
  std::vector<workload::SessionRouter> sessions_;
};

/// Streams MapUpdater::Ingest at a steady rate, one shard's trigger batch
/// after another (round robin), and times each batch from the Ingest that
/// completes it to the publish of the snapshot that contains it.
class Feeder {
 public:
  struct Batch {
    size_t shard = 0;
    std::vector<rmi::rmap::Record> records;
    int64_t complete_ns = 0;  ///< 0 = never completed
    int64_t publish_ns = 0;   ///< 0 = publish not observed
    uint64_t version_before = 0;
    bool annotated = false;
    serving::RebuildStats stats;  ///< the rebuild that published it
  };

  Feeder(Stack* stack, const std::vector<ShardId>& ids,
         std::vector<Batch> batches, double rate, size_t trigger)
      : stack_(stack), ids_(ids), batches_(std::move(batches)), rate_(rate),
        trigger_(trigger) {}
  ~Feeder() { Stop(); }
  Feeder(const Feeder&) = delete;
  Feeder& operator=(const Feeder&) = delete;

  void Start() {
    const serving::MapUpdaterStats stats = stack_->updater->Stats();
    for (const ShardId& id : ids_) {
      const auto it = stats.per_shard.find(id);
      base_completed_.push_back(it == stats.per_shard.end() ? 0
                                                            : it->second.completed);
    }
    detected_.assign(ids_.size(), 0);
    origin_ = NowNs();
    thread_ = std::thread([this] { Loop(); });
  }

  /// Stops feeding, waits up to 2 s for outstanding publishes, joins.
  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }

  const std::vector<Batch>& batches() const { return batches_; }
  const std::vector<double>& ingest_us() const { return ingest_us_; }
  /// Feeder CPU outside Ingest so far (pacing, publish polling), seconds.
  double overhead_seconds() const {
    return overhead_s_.load(std::memory_order_relaxed);
  }

 private:
  void Loop() {
    PinToCpu(1);
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    OverheadMeter meter;
    size_t seq = 0;
    for (size_t b = 0; b < batches_.size() && !stop_.load(); ++b) {
      Batch& batch = batches_[b];
      const ShardId& id = ids_[batch.shard];
      for (size_t k = 0; k < batch.records.size(); ++k, ++seq) {
        const int64_t due =
            origin_ + static_cast<int64_t>(static_cast<double>(seq) / rate_ * 1e9);
        if (!WaitPolling(due)) return Drain();
        const bool last = k + 1 == trigger_;
        if (last) batch.version_before = stack_->store.Pinned(id)->version;
        meter.BeginCall();
        const int64_t t0 = NowNs();
        stack_->updater->Ingest(id, std::move(batch.records[k]));
        const int64_t t1 = NowNs();
        meter.EndCall();
        ingest_us_.push_back((t1 - t0) * 1e-3);
        if (last) {
          batch.complete_ns = t1;
          outstanding_.push_back(b);
          Annotate();
        }
        overhead_s_.store(meter.OverheadSeconds(), std::memory_order_relaxed);
      }
    }
    Drain();
  }

  /// Waits for `due`. While a completed batch awaits its publish the
  /// thread spins, polling the shard's snapshot version, so the publish is
  /// stamped within microseconds; otherwise it sleeps. False when asked to
  /// stop.
  bool WaitPolling(int64_t due) {
    while (!stop_.load(std::memory_order_relaxed)) {
      const int64_t now = NowNs();
      if (!outstanding_.empty()) {
        Poll();
        if (now >= due) return true;
        continue;
      }
      if (now >= due) return true;
      timespec ts{static_cast<time_t>(due / 1000000000),
                  static_cast<long>(due % 1000000000)};
      clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    }
    return false;
  }

  void Poll() {
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      Batch& batch = batches_[*it];
      if (stack_->store.Pinned(ids_[batch.shard])->version > batch.version_before) {
        batch.publish_ns = NowNs();
        ++detected_[batch.shard];
        pending_stats_.push_back(*it);
        it = outstanding_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Attaches the updater's per-shard phase breakdown to observed
  /// publishes. RebuildStats holds only the shard's latest rebuild, and the
  /// stats land after the publish, so a publish is annotated once the
  /// shard's completed count reaches it exactly.
  void Annotate() {
    if (pending_stats_.empty()) return;
    const serving::MapUpdaterStats stats = stack_->updater->Stats();
    for (auto it = pending_stats_.begin(); it != pending_stats_.end();) {
      Batch& batch = batches_[*it];
      const auto found = stats.per_shard.find(ids_[batch.shard]);
      const size_t completed =
          found == stats.per_shard.end() ? 0 : found->second.completed;
      const size_t target = base_completed_[batch.shard] + detected_[batch.shard];
      if (completed < target) {
        ++it;
        continue;
      }
      if (completed == target) {
        batch.stats = found->second;
        batch.annotated = true;
      }
      it = pending_stats_.erase(it);
    }
  }

  void Drain() {
    const int64_t deadline = NowNs() + 2000000000;
    while ((!outstanding_.empty() || !pending_stats_.empty()) &&
           NowNs() < deadline) {
      Poll();
      Annotate();
      timespec ts{0, 200000};
      nanosleep(&ts, nullptr);
    }
  }

  Stack* stack_;
  const std::vector<ShardId>& ids_;
  std::vector<Batch> batches_;
  const double rate_;
  const size_t trigger_;
  std::vector<size_t> base_completed_;
  std::vector<size_t> detected_;
  std::deque<size_t> outstanding_;
  std::deque<size_t> pending_stats_;
  std::vector<double> ingest_us_;
  int64_t origin_ = 0;
  std::atomic<double> overhead_s_{0.0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Nulls `fraction` of the audible (above the MNAR fill) cells of `record`.
void Sparsify(rmi::rmap::Record* record, double fraction, Rng& rng) {
  for (double& v : record->rssi) {
    if (!rmi::IsNull(v) && v > rmi::kMnarFillDbm && rng.Bernoulli(fraction)) {
      v = rmi::kNull;
    }
  }
}

/// Turns arrival offsets into requests with pre-synthesized scans.
std::vector<Request> MakeRequests(const std::vector<int64_t>& arrivals,
                                  double phase_start_s,
                                  const workload::SoakVenue& venue,
                                  const std::vector<workload::WalkerTrace>& walkers,
                                  ScanPool* scans, Rng& rng) {
  const workload::FingerprintOptions fopt;
  std::vector<Request> out;
  out.reserve(arrivals.size());
  for (int64_t due : arrivals) {
    const uint32_t w = static_cast<uint32_t>(rng.Index(walkers.size()));
    const double t = (phase_start_s + due * 1e-9) * kTimeScale;
    const workload::TraceKey truth = walkers[w].At(t);
    const std::vector<double> fp = workload::SynthesizeFingerprint(
        venue, truth, walkers[w].device_bias_db, fopt, rng);
    out.push_back(Request{due, scans->Add(fp), w,
                          static_cast<uint32_t>(venue.ShardIndex(truth.shard)),
                          static_cast<float>(truth.pos.x),
                          static_cast<float>(truth.pos.y)});
  }
  return out;
}

/// A ladder rung: the window's requests replayed in order, cycling, on a
/// Poisson schedule of its own at `rate`. The ladder measures only latency,
/// so it needs no scans of its own.
std::vector<Request> RungRequests(const std::vector<Request>& window, double rate,
                                  Rng& rng) {
  const std::vector<int64_t> arrivals = PoissonArrivalsNs(rate, kRungS, rng);
  std::vector<Request> rung;
  rung.reserve(arrivals.size());
  for (size_t j = 0; j < arrivals.size(); ++j) {
    rung.push_back(window[j % window.size()]);
    rung.back().due_ns = arrivals[j];
  }
  return rung;
}

/// Mean of `field` over the spans selected by `use`.
template <typename F, typename P>
double MeanOver(const std::vector<Spans>& spans, F field, P use) {
  double sum = 0.0;
  size_t n = 0;
  for (const Spans& s : spans) {
    if (!use(s)) continue;
    sum += field(s);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

struct RefreshSummary {
  size_t publishes = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  size_t annotated = 0;
  double warm_share = 0.0;
  double queue_wait_ms = 0.0, impute_ms = 0.0, fit_ms = 0.0, publish_us = 0.0,
         trigger_delay_ms = 0.0;
};

/// Refresh latency over the batches completed inside [begin, end).
RefreshSummary SummarizeRefresh(const std::vector<Feeder::Batch>& batches,
                                int64_t begin, int64_t end) {
  RefreshSummary s;
  std::vector<double> refresh, queue, impute, fit, publish, delay;
  size_t warm = 0;
  for (const Feeder::Batch& b : batches) {
    if (b.complete_ns < begin || b.complete_ns >= end || b.publish_ns == 0) continue;
    const double ms = (b.publish_ns - b.complete_ns) * 1e-6;
    refresh.push_back(ms);
    if (!b.annotated) continue;
    const serving::RebuildStats& st = b.stats;
    queue.push_back(st.last_queue_wait_seconds * 1e3);
    impute.push_back(st.last_impute_seconds * 1e3);
    fit.push_back(st.last_fit_seconds * 1e3);
    publish.push_back(st.last_publish_seconds * 1e6);
    delay.push_back(ms - (st.last_queue_wait_seconds + st.last_impute_seconds +
                          st.last_fit_seconds + st.last_publish_seconds) *
                             1e3);
    warm += st.warm > 0 && st.warm == st.completed ? 1 : 0;
  }
  s.publishes = refresh.size();
  if (!refresh.empty()) {
    s.p50_ms = rmi::Percentile(refresh, 50.0);
    s.p95_ms = rmi::Percentile(refresh, 95.0);
  }
  s.annotated = impute.size();
  s.queue_wait_ms = rmi::Mean(queue);
  s.impute_ms = rmi::Mean(impute);
  s.fit_ms = rmi::Mean(fit);
  s.publish_us = rmi::Mean(publish);
  s.trigger_delay_ms = rmi::Mean(delay);
  s.warm_share = s.annotated == 0 ? 0.0 : static_cast<double>(warm) / s.annotated;
  return s;
}

int RunRouter(const RouterConfig& cfg, const Args& args) {
  Report report;
  // ---- Inputs: venue, survey bases, walkers, every scan (untimed) ----
  const workload::SoakVenue venue = workload::MakeSoakVenue(cfg.venue);
  std::vector<ShardId> ids;
  std::vector<rmi::rmap::RadioMap> bases;
  {
    Rng sparse_rng(rmi::SplitMix64Combine(cfg.venue.seed, 0x5a));
    for (const serving::VenueShard& shard : venue.shards) {
      ids.push_back(shard.id);
      rmi::rmap::RadioMap base = shard.map;
      if (cfg.sparsify > 0.0) {
        for (size_t i = 0; i < base.size(); ++i) {
          Sparsify(&base.record(i), cfg.sparsify, sparse_rng);
        }
      }
      bases.push_back(std::move(base));
    }
  }
  workload::WalkerOptions wopt;
  wopt.num_walkers = cfg.walkers;
  wopt.seed = rmi::SplitMix64Combine(args.seed, 0x3a1);
  const std::vector<workload::WalkerTrace> walkers =
      workload::GenerateWalkers(venue, wopt);

  const double window_s = args.seconds;
  Rng arrival_rng(rmi::SplitMix64Combine(args.seed, 0xa7));
  Rng scan_rng(rmi::SplitMix64Combine(args.seed, 0x5c));
  ScanPool scans(venue.num_aps());
  const std::vector<Request> warmup =
      MakeRequests(PoissonArrivalsNs(kRateQps, kWarmupS, arrival_rng), 0.0, venue,
                   walkers, &scans, scan_rng);
  // The fixed-rate window. In a traced run every other request is traced,
  // so traced and untraced requests share the same conditions.
  const std::vector<Request> window_requests =
      MakeRequests(PoissonArrivalsNs(kRateQps, window_s, arrival_rng), kWarmupS,
                   venue, walkers, &scans, scan_rng);
  // The feed covers the warm-up and the window; it stops before the
  // traced run's ladder.
  const double feed_s = kWarmupS + window_s;
  std::vector<Feeder::Batch> feed;
  if (cfg.trigger > 0) {
    Rng feed_rng(rmi::SplitMix64Combine(args.seed, 0xfe));
    const size_t num_batches = static_cast<size_t>(
        std::ceil((feed_s + 2.0) * cfg.ingest_rate / cfg.trigger));
    for (size_t b = 0; b < num_batches; ++b) {
      Feeder::Batch batch;
      batch.shard = b % ids.size();
      batch.records = workload::MakeResurveyObservations(
          venue, batch.shard, cfg.trigger, /*drift_db=*/1.5,
          /*time_base=*/static_cast<double>(b),
          rmi::SplitMix64Combine(args.seed, 0xb0 + b));
      for (rmi::rmap::Record& r : batch.records) {
        Sparsify(&r, cfg.sparsify, feed_rng);
      }
      feed.push_back(std::move(batch));
    }
  }
  PhaseResult warmup_result = Buffers(warmup.size(), false);
  PhaseResult window = Buffers(window_requests.size(), args.trace);
  const double rss0_mb = TrimmedRssMb();

  // ---- Set-up: registration through updater start, repeated ----
  const size_t repeats = args.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_cpu_s, setup_wall_s, register_ms;
  std::unique_ptr<Stack> stack;
  for (size_t rep = 0; rep < repeats; ++rep) {
    std::vector<rmi::rmap::RadioMap> copies = bases;
    stack.reset();
    const int64_t cpu0 = ProcessCpuNs(), t0 = NowNs();
    stack = BuildStack(cfg, std::move(copies), ids, &register_ms);
    setup_cpu_s.push_back((ProcessCpuNs() - cpu0) * 1e-9);
    setup_wall_s.push_back((NowNs() - t0) * 1e-9);
  }
  report.Set("setup_s", rmi::Percentile(setup_cpu_s, 50.0), "s");
  std::string setup_note = "setup_s: median process CPU time of " +
                           std::to_string(repeats) + " full registrations (";
  for (double v : setup_cpu_s) setup_note += " " + std::to_string(v);
  report.Note(setup_note + " s); median wall time " +
              std::to_string(rmi::Percentile(setup_wall_s, 50.0)) + " s");

  // ---- Serve ----
  RouterRig rig(cfg, venue, stack.get(), scans);
  std::unique_ptr<Feeder> feeder;
  size_t feed_completed0 = 0, feed_warm0 = 0;
  if (cfg.trigger > 0) {
    for (const auto& [id, shard] : stack->updater->Stats().per_shard) {
      feed_completed0 += shard.completed;
      feed_warm0 += shard.warm;
    }
    feeder = std::make_unique<Feeder>(stack.get(), ids, std::move(feed),
                                      cfg.ingest_rate, cfg.trigger);
    feeder->Start();
  }
  rig.Run(warmup, false, &warmup_result);
  const double feed_overhead0 = feeder ? feeder->overhead_seconds() : 0.0;
  const ProcessSample before = ProcessSample::Take();
  rig.Run(window_requests, args.trace, &window);
  const ProcessSample after = ProcessSample::Take();
  const double feed_overhead1 = feeder ? feeder->overhead_seconds() : 0.0;
  // Memory is sampled quiescent: the feed stopped, its last rebuilds
  // published, and every retired snapshot released.
  if (feeder) feeder->Stop();
  serving::EpochDomain::Global().ReclaimNow();
  const double rss_mb = TrimmedRssMb() - rss0_mb;
  const ProcessWindow pw = ProcessWindow::Between(before, after);
  const LatencySummary lat =
      Summarize(window.timings, window.prev_end, window_s, kTrialS);

  std::vector<Rung> rungs;
  size_t ladder_sent = 0, ladder_failed = 0, ladder_checks = 0,
         ladder_check_failures = 0;
  if (args.trace) {
    for (double rate : cfg.ladder_qps) {
      const std::vector<Request> requests =
          RungRequests(window_requests, rate, arrival_rng);
      PhaseResult rung = Buffers(requests.size(), false);
      rig.Run(requests, false, &rung);
      ladder_checks += rung.checks;
      ladder_check_failures += rung.check_failures;
      // A rung's p99 is the median over its quarters, so one VM stall does
      // not fail a rung that sustains the rate.
      const LatencySummary rl =
          Summarize(rung.timings, rung.prev_end, kRungS, kRungS / 4.0);
      rungs.push_back(Rung{rate, rl.median_trial_p99_ms});
      ladder_sent += rung.sent;
      ladder_failed += rl.failed;
      if (!(rl.median_trial_p99_ms <= kSloMs)) break;
    }
  }

  // ---- End-to-end metrics (untraced window) ----
  const double answered = static_cast<double>(std::max<size_t>(1, window.answered));
  report.Set("query_p50_ms", lat.p50_ms, "ms");
  report.Set("query_p99_ms", lat.p99_ms, "ms");
  report.Set("error_rate",
             static_cast<double>(lat.failed) / static_cast<double>(window.sent),
             "ratio");
  const double wrong_floor_rate = static_cast<double>(window.wrong_floor) / answered;
  report.Set("wrong_floor_rate", wrong_floor_rate, "ratio");
  report.Set("ape_m",
             window.err_sum_m / static_cast<double>(std::max<size_t>(1, window.correct_floor)),
             "m");
  const double overhead_s =
      window.overhead_cpu_s + feed_overhead1 - feed_overhead0;
  report.Set("cpu_us_per_query", (pw.cpu_s - overhead_s) * 1e6 / answered, "us");
  report.Set("rss_mb", rss_mb, "MB");
  report.Note("query latency: open loop at " + std::to_string(kRateQps) +
              " qps from each request's due time, pooled over " +
              std::to_string(window.sent) + " requests");
  report.Note("mean service " + std::to_string(lat.mean_service_us) +
              " us, pacing lateness p99 " + std::to_string(lat.lateness_p99_ms) +
              " ms, steal " + std::to_string(pw.steal_share) + ", CPU user " +
              std::to_string(pw.user_s) + " s sys " + std::to_string(pw.sys_s) + " s");
  NoteTrials(&report, lat);
  report.Note("cpu_us_per_query excludes " + std::to_string(overhead_s) +
              " s of benchmark CPU (pacing, scan expansion, checks, feeder polling)");
  report.Note("rss_mb excludes the " + std::to_string(rss0_mb) +
              " MB resident before set-up (inputs and result buffers)");

  if (feeder) {
    const RefreshSummary rs =
        SummarizeRefresh(feeder->batches(), window.begin_ns, window.end_ns);
    report.Set("refresh_p50_ms", rs.p50_ms, "ms");
    report.Set("refresh_p95_ms", rs.p95_ms, "ms");
    report.Note("refresh latency over " + std::to_string(rs.publishes) +
                " observed publishes (" + std::to_string(rs.annotated) +
                " with phase stats)");
    const serving::MapUpdaterStats us = stack->updater->Stats();
    const double failures = static_cast<double>(us.rebuilds_failed);
    size_t completed = 0, warm = 0;
    for (const auto& [id, shard] : us.per_shard) {
      completed += shard.completed;
      warm += shard.warm;
    }
    completed -= feed_completed0;
    warm -= feed_warm0;
    if (failures > 0) report.Fail("rebuild failures in the updater");
    if (args.trace) {
      report.Set("serving.map_updater.ingest_us", rmi::Mean(feeder->ingest_us()), "us");
      report.Set("serving.map_updater.rebuilds", static_cast<double>(completed),
                 "count");
      report.Set("serving.map_updater.warm_share",
                 completed == 0 ? 0.0 : static_cast<double>(warm) / completed,
                 "ratio");
      report.Set("serving.map_updater.queue_wait_ms", rs.queue_wait_ms, "ms");
      report.Set("imputers.rebuild_impute_ms", rs.impute_ms, "ms");
      report.Set("serving.snapshot.fit_ms", rs.fit_ms, "ms");
      report.Set("serving.snapshot.publish_us", rs.publish_us, "us");
      report.Set("serving.map_updater.trigger_delay_ms", rs.trigger_delay_ms, "ms");
      report.Set("serving.map_updater.failures", failures, "count");
      report.Note("store.persist_ms is not measured: the updater runs memory-only, "
                  "because the checkout's disk is the only writable place and its "
                  "fsync cost is outside this benchmark");
    }
  }

  // ---- Checks ----
  const size_t checks = window.checks + ladder_checks;
  const size_t check_failures = window.check_failures + ladder_check_failures;
  report.Note(std::to_string(checks) + " answers re-derived with scalar Estimate (" +
              std::to_string(window.checks_skipped) +
              " skipped: a publish raced the call)");
  if (check_failures > 0) {
    report.Fail(std::to_string(check_failures) +
                " answers differ from scalar Estimate on the same snapshot");
  }
  if (checks == 0) report.Fail("no answer was checked");
  if (window.sent != window_requests.size()) {
    report.Fail("sent != scheduled");
  }
  if (wrong_floor_rate > kMaxWrongFloorRate) report.Fail("wrong_floor_rate above 0.10");

  if (!args.trace) {
    return report.Print(cfg.name, EndToEndMetrics(), false, window.sent, lat.failed) ? 0
                                                                                     : 1;
  }

  // ---- Per-layer metrics (traced half of the window, then the ladder) ----
  if (!rungs.empty()) SetKnee(&report, rungs, kSloMs);
  const std::vector<Spans>& sp = window.spans;
  auto traced = [](const Spans& s) { return s.traced; };
  auto routed = [](const Spans& s) { return s.traced && s.routed; };
  auto unhinted = [](const Spans& s) { return s.traced && s.unhinted; };
  auto answered_span = [](const Spans& s) { return s.traced && s.localize > 0; };
  std::vector<double> traced_us, untraced_us;
  for (size_t i = 0; i < window.timings.size(); ++i) {
    const Timing& t = window.timings[i];
    if (!t.ok) continue;
    (sp[i].traced ? traced_us : untraced_us).push_back((t.end_ns - t.start_ns) * 1e-3);
  }
  const double untraced_mean = rmi::Mean(untraced_us);
  // Ledger: mean per-request sum of the span self times along the blocking
  // path against the untraced requests' mean send -> answer time.
  const double ledger_us = MeanOver(
      sp,
      [](const Spans& s) {
        return (s.route + s.classify + s.pin + s.validate + s.localize) * 1e-3;
      },
      traced);
  report.Set("workload.session.route_us",
             MeanOver(sp, [](const Spans& s) { return s.route * 1e-3; }, routed), "us");
  report.Set("serving.shard_router.classify_us",
             MeanOver(sp, [](const Spans& s) { return s.classify * 1e-3; }, unhinted),
             "us");
  report.Set("serving.shard_router.unhinted_share",
             MeanOver(sp, [](const Spans& s) { return s.unhinted ? 1.0 : 0.0; }, traced),
             "ratio");
  report.Set("serving.snapshot.pin_us",
             MeanOver(sp, [](const Spans& s) { return s.pin * 1e-3; }, answered_span),
             "us");
  report.Set("serving.batch_localizer.validate_us",
             MeanOver(sp, [](const Spans& s) { return s.validate * 1e-3; }, answered_span),
             "us");
  report.Set("serving.batch_localizer.localize_us",
             MeanOver(sp, [](const Spans& s) { return s.localize * 1e-3; }, answered_span),
             "us");
  report.Set("serving.spatial_index.scored_share",
             MeanOver(sp, [](const Spans& s) { return s.scored_share; }, answered_span),
             "ratio");
  report.Set("serving.map_updater.register_ms", rmi::Percentile(register_ms, 50.0), "ms");
  report.Set("setup_wall_s", rmi::Percentile(setup_wall_s, 50.0), "s");
  report.Set("generator.lateness_p99_ms", lat.lateness_p99_ms, "ms");
  SetProcessMetrics(&report, pw, after.max_rss_mb);
  report.Set("trace.overhead_share", rmi::Mean(traced_us) / untraced_mean - 1.0, "ratio");
  const double coverage = ledger_us / untraced_mean;
  report.Set("trace.ledger_coverage", coverage, "ratio");
  report.Note("ledger: route+classify+pin+validate+localize = " +
              std::to_string(ledger_us) + " us per traced request vs untraced mean " +
              std::to_string(untraced_mean) + " us");
  if (coverage < 0.9) report.Fail("layer spans explain less than 90% of the request");
  return report.Print(cfg.name, PerLayerMetrics(), true, window.sent + ladder_sent,
                      lat.failed + ladder_failed)
             ? 0
             : 1;
}

}  // namespace

int RunVenueWalk(const Args& args) {
  RouterConfig cfg;
  cfg.name = "venue_walk";
  cfg.venue = workload::SoakVenueOptions{};  // 50 shards x 108 RPs, ~400 APs
  // A 3 m index pitch suits the 12 m x 9 m floors: 12 cells of about 9 RPs,
  // so the index prunes instead of scoring three quarters of the rows.
  cfg.cell_size_m = 3.0;
  cfg.ladder_qps = {12000, 18000, 22000, 25000, 28000, 31000, 34000,
                    37000, 41000, 45000, 50000, 55000, 61000, 67000,
                    74000, 82000, 90000, 100000};
  return RunRouter(cfg, args);
}

int RunVenueRefresh(const Args& args) {
  RouterConfig cfg;
  cfg.name = "venue_refresh";
  // 8 floors of 192 RPs over 32 APs (4 per floor). With the growth below,
  // the reference rows of all eight shards stay under about 0.6 MB.
  cfg.venue.num_buildings = 2;
  cfg.venue.floors_per_building = 4;
  cfg.venue.nx = 16;
  cfg.venue.ny = 12;
  cfg.venue.aps_per_floor = 4;
  cfg.venue.bluetooth_floors = 0;
  cfg.sparsify = 0.3;
  cfg.mice = true;
  cfg.cell_size_m = 4.0;
  // Every ingested observation becomes a reference row: 32/s in batches
  // of 2 gives 16 rebuilds/s while a shard grows by only 4 rows/s.
  cfg.trigger = 2;
  cfg.ingest_rate = 32.0;
  return RunRouter(cfg, args);
}

}  // namespace repobench
