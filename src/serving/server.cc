#include "serving/server.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/missing.h"
#include "obs/metrics.h"

namespace rmi::serving {

namespace {

std::exception_ptr StoppedError() {
  return std::make_exception_ptr(
      std::runtime_error("LocalizationServer is stopped"));
}

/// Process-wide serving series. Handles are registered once and cached —
/// they are process-lifetime, so every LocalizationServer instance feeds
/// the same rmi_server_* series (per-instance counts live in the server's
/// own atomics behind Stats()).
struct ServerMetrics {
  obs::Counter& completed = obs::GetCounter(
      "rmi_server_requests_total", "Requests answered across all servers");
  obs::Counter& rejected = obs::GetCounter(
      "rmi_server_rejected_total",
      "Requests rejected (malformed fingerprint, no published snapshot or "
      "racing shutdown)");
  obs::Counter& batches = obs::GetCounter(
      "rmi_server_batches_total", "Coalesced dispatches executed");
  obs::Gauge& queue_depth = obs::GetGauge(
      "rmi_server_queue_depth",
      "Requests currently sitting in the submit ring (sharded +1/-1)");
  obs::Histogram& batch_size = obs::GetHistogram(
      "rmi_server_batch_size_requests", "Coalesced batch size per dispatch");
  obs::Histogram& stage_queue_us = obs::GetHistogram(
      "rmi_server_stage_queue_us",
      "Per-request wait from enqueue to batch start, microseconds");
  obs::Histogram& stage_rank_us = obs::GetHistogram(
      "rmi_server_stage_rank_us",
      "Batched estimator pass per dispatch, microseconds");
  obs::Histogram& fulfill_us = obs::GetHistogram(
      "rmi_server_fulfill_us",
      "Per-request enqueue-to-fulfill latency, microseconds");

  static ServerMetrics& Get() {
    static ServerMetrics* m = new ServerMetrics();
    return *m;
  }
};

}  // namespace

LocalizationServer::LocalizationServer(const MapSnapshotStore* store,
                                       const ServerOptions& options)
    : store_(store),
      options_(options),
      queue_(options.queue_capacity) {
  RMI_CHECK(store_ != nullptr);
  RMI_CHECK_GT(options_.max_batch, 0u);
  RMI_CHECK_GT(options_.queue_capacity, 0u);
  // Touch the registry up front so the series exist in a scrape even
  // before the first request arrives.
  ServerMetrics::Get();
  const size_t num_dispatchers = std::max<size_t>(1, options_.num_workers);
  dispatchers_.reserve(num_dispatchers);
  try {
    for (size_t w = 0; w < num_dispatchers; ++w) {
      dispatchers_.emplace_back([this] { DispatchLoop(); });
    }
  } catch (...) {
    Stop();  // join the loops already running before the members go
    throw;
  }
}

LocalizationServer::~LocalizationServer() { Stop(); }

std::future<geom::Point> LocalizationServer::Submit(
    std::vector<double> fingerprint) {
  // Entry/exit bracket Stop's drain handshake (see inflight_submits_).
  struct InflightGuard {
    std::atomic<size_t>& counter;
    ~InflightGuard() { counter.fetch_sub(1, std::memory_order_release); }
  };
  inflight_submits_.fetch_add(1, std::memory_order_seq_cst);
  InflightGuard guard{inflight_submits_};

  Request request;
  request.fingerprint = std::move(fingerprint);
  request.trace = obs::Tracer::Global().MaybeSample();
  if (request.trace != nullptr) request.trace->AddEvent("submit");
  std::future<geom::Point> future = request.promise.get_future();
  // Lock-free fast path: one TryPush. A full ring is backpressure — yield
  // until a dispatcher frees a cell (bounded memory under overload beats
  // an unbounded queue that hides it). Shutdown rejects rather than
  // blocks, here and inside the backpressure loop.
  while (true) {
    if (shutdown_.load(std::memory_order_acquire)) {
      // A Submit racing a Stop is a benign shutdown condition, not a
      // programming error: reject just this request.
      request.promise.set_exception(StoppedError());
      rejected_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().rejected.Add();
      return future;
    }
    if (queue_.TryPush(std::move(request))) break;
    std::this_thread::yield();
  }
  ServerMetrics::Get().queue_depth.Add(1.0);
  // Wake a parked dispatcher. The seq_cst fence orders our enqueue before
  // the sleepers_ read against the dispatcher's sleepers_ increment before
  // its empty-check: at least one side sees the other, so a request can
  // never be enqueued into a ring every dispatcher has decided is empty.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    {
      // An empty critical section serializes with the window between a
      // parking dispatcher's final check and its cv wait.
      std::lock_guard<std::mutex> lock(park_mu_);
    }
    park_cv_.notify_one();
  }
  return future;
}

void LocalizationServer::Stop() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(park_mu_);
  }
  park_cv_.notify_all();
  for (std::thread& dispatcher : dispatchers_) {
    if (dispatcher.joinable()) dispatcher.join();
  }
  // Dispatchers have exited. Wait out Submits that entered before the flag
  // flipped (they either pushed already or are about to reject
  // themselves), then reject anything that slipped into the ring after the
  // drain — a promise must never be dropped unfulfilled.
  while (inflight_submits_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  Request request;
  size_t swept = 0;
  while (queue_.TryPop(&request)) {
    request.promise.set_exception(StoppedError());
    obs::Tracer::Global().Finish(std::move(request.trace));
    ++swept;
  }
  if (swept > 0) {
    rejected_.fetch_add(swept, std::memory_order_relaxed);
    ServerMetrics& m = ServerMetrics::Get();
    m.rejected.Add(swept);
    m.queue_depth.Add(-static_cast<double>(swept));
  }
}

void LocalizationServer::ParkForWork(double max_park_us) {
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  // Dekker handshake, dispatcher side: the seq_cst fence orders our
  // sleepers_ increment before the emptiness re-check below against
  // Submit's enqueue-then-fence-then-read-sleepers sequence. In the
  // seq_cst total order at least one side sees the other — either we see
  // the ring non-empty and skip the wait, or the submitter sees
  // sleepers_ > 0 and rings the condvar. The RMW alone would not order
  // our later plain loads; the explicit fence does.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(park_mu_);
    // The notify serializes with this critical section (Submit takes
    // park_mu_ before notifying), so it cannot fire between this check
    // and the wait.
    if (queue_.ApproxEmpty() && !shutdown_.load(std::memory_order_acquire)) {
      park_cv_.wait_for(
          lock, std::chrono::duration<double, std::micro>(max_park_us));
    }
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

bool LocalizationServer::WaitForWork() {
  while (queue_.ApproxEmpty()) {
    if (shutdown_.load(std::memory_order_acquire)) {
      // Drained and shutting down (producers are rejected once the flag
      // is up, so no new cell can appear after this check... except a
      // Submit that lost the race, which Stop sweeps after joining us).
      return false;
    }
    // The bound caps how long an idle dispatcher stays down if an OS-level
    // wakeup anomaly eats a notify; the handshake above makes a *lost*
    // wakeup impossible, so this is defense in depth, not load-bearing.
    ParkForWork(/*max_park_us=*/50000.0);
  }
  return true;
}

void LocalizationServer::DispatchLoop() {
  std::vector<Request> batch;
  Request request;
  while (true) {
    batch.clear();
    // Block for the first request of the next batch.
    while (!queue_.TryPop(&request)) {
      if (!WaitForWork()) return;
    }
    batch.push_back(std::move(request));
    // Coalescing window: trade a bounded latency bump for fuller batches
    // (more rows per Gemm). Pop whatever is there; once the ring runs
    // dry, park for the window's remainder (a Submit wakes us early)
    // rather than spinning it away.
    Timer window;
    while (batch.size() < options_.max_batch) {
      if (queue_.TryPop(&request)) {
        batch.push_back(std::move(request));
        continue;
      }
      const double remaining_us =
          options_.max_wait_us - window.ElapsedSeconds() * 1e6;
      if (shutdown_.load(std::memory_order_acquire) || remaining_us <= 0.0) {
        break;
      }
      ParkForWork(remaining_us);
    }
    ProcessBatch(&batch);
  }
}

void LocalizationServer::ProcessBatch(std::vector<Request>* batch) {
  ServerMetrics& metrics = ServerMetrics::Get();
  metrics.queue_depth.Add(-static_cast<double>(batch->size()));
  metrics.batch_size.Observe(static_cast<double>(batch->size()));
  // Queue-stage latency (enqueue -> batch start) per request.
  for (Request& r : *batch) {
    metrics.stage_queue_us.Observe(r.enqueued.ElapsedSeconds() * 1e6);
    if (r.trace != nullptr) {
      r.trace->AddSpan("queue", 0.0, r.trace->ElapsedUs());
    }
  }

  // One snapshot for the whole batch — a hot-swap mid-batch must never
  // mix two serving states.
  const std::shared_ptr<const MapSnapshot> snap = store_->Current();

  // Per-request validation (the rule shared with the shard router): a
  // malformed scan — wrong width (e.g. sized for a pre-hot-swap snapshot),
  // a ±inf entry or all-null (no distance signal) — or a store that has
  // published nothing yet rejects the request through its promise; it must
  // never abort the server.
  std::vector<size_t> valid;
  valid.reserve(batch->size());
  size_t num_rejected = 0;
  for (size_t i = 0; i < batch->size(); ++i) {
    Request& r = (*batch)[i];
    const char* reason =
        snap == nullptr ? "no snapshot has been published yet"
                        : QueryValidationError(*snap, r.fingerprint.data(),
                                               r.fingerprint.size());
    if (reason != nullptr) {
      r.promise.set_exception(
          std::make_exception_ptr(std::runtime_error(reason)));
      obs::Tracer::Global().Finish(std::move(r.trace));
      ++num_rejected;
    } else {
      valid.push_back(i);
    }
  }

  std::vector<geom::Point> estimates;
  if (!valid.empty()) {
    const size_t d = snap->num_aps();
    la::Matrix queries(valid.size(), d);
    for (size_t v = 0; v < valid.size(); ++v) {
      const Request& r = (*batch)[valid[v]];
      std::copy(r.fingerprint.begin(), r.fingerprint.end(),
                queries.data().begin() + static_cast<long>(v * d));
    }
    {
      obs::ScopedStageTimer rank_timer(metrics.stage_rank_us);
      // Sampled traces see the same stage as a span (per-trace offsets).
      const bool any_trace = std::any_of(
          valid.begin(), valid.end(),
          [&](size_t i) { return (*batch)[i].trace != nullptr; });
      if (any_trace) {
        std::vector<double> span_starts(valid.size(), 0.0);
        for (size_t v = 0; v < valid.size(); ++v) {
          obs::Trace* t = (*batch)[valid[v]].trace.get();
          if (t != nullptr) span_starts[v] = t->ElapsedUs();
        }
        estimates = BatchLocalizer::LocalizeBatchOn(*snap, queries);
        for (size_t v = 0; v < valid.size(); ++v) {
          obs::Trace* t = (*batch)[valid[v]].trace.get();
          if (t != nullptr) {
            t->AddSpan("rank", span_starts[v],
                       t->ElapsedUs() - span_starts[v]);
          }
        }
      } else {
        estimates = BatchLocalizer::LocalizeBatchOn(*snap, queries);
      }
    }
  }

  // Lock-free accounting: per-instance atomics (the Stats() data source)
  // and the process-wide registry series. No mutex anywhere on this path.
  completed_.fetch_add(valid.size(), std::memory_order_relaxed);
  rejected_.fetch_add(num_rejected, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(batch->size(), std::memory_order_relaxed);
  metrics.completed.Add(valid.size());
  if (num_rejected > 0) metrics.rejected.Add(num_rejected);
  metrics.batches.Add();
  for (size_t v = 0; v < valid.size(); ++v) {
    Request& r = (*batch)[valid[v]];
    metrics.fulfill_us.Observe(r.enqueued.ElapsedSeconds() * 1e6);
    r.promise.set_value(estimates[v]);
    obs::Tracer::Global().Finish(std::move(r.trace));
  }
}

ServerStats LocalizationServer::Stats() const {
  ServerStats s;
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  const size_t batched = batched_requests_.load(std::memory_order_relaxed);
  s.mean_batch_size =
      s.batches == 0
          ? 0.0
          : static_cast<double>(batched) / static_cast<double>(s.batches);
  const double uptime = uptime_.ElapsedSeconds();
  s.qps = uptime > 0.0 ? static_cast<double>(s.completed) / uptime : 0.0;
  return s;
}

}  // namespace rmi::serving
