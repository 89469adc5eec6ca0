// The online localization front end: a concurrent request queue whose
// dispatcher workers coalesce queued fingerprints into batches, read one
// snapshot per batch, and answer every row with a single batched estimator
// pass (one Gemm for the KNN family).
//
// Threading: Submit is called from any number of client threads and runs
// lock-free — requests land in a bounded MPMC ring (common/mpmc_queue.h),
// so producers never serialize on a queue mutex and a preempted producer
// only delays its own cell. Each of the max(1, num_workers) dispatch loops
// runs on its own thread, so Submit never blocks on dispatch work. Each
// loop pops up to max_batch requests — waiting at most
// max_wait_us for stragglers to coalesce — and fulfills the requests'
// promises. A condition variable exists only for *idle parking*: a
// dispatcher that finds the ring empty parks on it, and Submit wakes it
// through a seq_cst sleeper-count handshake (the hot path with awake
// dispatchers never touches the mutex). Per-request latency (enqueue ->
// fulfill) feeds the process-wide registry's rmi_server_fulfill_us
// histogram, summed over every server; the fulfill path takes no stats
// mutex. A deterministic 1-in-N of requests carries an obs::Trace
// through submit -> coalesce -> rank, retrievable afterwards from
// obs::Tracer::Global().Recent().
#ifndef RMI_SERVING_SERVER_H_
#define RMI_SERVING_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/timer.h"
#include "geometry/geometry.h"
#include "obs/trace.h"
#include "serving/batch_localizer.h"
#include "serving/snapshot.h"

namespace rmi::serving {

struct ServerOptions {
  /// Largest coalesced batch per dispatch.
  size_t max_batch = 64;
  /// How long a dispatcher waits for more arrivals before running a
  /// partial batch, microseconds.
  double max_wait_us = 200.0;
  /// Dispatcher loops (each runs whole batches; >1 overlaps Gemm time of
  /// one batch with queueing of the next).
  size_t num_workers = 2;
  /// Submit-ring capacity (rounded up to a power of two). A full ring is
  /// backpressure: Submit yields until a dispatcher frees a cell — bounded
  /// memory under overload instead of an ever-growing queue.
  size_t queue_capacity = 4096;
};

struct ServerStats {
  size_t completed = 0;        ///< requests answered
  size_t rejected = 0;         ///< requests refused via exception
  size_t batches = 0;          ///< dispatches executed
  double mean_batch_size = 0.0;
  double qps = 0.0;            ///< completed / uptime
};

/// Coalescing localization front end over one snapshot store.
///
/// Thread-safety: Submit/Localize/Stats may be called concurrently from
/// any number of threads; Stop is idempotent and may race Submit (the
/// loser's future holds a std::runtime_error). Ownership: the server
/// borrows `store` and owns its queue, dispatch threads, and stats.
/// Malformed fingerprints (wrong width, all-null, partial scan against an
/// estimator without partial support), and any request dispatched before
/// the store's first Publish, reject the one request via its future — they
/// never abort the process.
class LocalizationServer {
 public:
  /// `store` must outlive the server.
  explicit LocalizationServer(const MapSnapshotStore* store,
                              const ServerOptions& options = {});
  ~LocalizationServer();

  LocalizationServer(const LocalizationServer&) = delete;
  LocalizationServer& operator=(const LocalizationServer&) = delete;

  /// Enqueues one fingerprint; the future resolves when its batch is
  /// answered. After Stop, the returned future holds a std::runtime_error
  /// instead (a Submit racing shutdown is rejected, never a crash).
  std::future<geom::Point> Submit(std::vector<double> fingerprint);

  /// Synchronous convenience wrapper around Submit.
  geom::Point Localize(std::vector<double> fingerprint) {
    return Submit(std::move(fingerprint)).get();
  }

  /// Drains the queue and joins the dispatch loops. Idempotent; the
  /// destructor calls it.
  void Stop();

  ServerStats Stats() const;

 private:
  struct Request {
    std::vector<double> fingerprint;
    std::promise<geom::Point> promise;
    Timer enqueued;  ///< starts at Submit; read when the promise resolves
    /// Non-null for the deterministic 1-in-N sampled requests; rides the
    /// ring with the request and is finished at promise resolution.
    std::unique_ptr<obs::Trace> trace;
  };

  void DispatchLoop();
  void ProcessBatch(std::vector<Request>* batch);
  /// Parks this dispatcher on the condvar for at most `max_park_us`,
  /// with the sleeper handshake that makes a lost wakeup impossible
  /// (a Submit lands either before our emptiness re-check or after our
  /// sleeper registration — never between both).
  void ParkForWork(double max_park_us);
  /// Blocks until the ring is non-empty or shutdown. Returns false iff the
  /// server is shutting down and the ring is drained.
  bool WaitForWork();

  const MapSnapshotStore* store_;
  const ServerOptions options_;

  /// Lock-free submit path: producers and dispatchers meet only in the
  /// ring. The mutex/condvar pair below is *parking only* — dispatchers
  /// sleep there when the ring stays empty, and Submit wakes them via the
  /// sleepers_ handshake (seq_cst on both sides, so an enqueue and a
  /// park decision can never miss each other).
  MpmcRingQueue<Request> queue_;
  std::atomic<bool> shutdown_{false};
  std::atomic<size_t> sleepers_{0};
  /// Submits currently between entry and return. Stop waits for this to
  /// reach zero after joining the dispatchers, so its final ring sweep
  /// provably sees every request a racing Submit managed to push — a
  /// promise is never dropped unfulfilled.
  std::atomic<size_t> inflight_submits_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;

  /// Per-instance totals behind Stats(). No mutex anywhere on the fulfill
  /// path.
  std::atomic<size_t> completed_{0};
  std::atomic<size_t> rejected_{0};
  std::atomic<size_t> batches_{0};
  std::atomic<size_t> batched_requests_{0};
  Timer uptime_;

  /// Last: the dispatch loops use every member above.
  std::vector<std::thread> dispatchers_;
};

}  // namespace rmi::serving

#endif  // RMI_SERVING_SERVER_H_
