// The online localization front end: a bounded request queue whose
// dispatcher workers coalesce queued fingerprints into batches, read one
// snapshot per batch, and answer every row with a single batched estimator
// pass (one Gemm for the KNN family).
//
// Threading: Submit is called from any number of client threads. One
// mutex guards the queue and the stop flag; one condition variable wakes
// dispatchers when a request arrives, the other wakes Submits that the
// queue_capacity bound holds back. Each of the max(1, num_workers)
// dispatch loops runs on its own thread, so Submit never waits on dispatch
// work, only on queue space. Each loop pops up to max_batch requests —
// waiting at most max_wait_us after the first for stragglers to coalesce —
// and resolves the requests' promises outside the lock. Per-request
// latency (enqueue -> fulfill) feeds the process-wide registry's
// rmi_server_fulfill_us histogram, summed over every server. A
// deterministic 1-in-N of requests carries an obs::Trace through submit
// -> coalesce -> rank, retrievable afterwards from
// obs::Tracer::Global().Recent().
#ifndef RMI_SERVING_SERVER_H_
#define RMI_SERVING_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

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
  /// Most requests the queue holds. A full queue is backpressure: Submit
  /// waits until a dispatcher takes a request — bounded memory under
  /// overload instead of an ever-growing queue.
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
/// any number of threads; Stop is idempotent and may race Submit (a
/// request queued before Stop is answered, a later one's future holds a
/// std::runtime_error). Ownership: the server
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

  /// Answers every queued request, rejects every later Submit and joins
  /// the dispatch loops. Idempotent; the destructor calls it.
  void Stop();

  ServerStats Stats() const;

 private:
  struct Request {
    std::vector<double> fingerprint;
    std::promise<geom::Point> promise;
    Timer enqueued;  ///< starts at Submit; read when the promise resolves
    /// Non-null for the deterministic 1-in-N sampled requests; rides the
    /// queue with the request and is finished at promise resolution.
    std::unique_ptr<obs::Trace> trace;
  };

  void DispatchLoop();
  /// Moves the next batch into `batch` (empty on entry). Returns false iff
  /// the server is stopping and the queue is drained.
  bool NextBatch(std::vector<Request>* batch);
  void ProcessBatch(std::vector<Request>* batch);

  const MapSnapshotStore* store_;
  const ServerOptions options_;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< a request arrived, or Stop
  std::condition_variable space_cv_;  ///< the queue has room, or Stop
  std::deque<Request> queue_;         ///< guarded by mu_
  bool stopping_ = false;             ///< guarded by mu_

  /// Per-instance totals behind Stats(), counted outside the lock.
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
