// Fixed-size thread pool with one work-stealing fan-out and concurrent
// submitters.
//
// ParallelFor(count, fn) runs fn(worker, index) for every index in
// [0, count) exactly once. [0, count) is split into per-participant index
// ranges; each participant claims chunks off the *front* of its own range
// and, when it runs dry, steals half of the largest remaining victim range
// off the *back* (a Chase–Lev-style owner-front/thief-back split collapsed
// onto one CAS word per range). Skewed per-index costs rebalance instead of
// idling workers. Which worker runs which index depends on scheduling, so
// callers write only to disjoint pre-sized slots or otherwise commute; a
// result that must not depend on the thread count is keyed by `index`,
// never by `worker` (TrainBiSim gives each batch position its own gradient
// sink this way).
//
// With count == num_threads(), every participant's range holds exactly one
// index and no participant steals before its own body returns, so
// num_threads() bodies that block run at once: LocalizationServer gives
// each pool worker its own DispatchLoop like this.
//
// ParallelFor may be called from any number of threads concurrently: jobs
// queue inside the pool, every submitter participates in its own job (so
// two concurrent callers always overlap instead of serializing), and idle
// pool workers help whichever job is in front. With num_threads <= 1, or
// from inside another pool's worker (the oversubscription guard), it runs
// inline on the caller.
#ifndef RMI_COMMON_THREAD_POOL_H_
#define RMI_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

namespace rmi {

namespace pool_detail {

/// Process-wide pool series, shared by every ThreadPool instance. The
/// handles are touched in the pool constructor so the series appear in a
/// scrape even when every fan-out runs inline (1-core hosts).
struct PoolMetrics {
  obs::Counter& jobs = obs::GetCounter(
      "rmi_pool_jobs_total", "Fan-out jobs submitted to any thread pool");
  obs::Counter& steals = obs::GetCounter(
      "rmi_pool_steals_total", "Successful back-half range steals");
  obs::Counter& helps = obs::GetCounter(
      "rmi_pool_help_front_total",
      "Times an idle pool worker joined the front job");

  static PoolMetrics& Get() {
    static PoolMetrics* m = new PoolMetrics();
    return *m;
  }
};

}  // namespace pool_detail

class ThreadPool {
 public:
  /// num_threads == 0 picks the hardware concurrency. A pool constructed
  /// from inside another pool's worker is forced to 1 thread (inline
  /// execution): nested fan-outs — e.g. a parallel bench harness whose
  /// workers run parallel training — would otherwise multiply thread
  /// counts and oversubscribe the machine.
  explicit ThreadPool(size_t num_threads)
      : num_threads_(InsideWorker() ? 1
                     : num_threads == 0 ? DefaultThreads()
                                        : num_threads) {
    pool_detail::PoolMetrics::Get();
    for (size_t w = 1; w < num_threads_; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  static size_t DefaultThreads() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<size_t>(hc);
  }

  /// Runs fn(worker, index) for every index in [0, count) exactly once and
  /// blocks until all complete. `worker` is in [0, num_threads()) and owned
  /// by one thread while fn runs, but which index it gets depends on
  /// scheduling. Safe to call from several threads at once (each call is
  /// one queued job; the caller works on its own job, so concurrent calls
  /// overlap). fn must not throw.
  void ParallelFor(size_t count,
                   const std::function<void(size_t worker, size_t index)>& fn) {
    if (count == 0) return;
    pool_detail::PoolMetrics::Get().jobs.Add();
    if (num_threads_ <= 1 || InsideWorker()) {
      for (size_t i = 0; i < count; ++i) fn(0, i);
      return;
    }
    RMI_CHECK_LE(count, size_t{0xffffffff});  // ranges pack into 32+32 bits
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->slots = num_threads_;
    job->pending.store(count, std::memory_order_relaxed);
    job->ranges = std::vector<PackedRange>(num_threads_);
    for (size_t s = 0; s < num_threads_; ++s) {
      const uint64_t b = s * count / num_threads_;
      const uint64_t e = (s + 1) * count / num_threads_;
      job->ranges[s].span.store(PackedRange::Pack(b, e),
                                std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(job);
    }
    cv_.notify_all();
    Participate(job.get());
    {
      std::unique_lock<std::mutex> lock(job->done_mu);
      job->done_cv.wait(lock, [&] { return job->done; });
    }
    // The job is complete; drop it from the queue if no worker got there
    // first (workers only pop a job they have seen exhausted).
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (*it == job) {
        jobs_.erase(it);
        break;
      }
    }
  }

 private:
  /// One packed work range [begin, end) — begin in the high 32 bits, end in
  /// the low — so owner front-claims and thief back-steals both commit with
  /// a single CAS. Cache-line padded: every slot's range mutates hot.
  struct alignas(64) PackedRange {
    std::atomic<uint64_t> span{0};
    static uint64_t Pack(uint64_t begin, uint64_t end) {
      return (begin << 32) | end;
    }
    static uint64_t Begin(uint64_t s) { return s >> 32; }
    static uint64_t End(uint64_t s) { return s & 0xffffffffull; }
  };

  struct Job {
    const std::function<void(size_t, size_t)>* fn = nullptr;
    size_t slots = 0;                   ///< participants at most (pool size)
    std::atomic<size_t> next_slot{0};   ///< participant slot claim
    std::vector<PackedRange> ranges;    ///< one per participant slot
    std::atomic<size_t> pending{0};     ///< indices not yet executed
    std::mutex done_mu;
    std::condition_variable done_cv;
    bool done = false;
  };

  static bool& InsideWorkerFlag() {
    thread_local bool inside = false;
    return inside;
  }
  static bool InsideWorker() { return InsideWorkerFlag(); }

  static void SignalDone(Job* job) {
    {
      std::lock_guard<std::mutex> lock(job->done_mu);
      job->done = true;
    }
    job->done_cv.notify_all();
  }

  /// Executes as much of `job` as this thread can claim. Returns once the
  /// job has no claimable work left (other participants may still be
  /// running their claims).
  void Participate(Job* job) {
    bool& inside = InsideWorkerFlag();
    const bool was_inside = inside;
    inside = true;
    const size_t slot = job->next_slot.fetch_add(1);
    // At most `slots` threads ever participate (slots == pool size); a
    // worker that re-encounters an exhausted job claims no second slot.
    if (slot < job->slots) RunStealing(job, slot);
    inside = was_inside;
  }

  void RunStealing(Job* job, size_t slot) {
    PackedRange& own = job->ranges[slot];
    while (true) {
      // Claim a chunk off the front of our own range.
      uint64_t s = own.span.load(std::memory_order_acquire);
      while (PackedRange::Begin(s) < PackedRange::End(s)) {
        const uint64_t b = PackedRange::Begin(s), e = PackedRange::End(s);
        // Geometric front chunks: large ranges move in big strides, the
        // tail degrades to single indices so a thief always finds a fair
        // back half to take.
        const uint64_t chunk =
            std::max<uint64_t>(1, (e - b) / (2 * job->slots));
        if (own.span.compare_exchange_weak(
                s, PackedRange::Pack(b + chunk, e), std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          for (uint64_t i = b; i < b + chunk; ++i) {
            (*job->fn)(slot, static_cast<size_t>(i));
          }
          Complete(job, static_cast<size_t>(chunk));
          s = own.span.load(std::memory_order_acquire);
        }
      }
      // Own range dry: steal the back half of the largest victim range.
      size_t victim = job->slots;
      uint64_t victim_span = 0;
      uint64_t best_size = 0;
      for (size_t v = 0; v < job->slots; ++v) {
        if (v == slot) continue;
        const uint64_t vs = job->ranges[v].span.load(std::memory_order_acquire);
        const uint64_t size = PackedRange::End(vs) - PackedRange::Begin(vs);
        if (size > best_size) {
          best_size = size;
          victim = v;
          victim_span = vs;
        }
      }
      if (victim == job->slots) return;  // nothing left anywhere
      const uint64_t vb = PackedRange::Begin(victim_span);
      const uint64_t ve = PackedRange::End(victim_span);
      const uint64_t mid = ve - (ve - vb + 1) / 2;  // steal the back half
      if (!job->ranges[victim].span.compare_exchange_strong(
              victim_span, PackedRange::Pack(vb, mid),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        continue;  // lost the race; rescan for a victim
      }
      pool_detail::PoolMetrics::Get().steals.Add();
      // Adopt the stolen half as our own range (we are its only owner; our
      // span is empty, so no thief can have claimed it meanwhile — but one
      // may be mid-CAS on the stale empty value, so publish with a CAS).
      uint64_t empty = own.span.load(std::memory_order_acquire);
      while (!own.span.compare_exchange_weak(
          empty, PackedRange::Pack(mid, ve), std::memory_order_acq_rel,
          std::memory_order_acquire)) {
      }
    }
  }

  static void Complete(Job* job, size_t ran) {
    if (ran == 0) return;
    if (job->pending.fetch_sub(ran, std::memory_order_acq_rel) == ran) {
      SignalDone(job);
    }
  }

  void WorkerLoop() {
    while (true) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return shutdown_ || !jobs_.empty(); });
        if (jobs_.empty()) {
          if (shutdown_) return;
          continue;
        }
        // Leave the job in front so every idle worker joins it; it is
        // popped once a participant finds it exhausted.
        job = jobs_.front();
      }
      pool_detail::PoolMetrics::Get().helps.Add();
      Participate(job.get());
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!jobs_.empty() && jobs_.front() == job) jobs_.pop_front();
      }
    }
  }

  const size_t num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool shutdown_ = false;
};

}  // namespace rmi

#endif  // RMI_COMMON_THREAD_POOL_H_
