// Per-thread buffer arena for the autodiff tape.
//
// Every op node's value/grad/aux matrix borrows its heap storage from the
// calling thread's Workspace and returns it when the node is released. A
// parameter borrows nothing: its value, grad and packed transpose are plain
// allocations that die with the model.
// Buffers are pooled by exact element count — the tape allocates the same
// fixed set of shapes every step, so after the first training step the pool
// holds one buffer per live shape slot and steady-state epochs perform no
// heap allocation for matrices (fresh_allocs in stats() stops growing).
// Each count has one LIFO bucket. A count below kIndexedSizes finds its
// bucket through a direct index, with no hashing: a BiSIM Impute makes
// about two million Acquire and as many Recycle calls, over a few dozen
// counts, nearly all of them small. Larger counts are rare and are found by
// a scan, as is a count's bucket on first use.
//
// The pool lives for one run: the ad::ScopedTapeRun that each trainer entry
// declares calls Release() when the run ends, so a process that trains once
// and then only serves keeps no tape memory. Pool workers free theirs when
// they exit.
//
// Thread model: each thread gets its own pool (thread_local singleton);
// a graph must be built, differentiated, and released on the same thread —
// which is how the trainer's per-sequence fan-out uses it.
#ifndef RMI_AUTODIFF_WORKSPACE_H_
#define RMI_AUTODIFF_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace rmi::ad {

class Workspace {
 public:
  struct Stats {
    size_t acquires = 0;      ///< total Acquire calls
    size_t pool_hits = 0;     ///< served from the pool (no heap touch)
    size_t fresh_allocs = 0;  ///< served by a new heap allocation
    size_t pooled_buffers = 0;  ///< buffers currently parked in the pool
  };

  /// The calling thread's workspace.
  static Workspace& Get();

  /// A rows x cols matrix backed by pooled storage. Contents are
  /// unspecified (stale pool data) — callers must overwrite every element.
  la::Matrix Acquire(size_t rows, size_t cols);

  /// Like Acquire, but zero-filled (for gradient accumulators).
  la::Matrix AcquireZero(size_t rows, size_t cols);

  /// Returns a matrix's storage to the pool. Empty matrices are ignored.
  void Recycle(la::Matrix&& m);

  /// Frees every pooled buffer, the buckets and the size index. Matrices
  /// acquired earlier stay valid and may still be recycled; the counters
  /// in stats() keep counting.
  void Release();

  Stats stats() const {
    Stats s = stats_;
    s.pooled_buffers = 0;
    for (const Bucket& bucket : buckets_) {
      s.pooled_buffers += bucket.free.size();
    }
    return s;
  }

 private:
  /// Element counts below this find their bucket through `index_`.
  static constexpr size_t kIndexedSizes = 4096;

  struct Bucket {
    size_t size = 0;  ///< element count of every buffer in `free`
    std::vector<std::vector<double>> free;  ///< LIFO: the newest on top
  };

  /// The bucket of element count n, created empty on first use.
  Bucket& BucketFor(size_t n);

  /// index_[n] is 1 + the position in buckets_ of count n's bucket, or 0
  /// while count n has none (or its bucket lies past the first 255). It
  /// grows to the largest indexed count the thread has used, on the heap:
  /// a Workspace lives in static thread-local storage, which every thread
  /// of the process gets a copy of, tape or not.
  std::vector<uint8_t> index_;
  std::vector<Bucket> buckets_;  ///< in first-use order
  Stats stats_;
};

}  // namespace rmi::ad

#endif  // RMI_AUTODIFF_WORKSPACE_H_
