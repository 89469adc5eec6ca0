#include "autodiff/workspace.h"

#include <algorithm>

namespace rmi::ad {

Workspace& Workspace::Get() {
  thread_local Workspace ws;
  return ws;
}

Workspace::Bucket& Workspace::BucketFor(size_t n) {
  if (n < index_.size() && index_[n] != 0) return buckets_[index_[n] - 1];
  for (Bucket& bucket : buckets_) {
    if (bucket.size == n) return bucket;
  }
  buckets_.push_back(Bucket{n, {}});
  if (n < kIndexedSizes && buckets_.size() <= UINT8_MAX) {
    if (n >= index_.size()) index_.resize(n + 1, 0);
    index_[n] = static_cast<uint8_t>(buckets_.size());
  }
  return buckets_.back();
}

la::Matrix Workspace::Acquire(size_t rows, size_t cols) {
  ++stats_.acquires;
  std::vector<std::vector<double>>& free = BucketFor(rows * cols).free;
  if (!free.empty()) {
    ++stats_.pool_hits;
    std::vector<double> buf = std::move(free.back());
    free.pop_back();
    return la::Matrix::Adopt(rows, cols, std::move(buf));
  }
  ++stats_.fresh_allocs;
  return la::Matrix(rows, cols);
}

la::Matrix Workspace::AcquireZero(size_t rows, size_t cols) {
  la::Matrix m = Acquire(rows, cols);
  std::fill(m.data().begin(), m.data().end(), 0.0);
  return m;
}

void Workspace::Recycle(la::Matrix&& m) {
  const size_t n = m.size();
  if (n == 0) return;
  BucketFor(n).free.push_back(m.TakeBuffer());
}

void Workspace::Release() {
  // Swapped with empty vectors, not cleared: clear() keeps the capacity.
  std::vector<Bucket>().swap(buckets_);
  std::vector<uint8_t>().swap(index_);
}

}  // namespace rmi::ad
