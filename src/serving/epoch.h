// Kept only for the repo benchmark, which calls
// `EpochDomain::Global().ReclaimNow()` before it samples memory. Snapshot
// reads are plain `shared_ptr` loads (serving/snapshot.h), so nothing is
// ever deferred: ReclaimNow() has nothing to release and returns 0.
#ifndef RMI_SERVING_EPOCH_H_
#define RMI_SERVING_EPOCH_H_

#include <cstddef>

namespace rmi::serving {

class EpochDomain {
 public:
  static EpochDomain& Global() {
    static EpochDomain domain;
    return domain;
  }
  size_t ReclaimNow() const { return 0; }
};

}  // namespace rmi::serving

#endif  // RMI_SERVING_EPOCH_H_
