// Epoch-based reclamation for hot-swapped serving state.
//
// The per-query cost of `MapSnapshotStore::Current()` is an atomic
// `shared_ptr` load: on libstdc++ that is a spinlock-pool acquire plus a
// refcount increment/decrement pair, so every reader on every core bounces
// the same control-block cache line. The epoch scheme replaces that with
// two uncontended writes to a reader-private slot:
//
//   reader                          updater (publish path)
//   ------                          ----------------------
//   slot = global_epoch  (pin)      swap new snapshot into raw pointer
//   p = load raw pointer            retire(old): stamp with global_epoch,
//   ... dereference p ...                        append to retire list
//   slot = kIdle         (unpin)    advance global_epoch
//                                   reclaim retired entries whose stamp <
//                                     min(all pinned slots)
//
// Safety argument (all epoch/slot/pointer accesses are seq_cst): a reader
// orders its slot store *before* its pointer load; the updater orders the
// pointer swap *before* the epoch advance *before* the slot scan. Suppose
// a retired snapshot (stamped E, retired by the publish that advanced the
// epoch to E+1) were reclaimed while reader R still dereferences it. R
// obtained the doomed pointer, so R's pointer load preceded the updater's
// swap in the seq_cst total order; therefore R's slot store (epoch <= E)
// also preceded the swap, and every later slot scan — reclamation only
// runs after the advance — observes R pinned at <= E and keeps every
// entry stamped >= that slot. Contradiction: the entry survives until R
// unpins.
//
// Slots are claimed per thread on first pin and never migrate; each is
// cache-line padded so two readers never share a line. Pins nest (a
// thread-local depth counter keeps the outer epoch in place), and a Pin
// may be moved across frames but must be released on the thread that
// created it. Retired objects are type-erased `shared_ptr<const void>`, so
// anything published via `shared_ptr` can ride the same list — including
// objects slow-path callers still hold by `shared_ptr`, which simply delays
// their destructor past reclamation, never the reverse.
#ifndef RMI_SERVING_EPOCH_H_
#define RMI_SERVING_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace rmi::serving {

/// One reclamation domain: a global epoch, a fixed array of reader slots,
/// and a batched retire list. All serving stores share Global() so a
/// single pin protects every raw pointer a query dereferences — including
/// ones pinned on a caller thread and dereferenced by pool workers, since
/// reclamation is gated on the *minimum* over all pinned slots, whichever
/// thread holds them.
class EpochDomain {
 public:
  static constexpr uint64_t kIdle = ~0ull;
  static constexpr size_t kMaxSlots = 256;

  /// The process-wide domain used by MapSnapshotStore/ShardedSnapshotStore.
  static EpochDomain& Global();

  /// Test hook: the stores all use Global(); tests build private domains
  /// so that their pins and retire counts start from zero.
  EpochDomain();
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// RAII pin: while alive, no object retired at or after the pinned epoch
  /// is reclaimed. Movable (e.g. returned inside PinnedSnapshot) but must
  /// stay on the pinning thread.
  class Pin {
   public:
    Pin() : domain_(nullptr) {}
    explicit Pin(EpochDomain* domain) : domain_(domain) { domain_->Enter(); }
    Pin(Pin&& other) noexcept : domain_(other.domain_) {
      other.domain_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        domain_ = other.domain_;
        other.domain_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    bool engaged() const { return domain_ != nullptr; }

   private:
    void Release() {
      if (domain_ != nullptr) {
        domain_->Exit();
        domain_ = nullptr;
      }
    }
    EpochDomain* domain_;
  };

  Pin MakePin() { return Pin(this); }

  /// Hands `object` to the domain for deferred release: its refcount drops
  /// only once every reader pinned at retire time has unpinned. Called by
  /// publishers with the *previous* value after swapping in a replacement.
  /// Advances the epoch and opportunistically reclaims.
  void Retire(std::shared_ptr<const void> object);

  /// Releases every retired entry whose readers have all unpinned. Returns
  /// the number of entries still deferred (0 once all readers are idle).
  /// Stop/teardown paths call this to drain the list deterministically.
  size_t ReclaimNow();

  /// Entries currently deferred. Test hook; the rmi_epoch_deferred_objects
  /// gauge reads the global domain's count through it (inlined there).
  size_t retired_count() const;

  /// Epoch currently pinned by the calling thread, or kIdle. Test hook.
  uint64_t PinnedEpochForTesting() const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kIdle};
  };
  struct Retired {
    std::shared_ptr<const void> object;
    uint64_t epoch = 0;
  };

  void Enter();
  void Exit();
  size_t SlotIndexForThisThread();
  uint64_t MinActiveEpoch() const;
  void ReclaimLocked();  ///< requires retire_mu_

  /// Process-unique id; thread-local slot claims are keyed by it rather
  /// than by `this`, so a stack-local domain recycled at the same address
  /// can never inherit another domain's claims.
  const uint64_t id_;

  std::atomic<uint64_t> global_epoch_{1};
  std::atomic<size_t> next_slot_{0};
  Slot slots_[kMaxSlots];

  mutable std::mutex retire_mu_;
  std::vector<Retired> retired_;
};

}  // namespace rmi::serving

#endif  // RMI_SERVING_EPOCH_H_
