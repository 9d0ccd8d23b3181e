// Epoch-based memory reclamation for the optimistic (RCU) walk
// (docs/CONCURRENCY.md §4).
//
// A lock-free reader may still hold a pointer to a directory entry shell,
// a replaced bucket array or an inode after a writer has unlinked it. The
// writer therefore retires the object instead of deleting it, and the
// object is freed only once no reader can still reach it:
//
//  - One process-wide epoch counter, and one slot per thread. A reader pins
//    for the duration of one lock-free attempt (EpochPin): it stores the
//    epoch it read into its slot, then issues a seq_cst fence. It unpins by
//    storing 0.
//  - Retire tags the object with the epoch current after the unlink and
//    appends it to the owner's limbo list. Once kScanEvery retirements have
//    accumulated, the owner's next ScanIfDue tries to advance the epoch and
//    frees every object whose tag is at least 2 behind it. AtomFs retires
//    unlinked shells and inodes after it unlocks (a later retire only tags
//    a later epoch), table growth under the lock; ScanIfDue is called where
//    no lock is held, so objects are never freed under one.
//  - The epoch advances from E to E + 1 only when every pinned slot holds
//    E. A reader pinned at e <= tag therefore holds the epoch at or below
//    tag + 1 until it unpins, and a reader that pinned later sees the
//    unlink (the argument is in docs/CONCURRENCY.md §4).
//
// Slots are claimed by a thread on its first pin and released when it
// exits, so the slot list grows with the peak number of concurrently
// pinning threads, not with the number of threads ever started.
//
// Each AtomFs owns one Reclaimer (its limbo list) and its destructor frees
// whatever is still in limbo; the epoch and the slots are shared by every
// Reclaimer in the process.

#ifndef ATOMFS_SRC_CORE_RECLAIMER_H_
#define ATOMFS_SRC_CORE_RECLAIMER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace atomfs {

// Pins the calling thread for the lifetime of the object: nothing retired
// while it is alive is freed before it is destroyed. Pins nest; only the
// outermost one touches the slot. `engage = false` makes a no-op pin.
class EpochPin {
 public:
  explicit EpochPin(bool engage = true);
  ~EpochPin();

  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;

 private:
  const bool engaged_;
};

class Reclaimer {
 public:
  // Retirements that make a scan due.
  static constexpr uint32_t kScanEvery = 64;

  Reclaimer() = default;
  // Frees everything still in limbo. The owner guarantees that no reader is
  // pinned on any of it (no operation is in flight).
  ~Reclaimer();

  Reclaimer(const Reclaimer&) = delete;
  Reclaimer& operator=(const Reclaimer&) = delete;

  // Hands `obj`, already unreachable for new readers, to the reclaimer; it
  // is deleted once no reader pinned before the unlink remains.
  template <typename T>
  void Retire(T* obj) {
    Retire(obj, [](void* p) { delete static_cast<T*>(p); });
  }

  // Runs Scan once kScanEvery retirements have accumulated since the last
  // due scan; otherwise costs one relaxed load. Call it where no directory
  // lock is held, so nothing is freed while one is.
  void ScanIfDue() {
    if (scan_due_.load(std::memory_order_relaxed) && scan_due_.exchange(false)) {
      Scan();
    }
  }

  // Tries to advance the epoch (at most twice) and frees every object that
  // is then due. Returns the number of objects freed.
  size_t Scan();

  // Objects retired and not yet freed.
  size_t pending() const { return pending_.load(std::memory_order_relaxed); }

  // Process-wide state, for tests.
  static uint64_t Epoch();
  // Slots currently claimed by live threads, and slots ever allocated.
  static size_t SlotsInUse();
  static size_t SlotCount();

 private:
  struct Retired {
    void* obj;
    void (*destroy)(void*);
    uint64_t epoch;
  };

  void Retire(void* obj, void (*destroy)(void*));
  // Advances the epoch by one unless a thread is pinned in an older one.
  static bool TryAdvance();

  // Written by every Retire. Aligned so that the owner's neighbouring
  // fields, which every op reads, do not share a cache line with them.
  alignas(64) std::mutex mu_;
  std::vector<Retired> limbo_;  // guarded by mu_
  uint32_t since_scan_ = 0;     // guarded by mu_
  std::atomic<size_t> pending_{0};
  // Read at the end of every op, written once per kScanEvery retirements:
  // a line of its own, so the read stays a cache hit.
  alignas(64) std::atomic<bool> scan_due_{false};
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_CORE_RECLAIMER_H_
