// GateObserver: deterministic schedule control for scenario tests.
//
// Reproducing the paper's figures (1, 4(a-c), 8, 9) requires forcing
// specific interleavings: "mkdir has traversed through /a and halts, then
// rename runs to completion, then mkdir resumes". A GateObserver is placed
// after the CrlhMonitor in a TeeObserver chain; the test arms one-shot gates
// ("park thread T when it acquires inode I") and opens them when the rest of
// the schedule has played out. Parked threads keep holding their inode locks
// — exactly the states the paper's interleavings are built from.
//
// Only for use with RealExecutor threads (parking a SimExecutor thread
// inside a callback would stall the cooperative scheduler).

#ifndef ATOMFS_SRC_CRLH_GATE_H_
#define ATOMFS_SRC_CRLH_GATE_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>

#include "src/core/observer.h"
#include "src/crlh/op_thread.h"

namespace atomfs {

// How long a gate waits for a thread to reach it before the test gives up.
inline constexpr std::chrono::milliseconds kGateWaitBound = std::chrono::seconds(30);

class GateObserver : public FsObserver {
 public:
  enum class Point : uint8_t {
    kLockAcquired,
    kLockReleased,
    kLp,
    kOpBegin,
    kOptValidated,  // an optimistic walk's validation passed (before its LP
                    // or adoption), holding only the walk's last node
  };

  // Arms a one-shot gate: the next matching event parks the calling thread
  // until Open(tid). For kLp / kOpBegin, `ino` is ignored.
  void Arm(Tid tid, Point point, Inum ino = kInvalidInum);

  // Blocks the caller until `tid` is parked at its gate. If it has not parked
  // within `bound`, the op never reached its gate: the process aborts with a
  // message naming the tid and the armed point, rather than hanging until
  // the test runner's timeout. (Tests of this abort pass a shorter bound.)
  void WaitParked(Tid tid, std::chrono::milliseconds bound = kGateWaitBound);

  // Releases a parked (or future) gate for `tid`.
  void Open(Tid tid);

  // True if `tid` is currently parked.
  bool IsParked(Tid tid) const;

  // RCU-walk is on in every AtomFs, so a single-path op (a read, ins, del,
  // write or truncate) takes the lock-coupled walk only once all its
  // optimistic attempts have failed. This puts `op` (not yet started) on
  // that walk: it runs `hold_root` on a fresh thread parked right after it
  // locks the root (a held ancestor fails every optimistic attempt), starts
  // `op`, waits until it falls back, then lets the holder finish. Gates
  // armed on `op` beforehand stay armed; its attempts lock and release only
  // the last node of its walk, so `op` must not be an ins/del directly
  // under the root. Returns false if `op` did not fall back within
  // kGateWaitBound.
  bool StartOnLockedWalk(OpThread& op, std::function<void()> hold_root);

  // FsObserver.
  void OnOpBegin(Tid tid, const OpCall& call) override;
  void OnLockAcquired(Tid tid, Inum ino, LockPathRole role) override;
  void OnLockReleased(Tid tid, Inum ino) override;
  void OnLp(Tid tid, Inum created_ino) override;
  void OnOptWalkValidate(Tid tid, OptValidation outcome, uint32_t depth) override;
  void OnOptWalkFallback(Tid tid) override;

 private:
  struct Gate {
    Point point = Point::kLp;
    Inum ino = kInvalidInum;
    bool armed = false;
    bool parked = false;
    bool open = false;
  };

  void MaybePark(Tid tid, Point point, Inum ino);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<Tid, Gate> gates_;
  std::map<Tid, uint64_t> fallbacks_;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_CRLH_GATE_H_
