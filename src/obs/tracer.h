// TracingObserver: the bridge from the FsObserver event stream (and the
// CRL-H monitor's CrlhObsSink) into the atomtrace metrics registry and trace
// ring. Attaching it instruments a file system end to end — per-op latency,
// per-depth lock-coupling hold times and step latencies, LockPath depths,
// helper-set sizes, Helplist occupancy — with zero changes to the file
// system itself.
//
// Metric names it populates (see docs/OBSERVABILITY.md for the full schema):
//   fs.ops, fs.op.<kind>.errors           counters
//   fs.op.<kind>.latency_ns               histogram, per OpKind
//   lock.acquires, lock.releases          counters (folded in at op end, so
//                                         in-flight ops lag until they finish)
//   lock.depth<DD>.hold_ns                histogram, hold time at depth DD
//   lock.depth<DD>.step_ns                histogram, time to reach depth DD
//                                         from the previous coupling step
//                                         (lookup + lock wait = contention)
//   lock.path_depth                       histogram, locks acquired per op
//   crlh.help_events, crlh.helped_ops,
//   crlh.rollback_checks, crlh.rolled_back_ops   counters
//   crlh.help_set_size                    histogram
//   crlh.helplist_len                     gauge (current occupancy)
//   crlh.invariant.<name>.checks,
//   crlh.invariant.<name>.failures        counters, per InvariantKind
//   crlh.violations                       counter
//   core.rcuwalk.attempts                 counter, optimistic walk attempts
//   core.rcuwalk.validation_failures      counter, failed chain validations
//                                         (retracted reads and withdrawn
//                                         adoptions included)
//   core.rcuwalk.fallbacks                counter, ops that fell back to the
//                                         lock-coupled walk
//   core.rcuwalk.unvalidated_reads        counter, validations skipped by the
//                                         unsafe hook (must be 0 in any
//                                         correct configuration)
//
// Depths deeper than kMaxTrackedDepth all land in the kMaxTrackedDepth
// histograms (the label is a floor, not a bound).
//
// Thread-state tracking is per-(observer, thread): the first event from a
// thread takes one sharded mutex to install its state; after that a
// thread-local cache resolves the state in two compares, so the steady-state
// per-event cost is lock-free. FsObserver events for one operation always
// come from one OS thread (that is the FsObserver contract), which is what
// makes the per-thread state race-free.

#ifndef ATOMFS_SRC_OBS_TRACER_H_
#define ATOMFS_SRC_OBS_TRACER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/core/observer.h"
#include "src/obs/metrics.h"
#include "src/obs/sink.h"
#include "src/obs/trace.h"

namespace atomfs {

// Lock depths are histogrammed individually up to this depth; anything
// deeper accumulates in the last histogram.
inline constexpr uint16_t kMaxTrackedDepth = 12;

class TracingObserver : public FsObserver, public CrlhObsSink {
 public:
  // `registry` is required and must outlive the observer; `ring` is optional
  // (metrics-only instrumentation when null).
  explicit TracingObserver(MetricsRegistry* registry, TraceRing* ring = nullptr);

  // FsObserver (called by the instrumented file system, locks held).
  void OnOpBegin(Tid tid, const OpCall& call) override;
  void OnOpEnd(Tid tid, const OpResult& result) override;
  void OnLockAcquired(Tid tid, Inum ino, LockPathRole role) override;
  void OnLockReleased(Tid tid, Inum ino) override;
  void OnLp(Tid tid, Inum created_ino) override;
  void OnOptWalkStart(Tid tid) override;
  void OnOptWalkValidate(Tid tid, OptValidation outcome, uint32_t depth) override;
  void OnOptWalkRetract(Tid tid) override;
  void OnOptWalkFallback(Tid tid) override;
  bool OnOptWalkAdopt(Tid tid, std::span<const Inum> chain,
                      const std::function<bool()>& still_current) override;

  // CrlhObsSink (called by CrlhMonitor with the ghost mutex held).
  void OnHelpEvent(Tid helper, size_t help_set_size) override;
  void OnHelpedLinearized(Tid helper, Tid target, HelpReason reason, size_t helplist_pos,
                          size_t helplist_len) override;
  void OnHelpedRetired(Tid tid, size_t helplist_len) override;
  void OnInvariantCheck(InvariantKind kind, Tid tid, bool passed) override;
  void OnRollback(size_t rolled_back) override;
  void OnViolation(std::string_view message, uint64_t seq) override;

 private:
  // Timestamps are raw ticks from a fast monotonic source (TSC on x86-64,
  // steady_clock elsewhere) and are converted to nanoseconds only when a
  // value is recorded — clock reads happen inside the file system's
  // critical sections, so they are the hottest instruction in the tracer.
  struct HeldLock {
    Inum ino = kInvalidInum;
    uint64_t acquired_at = 0;  // ticks
    uint16_t depth = 0;
  };

  struct ThreadState {
    bool in_op = false;
    uint8_t op_kind = 0;
    uint64_t op_begin = 0;   // ticks
    uint64_t last_step = 0;  // ticks; previous acquire (or op begin)
    uint16_t acquires = 0;   // locks acquired so far in this op = LockPath depth
    uint16_t releases = 0;   // locks released so far in this op
    std::vector<HeldLock> held;  // acquire-ordered; released out of order by rename
  };

  ThreadState& StateFor(Tid tid);
  void Emit(TraceEvent e) {
    if (ring_ != nullptr) {
      ring_->Append(e);
    }
  }

  TraceRing* ring_;
  // Process-unique, never reused — the key that keeps thread-local state
  // caches from aliasing a dead observer (see StateFor).
  const uint64_t id_;
  // Nanoseconds per tick of the fast clock, calibrated once at construction.
  const double ns_per_tick_;

  uint64_t TicksToNs(uint64_t ticks) const {
    return static_cast<uint64_t>(static_cast<double>(ticks) * ns_per_tick_);
  }

  Counter ops_;
  std::array<Counter, 11> op_errors_;      // indexed by OpKind
  std::array<Histogram, 11> op_latency_;   // indexed by OpKind
  Counter lock_acquires_;
  Counter lock_releases_;
  std::array<Histogram, kMaxTrackedDepth + 1> hold_ns_;  // [1..kMaxTrackedDepth]
  std::array<Histogram, kMaxTrackedDepth + 1> step_ns_;
  Histogram path_depth_;
  Counter help_events_;
  Counter helped_ops_;
  Counter rollback_checks_;
  Counter rolled_back_ops_;
  Histogram help_set_size_;
  Gauge helplist_len_;
  std::array<Counter, kInvariantKindCount> invariant_checks_;
  std::array<Counter, kInvariantKindCount> invariant_failures_;
  Counter violations_;
  Counter rcu_attempts_;
  Counter rcu_validation_failures_;
  Counter rcu_fallbacks_;
  Counter rcu_unvalidated_;

  // Sharded thread-state table. unordered_map references are stable across
  // inserts, so StateFor can hand out a reference used lock-free by its
  // owning thread.
  struct StateShard {
    std::mutex mu;
    std::unordered_map<Tid, ThreadState> states;
  };
  static constexpr size_t kStateShards = 16;
  std::array<StateShard, kStateShards> shards_;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_OBS_TRACER_H_
