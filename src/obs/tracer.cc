#include "src/obs/tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace atomfs {

namespace {

// The tracer's clock reads happen inside the file system's critical
// sections, so they dominate its overhead. On x86-64 we read the TSC
// directly (~4x cheaper than clock_gettime even through the vDSO) and
// convert to nanoseconds with a ratio calibrated once per process; the
// invariant TSC on any hardware modern enough to run this makes the ratio
// constant. Elsewhere, fall back to steady_clock with a ratio of 1.
#if defined(__x86_64__) || defined(_M_X64)

inline uint64_t NowTicks() { return __rdtsc(); }

double CalibrateNsPerTickOnce() {
  using SteadyClock = std::chrono::steady_clock;
  const SteadyClock::time_point t0 = SteadyClock::now();
  const uint64_t c0 = NowTicks();
  // ~2 ms busy-wait: long enough for a stable ratio, short enough to be an
  // invisible one-time cost.
  while (SteadyClock::now() - t0 < std::chrono::milliseconds(2)) {
  }
  const SteadyClock::time_point t1 = SteadyClock::now();
  const uint64_t c1 = NowTicks();
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return c1 > c0 ? ns / static_cast<double>(c1 - c0) : 1.0;
}

double NsPerTick() {
  static const double ratio = CalibrateNsPerTickOnce();
  return ratio;
}

#else

inline uint64_t NowTicks() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double NsPerTick() { return 1.0; }

#endif

std::string DepthName(const char* what, uint16_t depth) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "lock.depth%02u.%s", depth, what);
  return buf;
}

uint64_t NextObserverId() {
  static std::atomic<uint64_t> next{1};
  // Relaxed: pure unique-id allocation, nothing is published through it.
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TracingObserver::TracingObserver(MetricsRegistry* registry, TraceRing* ring)
    : ring_(ring), id_(NextObserverId()), ns_per_tick_(NsPerTick()) {
  ops_ = registry->GetCounter("fs.ops");
  for (size_t k = 0; k < op_latency_.size(); ++k) {
    const std::string base = "fs.op." + std::string(OpKindName(static_cast<OpKind>(k)));
    op_errors_[k] = registry->GetCounter(base + ".errors");
    op_latency_[k] = registry->GetHistogram(base + ".latency_ns");
  }
  lock_acquires_ = registry->GetCounter("lock.acquires");
  lock_releases_ = registry->GetCounter("lock.releases");
  for (uint16_t d = 1; d <= kMaxTrackedDepth; ++d) {
    hold_ns_[d] = registry->GetHistogram(DepthName("hold_ns", d));
    step_ns_[d] = registry->GetHistogram(DepthName("step_ns", d));
  }
  path_depth_ = registry->GetHistogram("lock.path_depth");
  help_events_ = registry->GetCounter("crlh.help_events");
  helped_ops_ = registry->GetCounter("crlh.helped_ops");
  rollback_checks_ = registry->GetCounter("crlh.rollback_checks");
  rolled_back_ops_ = registry->GetCounter("crlh.rolled_back_ops");
  help_set_size_ = registry->GetHistogram("crlh.help_set_size");
  helplist_len_ = registry->GetGauge("crlh.helplist_len");
  for (size_t k = 0; k < kInvariantKindCount; ++k) {
    const std::string base =
        "crlh.invariant." + std::string(InvariantKindName(static_cast<InvariantKind>(k)));
    invariant_checks_[k] = registry->GetCounter(base + ".checks");
    invariant_failures_[k] = registry->GetCounter(base + ".failures");
  }
  violations_ = registry->GetCounter("crlh.violations");
  rcu_attempts_ = registry->GetCounter("core.rcuwalk.attempts");
  rcu_validation_failures_ = registry->GetCounter("core.rcuwalk.validation_failures");
  rcu_fallbacks_ = registry->GetCounter("core.rcuwalk.fallbacks");
  rcu_unvalidated_ = registry->GetCounter("core.rcuwalk.unvalidated_reads");
}

TracingObserver::ThreadState& TracingObserver::StateFor(Tid tid) {
  // Hot path: events for one tid always come from the same OS thread, so a
  // thread-local (observer, tid) -> state cache turns the per-event sharded
  // map lookup into two compares. The observer id is never reused, so a
  // stale cache entry can never alias a new observer at the same address.
  struct Cache {
    uint64_t observer_id = 0;
    Tid tid = 0;
    ThreadState* state = nullptr;
  };
  thread_local Cache cache;
  if (cache.observer_id == id_ && cache.tid == tid && cache.state != nullptr) {
    return *cache.state;
  }
  StateShard& shard = shards_[tid % kStateShards];
  ThreadState* state;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    state = &shard.states[tid];
  }
  cache = Cache{id_, tid, state};
  return *state;
}

void TracingObserver::OnOpBegin(Tid tid, const OpCall& call) {
  ThreadState& s = StateFor(tid);
  s.in_op = true;
  s.op_kind = static_cast<uint8_t>(call.kind);
  s.op_begin = NowTicks();
  s.last_step = s.op_begin;
  s.acquires = 0;
  s.releases = 0;
  s.held.clear();

  TraceEvent e;
  e.tid = tid;
  e.type = TraceEventType::kOpBegin;
  e.op = s.op_kind;
  Emit(e);
}

void TracingObserver::OnOpEnd(Tid tid, const OpResult& result) {
  ThreadState& s = StateFor(tid);
  const uint64_t latency = s.in_op ? TicksToNs(NowTicks() - s.op_begin) : 0;
  ops_.Inc();
  if (s.op_kind < op_latency_.size()) {
    op_latency_[s.op_kind].Record(latency);
    if (!result.status.ok()) {
      op_errors_[s.op_kind].Inc();
    }
  }
  path_depth_.Record(s.acquires);
  // The per-lock-event counters are folded in here, once per op, instead of
  // paying an atomic increment inside every critical section.
  if (s.acquires > 0) {
    lock_acquires_.Inc(s.acquires);
  }
  if (s.releases > 0) {
    lock_releases_.Inc(s.releases);
  }

  TraceEvent e;
  e.tid = tid;
  e.type = TraceEventType::kOpEnd;
  e.op = s.op_kind;
  e.depth = s.acquires;
  e.arg = static_cast<uint64_t>(result.status.code());
  Emit(e);

  s.in_op = false;
  s.held.clear();
}

void TracingObserver::OnLockAcquired(Tid tid, Inum ino, LockPathRole role) {
  ThreadState& s = StateFor(tid);
  const uint64_t now = NowTicks();
  s.acquires = static_cast<uint16_t>(s.acquires + 1);
  const uint16_t depth = std::min(s.acquires, kMaxTrackedDepth);
  step_ns_[depth].Record(TicksToNs(now - s.last_step));
  s.last_step = now;
  s.held.push_back(HeldLock{ino, now, depth});

  TraceEvent e;
  e.tid = tid;
  e.type = TraceEventType::kLockAcquired;
  e.role = static_cast<uint8_t>(role);
  e.depth = s.acquires;
  e.ino = ino;
  Emit(e);
}

void TracingObserver::OnLockReleased(Tid tid, Inum ino) {
  ThreadState& s = StateFor(tid);
  const uint64_t now = NowTicks();
  s.releases = static_cast<uint16_t>(s.releases + 1);
  uint64_t hold_ns = 0;
  uint16_t depth = 0;
  // Releases are mostly LIFO for coupling but arbitrary-order for rename's
  // multi-lock unlock; search from the back.
  for (auto it = s.held.rbegin(); it != s.held.rend(); ++it) {
    if (it->ino == ino) {
      hold_ns = TicksToNs(now - it->acquired_at);
      depth = it->depth;
      s.held.erase(std::next(it).base());
      break;
    }
  }
  if (depth > 0) {
    hold_ns_[depth].Record(hold_ns);
  }

  TraceEvent e;
  e.tid = tid;
  e.type = TraceEventType::kLockReleased;
  e.depth = depth;
  e.ino = ino;
  e.arg = hold_ns;
  Emit(e);
}

void TracingObserver::OnLp(Tid tid, Inum created_ino) {
  if (ring_ == nullptr) {
    return;
  }
  ThreadState& s = StateFor(tid);
  TraceEvent e;
  e.tid = tid;
  e.type = TraceEventType::kLp;
  e.op = s.op_kind;
  e.depth = s.acquires;
  e.ino = created_ino;
  Emit(e);
}

void TracingObserver::OnOptWalkStart(Tid tid) {
  rcu_attempts_.Inc();
  if (ring_ == nullptr) {
    return;
  }
  TraceEvent e;
  e.tid = tid;
  e.type = TraceEventType::kOptWalkStart;
  Emit(e);
}

void TracingObserver::OnOptWalkValidate(Tid tid, OptValidation outcome, uint32_t depth) {
  if (outcome == OptValidation::kFail) {
    rcu_validation_failures_.Inc();
  } else if (outcome == OptValidation::kSkipped) {
    rcu_unvalidated_.Inc();
  }
  if (ring_ == nullptr) {
    return;
  }
  TraceEvent e;
  e.tid = tid;
  e.type = TraceEventType::kOptWalkValidate;
  e.arg = static_cast<uint64_t>(outcome);
  e.depth = static_cast<uint16_t>(std::min<uint32_t>(depth, UINT16_MAX));
  Emit(e);
}

// A retracted pass is an attempt that did not produce the read: count and
// trace it as the failed validation it turned out to be.
void TracingObserver::OnOptWalkRetract(Tid tid) {
  OnOptWalkValidate(tid, OptValidation::kFail, 0);
}

// A withdrawn adoption is, like a retraction, an attempt that did not
// produce the op.
bool TracingObserver::OnOptWalkAdopt(Tid tid, std::span<const Inum> chain,
                                     const std::function<bool()>& still_current) {
  (void)chain;
  const bool kept = still_current();
  if (!kept) {
    OnOptWalkValidate(tid, OptValidation::kFail, 0);
  }
  return kept;
}

void TracingObserver::OnOptWalkFallback(Tid tid) {
  rcu_fallbacks_.Inc();
  if (ring_ == nullptr) {
    return;
  }
  TraceEvent e;
  e.tid = tid;
  e.type = TraceEventType::kOptWalkFallback;
  Emit(e);
}

void TracingObserver::OnHelpEvent(Tid helper, size_t help_set_size) {
  help_events_.Inc();
  help_set_size_.Record(help_set_size);

  TraceEvent e;
  e.tid = helper;
  e.type = TraceEventType::kHelp;
  e.arg = help_set_size;
  Emit(e);
}

void TracingObserver::OnHelpedLinearized(Tid helper, Tid target, HelpReason reason,
                                         size_t helplist_pos, size_t helplist_len) {
  helped_ops_.Inc();
  helplist_len_.Add(1);

  TraceEvent e;
  e.tid = helper;
  e.type = TraceEventType::kHelp;
  e.flags = reason == HelpReason::kSrcPrefix      ? kTraceHelpReasonSrcPrefix
            : reason == HelpReason::kCrossShard   ? kTraceHelpReasonCrossShard
                                                  : kTraceHelpReasonLockPathPrefix;
  e.depth = static_cast<uint16_t>(std::min<size_t>(helplist_pos, UINT16_MAX));
  e.ino = target;
  e.arg = 0;  // distinguishes the per-target event from the per-run one
  e.aux = helplist_len;
  Emit(e);
}

void TracingObserver::OnHelpedRetired(Tid tid, size_t helplist_len) {
  helplist_len_.Sub(1);

  TraceEvent e;
  e.tid = tid;
  e.type = TraceEventType::kHelpedRetired;
  e.aux = helplist_len;
  Emit(e);
}

void TracingObserver::OnInvariantCheck(InvariantKind kind, Tid tid, bool passed) {
  const size_t k = static_cast<size_t>(kind);
  if (k < invariant_checks_.size()) {
    invariant_checks_[k].Inc();
    if (!passed) {
      invariant_failures_[k].Inc();
    }
  }

  TraceEvent e;
  e.tid = tid;
  e.type = TraceEventType::kInvariant;
  e.op = static_cast<uint8_t>(kind);
  e.arg = passed ? 0 : 1;
  Emit(e);
}

void TracingObserver::OnRollback(size_t rolled_back) {
  rollback_checks_.Inc();
  rolled_back_ops_.Inc(rolled_back);

  TraceEvent e;
  e.type = TraceEventType::kRollback;
  e.arg = rolled_back;
  Emit(e);
}

void TracingObserver::OnViolation(std::string_view message, uint64_t seq) {
  (void)message;  // the monitor keeps the full text; the ring stores the seq
  violations_.Inc();

  TraceEvent e;
  e.type = TraceEventType::kViolation;
  e.aux = seq;
  Emit(e);
}

}  // namespace atomfs
