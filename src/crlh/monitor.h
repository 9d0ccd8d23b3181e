// CrlhMonitor: the executable CRL-H verification layer.
//
// Attached to a concrete file system as its FsObserver, the monitor
// maintains the ghost state of §4.3 (thread pool of Descriptors, Helplist,
// and an abstract SpecFs that the Aops run on), executes the helper
// mechanism (`linothers`, §3.4/§5.2) at every rename LP, and checks:
//
//   * Refinement: every operation's concrete result must match the result
//     of its abstract operation, executed at its LP — or earlier, by a
//     helper, when a rename breaks its traversed path. A mismatch is a
//     linearizability violation.
//   * The Table-1 invariants, continuously where they are per-event
//     (Last-locked-lockpath, Future-lockpath-validness, both non-bypassable
//     invariants, Helplist-consistency, Lockpath-wellformed, GoodAFS) and
//     on demand for the abstract-concrete relation (roll-back mechanism).
//
// The monitor serializes all events with one mutex, which is what makes each
// (concrete step, ghost update) pair atomic (the concrete step is protected
// by the inode locks the file system holds while emitting the event).
//
// `fixed_lp_mode` disables helping: renames then linearize only themselves,
// which reproduces the paper's Figure 1 — interleavings with path
// inter-dependency fail the refinement check that the helper makes pass.

#ifndef ATOMFS_SRC_CRLH_MONITOR_H_
#define ATOMFS_SRC_CRLH_MONITOR_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/afs/spec_fs.h"
#include "src/core/observer.h"
#include "src/crlh/ghost.h"
#include "src/obs/sink.h"

namespace atomfs {

class CrlhMonitor : public FsObserver {
 public:
  struct Options {
    // Continuously check the per-event Table-1 invariants.
    bool check_invariants = true;
    // Keep a record of every completed operation for offline checkers.
    bool record_history = true;
    // Disable the helper mechanism (fixed-LP verification, §3.1).
    bool fixed_lp_mode = false;
    // Which shard of a sharded namespace this monitor watches (stamped on
    // every descriptor; see Descriptor::shard). 0 for an unsharded system.
    uint32_t shard_id = 0;
    // Optional observability sink notified of helper linearizations,
    // Helplist movement, and roll-back checks. Called with the ghost mutex
    // held; must be non-blocking and must not call back into the monitor.
    CrlhObsSink* obs = nullptr;
  };

  // A completed operation, with both its concrete outcome and the outcome of
  // its abstract operation (executed at its LP, or earlier when helped).
  struct CompletedRecord {
    Tid tid = 0;
    OpCall call;
    OpResult concrete;
    OpResult abstract;
    uint64_t begin_seq = 0;
    uint64_t lp_seq = 0;    // concrete LP (ghost event order)
    uint64_t abs_seq = 0;   // when the abstract op executed (helping reorders)
    uint64_t end_seq = 0;
    bool helped = false;
    Tid helper = 0;
  };

  // Post-mortem snapshot harvested after a violation: the first violation's
  // message and ghost time, plus the ghost state (Descriptor pool, Helplist,
  // abstract tree) and the completed history as of harvest time — everything
  // src/crlh/bundle.h needs to format a replayable bundle.
  struct PostMortem {
    std::string message;  // first violation recorded
    uint64_t seq = 0;     // ghost time of the first violation
    std::vector<Tid> helplist;
    std::map<Tid, Descriptor> pool;
    std::vector<CompletedRecord> history;
    SpecFs abstract;
  };

  CrlhMonitor();
  explicit CrlhMonitor(Options options);

  // FsObserver interface.
  void OnOpBegin(Tid tid, const OpCall& call) override;
  void OnOpEnd(Tid tid, const OpResult& result) override;
  void OnLockAcquired(Tid tid, Inum ino, LockPathRole role) override;
  void OnLockReleased(Tid tid, Inum ino) override;
  void OnLp(Tid tid, Inum created_ino) override;
  // Optimistic (RCU-walk) readers bypass lock coupling; these events toggle
  // the descriptor's optimistic/opt_validated flags so the lock-coupling
  // invariants are exempted and the Opt-validation invariant (a bypassing
  // reader must have a passed validation by its LP) can be checked instead.
  void OnOptWalkStart(Tid tid) override;
  void OnOptWalkValidate(Tid tid, OptValidation outcome, uint32_t depth) override;
  // Undoes the LP of a read-only optimistic op whose chain moved before its
  // LP was recorded; the op linearizes again on its retry.
  void OnOptWalkRetract(Tid tid) override;
  void OnOptWalkFallback(Tid tid) override;
  // Adopts a validated optimistic mutator as a lock-coupled arrival: its
  // chain becomes its LockPath and it turns into an ordinary pending,
  // helpable descriptor. The chain re-check runs under the ghost mutex; a
  // moved chain withdraws the adoption (the op stays optimistic and
  // retries).
  bool OnOptWalkAdopt(Tid tid, std::span<const Inum> chain,
                      const std::function<bool()>& still_current) override;

  // --- verdicts --------------------------------------------------------------
  bool ok() const;
  std::vector<std::string> violations() const;

  uint64_t help_events() const;   // renames that helped at least one thread
  uint64_t helped_ops() const;    // operations linearized by a helper

  std::vector<CompletedRecord> Completed() const;

  // Nullopt while no violation has been recorded; otherwise the first
  // violation plus the ghost state at call time. Harvest after the offending
  // schedule has quiesced so the history includes the violating op.
  std::optional<PostMortem> PostMortemState() const;

  // --- state checks ----------------------------------------------------------

  // Quiescent check: no in-flight operations; the abstract and concrete
  // trees must match exactly (up to inum naming). Appends a violation and
  // returns false on mismatch.
  bool CheckQuiescent(const SpecFs& concrete_snapshot);

  // Mid-flight abstract-concrete relation (§4.4): rolls back the effects of
  // still-pending helped operations in reverse Helplist order, then compares
  // with the concrete snapshot under the relaxed consistency mapping (locked
  // inodes are exempt from content comparison). The snapshot must be taken
  // while every in-flight thread is parked at an observer event.
  bool CheckAbstractConcreteRelation(const SpecFs& concrete_snapshot);

  // --- ghost introspection (tests) --------------------------------------------
  std::vector<Tid> Helplist() const;
  std::optional<Descriptor> GetDescriptor(Tid tid) const;
  SpecFs AbstractState() const;

 private:
  // All private helpers require mu_ held.
  void Violation(std::string message);
  void ReportInvariantLocked(InvariantKind kind, Tid tid, bool passed);
  void ApplyAopLocked(Tid tid, Descriptor& d, Inum forced_ino, bool record_effects);
  void HelpThreadLocked(Tid helper, Tid target, HelpReason reason);
  // Both non-bypassable invariants for `tid` locking `ino`.
  void CheckNonBypassableLocked(Tid tid, const Descriptor& d, Inum ino);
  // True if the abstract tree resolves the first chain.size() - 1
  // components of `path` through exactly the inodes of `chain` (root first).
  bool AbstractPathMatches(const Path& path, std::span<const Inum> chain) const;
  void ComputeFutLockPathLocked(Descriptor& d);
  void CheckGoodAfsLocked(const char* where);
  void RemapPlaceholderLocked(Inum from, Inum to);

  Options opts_;
  mutable std::mutex mu_;

  std::map<Tid, Descriptor> pool_;
  std::vector<Tid> helplist_;
  SpecFs aspec_;
  Inum ghost_next_ = kGhostInumBase;
  uint64_t seq_ = 0;

  std::vector<std::string> violations_;
  uint64_t first_violation_seq_ = 0;
  std::vector<CompletedRecord> completed_;
  uint64_t help_events_ = 0;
  uint64_t helped_ops_ = 0;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_CRLH_MONITOR_H_
