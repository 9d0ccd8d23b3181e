// Observation interface between the concrete file systems and the CRL-H
// runtime (src/crlh).
//
// The paper introduces ghost state whose updates are grouped with concrete
// program steps into atomic blocks. We realize that by having AtomFS emit an
// event at each ghost-relevant step *while still holding the locks that make
// the step atomic*; the CRL-H monitor serializes event handling with one
// ghost mutex, so each (concrete step, ghost update) pair is atomic with
// respect to every other ghost-relevant step. Observers must not call back
// into the file system; the chain re-check handed to OnOptWalkAdopt is not
// such a call, it only loads version counters and held marks.
//
// Nothing is built for an observer that is not there: AtomFs and BigLockFs
// construct the OpCall handed to OnOpBegin (paths, write payload) and the
// OpResult handed to OnOpEnd (read bytes, readdir entries) only when one is
// attached, so an unobserved op copies none of them. The signatures keep
// the owned OpCall/OpResult rather than a view: every recording observer
// (the CRL-H monitor, TraceRecorder, the tracer) would copy a view anyway,
// and observers outside src, such as perfbench's lock observer, override
// these exact signatures.

#ifndef ATOMFS_SRC_CORE_OBSERVER_H_
#define ATOMFS_SRC_CORE_OBSERVER_H_

#include <functional>
#include <span>

#include "src/afs/op.h"
#include "src/util/tid.h"
#include "src/vfs/filesystem.h"

namespace atomfs {

// Which ghost LockPath a lock acquisition extends. A rename holds a pair of
// LockPaths (SrcPath, DestPath), per the paper's §5.2; every other operation
// has a single LockPath.
enum class LockPathRole : uint8_t {
  kSingle,        // the only LockPath of a non-rename operation
  kRenameCommon,  // shared prefix up to the last common inode (extends both)
  kRenameSrc,     // source-branch lock (extends SrcPath)
  kRenameDst,     // destination-branch lock (extends DestPath)
  kOptTarget,     // last node locked by an optimistic (RCU) walk, pre-validation
};

// Outcome of one optimistic-walk validation attempt (docs/CONCURRENCY.md §5).
// Exactly one OnOptWalkValidate fires per OnOptWalkStart, so per thread
// attempts == passes + fails + skips.
enum class OptValidation : uint8_t {
  kPass,     // every recorded (node, version) pair still current: read is live
  kFail,     // a component changed mid-walk (or the walk aborted): retry/fall back
  kSkipped,  // validation bypassed (unsafe_skip_opt_validation test hook)
};

class FsObserver {
 public:
  virtual ~FsObserver() = default;

  // An operation was invoked with the given arguments.
  virtual void OnOpBegin(Tid tid, const OpCall& call) {
    (void)tid;
    (void)call;
  }

  // The operation returned with `result`.
  virtual void OnOpEnd(Tid tid, const OpResult& result) {
    (void)tid;
    (void)result;
  }

  // The calling thread just acquired / released the lock of inode `ino`.
  virtual void OnLockAcquired(Tid tid, Inum ino, LockPathRole role) {
    (void)tid;
    (void)ino;
    (void)role;
  }
  virtual void OnLockReleased(Tid tid, Inum ino) {
    (void)tid;
    (void)ino;
  }

  // The operation reached its linearization point: its concrete effect (if
  // any) has just been applied and is still protected by the held locks.
  // `created_ino` carries the concrete inode number allocated by a
  // successful mkdir/mknod, or kInvalidInum. For a rename this is where the
  // CRL-H helper (`linothers`) runs.
  virtual void OnLp(Tid tid, Inum created_ino) {
    (void)tid;
    (void)created_ino;
  }

  // Optimistic (RCU-style) walk lifecycle. One OnOptWalkStart per traversal
  // attempt, answered by exactly one OnOptWalkValidate with the attempt's
  // outcome (`depth` = number of (node, version) pairs in the validated
  // chain). A read's passed validation is its linearization point, so OnLp
  // follows it at once; a mutator's is followed by OnOptWalkAdopt (below).
  // OnOptWalkRetract withdraws a read's LP when the chain moved before the
  // LP was recorded (docs/CONCURRENCY.md §5); the op then retries, so a
  // retracted attempt counts as a failed one. OnOptWalkFallback fires once
  // when the op abandons the optimistic path for the lock-coupled walk.
  // Emitted while holding only the walk's last node's lock
  // (validate/retract) or no lock at all (start/fallback).
  virtual void OnOptWalkStart(Tid tid) { (void)tid; }
  virtual void OnOptWalkValidate(Tid tid, OptValidation outcome, uint32_t depth) {
    (void)tid;
    (void)outcome;
    (void)depth;
  }
  virtual void OnOptWalkRetract(Tid tid) { (void)tid; }
  virtual void OnOptWalkFallback(Tid tid) { (void)tid; }

  // A mutator (mkdir/mknod/rmdir/unlink/write/truncate) whose optimistic
  // walk passed validation asks to be adopted as a lock-coupled arrival at
  // the node it holds: `chain` is the validated chain's inums, root first,
  // that node last (docs/CONCURRENCY.md §5). `still_current` re-checks the
  // chain's versions and held marks. Each observer calls it exactly once
  // and returns its answer; true keeps the adoption, false withdraws it and
  // the op retries, so a withdrawn adoption counts as a failed attempt. An
  // observer that orders events (the CRL-H monitor) calls it inside its
  // critical section, which makes adoption and re-check one step: a helper
  // that runs after the adoption finds the op pending and helps it, one
  // that ran before moved the chain and the adoption is withdrawn. Emitted
  // holding only that node's lock; must not block.
  virtual bool OnOptWalkAdopt(Tid tid, std::span<const Inum> chain,
                              const std::function<bool()>& still_current) {
    (void)tid;
    (void)chain;
    return still_current();
  }
};

// Fans an event stream out to several observers (e.g. the CRL-H monitor plus
// a test gate that pauses threads at chosen points).
class TeeObserver : public FsObserver {
 public:
  TeeObserver(FsObserver* first, FsObserver* second) : first_(first), second_(second) {}

  void OnOpBegin(Tid tid, const OpCall& call) override {
    first_->OnOpBegin(tid, call);
    second_->OnOpBegin(tid, call);
  }
  void OnOpEnd(Tid tid, const OpResult& result) override {
    first_->OnOpEnd(tid, result);
    second_->OnOpEnd(tid, result);
  }
  void OnLockAcquired(Tid tid, Inum ino, LockPathRole role) override {
    first_->OnLockAcquired(tid, ino, role);
    second_->OnLockAcquired(tid, ino, role);
  }
  void OnLockReleased(Tid tid, Inum ino) override {
    first_->OnLockReleased(tid, ino);
    second_->OnLockReleased(tid, ino);
  }
  void OnLp(Tid tid, Inum created_ino) override {
    first_->OnLp(tid, created_ino);
    second_->OnLp(tid, created_ino);
  }
  void OnOptWalkStart(Tid tid) override {
    first_->OnOptWalkStart(tid);
    second_->OnOptWalkStart(tid);
  }
  void OnOptWalkValidate(Tid tid, OptValidation outcome, uint32_t depth) override {
    first_->OnOptWalkValidate(tid, outcome, depth);
    second_->OnOptWalkValidate(tid, outcome, depth);
  }
  void OnOptWalkRetract(Tid tid) override {
    first_->OnOptWalkRetract(tid);
    second_->OnOptWalkRetract(tid);
  }
  void OnOptWalkFallback(Tid tid) override {
    first_->OnOptWalkFallback(tid);
    second_->OnOptWalkFallback(tid);
  }
  // Nested, so the one re-check runs inside both observers' handlers:
  // whichever of them orders events sees it inside its critical section.
  bool OnOptWalkAdopt(Tid tid, std::span<const Inum> chain,
                      const std::function<bool()>& still_current) override {
    return first_->OnOptWalkAdopt(
        tid, chain, [&] { return second_->OnOptWalkAdopt(tid, chain, still_current); });
  }

 private:
  FsObserver* first_;
  FsObserver* second_;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_CORE_OBSERVER_H_
