// AtomFS: the paper's fine-grained concurrent in-memory file system.
//
// Every single-path op resolves its path through one resolver that walks
// optimistically (RCU-style, Linux's approach): it traverses without locks,
// locks only the last node — a read's target, the parent of an ins/del, the
// target of write/truncate — and validates the recorded version chain and
// that no ancestor is held. A read linearizes at that validation. A mutator
// is instead *adopted*: the validated walk counts as a lock-coupled arrival
// at the node it holds, so from then on it is an ordinary op that a rename
// can help. After kRcuWalkAttempts failed attempts the op falls back to the
// paper's *lock coupling* (hand-over-hand per-inode locking): a traversal
// acquires the next inode's lock before releasing the current one. Lock
// coupling now serves rename/exchange, which are the helpers, and those
// fallbacks. Together they satisfy the paper's non-bypassable criterion
// (§5.1): no operation can overtake another on the same path, which is what
// makes every interface linearizable even though rename gives other
// operations *external* linearization points (docs/CONCURRENCY.md §2, §4-5).
//
// Linearization points (LPs):
//   * mkdir/mknod ("ins")  - after the directory insert, before unlock.
//   * rmdir/unlink ("del") - after the directory remove, before unlock.
//   * write/truncate       - while the target inode is locked.
//   * stat/readdir/read    - at the optimistic walk's validation, under the
//     lock of the target or, for a miss, of the directory that missed; on
//     the fallback walk, while the target inode is locked.
//   * rename               - after re-linking, before unlock; this is where
//     the CRL-H helper (linothers) logically linearizes every operation
//     whose traversed (or adopted) path the rename broke, before the rename
//     itself.
//   * failing operations   - at the step where the failure is decided (e.g.
//     the lookup miss), while the deciding lock is held.
//
// Every LP and every lock transition is reported through FsObserver so the
// CRL-H runtime can maintain ghost state and check linearizability; with a
// null observer AtomFS runs unmonitored at full speed, on the same walks.
// It then builds no OpCall or OpResult, so it copies no path, write
// payload, read bytes or readdir entries, and stat, read and an overwriting
// write make no heap allocation at all (tests/unobserved_alloc_test.cc).
//
// A directory lock covers only the link change: ins allocates its inode and
// entry shell before it locks the parent, del/rename/exchange retire what
// they unlinked after they unlock, and readdir sorts its copy unlocked
// (docs/CONCURRENCY.md §4).
//
// rename traverses to the last common inode of the two parent paths with
// lock coupling and releases that inode's lock only after both parent
// directories are locked (paper §5.2), which keeps LockPaths acyclic and
// rename deadlock-free.

#ifndef ATOMFS_SRC_CORE_ATOM_FS_H_
#define ATOMFS_SRC_CORE_ATOM_FS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "src/afs/spec_fs.h"
#include "src/core/cost_model.h"
#include "src/core/inode.h"
#include "src/core/observer.h"
#include "src/core/reclaimer.h"
#include "src/sim/executor.h"
#include "src/vfs/filesystem.h"

namespace atomfs {

class AtomFs : public FileSystem {
 public:
  struct Options {
    Executor* executor = &Executor::Real();
    FsObserver* observer = nullptr;
    CostModel costs;

    // VALIDATION ONLY: release the parent's lock before acquiring the
    // child's during traversal. This deliberately breaks the non-bypassable
    // criterion so tests can demonstrate that the CRL-H checkers flag the
    // resulting non-linearizable executions (paper Figure 8). Each operation
    // stays pinned (EpochPin) from start to end in this mode, so an inode it
    // reaches after its deletion is still allocated.
    bool unsafe_release_before_lock = false;

    // Skip all per-inode locking and lock/LP observer events. Used by
    // BigLockFs, which wraps the whole structure in one global lock; the
    // inner tree then needs no fine-grained synchronization. Without inode
    // locks there is nothing to validate under, so this also turns off the
    // optimistic read walk.
    bool disable_inode_locks = false;

    // VALIDATION ONLY: skip the version-chain validation at the end of an
    // optimistic walk and trust the (possibly stale) resolution as-is,
    // emitting OptValidation::kSkipped: a read reports what it read, a
    // mutator is adopted without the re-check and applies its change to
    // whatever node it locked. Exists so tests can demonstrate that the
    // CRL-H monitor catches the resulting stale reads and lost updates as
    // refinement divergences — the optimistic analogue of
    // unsafe_release_before_lock.
    bool unsafe_skip_opt_validation = false;

    // Fault injection: when set and returning true, the next inode
    // allocation fails and the creating operation returns ENOSPC after
    // cleanly releasing its locks. Exercises failure paths that normal
    // operation cannot reach. (The abstract specification has no allocation
    // failures, so injection runs are validated structurally, not against
    // the CRL-H refinement.)
    std::function<bool()> inject_alloc_failure;
  };

  AtomFs();
  explicit AtomFs(Options options);
  ~AtomFs() override;

  AtomFs(const AtomFs&) = delete;
  AtomFs& operator=(const AtomFs&) = delete;

  // FileSystem interface (see src/vfs/filesystem.h for semantics).
  Status Mkdir(const Path& path) override;
  Status Mknod(const Path& path) override;
  Status Rmdir(const Path& path) override;
  Status Unlink(const Path& path) override;
  Status Rename(const Path& src, const Path& dst) override;
  Status Exchange(const Path& a, const Path& b) override;
  Result<Attr> Stat(const Path& path) override;
  Result<std::vector<DirEntry>> ReadDir(const Path& path) override;
  Result<size_t> Read(const Path& path, uint64_t offset, std::span<std::byte> out) override;
  Result<size_t> Write(const Path& path, uint64_t offset,
                       std::span<const std::byte> data) override;
  Status Truncate(const Path& path, uint64_t size) override;
  using FileSystem::Mkdir;
  using FileSystem::Mknod;
  using FileSystem::Read;
  using FileSystem::ReadDir;
  using FileSystem::Exchange;
  using FileSystem::Rename;
  using FileSystem::Rmdir;
  using FileSystem::Stat;
  using FileSystem::Truncate;
  using FileSystem::Unlink;
  using FileSystem::Write;

  // The optimistic (RCU-style) walk: every single-path op first traverses
  // without locking, locks only the last node (or, after a lookup miss, the
  // directory that missed), then validates the recorded per-component
  // version chain before trusting it (docs/CONCURRENCY.md §4-5). An op makes
  // at most this many attempts before it falls back to the lock-coupled
  // walk. On in every AtomFs that has inode locks.
  static constexpr uint32_t kRcuWalkAttempts = 3;

  // kFsCapRcuWalk whenever inode locks are on; sharding and transactions are
  // layered above AtomFs, so their bits are OR'd in by the wrapping
  // ShardedFs / server.
  uint32_t Capabilities() const override {
    return opts_.disable_inode_locks ? 0 : kFsCapRcuWalk;
  }

  // Deep snapshot of the whole tree as a SpecFs (concrete inums preserved).
  // Only valid while no operation is in flight; used by the CRL-H
  // abstract-concrete relation checker and by tests.
  SpecFs SnapshotSpec() const;

  // Live inodes (root included). Quiescent-only, like SnapshotSpec.
  uint64_t InodeCount() const { return inode_count_.load(std::memory_order_relaxed); }

  // Retired inodes, entry shells and bucket arrays not yet freed.
  size_t PendingReclaim() const { return reclaimer_.pending(); }

 private:
  // mkdir/mknod share one body; rmdir/unlink likewise (the paper's ins/del).
  Status Insert(const Path& path, FileType type);
  Status Delete(const Path& path, FileType type);

  // What a validated optimistic walk means for the op (docs/CONCURRENCY.md
  // §5): a read linearizes there; a mutator is adopted as a lock-coupled
  // arrival at the node it holds, and linearizes later, where the locked
  // walk's op would.
  enum class WalkFor : uint8_t { kRead, kMutate };

  // The one resolver of every single-path op. Resolves `parts[0..count)` of
  // `path` — the target, or a mutator's parent — and returns the last node
  // locked, as the lock-coupled walk would: up to kRcuWalkAttempts
  // optimistic attempts, then that walk (OnOptWalkFallback first). A
  // mutator under unsafe_release_before_lock, and any op without inode
  // locks, goes straight to the locked walk. An error comes with its LP
  // observed and no lock held. `*linearized`, when given, is set when the
  // optimistic walk decided the op: a read's LP is then already observed.
  Result<Inode*> Resolve(const Path& path, size_t count, WalkFor walk,
                         bool* linearized = nullptr);

  // Walks `parts[0..count)` from the root with lock coupling; returns the
  // final inode locked. On ENOENT/ENOTDIR the failure LP is emitted and all
  // locks are released before returning.
  Result<Inode*> TraverseLocked(const std::vector<std::string>& parts, size_t count,
                                LockPathRole role);

  // Directory lookup with chain-length-proportional cost accounting.
  Inode* LookupCharged(Inode* dir, const std::string& name);

  // --- optimistic (RCU) walk, docs/CONCURRENCY.md §4-5 ---

  // One attempt, pinned: lock-free traverse of `parts[0..count)` recording
  // (node, version) pairs, lock the last node, validate. Returns that node
  // LOCKED (role kOptTarget) with its chain validated (or validation
  // skipped under the unsafe hook): for a read with its LP observed, for a
  // mutator adopted (OnOptWalkAdopt). Returns kNoEnt when a lookup missed
  // and the miss validated under the lock of the directory that missed (a
  // mutator is adopted there first; the failure LP observed, that lock
  // released); nullptr when the attempt failed, its lock released. Never
  // decides ENOTDIR: only a locked walk or an adopted op may. Emits exactly
  // one OnOptWalkValidate; a read's pass is followed by OnLp and, when the
  // chain moved before that LP was recorded, by OnOptWalkRetract.
  Result<Inode*> OptimisticAttempt(const Path& path, size_t count, WalkFor walk);

  // Seqlock write protocol (docs/CONCURRENCY.md §3): callers hold `node`'s
  // lock. Open flips the version odd before the first chain mutation; Close
  // release-publishes the new even value after the last one.
  static void VersionBumpOpen(Inode* node);
  static void VersionBumpClose(Inode* node);
  // Single +2 bump for a node whose *identity* changed (moved, displaced,
  // swapped, removed) rather than its directory contents.
  static void VersionTick(Inode* node);

  void LockInode(Inode* node, LockPathRole role);
  void UnlockInode(Inode* node);
  void UnlockAll(const std::vector<Inode*>& nodes);

  std::unique_ptr<Inode> NewInode(FileType type);
  // Undoes NewInode for an inode that was never linked.
  void FreeUnlinked(std::unique_ptr<Inode> node);
  // Frees the file blocks of a detached, childless inode and retires the
  // rest (docs/CONCURRENCY.md §4). Called with no lock held.
  void DisposeInode(std::unique_ptr<Inode> node);

  // Every op begins here. `make_call()` builds the OpCall, and is called
  // only when an observer is attached.
  template <typename MakeCall>
  void ObserveBegin(MakeCall&& make_call);
  // Every op ends here, with no lock held, and runs a due reclaimer scan.
  // `make_result()` builds the OpResult, only for an observer.
  template <typename MakeResult>
  void ObserveEnd(MakeResult&& make_result);
  // ObserveEnd with a status-only result; returns `st`.
  Status EndWith(Status st);
  // Emits the LP event. `created` carries the concrete inum allocated by a
  // successful ins.
  void ObserveLp(Inum created = kInvalidInum);

  Options opts_;
  // Declared before root_: its destructor frees the limbo list after the
  // tree is torn down.
  Reclaimer reclaimer_;
  std::unique_ptr<Inode> root_;
  std::atomic<Inum> next_inum_{kRootInum + 1};
  std::atomic<uint64_t> inode_count_{1};
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_CORE_ATOM_FS_H_
