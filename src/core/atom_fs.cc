#include "src/core/atom_fs.h"

#include <algorithm>
#include <deque>

#include "src/util/check.h"

namespace atomfs {
namespace {

// Longest common prefix length of two component lists.
size_t CommonPrefixLen(const std::vector<std::string>& a, const std::vector<std::string>& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) {
    ++i;
  }
  return i;
}

}  // namespace

AtomFs::AtomFs() : AtomFs(Options{}) {}

AtomFs::AtomFs(Options options) : opts_(std::move(options)) {
  ATOMFS_CHECK(opts_.executor != nullptr);
  root_ = std::make_unique<Inode>(kRootInum, FileType::kDir, opts_.executor->CreateLock(),
                                  reclaimer_);
}

AtomFs::~AtomFs() {
  // Iterative teardown: a deep directory chain must not recurse through
  // nested unique_ptr destructors.
  std::deque<std::unique_ptr<Inode>> work;
  work.push_back(std::move(root_));
  while (!work.empty()) {
    std::unique_ptr<Inode> node = std::move(work.front());
    work.pop_front();
    if (node != nullptr && node->type == FileType::kDir) {
      for (auto& child : node->dir.TakeAll()) {
        work.push_back(std::move(child));
      }
    }
  }
}

// --- Observation plumbing ---------------------------------------------------
//
// An op's OpCall and OpResult are built only for an attached observer, so
// an unobserved op copies no path, write payload, read bytes or entries.

template <typename MakeCall>
void AtomFs::ObserveBegin(MakeCall&& make_call) {
  opts_.executor->Work(opts_.costs.op_base_ns);
  if (opts_.observer != nullptr) {
    opts_.observer->OnOpBegin(CurrentTid(), make_call());
  }
}

template <typename MakeResult>
void AtomFs::ObserveEnd(MakeResult&& make_result) {
  // Every op ends here with no lock held, so this is where what earlier
  // unlinks retired gets freed, never under a hot directory lock.
  reclaimer_.ScanIfDue();
  if (opts_.observer != nullptr) {
    opts_.observer->OnOpEnd(CurrentTid(), make_result());
  }
}

Status AtomFs::EndWith(Status st) {
  ObserveEnd([st] {
    OpResult r;
    r.status = st;
    return r;
  });
  return st;
}

void AtomFs::ObserveLp(Inum created) {
  if (opts_.observer != nullptr) {
    opts_.observer->OnLp(CurrentTid(), created);
  }
}

void AtomFs::LockInode(Inode* node, LockPathRole role) {
  if (opts_.disable_inode_locks) {
    return;
  }
  node->lock->Lock();
  node->held.store(true, std::memory_order_relaxed);
  if (opts_.observer != nullptr) {
    opts_.observer->OnLockAcquired(CurrentTid(), node->ino, role);
  }
}

void AtomFs::UnlockInode(Inode* node) {
  if (opts_.disable_inode_locks) {
    return;
  }
  // Release first, then report: a ghost LockPath is append-only (releases do
  // not shrink it), so the ghost state needs no atomicity with the unlock —
  // and observers that park threads at release events (GateObserver) then
  // park them *after* the lock is actually free, which is what the paper's
  // interleavings require.
  const Inum ino = node->ino;
  node->held.store(false, std::memory_order_relaxed);
  node->lock->Unlock();
  if (opts_.observer != nullptr) {
    opts_.observer->OnLockReleased(CurrentTid(), ino);
  }
}

void AtomFs::UnlockAll(const std::vector<Inode*>& nodes) {
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    UnlockInode(*it);
  }
}

Inode* AtomFs::LookupCharged(Inode* dir, const std::string& name) {
  size_t probes = 0;
  Inode* child = dir->dir.Find(name, &probes);
  opts_.executor->Work(opts_.costs.lookup_ns + opts_.costs.lookup_probe_ns * probes);
  return child;
}

// --- Inode lifecycle --------------------------------------------------------

std::unique_ptr<Inode> AtomFs::NewInode(FileType type) {
  opts_.executor->Work(opts_.costs.inode_alloc_ns);
  inode_count_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<Inode>(next_inum_.fetch_add(1, std::memory_order_relaxed), type,
                                 opts_.executor->CreateLock(), reclaimer_);
}

void AtomFs::FreeUnlinked(std::unique_ptr<Inode> node) {
  inode_count_.fetch_sub(1, std::memory_order_relaxed);
  // Hand the inum back unless a later NewInode took the next one, so a
  // failed create leaves no gap in the numbers one thread sees.
  Inum next = node->ino + 1;
  next_inum_.compare_exchange_strong(next, node->ino, std::memory_order_relaxed);
}

void AtomFs::DisposeInode(std::unique_ptr<Inode> node) {
  opts_.executor->Work(opts_.costs.inode_free_ns);
  inode_count_.fetch_sub(1, std::memory_order_relaxed);
  // An optimistic reader may still hold a pointer to `node`, so the inode
  // is freed only after every reader pinned before the unlink has left. Its
  // file blocks go now, outside every lock: such a reader fails validation
  // (the unlink ticked the version under the node's lock) before it touches
  // data. Under unsafe_release_before_lock a bypassing op may still write
  // them, so there they wait with the inode. rmdir only removes empty
  // directories and unlink only files, so `node` has no children and its
  // destruction cannot recurse.
  if (!opts_.unsafe_release_before_lock) {
    node->data.Truncate(0);
  }
  reclaimer_.Retire(node.release());
}

// --- Traversal --------------------------------------------------------------

Result<Inode*> AtomFs::TraverseLocked(const std::vector<std::string>& parts, size_t count,
                                      LockPathRole role) {
  Inode* cur = root_.get();
  LockInode(cur, role);
  for (size_t i = 0; i < count; ++i) {
    if (cur->type != FileType::kDir) {
      ObserveLp();
      UnlockInode(cur);
      return Errc::kNotDir;
    }
    Inode* child = LookupCharged(cur, parts[i]);
    if (child == nullptr) {
      ObserveLp();
      UnlockInode(cur);
      return Errc::kNoEnt;
    }
    if (opts_.unsafe_release_before_lock) {
      UnlockInode(cur);
      LockInode(child, role);
    } else {
      // Lock coupling: child first, then release the parent.
      LockInode(child, role);
      UnlockInode(cur);
    }
    cur = child;
  }
  return cur;
}

// --- optimistic (RCU) walk ---------------------------------------------------
//
// The normative protocol lives in docs/CONCURRENCY.md §3-5. Summary: a
// namespace writer flips every affected node's seqlock version odd (relaxed
// store, sequenced before its release-published chain mutations) while
// holding that node's lock, mutates, then release-stores the new even value.
// The optimistic reader records (node, version) pairs on the way down with
// acquire loads, locks ONLY the target, and revalidates the whole chain.
// Because versions are written exclusively under the owning node's lock, any
// mutation that could make the resolution stale either (a) completed before
// the reader locked the target — then the lock acquisition's happens-before
// edge makes the bumped version visible and validation fails — or (b) has
// not yet locked the nodes it will mutate, in which case the read is still
// live and linearizes at the validation instant.

void AtomFs::VersionBumpOpen(Inode* node) {
  // Relaxed is enough: this store is sequenced before the release stores
  // that publish the chain mutation, so a reader that acquires a mutated
  // chain pointer also observes the odd version.
  node->version.store(node->version.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
}

void AtomFs::VersionBumpClose(Inode* node) {
  node->version.store(node->version.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
}

void AtomFs::VersionTick(Inode* node) {
  node->version.fetch_add(2, std::memory_order_release);
}

Result<Inode*> AtomFs::OptimisticAttempt(const Path& path, size_t count, WalkFor walk) {
  // Everything this attempt reads lock-free stays allocated until it
  // returns. A node returned locked cannot be unlinked while we hold it.
  const EpochPin pin;
  if (opts_.observer != nullptr) {
    opts_.observer->OnOptWalkStart(CurrentTid());
  }
  // The (node, version) chain lives on the stack; only a path deeper than
  // kInlineChain components spills it to the heap.
  struct Rec {
    Inode* node;
    uint64_t version;
  };
  constexpr size_t kInlineChain = 16;
  Rec inline_chain[kInlineChain];
  std::unique_ptr<Rec[]> spilled;
  Rec* chain = inline_chain;
  if (count + 1 > kInlineChain) {
    spilled = std::make_unique<Rec[]>(count + 1);
    chain = spilled.get();
  }
  uint32_t depth = 0;
  auto fail = [&]() -> Inode* {
    if (opts_.observer != nullptr) {
      opts_.observer->OnOptWalkValidate(CurrentTid(), OptValidation::kFail, depth);
    }
    return nullptr;
  };
  Inode* cur = root_.get();
  const std::string* missed = nullptr;  // the component a lookup missed in `cur`
  for (size_t i = 0; i < count; ++i) {
    const uint64_t v = cur->version.load(std::memory_order_acquire);
    if ((v & 1) != 0) {
      return fail();  // mutation in flight on this node
    }
    chain[depth++] = {cur, v};
    if (cur->type != FileType::kDir) {
      // Only the locked walk may decide ENOTDIR: what we saw may be a
      // transient state of a concurrent mutation.
      return fail();
    }
    Inode* child = cur->dir.FindOptimistic(path.parts[i]);
    opts_.executor->Work(opts_.costs.lookup_ns);
    if (child == nullptr) {
      missed = &path.parts[i];
      break;
    }
    cur = child;
  }
  if (missed == nullptr) {
    const uint64_t tv = cur->version.load(std::memory_order_acquire);
    if ((tv & 1) != 0) {
      return fail();
    }
    chain[depth++] = {cur, tv};
  }
  // The only lock of the whole walk: the last node's or, after a miss, that
  // of the directory that missed, where the locked walk would decide
  // ENOENT. Taken before validation so its version is stable while we
  // check (versions are written only under the owning node's lock) and the
  // subsequent access is as race-free as in the lock-coupled walk.
  LockInode(cur, LockPathRole::kOptTarget);
  auto chain_current = [chain, depth, cur] {
    return std::all_of(chain, chain + depth, [cur](const Rec& r) {
      return r.node->version.load(std::memory_order_acquire) == r.version &&
             (r.node == cur || !r.node->held.load(std::memory_order_acquire));
    });
  };
  const bool skip = opts_.unsafe_skip_opt_validation;
  // After a miss the re-lookup under the lock is what decides ENOENT; a
  // current chain guarantees it misses too.
  if (!skip &&
      (!chain_current() || (missed != nullptr && cur->dir.Find(*missed) != nullptr))) {
    fail();
    UnlockInode(cur);
    return static_cast<Inode*>(nullptr);
  }
  // A miss decides ENOENT under the lock of the directory that missed, as
  // the locked walk does: the LP is observed first, then the lock goes.
  auto decided = [this, cur, missed]() -> Result<Inode*> {
    if (missed == nullptr) {
      return cur;
    }
    UnlockInode(cur);
    return Errc::kNoEnt;
  };
  if (opts_.observer == nullptr) {
    return decided();
  }
  opts_.observer->OnOptWalkValidate(CurrentTid(),
                                    skip ? OptValidation::kSkipped : OptValidation::kPass, depth);
  if (walk == WalkFor::kRead) {
    // The read linearizes at the validation above, but an observer records
    // that LP only now; a mutation of the chain may have recorded its own
    // LP in between. Every mutation bumps its versions before its LP, so a
    // chain that is still current after our LP rules that out; otherwise
    // withdraw the LP and retry (docs/CONCURRENCY.md §5).
    ObserveLp();
    if (!skip && !chain_current()) {
      opts_.observer->OnOptWalkRetract(CurrentTid());
      UnlockInode(cur);
      return static_cast<Inode*>(nullptr);
    }
    return decided();
  }
  // A mutator is adopted as a lock-coupled arrival at `cur`: from here on
  // a rename that breaks its chain helps it. The observer re-checks the
  // chain inside the adoption, so no rename LP can fall between the check
  // and the adoption (docs/CONCURRENCY.md §5).
  std::vector<Inum> inums(depth);
  std::transform(chain, chain + depth, inums.begin(), [](const Rec& r) { return r.node->ino; });
  if (!opts_.observer->OnOptWalkAdopt(CurrentTid(), inums,
                                      [&] { return skip || chain_current(); })) {
    UnlockInode(cur);
    return static_cast<Inode*>(nullptr);
  }
  if (missed != nullptr) {
    ObserveLp();
  }
  return decided();
}

Result<Inode*> AtomFs::Resolve(const Path& path, size_t count, WalkFor walk,
                               bool* linearized) {
  // Without inode locks there is nothing to validate under, and a mutator
  // under unsafe_release_before_lock keeps the uncoupled walk that hook
  // demonstrates.
  if (!opts_.disable_inode_locks &&
      (walk == WalkFor::kRead || !opts_.unsafe_release_before_lock)) {
    for (uint32_t attempt = 0; attempt < kRcuWalkAttempts; ++attempt) {
      auto decided = OptimisticAttempt(path, count, walk);
      if (!decided.ok() || *decided != nullptr) {
        if (linearized != nullptr) {
          *linearized = true;
        }
        if (walk == WalkFor::kMutate && decided.ok()) {
          // An adopted mutator is a pending, helpable op until its LP; let
          // a simulated schedule run a rename in that window.
          opts_.executor->Preempt();
        }
        return decided;
      }
    }
    if (opts_.observer != nullptr) {
      opts_.observer->OnOptWalkFallback(CurrentTid());
    }
  }
  return TraverseLocked(path.parts, count, LockPathRole::kSingle);
}

// --- ins / del --------------------------------------------------------------

Status AtomFs::Mkdir(const Path& path) { return Insert(path, FileType::kDir); }
Status AtomFs::Mknod(const Path& path) { return Insert(path, FileType::kFile); }
Status AtomFs::Rmdir(const Path& path) { return Delete(path, FileType::kDir); }
Status AtomFs::Unlink(const Path& path) { return Delete(path, FileType::kFile); }

Status AtomFs::Insert(const Path& path, FileType type) {
  const EpochPin pin(opts_.unsafe_release_before_lock);
  ObserveBegin([&] {
    return type == FileType::kDir ? OpCall::MkdirOf(path) : OpCall::MknodOf(path);
  });
  if (path.IsRoot()) {
    ObserveLp();
    return EndWith(Status(Errc::kExist));
  }
  // The inode and its entry shell are built before the parent is locked, so
  // the directory lock covers only the link (docs/CONCURRENCY.md §4). No
  // reader can reach them before the link: a failed create frees them here.
  std::unique_ptr<Inode> fresh = NewInode(type);
  const Inum created = fresh->ino;
  DirTable::Shell shell = DirTable::NewShell(path.Base(), std::move(fresh));
  auto finish = [&](Status st) {
    if (!st.ok()) {
      FreeUnlinked(shell.TakeChild());
    }
    return EndWith(st);
  };
  auto parent = Resolve(path, path.parts.size() - 1, WalkFor::kMutate);
  if (!parent.ok()) {
    return finish(parent.status());  // failure LP already emitted
  }
  Inode* dir = *parent;
  if (dir->type != FileType::kDir) {
    ObserveLp();
    UnlockInode(dir);
    return finish(Status(Errc::kNotDir));
  }
  if (LookupCharged(dir, path.Base()) != nullptr) {
    ObserveLp();
    UnlockInode(dir);
    return finish(Status(Errc::kExist));
  }
  if (opts_.inject_alloc_failure && opts_.inject_alloc_failure()) {
    ObserveLp();
    UnlockInode(dir);
    return finish(Status(Errc::kNoSpace));
  }
  VersionBumpOpen(dir);
  opts_.executor->Work(opts_.costs.dir_insert_ns);
  ATOMFS_CHECK(dir->dir.Link(shell));
  VersionBumpClose(dir);
  ObserveLp(created);
  UnlockInode(dir);
  return finish(Status::Ok());
}

Status AtomFs::Delete(const Path& path, FileType type) {
  const EpochPin pin(opts_.unsafe_release_before_lock);
  ObserveBegin([&] {
    return type == FileType::kDir ? OpCall::RmdirOf(path) : OpCall::UnlinkOf(path);
  });
  if (path.IsRoot()) {
    ObserveLp();
    return EndWith(Status(type == FileType::kDir ? Errc::kBusy : Errc::kIsDir));
  }
  auto parent = Resolve(path, path.parts.size() - 1, WalkFor::kMutate);
  if (!parent.ok()) {
    return EndWith(parent.status());
  }
  Inode* dir = *parent;
  if (dir->type != FileType::kDir) {
    ObserveLp();
    UnlockInode(dir);
    return EndWith(Status(Errc::kNotDir));
  }
  Inode* child = LookupCharged(dir, path.Base());
  if (child == nullptr) {
    ObserveLp();
    UnlockInode(dir);
    return EndWith(Status(Errc::kNoEnt));
  }
  LockInode(child, LockPathRole::kSingle);
  Errc err = Errc::kOk;
  if (type == FileType::kDir) {
    if (child->type != FileType::kDir) {
      err = Errc::kNotDir;
    } else if (!child->dir.empty()) {
      err = Errc::kNotEmpty;
    }
  } else {
    if (child->type == FileType::kDir) {
      err = Errc::kIsDir;
    }
  }
  if (err != Errc::kOk) {
    ObserveLp();
    UnlockInode(child);
    UnlockInode(dir);
    return EndWith(Status(err));
  }
  VersionBumpOpen(dir);
  opts_.executor->Work(opts_.costs.dir_remove_ns);
  DirTable::Shell unlinked = dir->dir.Unlink(path.Base());
  VersionBumpClose(dir);
  ATOMFS_CHECK(unlinked);
  // The removed node's own version also moves, so a reader that still
  // reaches it (through a retired chain shell) cannot validate against a
  // pre-removal recording.
  VersionTick(child);
  ObserveLp();
  UnlockInode(child);
  UnlockInode(dir);
  DisposeInode(unlinked.TakeChild());
  std::move(unlinked).Retire(reclaimer_);
  return EndWith(Status::Ok());
}

// --- rename -----------------------------------------------------------------

Status AtomFs::Rename(const Path& src, const Path& dst) {
  const EpochPin pin(opts_.unsafe_release_before_lock);
  ObserveBegin([&] { return OpCall::RenameOf(src, dst); });

  // Lexical prechecks, in the same order as the abstract specification.
  if (src.IsRoot() || dst.IsRoot()) {
    ObserveLp();
    return EndWith(Status(Errc::kBusy));
  }
  if (src.IsPrefixOf(dst) && src != dst) {
    ObserveLp();
    return EndWith(Status(Errc::kInval));
  }
  // dst strictly above src: the destination inode, if everything resolves,
  // is an ancestor directory of the source parent. We must not lock an
  // ancestor after its descendant (lock order is strictly top-down), so this
  // case is decided without ever locking the destination inode: it is
  // necessarily a non-empty directory.
  const bool dst_above_src = dst.IsPrefixOf(src) && dst != src;

  const Path sparent = src.Dir();
  const Path dparent = dst.Dir();
  const size_t common = CommonPrefixLen(sparent.parts, dparent.parts);

  std::vector<Inode*> held;  // in acquisition order
  auto fail_all = [&](Errc code) {
    ObserveLp();
    UnlockAll(held);
    return EndWith(Status(code));
  };

  // Phase 1: lock-coupled traversal of the common prefix of the two parent
  // paths, charged to both ghost LockPaths.
  auto lca = TraverseLocked(sparent.parts, common, LockPathRole::kRenameCommon);
  if (!lca.ok()) {
    return EndWith(lca.status());
  }
  Inode* base = *lca;
  held.push_back(base);

  // Phase 2/3: descend each branch while keeping the last common inode
  // locked; its lock is released only after both parents are held (§5.2).
  auto descend = [&](const Path& parent_path, LockPathRole role) -> Result<Inode*> {
    Inode* cur = base;
    for (size_t i = common; i < parent_path.parts.size(); ++i) {
      if (cur->type != FileType::kDir) {
        return Errc::kNotDir;
      }
      Inode* child = LookupCharged(cur, parent_path.parts[i]);
      if (child == nullptr) {
        return Errc::kNoEnt;
      }
      LockInode(child, role);
      if (cur != base) {
        UnlockInode(cur);
        std::erase(held, cur);
      }
      held.push_back(child);
      cur = child;
    }
    return cur;
  };

  auto sres = descend(sparent, LockPathRole::kRenameSrc);
  if (!sres.ok()) {
    return fail_all(sres.status().code());
  }
  Inode* sdir = *sres;
  // Source-parent checks come before any destination resolution, matching
  // the specification's error precedence.
  if (sdir->type != FileType::kDir) {
    return fail_all(Errc::kNotDir);
  }
  auto dres = descend(dparent, LockPathRole::kRenameDst);
  if (!dres.ok()) {
    return fail_all(dres.status().code());
  }
  Inode* ddir = *dres;
  if (ddir->type != FileType::kDir) {
    return fail_all(Errc::kNotDir);
  }

  // Release the last common inode once both parents are locked.
  if (base != sdir && base != ddir) {
    UnlockInode(base);
    std::erase(held, base);
  }

  // Lookups and semantic checks, mirroring SpecFs::Rename's order.
  Inode* snode = LookupCharged(sdir, src.Base());
  if (snode == nullptr) {
    return fail_all(Errc::kNoEnt);
  }
  if (src == dst) {
    ObserveLp();
    UnlockAll(held);
    return EndWith(Status::Ok());
  }
  if (dst_above_src) {
    // See above: destination resolves to a directory on src's own path.
    return fail_all(snode->type == FileType::kFile ? Errc::kIsDir : Errc::kNotEmpty);
  }
  Inode* dnode = LookupCharged(ddir, dst.Base());
  if (dnode != nullptr) {
    // `type` is immutable, so these checks need no lock.
    if (snode->type == FileType::kDir && dnode->type != FileType::kDir) {
      return fail_all(Errc::kNotDir);
    }
    if (snode->type != FileType::kDir && dnode->type == FileType::kDir) {
      return fail_all(Errc::kIsDir);
    }
    LockInode(dnode, LockPathRole::kRenameDst);
    held.push_back(dnode);
    if (dnode->type == FileType::kDir && !dnode->dir.empty()) {
      return fail_all(Errc::kNotEmpty);
    }
  }
  LockInode(snode, LockPathRole::kRenameSrc);
  held.push_back(snode);

  // Seqlock open on each distinct parent exactly once (two opens on the same
  // node would close back to an odd value).
  VersionBumpOpen(sdir);
  if (ddir != sdir) {
    VersionBumpOpen(ddir);
  }
  // Unlinked shells are retired after the unlock.
  DirTable::Shell displaced;
  if (dnode != nullptr) {
    opts_.executor->Work(opts_.costs.dir_remove_ns);
    displaced = ddir->dir.Unlink(dst.Base());
    ATOMFS_CHECK(displaced);
  }
  opts_.executor->Work(opts_.costs.dir_remove_ns);
  DirTable::Shell moved = sdir->dir.Unlink(src.Base());
  ATOMFS_CHECK(moved);
  opts_.executor->Work(opts_.costs.dir_insert_ns);
  ATOMFS_CHECK(ddir->dir.Insert(dst.Base(), moved.TakeChild()));
  VersionTick(snode);  // the moved node's identity-path changed (lock held)
  if (dnode != nullptr) {
    VersionTick(dnode);  // the displaced node left the namespace (lock held)
  }
  if (ddir != sdir) {
    VersionBumpClose(ddir);
  }
  VersionBumpClose(sdir);

  // The rename LP: the CRL-H helper (linothers) runs inside this event, then
  // the rename's own abstract operation executes.
  ObserveLp();
  UnlockAll(held);
  std::move(moved).Retire(reclaimer_);
  if (displaced) {
    DisposeInode(displaced.TakeChild());
    std::move(displaced).Retire(reclaimer_);
  }
  return EndWith(Status::Ok());
}

Status AtomFs::Exchange(const Path& a, const Path& b) {
  const EpochPin pin(opts_.unsafe_release_before_lock);
  ObserveBegin([&] { return OpCall::ExchangeOf(a, b); });

  // Lexical prechecks, in the same order as the abstract specification.
  if (a.IsRoot() || b.IsRoot()) {
    ObserveLp();
    return EndWith(Status(Errc::kBusy));
  }
  if ((a.IsPrefixOf(b) || b.IsPrefixOf(a)) && a != b) {
    ObserveLp();
    return EndWith(Status(Errc::kInval));
  }

  const Path aparent = a.Dir();
  const Path bparent = b.Dir();
  const size_t common = CommonPrefixLen(aparent.parts, bparent.parts);

  std::vector<Inode*> held;
  auto fail_all = [&](Errc code) {
    ObserveLp();
    UnlockAll(held);
    return EndWith(Status(code));
  };

  // Same locking discipline as rename: lock-coupled common prefix, then both
  // branches while the last common inode stays locked (Sec. 5.2). Ghost-wise
  // the a-side extends the "src" LockPath and the b-side the "dst" one; the
  // helper treats *both* as breaking paths for an exchange.
  auto lca = TraverseLocked(aparent.parts, common, LockPathRole::kRenameCommon);
  if (!lca.ok()) {
    return EndWith(lca.status());
  }
  Inode* base = *lca;
  held.push_back(base);

  auto descend = [&](const Path& parent_path, LockPathRole role) -> Result<Inode*> {
    Inode* cur = base;
    for (size_t i = common; i < parent_path.parts.size(); ++i) {
      if (cur->type != FileType::kDir) {
        return Errc::kNotDir;
      }
      Inode* child = LookupCharged(cur, parent_path.parts[i]);
      if (child == nullptr) {
        return Errc::kNoEnt;
      }
      LockInode(child, role);
      if (cur != base) {
        UnlockInode(cur);
        std::erase(held, cur);
      }
      held.push_back(child);
      cur = child;
    }
    return cur;
  };

  auto ares = descend(aparent, LockPathRole::kRenameSrc);
  if (!ares.ok()) {
    return fail_all(ares.status().code());
  }
  Inode* adir = *ares;
  if (adir->type != FileType::kDir) {
    return fail_all(Errc::kNotDir);
  }
  auto bres = descend(bparent, LockPathRole::kRenameDst);
  if (!bres.ok()) {
    return fail_all(bres.status().code());
  }
  Inode* bdir = *bres;
  if (bdir->type != FileType::kDir) {
    return fail_all(Errc::kNotDir);
  }
  if (base != adir && base != bdir) {
    UnlockInode(base);
    std::erase(held, base);
  }

  Inode* anode = LookupCharged(adir, a.Base());
  if (anode == nullptr) {
    return fail_all(Errc::kNoEnt);
  }
  if (a == b) {
    ObserveLp();
    UnlockAll(held);
    return EndWith(Status::Ok());
  }
  Inode* bnode = LookupCharged(bdir, b.Base());
  if (bnode == nullptr) {
    return fail_all(Errc::kNoEnt);
  }
  // The prechecks rule out any ancestor relation between the two nodes, so a
  // fixed a-then-b order cannot deadlock: both are children of directories
  // this thread already holds.
  LockInode(anode, LockPathRole::kRenameSrc);
  held.push_back(anode);
  LockInode(bnode, LockPathRole::kRenameDst);
  held.push_back(bnode);

  opts_.executor->Work(2 * (opts_.costs.dir_remove_ns + opts_.costs.dir_insert_ns));
  VersionBumpOpen(adir);
  if (bdir != adir) {
    VersionBumpOpen(bdir);
  }
  // Unlinked shells are retired after the unlock.
  DirTable::Shell shell_a = adir->dir.Unlink(a.Base());
  DirTable::Shell shell_b = bdir->dir.Unlink(b.Base());
  ATOMFS_CHECK(shell_a && shell_b);
  ATOMFS_CHECK(adir->dir.Insert(a.Base(), shell_b.TakeChild()));
  ATOMFS_CHECK(bdir->dir.Insert(b.Base(), shell_a.TakeChild()));
  VersionTick(anode);  // both swapped nodes sit on new identity-paths
  VersionTick(bnode);
  if (bdir != adir) {
    VersionBumpClose(bdir);
  }
  VersionBumpClose(adir);

  // The exchange LP: like rename, the helper runs here first.
  ObserveLp();
  UnlockAll(held);
  std::move(shell_a).Retire(reclaimer_);
  std::move(shell_b).Retire(reclaimer_);
  return EndWith(Status::Ok());
}

// --- read-side and data operations -------------------------------------------

Result<Attr> AtomFs::Stat(const Path& path) {
  const EpochPin pin(opts_.unsafe_release_before_lock);
  ObserveBegin([&] { return OpCall::StatOf(path); });
  bool linearized = false;  // an optimistic read's LP is its validation
  auto target = Resolve(path, path.parts.size(), WalkFor::kRead, &linearized);
  if (!target.ok()) {
    return EndWith(target.status());
  }
  Inode* node = *target;
  opts_.executor->Work(opts_.costs.stat_ns);
  Attr attr;
  attr.ino = node->ino;
  attr.type = node->type;
  attr.size = node->type == FileType::kDir ? node->dir.size() : node->data.size();
  if (!linearized) {
    ObserveLp();
  }
  UnlockInode(node);
  ObserveEnd([&] {
    OpResult r;
    r.attr = attr;
    return r;
  });
  return attr;
}

Result<std::vector<DirEntry>> AtomFs::ReadDir(const Path& path) {
  const EpochPin pin(opts_.unsafe_release_before_lock);
  ObserveBegin([&] { return OpCall::ReadDirOf(path); });
  bool linearized = false;  // an optimistic read's LP is its validation
  auto target = Resolve(path, path.parts.size(), WalkFor::kRead, &linearized);
  if (!target.ok()) {
    return EndWith(target.status());
  }
  Inode* node = *target;
  if (node->type != FileType::kDir) {
    if (!linearized) {
      ObserveLp();
    }
    UnlockInode(node);
    return EndWith(Status(Errc::kNotDir));
  }
  std::vector<DirEntry> entries;
  entries.reserve(node->dir.size());
  node->dir.ForEach([&entries](const std::string& name, const Inode* child) {
    entries.push_back(DirEntry{name, child->ino, child->type});
  });
  opts_.executor->Work(opts_.costs.readdir_entry_ns * (entries.size() + 1));
  if (!linearized) {
    ObserveLp();
  }
  UnlockInode(node);
  // The copy is this op's own, so it is sorted outside the lock.
  std::sort(entries.begin(), entries.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
  ObserveEnd([&] {
    OpResult r;
    r.entries = entries;
    return r;
  });
  return entries;
}

Result<size_t> AtomFs::Read(const Path& path, uint64_t offset, std::span<std::byte> out) {
  const EpochPin pin(opts_.unsafe_release_before_lock);
  ObserveBegin([&] { return OpCall::ReadOf(path, offset, out.size()); });
  bool linearized = false;  // an optimistic read's LP is its validation
  auto target = Resolve(path, path.parts.size(), WalkFor::kRead, &linearized);
  if (!target.ok()) {
    return EndWith(target.status());
  }
  Inode* node = *target;
  if (node->type != FileType::kFile) {
    if (!linearized) {
      ObserveLp();
    }
    UnlockInode(node);
    return EndWith(Status(Errc::kIsDir));
  }
  const size_t n = node->data.Read(offset, out);
  opts_.executor->Work(opts_.costs.block_copy_ns * (FileData::BlocksSpanned(offset, n) + 1));
  if (!linearized) {
    ObserveLp();
  }
  UnlockInode(node);
  ObserveEnd([&] {
    OpResult r;
    r.nbytes = n;
    r.data.assign(out.begin(), out.begin() + static_cast<ptrdiff_t>(n));
    return r;
  });
  return n;
}

Result<size_t> AtomFs::Write(const Path& path, uint64_t offset,
                             std::span<const std::byte> data) {
  const EpochPin pin(opts_.unsafe_release_before_lock);
  ObserveBegin([&] {
    return OpCall::WriteOf(path, offset, std::vector<std::byte>(data.begin(), data.end()));
  });
  auto target = Resolve(path, path.parts.size(), WalkFor::kMutate);
  if (!target.ok()) {
    return EndWith(target.status());
  }
  Inode* node = *target;
  if (node->type != FileType::kFile) {
    ObserveLp();
    UnlockInode(node);
    return EndWith(Status(Errc::kIsDir));
  }
  auto written = node->data.Write(offset, data);
  opts_.executor->Work(opts_.costs.block_copy_ns *
                       (FileData::BlocksSpanned(offset, data.size()) + 1));
  ObserveLp();
  UnlockInode(node);
  ObserveEnd([&] {
    OpResult r;
    r.status = written.status();
    if (written.ok()) {
      r.nbytes = *written;
    }
    return r;
  });
  return written;
}

Status AtomFs::Truncate(const Path& path, uint64_t size) {
  const EpochPin pin(opts_.unsafe_release_before_lock);
  ObserveBegin([&] { return OpCall::TruncateOf(path, size); });
  auto target = Resolve(path, path.parts.size(), WalkFor::kMutate);
  if (!target.ok()) {
    return EndWith(target.status());
  }
  Inode* node = *target;
  if (node->type != FileType::kFile) {
    ObserveLp();
    UnlockInode(node);
    return EndWith(Status(Errc::kIsDir));
  }
  Status st = node->data.Truncate(size);
  opts_.executor->Work(opts_.costs.block_copy_ns);
  ObserveLp();
  UnlockInode(node);
  return EndWith(st);
}

// --- snapshots ----------------------------------------------------------------

namespace {

void SnapshotInto(const Inode* node, SpecFs& out) {
  SpecInode spec;
  spec.type = node->type;
  if (node->type == FileType::kFile) {
    spec.data = node->data.ToBytes();
  } else {
    node->dir.ForEach([&spec](const std::string& name, const Inode* child) {
      spec.links.emplace(name, child->ino);
    });
  }
  out.imap_mutable()[node->ino] = std::move(spec);
  if (node->type == FileType::kDir) {
    node->dir.ForEach([&out](const std::string&, const Inode* child) {
      SnapshotInto(child, out);
    });
  }
}

}  // namespace

SpecFs AtomFs::SnapshotSpec() const {
  SpecFs out;
  out.imap_mutable().clear();
  SnapshotInto(root_.get(), out);
  return out;
}

}  // namespace atomfs
