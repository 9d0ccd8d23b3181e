// CRL-H ghost state (paper §3.4, §4.3, §5.2).
//
// The ghost state gives the helper mechanism the global information that the
// concrete file system lacks: a thread pool mapping each in-flight thread to
// a Descriptor holding its intended abstract operation (AopState), the
// LockPath(s) it has locked through from the root (a pair SrcPath/DestPath
// for rename), the Effect of its Aop if it has been helped, and the
// FutLockPath of locks it will still acquire; plus the Helplist recording
// the abstract execution order of helped threads.
//
// This header also implements the *linearize-before relation* and the
// helping-set/helping-order computation used by `linothers` (paper Fig. 5):
//   Step-1 (Init): every thread whose LockPath contains the rename's SrcPath
//     as a prefix joins the HelpSet (SrcPrefix relation = direct path
//     inter-dependency).
//   Step-2 (Recursive search): the HelpSet is closed under the
//     LockPathPrefix relation (recursive path inter-dependency, Fig. 4(c)).
// The helping order is any total order of the HelpSet satisfying all
// linearize-before constraints; None is returned if the constraints are
// cyclic, which would violate the Lockpath-wellformed invariant.

#ifndef ATOMFS_SRC_CRLH_GHOST_H_
#define ATOMFS_SRC_CRLH_GHOST_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/afs/op.h"
#include "src/crlh/effects.h"
#include "src/obs/sink.h"
#include "src/util/tid.h"
#include "src/vfs/filesystem.h"

namespace atomfs {

// Ghost inode numbers for abstract creations performed ahead of the concrete
// execution (helped ins). They are remapped to the concrete inum once the
// helped operation reaches its own concrete LP.
inline constexpr Inum kGhostInumBase = 1ULL << 62;

// A sequence of inode numbers locked through from the root, *including*
// locks that have since been released (paper §4.3).
struct LockPath {
  std::vector<Inum> inos;

  bool empty() const { return inos.empty(); }

  // True if this LockPath is a (non-strict) prefix of `other`.
  bool IsPrefixOf(const LockPath& other) const;
  // True if this LockPath is a strict prefix of `other`.
  bool IsStrictPrefixOf(const LockPath& other) const;

  std::string ToString() const;
};

// The paper's AopState: (aop, args) = pending, (end, ret) = helped; the
// entry is conceptually cleared when the op passes its own LP.
enum class AopState : uint8_t {
  kPending,  // abstract operation not yet executed
  kHelped,   // executed by a helper; holds (end, ret)
  kDone,     // passed its own LP (entry cleared)
};

// Per-thread ghost descriptor (paper §4.3 / §5.2: LockPath, Effect,
// FutLockPath, plus bookkeeping for the checkers).
struct Descriptor {
  OpCall call;
  AopState state = AopState::kPending;

  // LockPaths. Non-rename ops use `path`; rename uses the pair, whose shared
  // section (up to the last common inode) appears in both.
  LockPath path;
  LockPath src_path;
  LockPath dst_path;

  // Set when helped: the abstract result (the "ret" of (end, ret)), the
  // effect for the roll-back relation, the locks the thread will still
  // acquire, and which thread helped it.
  OpResult abs_result;
  std::vector<InodeEffect> effects;
  std::deque<Inum> fut_lock_path;
  bool fut_tracked = false;  // fut_lock_path is authoritative (single-path ops)
  Tid helper = 0;

  // Ghost inum allocated for an abstract creation ahead of the concrete one.
  Inum placeholder = kInvalidInum;

  // Currently held inode locks (for the Last-locked-lockpath invariant and
  // the relaxed consistency mapping).
  std::vector<Inum> held;

  // Optimistic (RCU-walk) attempts: `optimistic` marks a thread currently on
  // the lock-free path (it legitimately bypasses lock coupling, so the
  // non-bypassable and Last-locked-lockpath invariants do not apply and it
  // is never a helping candidate — validation, not helping, covers it);
  // `opt_validated` records that its version-chain validation passed, which
  // the Opt-validation invariant requires at a read's LP and at a
  // mutator's adoption. An adopted mutator is no longer `optimistic`: its
  // validated chain is its LockPath, as if it had lock-coupled to its end.
  bool optimistic = false;
  bool opt_validated = false;

  // Sharded namespace (docs/SHARDING.md): which shard's inum space the
  // LockPaths above live in, and — when nonzero — the cross-shard migration
  // this thread is participating in (driving it, or routed into its
  // footprint and therefore obliged to help complete it). LockPath prefix
  // containment is only meaningful between descriptors of the same shard;
  // a shared migration_id is the one cross-shard linearize-before edge.
  uint32_t shard = 0;
  uint64_t migration_id = 0;

  bool lp_passed = false;
  bool has_abs_result = false;
  uint64_t begin_seq = 0;
  uint64_t lp_seq = 0;
  uint64_t abs_seq = 0;  // ghost time when the abstract op executed

  // All LockPaths of this descriptor (1 or 2 entries).
  std::vector<const LockPath*> LockPaths() const;
};

// True for operations that run the helper at their LP (they may break other
// threads' traversed paths): rename, and the exchange extension.
bool IsHelperOp(OpKind kind);

// The LockPaths whose integrity this op's Aop destroys when it commits: the
// SrcPath for rename (the destination only gains an entry), both paths for
// exchange.
std::vector<const LockPath*> BreakingPaths(const Descriptor& d);

// linearize-before: `before` must precede `after` in any legal sequential
// history, because some LockPath of `after` is a strict prefix of some
// LockPath of `before` (the deeper thread already traversed through the
// point the shallower one will mutate). Descriptors of different shards
// have disjoint inum spaces, so the prefix relation is only evaluated
// within a shard; across shards the single edge is a shared migration: an
// op routed into cross-shard migration M's footprint linearizes before the
// helper op driving M (its route is what M's detach breaks).
bool LinearizeBefore(const Descriptor& before, const Descriptor& after);

// The helping set and order for `renamer` (must be a pending rename in
// `pool`). Only pending (unhelped, pre-LP) threads other than the renamer
// are candidates. Returns std::nullopt on a cyclic constraint graph.
// When `reasons` is non-null it receives, for every member of the helping
// set, whether it joined in Step-1 (HelpReason::kSrcPrefix — the helper's
// breaking path is a prefix of its LockPath), in the Step-2 closure
// (HelpReason::kLockPathPrefix), or because it shares the renamer's
// nonzero migration_id (HelpReason::kCrossShard — it was routed into the
// cross-shard migration's footprint, possibly on a different shard).
std::optional<std::vector<Tid>> ComputeHelpOrder(Tid renamer,
                                                 const std::map<Tid, Descriptor>& pool,
                                                 std::map<Tid, HelpReason>* reasons = nullptr);

}  // namespace atomfs

#endif  // ATOMFS_SRC_CRLH_GHOST_H_
