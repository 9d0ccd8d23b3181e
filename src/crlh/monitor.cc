#include "src/crlh/monitor.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/util/check.h"

namespace atomfs {
namespace {

// Scratch inum range for the ghost SpecFs's internal allocator; every
// creation is immediately remapped to either the concrete inum (unhelped
// ops) or a ghost placeholder (helped ops), so scratch numbers never
// survive, but they must not collide with either range in the interim.
constexpr Inum kScratchInumBase = 1ULL << 61;

}  // namespace

CrlhMonitor::CrlhMonitor() : CrlhMonitor(Options{}) {}

CrlhMonitor::CrlhMonitor(Options options) : opts_(options) {
  aspec_.SetNextInum(kScratchInumBase);
}

void CrlhMonitor::Violation(std::string message) {
  if (violations_.empty()) {
    first_violation_seq_ = seq_;
  }
  if (opts_.obs != nullptr) {
    opts_.obs->OnViolation(message, seq_);
  }
  violations_.push_back(std::move(message));
}

void CrlhMonitor::ReportInvariantLocked(InvariantKind kind, Tid tid, bool passed) {
  if (opts_.obs != nullptr) {
    opts_.obs->OnInvariantCheck(kind, tid, passed);
  }
}

bool CrlhMonitor::ok() const {
  std::lock_guard<std::mutex> lk(mu_);
  return violations_.empty();
}

std::vector<std::string> CrlhMonitor::violations() const {
  std::lock_guard<std::mutex> lk(mu_);
  return violations_;
}

uint64_t CrlhMonitor::help_events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return help_events_;
}

uint64_t CrlhMonitor::helped_ops() const {
  std::lock_guard<std::mutex> lk(mu_);
  return helped_ops_;
}

std::vector<CrlhMonitor::CompletedRecord> CrlhMonitor::Completed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return completed_;
}

std::optional<CrlhMonitor::PostMortem> CrlhMonitor::PostMortemState() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (violations_.empty()) {
    return std::nullopt;
  }
  PostMortem pm;
  pm.message = violations_.front();
  pm.seq = first_violation_seq_;
  pm.helplist = helplist_;
  pm.pool = pool_;
  pm.history = completed_;
  pm.abstract = aspec_;
  return pm;
}

std::vector<Tid> CrlhMonitor::Helplist() const {
  std::lock_guard<std::mutex> lk(mu_);
  return helplist_;
}

std::optional<Descriptor> CrlhMonitor::GetDescriptor(Tid tid) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = pool_.find(tid);
  if (it == pool_.end()) {
    return std::nullopt;
  }
  return it->second;
}

SpecFs CrlhMonitor::AbstractState() const {
  std::lock_guard<std::mutex> lk(mu_);
  return aspec_;
}

// --- events -----------------------------------------------------------------

void CrlhMonitor::OnOpBegin(Tid tid, const OpCall& call) {
  std::lock_guard<std::mutex> lk(mu_);
  ++seq_;
  if (pool_.count(tid) != 0) {
    Violation("thread " + std::to_string(tid) + " began an op while one is in flight");
    return;
  }
  Descriptor d;
  d.call = call;
  d.shard = opts_.shard_id;
  d.begin_seq = seq_;
  pool_.emplace(tid, std::move(d));
}

void CrlhMonitor::OnLockAcquired(Tid tid, Inum ino, LockPathRole role) {
  std::lock_guard<std::mutex> lk(mu_);
  ++seq_;
  auto it = pool_.find(tid);
  if (it == pool_.end()) {
    Violation("lock acquired by thread " + std::to_string(tid) + " with no op in flight");
    return;
  }
  Descriptor& d = it->second;
  switch (role) {
    case LockPathRole::kSingle:
      d.path.inos.push_back(ino);
      break;
    case LockPathRole::kRenameCommon:
      d.src_path.inos.push_back(ino);
      d.dst_path.inos.push_back(ino);
      break;
    case LockPathRole::kRenameSrc:
      d.src_path.inos.push_back(ino);
      break;
    case LockPathRole::kRenameDst:
      d.dst_path.inos.push_back(ino);
      break;
    case LockPathRole::kOptTarget:
      d.path.inos.push_back(ino);
      break;
  }
  d.held.push_back(ino);

  if (!opts_.check_invariants) {
    return;
  }

  // An optimistic reader bypasses lock coupling by design: it holds no
  // coupled LockPath for a helped op to depend on, so the non-bypassable
  // invariants do not apply to its single target acquisition. Its
  // correctness obligation is the Opt-validation invariant at the LP.
  if (d.optimistic) {
    return;
  }

  // Future-lockpath-validness for this thread: a helped operation must
  // acquire exactly the locks predicted when it was helped.
  if (d.state == AopState::kHelped && d.fut_tracked) {
    const bool predicted = !d.fut_lock_path.empty() && d.fut_lock_path.front() == ino;
    ReportInvariantLocked(InvariantKind::kFutureLockpathValidness, tid, predicted);
    if (!predicted) {
      std::ostringstream os;
      os << "Future-lockpath-validness violated: thread " << tid << " locked " << ino
         << " but FutLockPath predicts "
         << (d.fut_lock_path.empty() ? std::string("<none>")
                                     : std::to_string(d.fut_lock_path.front()));
      Violation(os.str());
    } else {
      d.fut_lock_path.pop_front();
    }
  }

  CheckNonBypassableLocked(tid, d, ino);
}

void CrlhMonitor::CheckNonBypassableLocked(Tid tid, const Descriptor& d, Inum ino) {
  // Non-bypassable invariants: nobody may lock an inode that a (different)
  // helped operation is still predicted to lock — that would mean the helped
  // op is being bypassed and could compute a result inconsistent with its
  // already-published abstract outcome.
  bool bypass_applicable = false;  // some other helped op's FutLockPath is live
  bool bypass_failed = false;
  for (const auto& [otid, od] : pool_) {
    if (otid == tid || od.state != AopState::kHelped || !od.fut_tracked) {
      continue;
    }
    bypass_applicable = true;
    if (std::find(od.fut_lock_path.begin(), od.fut_lock_path.end(), ino) ==
        od.fut_lock_path.end()) {
      continue;
    }
    if (d.state == AopState::kPending) {
      bypass_failed = true;
      std::ostringstream os;
      os << "Unhelped-non-bypassable violated: unhelped thread " << tid << " locked inode "
         << ino << " in FutLockPath of helped thread " << otid;
      Violation(os.str());
    } else if (d.state == AopState::kHelped) {
      const auto self_pos = std::find(helplist_.begin(), helplist_.end(), tid);
      const auto other_pos = std::find(helplist_.begin(), helplist_.end(), otid);
      if (self_pos > other_pos) {
        bypass_failed = true;
        std::ostringstream os;
        os << "Helped-non-bypassable violated: thread " << tid
           << " (helped later) locked inode " << ino << " in FutLockPath of thread " << otid;
        Violation(os.str());
      }
    }
  }
  if (bypass_applicable && d.state != AopState::kDone) {
    ReportInvariantLocked(d.state == AopState::kPending
                              ? InvariantKind::kUnhelpedNonBypassable
                              : InvariantKind::kHelpedNonBypassable,
                          tid, !bypass_failed);
  }
}

void CrlhMonitor::OnLockReleased(Tid tid, Inum ino) {
  std::lock_guard<std::mutex> lk(mu_);
  ++seq_;
  auto it = pool_.find(tid);
  if (it == pool_.end()) {
    Violation("lock released by thread " + std::to_string(tid) + " with no op in flight");
    return;
  }
  Descriptor& d = it->second;
  auto held_it = std::find(d.held.begin(), d.held.end(), ino);
  if (held_it == d.held.end()) {
    Violation("thread " + std::to_string(tid) + " released inode " + std::to_string(ino) +
              " it does not hold");
  } else {
    d.held.erase(held_it);
  }
  if (opts_.check_invariants && !d.lp_passed && !d.optimistic) {
    // Last-locked-lockpath: before its LP, a thread never releases the last
    // inode of a LockPath (lock coupling acquires the next lock first).
    // Exempt for optimistic readers: a failed validation releases the target
    // (its LockPath tip) and retries — that is the protocol, not a bug.
    bool released_tip = false;
    for (const LockPath* lp : d.LockPaths()) {
      if (!lp->inos.empty() && lp->inos.back() == ino) {
        released_tip = true;
        std::ostringstream os;
        os << "Last-locked-lockpath violated: thread " << tid
           << " released the tip of its LockPath " << lp->ToString() << " before its LP";
        Violation(os.str());
      }
    }
    ReportInvariantLocked(InvariantKind::kLastLockedLockpath, tid, !released_tip);
  }
}

void CrlhMonitor::OnOptWalkStart(Tid tid) {
  std::lock_guard<std::mutex> lk(mu_);
  ++seq_;
  auto it = pool_.find(tid);
  if (it == pool_.end()) {
    Violation("optimistic walk started by thread " + std::to_string(tid) +
              " with no op in flight");
    return;
  }
  Descriptor& d = it->second;
  d.optimistic = true;
  d.opt_validated = false;
  // A fresh attempt abandons whatever target a previous attempt recorded
  // (its lock was released on the failed validation).
  d.path.inos.clear();
}

void CrlhMonitor::OnOptWalkValidate(Tid tid, OptValidation outcome, uint32_t depth) {
  std::lock_guard<std::mutex> lk(mu_);
  ++seq_;
  (void)depth;
  auto it = pool_.find(tid);
  if (it == pool_.end()) {
    Violation("optimistic validation by thread " + std::to_string(tid) +
              " with no op in flight");
    return;
  }
  Descriptor& d = it->second;
  if (!d.optimistic) {
    Violation("optimistic validation by thread " + std::to_string(tid) +
              " outside an optimistic walk");
    return;
  }
  // kFail is the protocol working (retry/fallback follows), not a violation;
  // kSkipped leaves opt_validated false so the Opt-validation invariant
  // fires if the op goes on to linearize anyway.
  d.opt_validated = outcome == OptValidation::kPass;
}

void CrlhMonitor::OnOptWalkRetract(Tid tid) {
  std::lock_guard<std::mutex> lk(mu_);
  ++seq_;
  auto it = pool_.find(tid);
  if (it == pool_.end()) {
    Violation("optimistic retract by thread " + std::to_string(tid) + " with no op in flight");
    return;
  }
  Descriptor& d = it->second;
  const OpKind kind = d.call.kind;
  const bool read_only = kind == OpKind::kStat || kind == OpKind::kReadDir || kind == OpKind::kRead;
  if (!d.optimistic || !d.lp_passed || d.state != AopState::kDone || d.helper != 0 ||
      !read_only) {
    Violation("thread " + std::to_string(tid) +
              " retracted an LP that is not a linearized optimistic read");
    return;
  }
  // A read's abstract operation left the abstract state as it was, so
  // forgetting its result undoes the LP completely.
  d.lp_passed = false;
  d.has_abs_result = false;
  d.abs_result = OpResult{};
  d.state = AopState::kPending;
  d.opt_validated = false;
  d.lp_seq = 0;
  d.abs_seq = 0;
}

void CrlhMonitor::OnOptWalkFallback(Tid tid) {
  std::lock_guard<std::mutex> lk(mu_);
  ++seq_;
  auto it = pool_.find(tid);
  if (it == pool_.end()) {
    Violation("optimistic fallback by thread " + std::to_string(tid) +
              " with no op in flight");
    return;
  }
  Descriptor& d = it->second;
  d.optimistic = false;
  d.opt_validated = false;
  // The lock-coupled walk that follows rebuilds the LockPath from the root;
  // the optimistic attempts' recordings must not prefix it.
  d.path.inos.clear();
}

bool CrlhMonitor::OnOptWalkAdopt(Tid tid, std::span<const Inum> chain,
                                 const std::function<bool()>& still_current) {
  std::lock_guard<std::mutex> lk(mu_);
  ++seq_;
  // The re-check runs under mu_: every rename LP recorded before this event
  // published its version bumps before it, so a chain it broke fails here,
  // and every rename LP after it finds this op adopted and helps it.
  const bool current = still_current();
  auto it = pool_.find(tid);
  if (it == pool_.end()) {
    Violation("optimistic adoption by thread " + std::to_string(tid) + " with no op in flight");
    return current;
  }
  Descriptor& d = it->second;
  if (!d.optimistic || d.lp_passed || d.state != AopState::kPending ||
      IsHelperOp(d.call.kind) || chain.empty()) {
    Violation("thread " + std::to_string(tid) +
              " asked to adopt a walk outside an optimistic mutator walk");
    return current;
  }
  if (!current) {
    // Withdrawn: the op stays optimistic, releases the node and retries.
    return false;
  }
  d.optimistic = false;
  d.path.inos.assign(chain.begin(), chain.end());
  if (opts_.check_invariants) {
    // Opt-validation, for a mutator: what it adopted must be the op's
    // abstract path at this instant, the inodes a lock-coupled walk arriving
    // now would have locked. (A read is held to a passed validation at its
    // LP; a mutator's effect comes later, so what matters is that it acts
    // where its path leads.)
    const bool resolves = AbstractPathMatches(d.call.a, chain);
    ReportInvariantLocked(InvariantKind::kOptValidation, tid, resolves);
    if (!resolves) {
      Violation("Opt-validation violated: thread " + std::to_string(tid) + " adopted " +
                (d.opt_validated ? "" : "without a passed version-chain validation ") +
                d.path.ToString() + ", which is not the abstract path of " +
                d.call.ToString());
    }
    // The adoption stands for a coupled walk that locked every inode of the
    // chain, so each is checked as such an acquisition would be.
    for (Inum ino : chain) {
      CheckNonBypassableLocked(tid, d, ino);
    }
  }
  d.opt_validated = false;
  return true;
}

bool CrlhMonitor::AbstractPathMatches(const Path& path, std::span<const Inum> chain) const {
  if (chain.size() > path.parts.size() + 1 || chain.front() != kRootInum) {
    return false;
  }
  for (size_t i = 1; i < chain.size(); ++i) {
    const SpecInode* dir = aspec_.Find(chain[i - 1]);
    if (dir == nullptr || dir->type != FileType::kDir) {
      return false;
    }
    auto link = dir->links.find(path.parts[i - 1]);
    if (link == dir->links.end() || link->second != chain[i]) {
      return false;
    }
  }
  return true;
}

void CrlhMonitor::ApplyAopLocked(Tid tid, Descriptor& d, Inum forced_ino, bool record_effects) {
  ++seq_;
  d.abs_result = ApplyWithEffects(aspec_, d.call, forced_ino,
                                  record_effects ? &d.effects : nullptr);
  d.has_abs_result = true;
  (void)tid;
  CheckGoodAfsLocked("after Aop");
}

void CrlhMonitor::CheckGoodAfsLocked(const char* where) {
  if (!opts_.check_invariants) {
    return;
  }
  const bool well_formed = aspec_.WellFormed();
  ReportInvariantLocked(InvariantKind::kGoodAfs, 0, well_formed);
  if (!well_formed) {
    Violation(std::string("GoodAFS violated ") + where);
  }
}

void CrlhMonitor::ComputeFutLockPathLocked(Descriptor& d) {
  d.fut_lock_path.clear();
  d.fut_tracked = false;
  if (IsHelperOp(d.call.kind)) {
    // A helped rename/exchange holds a pair of partially-built LockPaths;
    // predicting its remaining acquisitions is possible but not needed for
    // the invariants we enforce, so it is left untracked.
    return;
  }
  // The full lock sequence of a successful single-path operation: the root,
  // every parent component, and (except for ins, which creates its target)
  // the target inode itself.
  const Path& p = d.call.a;
  const bool is_ins = d.call.kind == OpKind::kMkdir || d.call.kind == OpKind::kMknod;
  std::vector<Inum> full;
  full.push_back(kRootInum);
  Inum cur = kRootInum;
  const size_t parent_comps = p.IsRoot() ? 0 : p.parts.size() - 1;
  bool resolved = true;
  for (size_t i = 0; i < parent_comps; ++i) {
    const SpecInode* node = aspec_.Find(cur);
    if (node == nullptr || node->type != FileType::kDir) {
      resolved = false;
      break;
    }
    auto link = node->links.find(p.parts[i]);
    if (link == node->links.end()) {
      resolved = false;
      break;
    }
    cur = link->second;
    full.push_back(cur);
  }
  if (resolved && !is_ins && !p.IsRoot()) {
    const SpecInode* node = aspec_.Find(cur);
    if (node != nullptr && node->type == FileType::kDir) {
      auto link = node->links.find(p.Base());
      if (link != node->links.end()) {
        full.push_back(link->second);
      }
    }
  }
  // Sanity: the already-acquired prefix must agree with the abstract path.
  const size_t have = d.path.inos.size();
  for (size_t i = 0; i < std::min(have, full.size()); ++i) {
    if (d.path.inos[i] != full[i]) {
      std::ostringstream os;
      os << "helped thread's LockPath " << d.path.ToString()
         << " diverges from the abstract path at position " << i;
      Violation(os.str());
      return;
    }
  }
  for (size_t i = have; i < full.size(); ++i) {
    d.fut_lock_path.push_back(full[i]);
  }
  d.fut_tracked = true;
}

void CrlhMonitor::HelpThreadLocked(Tid helper, Tid target, HelpReason reason) {
  Descriptor& td = pool_.at(target);
  ATOMFS_CHECK(td.state == AopState::kPending);
  Inum forced = kInvalidInum;
  if (td.call.kind == OpKind::kMkdir || td.call.kind == OpKind::kMknod) {
    td.placeholder = ghost_next_++;
    forced = td.placeholder;
  }
  // Predict the locks the thread will still acquire from the state *before*
  // its own Aop runs: a helped del locks its target and then removes it, so
  // the post-Aop tree no longer contains the inode it is about to lock.
  ComputeFutLockPathLocked(td);
  ApplyAopLocked(target, td, forced, /*record_effects=*/true);
  td.state = AopState::kHelped;
  td.helper = helper;
  helplist_.push_back(target);
  ++helped_ops_;
  if (opts_.obs != nullptr) {
    opts_.obs->OnHelpedLinearized(helper, target, reason, helplist_.size(), helplist_.size());
  }
}

void CrlhMonitor::RemapPlaceholderLocked(Inum from, Inum to) {
  RemapInum(aspec_, from, to);
  for (auto& [tid, d] : pool_) {
    RemapInum(d.effects, from, to);
    for (Inum& ino : d.fut_lock_path) {
      if (ino == from) {
        ino = to;
      }
    }
  }
}

void CrlhMonitor::OnLp(Tid tid, Inum created_ino) {
  std::lock_guard<std::mutex> lk(mu_);
  ++seq_;
  auto it = pool_.find(tid);
  if (it == pool_.end()) {
    Violation("LP from thread " + std::to_string(tid) + " with no op in flight");
    return;
  }
  Descriptor& d = it->second;
  if (d.lp_passed) {
    Violation("thread " + std::to_string(tid) + " passed two LPs in one op");
    return;
  }
  d.lp_passed = true;
  d.lp_seq = seq_;

  if (d.state == AopState::kHelped) {
    // (end, ret): the abstract op already ran; the concrete effect has just
    // been published, so the pending effect is discharged.
    if (d.placeholder != kInvalidInum && created_ino != kInvalidInum) {
      RemapPlaceholderLocked(d.placeholder, created_ino);
      d.placeholder = kInvalidInum;
    }
    if (opts_.check_invariants && d.fut_tracked) {
      ReportInvariantLocked(InvariantKind::kFutureLockpathValidness, tid,
                            d.fut_lock_path.empty());
      if (!d.fut_lock_path.empty()) {
        std::ostringstream os;
        os << "Future-lockpath-validness violated: thread " << tid
           << " reached its LP with unacquired predicted locks";
        Violation(os.str());
      }
    }
    auto pos = std::find(helplist_.begin(), helplist_.end(), tid);
    ReportInvariantLocked(InvariantKind::kHelplistConsistency, tid, pos != helplist_.end());
    if (pos == helplist_.end()) {
      Violation("Helplist-consistency violated: helped thread " + std::to_string(tid) +
                " missing from Helplist");
    } else {
      helplist_.erase(pos);
      if (opts_.obs != nullptr) {
        opts_.obs->OnHelpedRetired(tid, helplist_.size());
      }
    }
    d.effects.clear();
    d.state = AopState::kDone;  // abs_seq keeps the help-time position
    return;
  }

  if (opts_.check_invariants) {
    const bool absent = std::count(helplist_.begin(), helplist_.end(), tid) == 0;
    ReportInvariantLocked(InvariantKind::kHelplistConsistency, tid, absent);
    if (!absent) {
      Violation("Helplist-consistency violated: pending thread " + std::to_string(tid) +
                " present in Helplist");
    }
  }

  // Opt-validation: a reader that bypassed lock coupling may only linearize
  // after a passed version-chain validation. A skipped validation (the
  // unsafe_skip_opt_validation hook) fails here even before the possibly
  // stale result reaches the refinement check at OnOpEnd.
  if (opts_.check_invariants && d.optimistic) {
    ReportInvariantLocked(InvariantKind::kOptValidation, tid, d.opt_validated);
    if (!d.opt_validated) {
      Violation("Opt-validation violated: optimistic thread " + std::to_string(tid) +
                " reached its LP without a passed version-chain validation");
    }
  }

  if (IsHelperOp(d.call.kind) && !opts_.fixed_lp_mode) {
    // linothers: find the helping set and order, linearize each helped
    // thread's Aop, then the rename's own (paper Fig. 5).
    std::map<Tid, HelpReason> reasons;
    auto order = ComputeHelpOrder(tid, pool_, &reasons);
    ReportInvariantLocked(InvariantKind::kLockpathWellformed, tid, order.has_value());
    if (!order.has_value()) {
      Violation("Lockpath-wellformed violated: linearize-before relation is cyclic at "
                "rename LP of thread " +
                std::to_string(tid));
    } else {
      if (!order->empty()) {
        ++help_events_;
        if (opts_.obs != nullptr) {
          opts_.obs->OnHelpEvent(tid, order->size());
        }
      }
      for (Tid target : *order) {
        auto rit = reasons.find(target);
        HelpThreadLocked(tid, target,
                         rit != reasons.end() ? rit->second : HelpReason::kSrcPrefix);
        pool_.at(target).abs_seq = seq_;
      }
    }
  }
  ApplyAopLocked(tid, d, created_ino, /*record_effects=*/false);
  d.abs_seq = seq_;
  d.state = AopState::kDone;
}

void CrlhMonitor::OnOpEnd(Tid tid, const OpResult& result) {
  std::lock_guard<std::mutex> lk(mu_);
  ++seq_;
  auto it = pool_.find(tid);
  if (it == pool_.end()) {
    Violation("op end from thread " + std::to_string(tid) + " with no op in flight");
    return;
  }
  Descriptor& d = it->second;
  if (!d.lp_passed || !d.has_abs_result) {
    ReportInvariantLocked(InvariantKind::kRefinement, tid, false);
    Violation("op " + d.call.ToString() + " of thread " + std::to_string(tid) +
              " returned without linearizing");
  } else {
    const bool equivalent = ResultsEquivalent(d.call.kind, result, d.abs_result);
    ReportInvariantLocked(InvariantKind::kRefinement, tid, equivalent);
    if (!equivalent) {
      std::ostringstream os;
      os << "REFINEMENT violated: " << d.call.ToString() << " of thread " << tid
         << " returned " << result.ToString(d.call.kind) << " but its abstract operation "
         << (d.helper != 0 ? "(helped) " : "") << "returned "
         << d.abs_result.ToString(d.call.kind);
      Violation(os.str());
    }
  }
  if (opts_.check_invariants && !d.held.empty()) {
    Violation("thread " + std::to_string(tid) + " finished an op still holding locks");
  }
  if (opts_.record_history) {
    CompletedRecord rec;
    rec.tid = tid;
    rec.call = d.call;
    rec.concrete = result;
    rec.abstract = d.abs_result;
    rec.begin_seq = d.begin_seq;
    rec.lp_seq = d.lp_seq;
    rec.abs_seq = d.abs_seq;
    rec.end_seq = seq_;
    rec.helped = d.helper != 0;
    rec.helper = d.helper;
    completed_.push_back(std::move(rec));
  }
  pool_.erase(it);
}

// --- state checks -------------------------------------------------------------

bool CrlhMonitor::CheckQuiescent(const SpecFs& concrete_snapshot) {
  std::lock_guard<std::mutex> lk(mu_);
  bool good = true;
  if (!pool_.empty()) {
    Violation("CheckQuiescent called with operations in flight");
    good = false;
  }
  ReportInvariantLocked(InvariantKind::kHelplistConsistency, 0, helplist_.empty());
  if (!helplist_.empty()) {
    Violation("Helplist-consistency violated: non-empty Helplist at quiescence");
    good = false;
  }
  const bool equal = StructurallyEqual(aspec_, concrete_snapshot);
  ReportInvariantLocked(InvariantKind::kAbstractConcrete, 0, equal);
  if (!equal) {
    Violation("Abstract-concrete-relation violated: trees differ at quiescence");
    good = false;
  }
  return good;
}

namespace {

// Relaxed consistency mapping (§4.4): compare two trees structurally, but a
// concretely-locked inode's content is exempt (it may be mid-modification).
bool RelaxedEqualAt(const SpecFs& rolled, Inum a, const SpecFs& concrete, Inum b,
                    const std::set<Inum>& locked) {
  const SpecInode* na = rolled.Find(a);
  const SpecInode* nb = concrete.Find(b);
  if (na == nullptr || nb == nullptr) {
    return na == nb;
  }
  if (na->type != nb->type) {
    return false;
  }
  if (locked.count(b) != 0) {
    return true;  // content of a locked inode is unconstrained
  }
  if (na->type == FileType::kFile) {
    return na->data == nb->data;
  }
  if (na->links.size() != nb->links.size()) {
    return false;
  }
  auto ia = na->links.begin();
  auto ib = nb->links.begin();
  for (; ia != na->links.end(); ++ia, ++ib) {
    if (ia->first != ib->first) {
      return false;
    }
    if (!RelaxedEqualAt(rolled, ia->second, concrete, ib->second, locked)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool CrlhMonitor::CheckAbstractConcreteRelation(const SpecFs& concrete_snapshot) {
  std::lock_guard<std::mutex> lk(mu_);
  if (opts_.obs != nullptr) {
    opts_.obs->OnRollback(helplist_.size());
  }
  SpecFs rolled = aspec_;
  for (auto it = helplist_.rbegin(); it != helplist_.rend(); ++it) {
    auto pit = pool_.find(*it);
    if (pit == pool_.end()) {
      ReportInvariantLocked(InvariantKind::kHelplistConsistency, *it, false);
      Violation("Helplist-consistency violated: Helplist names a finished thread");
      return false;
    }
    RollbackEffects(rolled, pit->second.effects);
  }
  std::set<Inum> locked;
  for (const auto& [tid, d] : pool_) {
    locked.insert(d.held.begin(), d.held.end());
  }
  const bool equal = RelaxedEqualAt(rolled, kRootInum, concrete_snapshot, kRootInum, locked);
  ReportInvariantLocked(InvariantKind::kAbstractConcrete, 0, equal);
  if (!equal) {
    Violation("Abstract-concrete-relation violated: roll-back of helped effects does not "
              "match the concrete tree");
    return false;
  }
  return true;
}

}  // namespace atomfs
