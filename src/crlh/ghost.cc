#include "src/crlh/ghost.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "src/util/check.h"

namespace atomfs {

bool LockPath::IsPrefixOf(const LockPath& other) const {
  if (inos.size() > other.inos.size()) {
    return false;
  }
  return std::equal(inos.begin(), inos.end(), other.inos.begin());
}

bool LockPath::IsStrictPrefixOf(const LockPath& other) const {
  return inos.size() < other.inos.size() && IsPrefixOf(other);
}

std::string LockPath::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < inos.size(); ++i) {
    if (i != 0) {
      os << ",";
    }
    os << inos[i];
  }
  os << ")";
  return os.str();
}

std::vector<const LockPath*> Descriptor::LockPaths() const {
  if (IsHelperOp(call.kind)) {
    return {&src_path, &dst_path};
  }
  return {&path};
}

bool IsHelperOp(OpKind kind) {
  return kind == OpKind::kRename || kind == OpKind::kExchange;
}

std::vector<const LockPath*> BreakingPaths(const Descriptor& d) {
  if (d.call.kind == OpKind::kRename) {
    return {&d.src_path};
  }
  if (d.call.kind == OpKind::kExchange) {
    return {&d.src_path, &d.dst_path};
  }
  return {};
}

bool LinearizeBefore(const Descriptor& before, const Descriptor& after) {
  if (before.shard != after.shard) {
    // Disjoint inum spaces: prefix containment is meaningless across
    // shards. The only cross-shard edge runs through a shared migration —
    // an op caught in migration M's footprint precedes the helper op
    // driving M.
    return before.migration_id != 0 && before.migration_id == after.migration_id &&
           IsHelperOp(after.call.kind) && !IsHelperOp(before.call.kind);
  }
  for (const LockPath* lp_after : after.LockPaths()) {
    if (lp_after->empty()) {
      continue;
    }
    for (const LockPath* lp_before : before.LockPaths()) {
      if (lp_after->IsStrictPrefixOf(*lp_before)) {
        return true;
      }
    }
  }
  return false;
}

std::optional<std::vector<Tid>> ComputeHelpOrder(Tid renamer,
                                                 const std::map<Tid, Descriptor>& pool,
                                                 std::map<Tid, HelpReason>* reasons) {
  if (reasons != nullptr) {
    reasons->clear();
  }
  auto renamer_it = pool.find(renamer);
  ATOMFS_CHECK(renamer_it != pool.end());
  const Descriptor& rd = renamer_it->second;
  ATOMFS_CHECK(IsHelperOp(rd.call.kind));

  // Candidates: pending threads other than the renamer. Threads still on an
  // optimistic attempt are excluded: they hold no coupled LockPath for the
  // helper to preserve — their correctness comes from version-chain
  // validation, which a concurrent rename simply causes to fail
  // (retry/fallback). An adopted mutator is a candidate like any other.
  auto is_candidate = [&](const std::pair<const Tid, Descriptor>& kv) {
    return kv.first != renamer && kv.second.state == AopState::kPending &&
           !kv.second.optimistic;
  };

  // Step-1 (Init): direct path inter-dependency — a breaking path of the
  // helper op contained in the thread's LockPath. rename breaks its SrcPath;
  // exchange breaks both of its paths.
  std::set<Tid> help_set;
  for (const auto& kv : pool) {
    if (!is_candidate(kv)) {
      continue;
    }
    // Cross-shard Init: a thread routed into the renamer's in-flight
    // migration footprint joins regardless of which shard it sits on — the
    // migration's detach is what breaks its route, the cross-shard analogue
    // of a broken LockPath.
    if (rd.migration_id != 0 && kv.second.migration_id == rd.migration_id) {
      help_set.insert(kv.first);
      if (reasons != nullptr) {
        (*reasons)[kv.first] = HelpReason::kCrossShard;
      }
      continue;
    }
    if (kv.second.shard != rd.shard) {
      continue;  // disjoint inum spaces: no path inter-dependency possible
    }
    bool dependent = false;
    for (const LockPath* breaking : BreakingPaths(rd)) {
      for (const LockPath* lp : kv.second.LockPaths()) {
        if (!breaking->empty() && breaking->IsPrefixOf(*lp)) {
          dependent = true;
        }
      }
    }
    if (dependent) {
      help_set.insert(kv.first);
      if (reasons != nullptr) {
        (*reasons)[kv.first] = HelpReason::kSrcPrefix;
      }
    }
  }

  // Step-2 (Recursive search): close under linearize-before. If t is helped
  // and t' must be linearized before t, t' must be helped too.
  bool changed = true;
  while (changed) {
    changed = false;
    for (Tid member : std::vector<Tid>(help_set.begin(), help_set.end())) {
      const Descriptor& md = pool.at(member);
      for (const auto& kv : pool) {
        if (!is_candidate(kv) || help_set.count(kv.first) != 0) {
          continue;
        }
        if (LinearizeBefore(kv.second, md)) {
          help_set.insert(kv.first);
          if (reasons != nullptr) {
            (*reasons)[kv.first] = HelpReason::kLockPathPrefix;
          }
          changed = true;
        }
      }
    }
  }

  // Helping order: topological sort (Kahn) under linearize-before.
  std::vector<Tid> members(help_set.begin(), help_set.end());
  const size_t n = members.size();
  std::vector<std::vector<size_t>> succ(n);  // edge b -> a when b before a
  std::vector<size_t> indegree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i == j) {
        continue;
      }
      if (LinearizeBefore(pool.at(members[i]), pool.at(members[j]))) {
        succ[i].push_back(j);
        ++indegree[j];
      }
    }
  }
  std::vector<Tid> order;
  order.reserve(n);
  std::vector<size_t> ready;
  for (size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      ready.push_back(i);
    }
  }
  // Deterministic tie-break: smallest tid first.
  auto by_tid_desc = [&](size_t a, size_t b) { return members[a] > members[b]; };
  std::make_heap(ready.begin(), ready.end(), by_tid_desc);
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), by_tid_desc);
    const size_t i = ready.back();
    ready.pop_back();
    order.push_back(members[i]);
    for (size_t j : succ[i]) {
      if (--indegree[j] == 0) {
        ready.push_back(j);
        std::push_heap(ready.begin(), ready.end(), by_tid_desc);
      }
    }
  }
  if (order.size() != n) {
    return std::nullopt;  // cyclic linearize-before: Lockpath-wellformed violated
  }
  return order;
}

}  // namespace atomfs
