#include "src/shard/sharded_fs.h"

#include <algorithm>
#include <sstream>

#include "src/afs/op.h"
#include "src/util/check.h"

namespace atomfs {

namespace {

bool IsStagingName(const std::string& name) {
  return name.rfind(kShardStagePrefix, 0) == 0;
}

Path ChildPath(const Path& parent, const std::string& name) {
  Path p = parent;
  p.parts.push_back(name);
  return p;
}

// Deep-copies the subtree at `src` of `from` to `dst` of `to` (dst must not
// exist; its parent must). Used by the migration's copy phase, always into a
// fresh staging entry.
Status CopyTree(FileSystem& from, const Path& src, FileSystem& to, const Path& dst) {
  auto st = from.Stat(src);
  if (!st.ok()) {
    return st.status();
  }
  if (st->type == FileType::kFile) {
    Status mk = to.Mknod(dst);
    if (!mk.ok()) {
      return mk;
    }
    std::vector<std::byte> buf(st->size);
    if (!buf.empty()) {
      auto n = from.Read(src, 0, std::span<std::byte>(buf));
      if (!n.ok()) {
        return n.status();
      }
      buf.resize(*n);
      auto w = to.Write(dst, 0, std::span<const std::byte>(buf));
      if (!w.ok()) {
        return w.status();
      }
    }
    return Status::Ok();
  }
  Status mk = to.Mkdir(dst);
  if (!mk.ok()) {
    return mk;
  }
  auto entries = from.ReadDir(src);
  if (!entries.ok()) {
    return entries.status();
  }
  for (const DirEntry& e : *entries) {
    Status st2 = CopyTree(from, ChildPath(src, e.name), to, ChildPath(dst, e.name));
    if (!st2.ok()) {
      return st2;
    }
  }
  return Status::Ok();
}

// Grafts `from`'s subtree at `src_ino` into `to`, returning the new inum.
Inum Graft(const SpecFs& from, Inum src_ino, SpecFs& to) {
  const SpecInode* n = from.Find(src_ino);
  ATOMFS_CHECK(n != nullptr);
  const Inum ni = to.AllocInum();
  SpecInode copy;
  copy.type = n->type;
  copy.data = n->data;
  to.imap_mutable()[ni] = std::move(copy);
  for (const auto& [name, child] : n->links) {
    const Inum ci = Graft(from, child, to);
    to.imap_mutable()[ni].links[name] = ci;
  }
  return ni;
}

OpResult AsOpResult(const FsOpResult& r) {
  OpResult out;
  static_cast<FsOpResult&>(out) = r;
  return out;
}

}  // namespace

ShardedFs::ShardedFs() : ShardedFs(Options{}) {}

ShardedFs::ShardedFs(Options options) : opts_(std::move(options)), router_(opts_.shards) {
  ATOMFS_CHECK(opts_.shards >= 1);
  for (uint32_t i = 0; i < opts_.shards; ++i) {
    FsObserver* observer = nullptr;
    if (opts_.monitored) {
      CrlhMonitor::Options mo = opts_.monitor;
      mo.shard_id = i;
      monitors_.push_back(std::make_unique<CrlhMonitor>(mo));
      observer = monitors_.back().get();
    }
    if (opts_.extra_observer != nullptr) {
      if (observer != nullptr) {
        tees_.push_back(std::make_unique<TeeObserver>(observer, opts_.extra_observer));
        observer = tees_.back().get();
      } else {
        observer = opts_.extra_observer;
      }
    }
    AtomFs::Options fo = opts_.fs;
    fo.observer = observer;
    shards_.push_back(std::make_unique<AtomFs>(std::move(fo)));
  }
}

ShardedFs::~ShardedFs() = default;

uint32_t ShardedFs::Capabilities() const {
  return kFsCapSharding | shards_.front()->Capabilities();
}

// --- FileSystem virtuals: wrap into FsOp, route through Dispatch ------------

Status ShardedFs::Mkdir(const Path& path) {
  FsOp op;
  op.kind = OpKind::kMkdir;
  op.a = path;
  return Dispatch(op).status;
}

Status ShardedFs::Mknod(const Path& path) {
  FsOp op;
  op.kind = OpKind::kMknod;
  op.a = path;
  return Dispatch(op).status;
}

Status ShardedFs::Rmdir(const Path& path) {
  FsOp op;
  op.kind = OpKind::kRmdir;
  op.a = path;
  return Dispatch(op).status;
}

Status ShardedFs::Unlink(const Path& path) {
  FsOp op;
  op.kind = OpKind::kUnlink;
  op.a = path;
  return Dispatch(op).status;
}

Status ShardedFs::Rename(const Path& src, const Path& dst) {
  FsOp op;
  op.kind = OpKind::kRename;
  op.a = src;
  op.b = dst;
  return Dispatch(op).status;
}

Status ShardedFs::Exchange(const Path& a, const Path& b) {
  FsOp op;
  op.kind = OpKind::kExchange;
  op.a = a;
  op.b = b;
  return Dispatch(op).status;
}

Result<Attr> ShardedFs::Stat(const Path& path) {
  FsOp op;
  op.kind = OpKind::kStat;
  op.a = path;
  FsOpResult r = Dispatch(op);
  if (!r.status.ok()) {
    return r.status;
  }
  return r.attr;
}

Result<std::vector<DirEntry>> ShardedFs::ReadDir(const Path& path) {
  FsOp op;
  op.kind = OpKind::kReadDir;
  op.a = path;
  FsOpResult r = Dispatch(op);
  if (!r.status.ok()) {
    return r.status;
  }
  return std::move(r.entries);
}

Result<size_t> ShardedFs::Read(const Path& path, uint64_t offset, std::span<std::byte> out) {
  FsOp op;
  op.kind = OpKind::kRead;
  op.a = path;
  op.offset = offset;
  op.len = out.size();
  FsOpResult r = Dispatch(op);
  if (!r.status.ok()) {
    return r.status;
  }
  std::copy_n(r.data.begin(), std::min(r.data.size(), out.size()), out.begin());
  return static_cast<size_t>(r.nbytes);
}

Result<size_t> ShardedFs::Write(const Path& path, uint64_t offset,
                                std::span<const std::byte> data) {
  FsOp op;
  op.kind = OpKind::kWrite;
  op.a = path;
  op.offset = offset;
  op.payload = data;
  FsOpResult r = Dispatch(op);
  if (!r.status.ok()) {
    return r.status;
  }
  return static_cast<size_t>(r.nbytes);
}

Status ShardedFs::Truncate(const Path& path, uint64_t size) {
  FsOp op;
  op.kind = OpKind::kTruncate;
  op.a = path;
  op.offset = size;
  return Dispatch(op).status;
}

// --- dispatch ---------------------------------------------------------------

FsOpResult ShardedFs::RunOnShard(uint32_t s, const FsOp& op) {
  if (opts_.metrics != nullptr) {
    opts_.metrics->GetCounter("shard.ops.s" + std::to_string(s)).Inc();
  }
  return shards_[s]->Dispatch(op);
}

FsOpResult ShardedFs::Dispatch(const FsOp& op) {
  const Tid tid = CurrentTid();
  {
    std::lock_guard<std::mutex> lk(ns_mu_);
    ++ns_seq_;
    if (ns_pool_.count(tid) != 0) {
      ViolationLocked("thread " + std::to_string(tid) +
                      " entered the shard router while an op is in flight");
    }
    Descriptor d;
    d.call = OpCall::FromFsOp(op);
    d.shard = op.a.IsRoot() ? 0 : router_.Route(op.a.parts[0]);
    d.begin_seq = ns_seq_;
    ns_pool_[tid] = std::move(d);
  }

  FsOpResult r;
  if (op.a.IsRoot() && (op.kind == OpKind::kStat || op.kind == OpKind::kReadDir ||
                        op.kind == OpKind::kRmdir)) {
    r = DispatchGlobal(tid, op);
  } else if (op.a.IsRoot()) {
    // Root-target mutations (mkdir "/", write "/", rename of "/", ...) are
    // always errors whose code does not depend on tree content; any shard
    // produces the canonical one.
    r = RunOnShard(0, op);
  } else {
    r = DispatchRooted(tid, op);
  }

  {
    std::lock_guard<std::mutex> lk(ns_mu_);
    RecordLocked(tid, op, r);
    auto it = ns_pool_.find(tid);
    if (it != ns_pool_.end()) {
      auto pos = std::find(ns_helplist_.begin(), ns_helplist_.end(), tid);
      if (pos != ns_helplist_.end()) {
        ns_helplist_.erase(pos);
        if (opts_.obs != nullptr) {
          opts_.obs->OnHelpedRetired(tid, ns_helplist_.size());
        }
      }
      ns_pool_.erase(it);
    }
  }
  return r;
}

FsOpResult ShardedFs::DispatchRooted(Tid tid, const FsOp& op) {
  const std::string& c0 = op.a.parts[0];
  std::vector<std::string> comps{c0};
  const bool two_path =
      (op.kind == OpKind::kRename || op.kind == OpKind::kExchange) && !op.b.IsRoot();
  if (two_path && op.b.parts[0] != c0) {
    comps.push_back(op.b.parts[0]);
  }

  std::unique_lock<std::mutex> lk(ns_mu_);

  const bool cross_shard =
      two_path && comps.size() == 2 && router_.Route(comps[0]) != router_.Route(comps[1]);

  if (opts_.unsafe_stale_route && !cross_shard) {
    // Cross-shard helper ops are exempt: they *are* the migrations whose
    // windows this mode lets other ops race into.
    // VALIDATION ONLY: race straight to the hashed shard, ignoring published
    // migrations. If the footprint's route epoch moved underneath the op,
    // surface Errc::kShardMoved — the stale-route error safe mode absorbs.
    const uint32_t s = router_.Route(c0);
    const uint64_t epoch = router_.Epoch(c0);
    lk.unlock();
    FsOpResult r = RunOnShard(s, op);
    lk.lock();
    if (router_.Epoch(c0) != epoch) {
      r = FsOpResult{};
      r.status = Status(Errc::kShardMoved);
    }
    return r;
  }

  for (;;) {
    ShardMigration* hit = FindMigrationTouchingLocked(comps);
    if (hit == nullptr) {
      break;
    }
    // Routed into a published migration's footprint: help complete it (the
    // blocked-side lock holder finishes the two-shard commit), then retry
    // the route.
    ++stale_retries_;
    if (opts_.metrics != nullptr) {
      opts_.metrics->GetCounter("shard.stale_retries").Inc();
    }
    auto m = active_.at(hit->id);
    ns_pool_[tid].migration_id = m->id;
    DriveMigrationLocked(lk, tid, m);
  }

  if (cross_shard) {
    return RunMigration(lk, tid, op, comps);
  }

  if ((op.kind == OpKind::kMkdir || op.kind == OpKind::kMknod) && op.a.parts.size() == 1) {
    router_.Assign(c0);  // pin the route of a fresh root-level name
  }
  PinLocked(comps);
  const uint32_t s = router_.Route(c0);
  lk.unlock();
  FsOpResult r = RunOnShard(s, op);
  lk.lock();
  UnpinLocked(comps);
  return r;
}

FsOpResult ShardedFs::DispatchGlobal(Tid tid, const FsOp& op) {
  std::unique_lock<std::mutex> lk(ns_mu_);
  // A root-level view spans every shard, so it must not observe any
  // migration window: help every active migration to completion first.
  while (!active_.empty()) {
    auto m = active_.begin()->second;
    ++stale_retries_;
    ns_pool_[tid].migration_id = m->id;
    DriveMigrationLocked(lk, tid, m);
  }
  ++inflight_global_;
  lk.unlock();

  FsOpResult r;
  switch (op.kind) {
    case OpKind::kReadDir: {
      std::map<std::string, DirEntry> merged;
      for (auto& sh : shards_) {
        auto entries = sh->ReadDir(op.a);
        if (!entries.ok()) {
          r.status = entries.status();
          break;
        }
        for (DirEntry& e : *entries) {
          if (!IsStagingName(e.name)) {
            merged[e.name] = std::move(e);
          }
        }
      }
      if (r.status.ok()) {
        for (auto& [name, e] : merged) {
          r.entries.push_back(std::move(e));
        }
      }
      break;
    }
    case OpKind::kStat: {
      uint64_t total = 0;
      for (auto& sh : shards_) {
        auto entries = sh->ReadDir(op.a);
        if (entries.ok()) {
          for (const DirEntry& e : *entries) {
            if (!IsStagingName(e.name)) {
              ++total;
            }
          }
        }
      }
      r.attr.ino = kRootInum;
      r.attr.type = FileType::kDir;
      r.attr.size = total;
      break;
    }
    case OpKind::kRmdir: {
      bool empty = true;
      for (auto& sh : shards_) {
        auto entries = sh->ReadDir(op.a);
        if (entries.ok()) {
          for (const DirEntry& e : *entries) {
            if (!IsStagingName(e.name)) {
              empty = false;
            }
          }
        }
      }
      if (!empty) {
        r.status = Status(Errc::kNotEmpty);
      } else {
        r = RunOnShard(0, op);  // canonical can't-remove-root error
      }
      break;
    }
    default:
      r.status = Status(Errc::kInval);
      break;
  }

  lk.lock();
  --inflight_global_;
  ns_cv_.notify_all();
  return r;
}

// --- cross-shard migration --------------------------------------------------

FsOpResult ShardedFs::RunMigration(std::unique_lock<std::mutex>& lk, Tid tid, const FsOp& op,
                                   const std::vector<std::string>& comps) {
  auto m = std::make_shared<ShardMigration>();
  m->id = next_migration_++;
  m->driver = tid;
  m->call = OpCall::FromFsOp(op);
  m->comps = comps;

  const std::string stage = std::string(kShardStagePrefix) + std::to_string(m->id);
  Move mv;
  mv.src_shard = router_.Route(op.a.parts[0]);
  mv.dst_shard = router_.Route(op.b.parts[0]);
  mv.src = op.a;
  mv.dst = op.b;
  mv.src_stage.parts = {stage};
  mv.dst_stage.parts = {stage};
  m->moves.push_back(mv);
  if (op.kind == OpKind::kExchange) {
    Move back;
    back.src_shard = mv.dst_shard;
    back.dst_shard = mv.src_shard;
    back.src = op.b;
    back.dst = op.a;
    back.src_stage.parts = {stage + "b"};
    back.dst_stage.parts = {stage + "b"};
    m->moves.push_back(back);
  }

  ns_pool_[tid].migration_id = m->id;
  active_[m->id] = m;
  for (const std::string& c : m->comps) {
    router_.BumpEpoch(c);
  }
  if (opts_.metrics != nullptr) {
    opts_.metrics->GetCounter("shard.migrations").Inc();
  }

  DriveMigrationLocked(lk, tid, m);

  FsOpResult r;
  r.status = m->result;
  return r;
}

ShardedFs::ShardMigration* ShardedFs::FindMigrationTouchingLocked(
    const std::vector<std::string>& comps) {
  for (auto& [id, m] : active_) {
    for (const std::string& c : comps) {
      if (std::find(m->comps.begin(), m->comps.end(), c) != m->comps.end()) {
        return m.get();
      }
    }
  }
  return nullptr;
}

void ShardedFs::PinLocked(const std::vector<std::string>& comps) {
  for (const std::string& c : comps) {
    ++inflight_[c];
  }
}

void ShardedFs::UnpinLocked(const std::vector<std::string>& comps) {
  for (const std::string& c : comps) {
    auto it = inflight_.find(c);
    ATOMFS_CHECK(it != inflight_.end() && it->second > 0);
    if (--it->second == 0) {
      inflight_.erase(it);
    }
  }
  ns_cv_.notify_all();
}

void ShardedFs::DriveMigrationLocked(std::unique_lock<std::mutex>& lk, Tid tid,
                                     std::shared_ptr<ShardMigration> m) {
  using Phase = ShardMigration::Phase;
  auto claimable = [&]() {
    if (m->claimed) {
      return false;
    }
    if (m->phase == Phase::kPublished) {
      // The detach must wait for ops that pinned the footprint before the
      // publish to drain (and for root-level views to finish) — they
      // linearize before the migration.
      if (inflight_global_ != 0) {
        return false;
      }
      for (const std::string& c : m->comps) {
        auto it = inflight_.find(c);
        if (it != inflight_.end() && it->second > 0) {
          return false;
        }
      }
    }
    return true;
  };

  while (m->phase != Phase::kDone && m->phase != Phase::kAborted) {
    if (!claimable()) {
      ns_cv_.wait(lk);
      continue;
    }
    m->claimed = true;
    const Phase phase = m->phase;
    lk.unlock();
    const Phase next = ExecutePhase(*m, phase);
    lk.lock();
    m->claimed = false;
    m->phase = next;
    if (tid != m->driver) {
      m->helpers.insert(tid);
    }
    if (next == Phase::kDone || next == Phase::kAborted) {
      EmitHelpEventsLocked(*m);
      if (next == Phase::kDone) {
        ++migrations_completed_;
        if (opts_.metrics != nullptr) {
          opts_.metrics->GetCounter("shard.migrations_completed").Inc();
        }
      } else {
        ++migrations_aborted_;
        if (opts_.metrics != nullptr) {
          opts_.metrics->GetCounter("shard.migrations_aborted").Inc();
        }
      }
      for (const std::string& c : m->comps) {
        router_.BumpEpoch(c);
      }
      active_.erase(m->id);
    }
    ns_cv_.notify_all();
  }
}

ShardedFs::ShardMigration::Phase ShardedFs::ExecutePhase(ShardMigration& m,
                                                         ShardMigration::Phase phase) {
  using Phase = ShardMigration::Phase;
  auto undo_detach = [&]() {
    for (size_t i = m.detached; i-- > 0;) {
      const Move& mv = m.moves[i];
      shards_[mv.src_shard]->Rename(mv.src_stage, mv.src);
    }
    m.detached = 0;
  };

  switch (phase) {
    case Phase::kPublished: {  // detach: the migration's linearization point
      for (const Move& mv : m.moves) {
        Status st = shards_[mv.src_shard]->Rename(mv.src, mv.src_stage);
        if (!st.ok()) {
          m.result = st;
          undo_detach();
          return Phase::kAborted;
        }
        ++m.detached;
      }
      if (opts_.test_pause_after_detach) {
        opts_.test_pause_after_detach();
      }
      if (opts_.unsafe_abandon_migration) {
        // VALIDATION ONLY: claim success with the subtree stranded in
        // staging — the half-applied state CheckQuiescent must flag.
        m.result = Status::Ok();
        return Phase::kDone;
      }
      return Phase::kDetached;
    }
    case Phase::kDetached: {  // copy into the destination shard's staging
      for (const Move& mv : m.moves) {
        Status st = CopyTree(*shards_[mv.src_shard], mv.src_stage, *shards_[mv.dst_shard],
                             mv.dst_stage);
        if (!st.ok()) {
          m.result = st;
          for (const Move& mv2 : m.moves) {
            RemoveAll(*shards_[mv2.dst_shard], mv2.dst_stage);
          }
          undo_detach();
          return Phase::kAborted;
        }
      }
      return Phase::kCopied;
    }
    case Phase::kCopied: {  // attach: dst-exists semantics resolve here
      for (size_t i = 0; i < m.moves.size(); ++i) {
        const Move& mv = m.moves[i];
        Status st = shards_[mv.dst_shard]->Rename(mv.dst_stage, mv.dst);
        if (!st.ok()) {
          m.result = st;
          for (size_t j = i; j-- > 0;) {  // un-attach earlier moves
            const Move& mv2 = m.moves[j];
            shards_[mv2.dst_shard]->Rename(mv2.dst, mv2.dst_stage);
          }
          for (const Move& mv2 : m.moves) {
            RemoveAll(*shards_[mv2.dst_shard], mv2.dst_stage);
          }
          undo_detach();
          return Phase::kAborted;
        }
      }
      return Phase::kAttached;
    }
    case Phase::kAttached: {  // cleanup: drop the source staging copies
      for (const Move& mv : m.moves) {
        RemoveAll(*shards_[mv.src_shard], mv.src_stage);
      }
      m.result = Status::Ok();
      return Phase::kDone;
    }
    case Phase::kDone:
    case Phase::kAborted:
      break;
  }
  ATOMFS_CHECK(false);
  return Phase::kAborted;
}

void ShardedFs::EmitHelpEventsLocked(ShardMigration& m) {
  if (ns_pool_.count(m.driver) == 0) {
    return;  // driver already retired (cannot happen in practice)
  }
  std::map<Tid, HelpReason> reasons;
  auto order = ComputeHelpOrder(m.driver, ns_pool_, &reasons);
  if (!order.has_value()) {
    ViolationLocked("cyclic cross-shard linearize-before at migration " + std::to_string(m.id));
    return;
  }
  if (order->empty()) {
    return;
  }
  if (opts_.obs != nullptr) {
    opts_.obs->OnHelpEvent(m.driver, order->size());
  }
  for (Tid t : *order) {
    if (std::find(ns_helplist_.begin(), ns_helplist_.end(), t) != ns_helplist_.end()) {
      continue;
    }
    ns_helplist_.push_back(t);
    ++cross_help_edges_;
    if (opts_.metrics != nullptr) {
      opts_.metrics->GetCounter("shard.cross_help_edges").Inc();
    }
    if (opts_.obs != nullptr) {
      opts_.obs->OnHelpedLinearized(m.driver, t,
                                    reasons.count(t) != 0 ? reasons.at(t)
                                                          : HelpReason::kCrossShard,
                                    ns_helplist_.size(), ns_helplist_.size());
    }
  }
}

// --- history, verdicts, quiescent checks ------------------------------------

void ShardedFs::RecordLocked(Tid tid, const FsOp& op, const FsOpResult& r) {
  if (!opts_.record_history) {
    return;
  }
  CrlhMonitor::CompletedRecord rec;
  rec.tid = tid;
  rec.call = OpCall::FromFsOp(op);
  rec.concrete = AsOpResult(r);
  auto it = ns_pool_.find(tid);
  if (it != ns_pool_.end()) {
    rec.begin_seq = it->second.begin_seq;
    if (it->second.migration_id != 0 &&
        std::find(ns_helplist_.begin(), ns_helplist_.end(), tid) != ns_helplist_.end()) {
      rec.helped = true;
    }
  }
  ++ns_seq_;
  rec.lp_seq = ns_seq_;
  rec.abs_seq = ns_seq_;
  rec.end_seq = ns_seq_;
  ns_history_.push_back(std::move(rec));
}

void ShardedFs::ViolationLocked(const std::string& message) {
  if (ns_violations_.empty()) {
    first_violation_seq_ = ++ns_seq_;
  }
  ns_violations_.push_back(message);
  if (opts_.obs != nullptr) {
    opts_.obs->OnViolation(message, ns_seq_);
  }
}

uint64_t ShardedFs::migrations_completed() const {
  std::lock_guard<std::mutex> lk(ns_mu_);
  return migrations_completed_;
}

uint64_t ShardedFs::migrations_aborted() const {
  std::lock_guard<std::mutex> lk(ns_mu_);
  return migrations_aborted_;
}

uint64_t ShardedFs::cross_shard_help_edges() const {
  std::lock_guard<std::mutex> lk(ns_mu_);
  return cross_help_edges_;
}

uint64_t ShardedFs::stale_route_retries() const {
  std::lock_guard<std::mutex> lk(ns_mu_);
  return stale_retries_;
}

bool ShardedFs::ok() const { return violations().empty(); }

std::vector<std::string> ShardedFs::violations() const {
  std::vector<std::string> all;
  {
    std::lock_guard<std::mutex> lk(ns_mu_);
    all = ns_violations_;
  }
  for (size_t i = 0; i < monitors_.size(); ++i) {
    for (const std::string& v : monitors_[i]->violations()) {
      all.push_back("shard " + std::to_string(i) + ": " + v);
    }
  }
  return all;
}

std::vector<Tid> ShardedFs::Helplist() const {
  std::lock_guard<std::mutex> lk(ns_mu_);
  return ns_helplist_;
}

std::vector<CrlhMonitor::CompletedRecord> ShardedFs::Completed() const {
  std::lock_guard<std::mutex> lk(ns_mu_);
  return ns_history_;
}

SpecFs ShardedFs::SnapshotSpec() const {
  SpecFs merged;
  for (const auto& sh : shards_) {
    SpecFs s = sh->SnapshotSpec();
    const SpecInode* root = s.Find(kRootInum);
    ATOMFS_CHECK(root != nullptr);
    for (const auto& [name, child] : root->links) {
      if (IsStagingName(name)) {
        continue;
      }
      const Inum ni = Graft(s, child, merged);
      merged.imap_mutable()[kRootInum].links[name] = ni;
    }
  }
  return merged;
}

bool ShardedFs::CheckQuiescent() {
  bool all_ok = true;

  // 1. No migration may be in flight or half-applied: the staging namespace
  //    must be empty on every shard.
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto entries = shards_[i]->ReadDir(std::string_view("/"));
    if (entries.ok()) {
      for (const DirEntry& e : *entries) {
        if (IsStagingName(e.name)) {
          std::lock_guard<std::mutex> lk(ns_mu_);
          ViolationLocked("abandoned migration staging /" + e.name + " on shard " +
                          std::to_string(i));
          all_ok = false;
        }
      }
    }
  }

  // 2. Every shard's abstract and concrete trees must agree.
  for (size_t i = 0; i < monitors_.size(); ++i) {
    if (!monitors_[i]->CheckQuiescent(shards_[i]->SnapshotSpec())) {
      all_ok = false;
    }
  }

  // 3. Namespace refinement (deterministic harnesses only, see Options).
  if (opts_.check_refinement) {
    std::lock_guard<std::mutex> lk(ns_mu_);
    SpecFs spec;
    for (size_t i = 0; i < ns_history_.size(); ++i) {
      CrlhMonitor::CompletedRecord& rec = ns_history_[i];
      rec.abstract = RunOp(spec, rec.call);
      if (!ResultsEquivalent(rec.call.kind, rec.concrete, rec.abstract)) {
        ViolationLocked("namespace refinement divergence at op " + std::to_string(i) + ": " +
                        rec.call.ToString() + " concrete=" +
                        rec.concrete.ToString(rec.call.kind) + " abstract=" +
                        rec.abstract.ToString(rec.call.kind));
        all_ok = false;
      }
    }
    ns_abstract_ = spec;
  }
  if (opts_.check_refinement) {
    SpecFs merged = SnapshotSpec();
    std::lock_guard<std::mutex> lk(ns_mu_);
    if (!StructurallyEqual(ns_abstract_, merged)) {
      ViolationLocked("namespace quiescent divergence: merged shard state differs from the "
                      "abstract replay");
      all_ok = false;
    }
  }

  return all_ok && ok();
}

std::optional<CrlhMonitor::PostMortem> ShardedFs::PostMortemState() const {
  {
    std::lock_guard<std::mutex> lk(ns_mu_);
    if (!ns_violations_.empty()) {
      CrlhMonitor::PostMortem pm;
      pm.message = ns_violations_.front();
      pm.seq = first_violation_seq_;
      pm.helplist = ns_helplist_;
      pm.pool = ns_pool_;
      pm.history = ns_history_;
      pm.abstract = ns_abstract_;
      return pm;
    }
  }
  for (const auto& mon : monitors_) {
    auto pm = mon->PostMortemState();
    if (pm.has_value()) {
      return pm;
    }
  }
  return std::nullopt;
}

}  // namespace atomfs
