#include "src/txn/txn.h"

#include <utility>

#include "src/util/check.h"
#include "src/util/clock.h"
#include "src/util/tid.h"
#include "src/workload/trace.h"

namespace atomfs {

namespace {

// Reads never buffer; everything else is a state mutation that must be
// journaled and replayed.
bool IsMutation(OpKind kind) {
  return kind != OpKind::kStat && kind != OpKind::kReadDir && kind != OpKind::kRead;
}

// "/", "/a", "/a/b" for "/a/b" — every subtree a path is inside of.
void AppendAncestors(const std::string& path, std::vector<std::string>& out) {
  out.push_back("/");
  for (size_t pos = path.find('/', 1); pos != std::string::npos; pos = path.find('/', pos + 1)) {
    out.push_back(path.substr(0, pos));
  }
  if (path != "/") {
    out.push_back(path);
  }
}

}  // namespace

TxnManager::TxnManager(Options options)
    : inner_(options.inner),
      wal_path_(options.wal_path),
      ring_(options.trace_ring),
      record_commit_log_(options.record_commit_log),
      fsync_commits_(options.fsync_commits),
      checkpoint_bytes_(options.checkpoint_bytes),
      checkpoint_units_(options.checkpoint_units),
      mirror_(std::move(options.initial)) {
  ATOMFS_CHECK(inner_ != nullptr);
  if (const JournalRecoveryStats* r = options.recovered; r != nullptr) {
    next_txid_ = r->max_txid + 1;
    next_ckpt_id_ = r->generation + 1;
    recovered_units_ = r->committed_units;
  }
  if (!options.wal_path.empty()) {
    wal_ = std::make_unique<WalWriter>(options.wal_path, std::move(options.wal));
    ATOMFS_CHECK(wal_->ok() && "cannot open transaction WAL for append");
  }
  if (options.metrics != nullptr) {
    m_begins_ = options.metrics->GetCounter("txn.begins");
    m_commits_ = options.metrics->GetCounter("txn.commits");
    m_aborts_ = options.metrics->GetCounter("txn.aborts");
    m_conflicts_ = options.metrics->GetCounter("txn.conflicts");
    m_commit_ops_ = options.metrics->GetHistogram("txn.commit.ops");
    m_commit_latency_ = options.metrics->GetHistogram("txn.commit.latency_ns");
    m_ckpt_count_ = options.metrics->GetCounter("journal.checkpoint.count");
    m_ckpt_bytes_ = options.metrics->GetCounter("journal.checkpoint.bytes");
    m_fsyncs_ = options.metrics->GetCounter("journal.fsync.count");
    m_ckpt_ms_ = options.metrics->GetHistogram("journal.checkpoint.ms");
  }
}

TxnManager::~TxnManager() = default;

void TxnManager::GhostEvent(TraceEventType type, TxnId id, uint64_t arg, uint64_t aux) {
  if (ring_ == nullptr) {
    return;
  }
  TraceEvent e;
  e.tid = CurrentTid();
  e.type = type;
  e.ino = id;
  e.arg = arg;
  e.aux = aux;
  ring_->Append(e);
}

// --- footprints --------------------------------------------------------------

TxnManager::Footprint TxnManager::FootprintOf(const OpCall& call) {
  Footprint fp;
  const std::string a = call.a.ToString();
  auto parent_of = [](const Path& p) { return p.IsRoot() ? std::string("/") : p.Dir().ToString(); };
  switch (call.kind) {
    case OpKind::kMkdir:
    case OpKind::kMknod:
      // Creation depends on (and changes) the entry and its parent — a
      // parent-entry bump is also how sibling-set changes (e.g. rmdir
      // emptiness) are observed by other transactions.
      fp.writes = {a, parent_of(call.a)};
      break;
    case OpKind::kRmdir:
    case OpKind::kUnlink:
      fp.writes = {a, parent_of(call.a)};
      fp.subtrees = {a};
      break;
    case OpKind::kRename:
    case OpKind::kExchange: {
      const std::string b = call.b.ToString();
      fp.writes = {a, parent_of(call.a), b, parent_of(call.b)};
      fp.subtrees = {a, b};
      break;
    }
    case OpKind::kWrite:
    case OpKind::kTruncate:
      fp.writes = {a};
      break;
    case OpKind::kStat:
    case OpKind::kRead:
    case OpKind::kReadDir:
      fp.reads = {a};
      break;
  }
  return fp;
}

bool TxnManager::ValidateLocked(const Txn& txn) const {
  // Backward validation: every path the transaction touched must be
  // unchanged since its snapshot. An entry changed if its own version moved;
  // it also (transitively) changed if any ancestor subtree was moved or
  // destroyed, which the subtree map records without enumerating
  // descendants.
  auto entry_fresh = [&](const std::string& p) {
    auto it = entry_ver_.find(p);
    return it == entry_ver_.end() || it->second <= txn.begin_clock;
  };
  auto subtree_fresh = [&](const std::string& p) {
    std::vector<std::string> chain;
    AppendAncestors(p, chain);
    for (const std::string& anc : chain) {
      auto it = subtree_ver_.find(anc);
      if (it != subtree_ver_.end() && it->second > txn.begin_clock) {
        return false;
      }
    }
    return true;
  };
  for (const auto* set : {&txn.footprint.reads, &txn.footprint.writes, &txn.footprint.subtrees}) {
    for (const std::string& p : *set) {
      if (!entry_fresh(p) || !subtree_fresh(p)) {
        return false;
      }
    }
  }
  return true;
}

void TxnManager::BumpVersionsLocked(const Footprint& fp) {
  ++clock_;
  for (const std::string& p : fp.writes) {
    entry_ver_[p] = clock_;
  }
  for (const std::string& p : fp.subtrees) {
    subtree_ver_[p] = clock_;
  }
}

Status TxnManager::LogCommittedLocked(TxnId id, const std::vector<OpCall>& ops) {
  if (wal_ == nullptr) {
    return Status::Ok();
  }
  if (id != 0) {
    wal_->Append(WalRecordType::kBegin, id, {});
  }
  for (const OpCall& call : ops) {
    wal_->Append(WalRecordType::kOp, id, FormatTraceLine(call));
  }
  if (id != 0) {
    wal_->Append(WalRecordType::kCommit, id, {});
  }
  // One flush (or fdatasync) per unit: the durability point. A crash before
  // this leaves no trace of the unit (or a torn tail recovery discards); a
  // crash after it replays the unit whole. Appends only buffer, so checking
  // the flush checks them all; a failure means the unit may be torn on disk
  // and the writer is now poisoned — the caller must surface kIo and apply
  // nothing.
  Status s = wal_->Flush();
  if (s.ok() && fsync_commits_) {
    s = wal_->Fsync();
    if (s.ok()) {
      m_fsyncs_.Inc();
    }
  }
  return s.ok() ? Status::Ok() : Status(Errc::kIo);
}

void TxnManager::RecordUnitLocked(TxnId id, const std::vector<OpCall>& ops) {
  if (record_commit_log_) {
    commit_log_.push_back(CommitDescriptor{id, commit_seq_, ops});
  }
  ++commit_seq_;
  ++units_since_ckpt_;
}

// --- checkpointing -----------------------------------------------------------

Status TxnManager::CheckpointLocked() {
  if (wal_ == nullptr) {
    return Status(Errc::kInval);
  }
  if (!wal_->ok()) {
    return Status(Errc::kIo);  // fail-stopped journal: nothing to trust
  }
  const uint64_t t0 = NowNs();
  const uint64_t id = next_ckpt_id_;
  GhostEvent(TraceEventType::kCkptBegin, id, 0, 0);
  // The mirror IS the committed state (the durability refinement keeps it
  // equal to replaying the log), so materializing it as a recreating op
  // sequence is exactly "the log, compacted".
  const auto ckpt =
      BuildCheckpoint(mirror_, id, next_txid_ - 1, recovered_units_ + commit_seq_);
  auto wrote = WriteCheckpointFile(wal_path_, ckpt);
  if (!wrote.ok()) {
    // Not taken: the sidecar temp never became the checkpoint, and the live
    // WAL still covers everything. The journal stays healthy.
    return wrote.status();
  }
  // The checkpoint is durably in place; retire the log bytes it covers.
  Status s = wal_->Rotate(id);
  if (!s.ok()) {
    return Status(Errc::kIo);  // writer poisoned itself
  }
  ++next_ckpt_id_;
  units_since_ckpt_ = 0;
  ++checkpoints_taken_;
  m_ckpt_count_.Inc();
  m_ckpt_bytes_.Inc(*wrote);
  m_ckpt_ms_.Record((NowNs() - t0) / 1000000);
  GhostEvent(TraceEventType::kCkptEnd, id, ckpt.ops.size(), *wrote);
  return Status::Ok();
}

void TxnManager::MaybeCheckpointLocked() {
  if (wal_ == nullptr || !wal_->ok()) {
    return;
  }
  const bool by_bytes = checkpoint_bytes_ > 0 && wal_->bytes() >= checkpoint_bytes_;
  const bool by_units = checkpoint_units_ > 0 && units_since_ckpt_ >= checkpoint_units_;
  if (by_bytes || by_units) {
    // Best-effort: a failed checkpoint write leaves the journal valid (just
    // uncompacted) and will be retried at the next threshold crossing.
    (void)CheckpointLocked();
  }
}

Status TxnManager::TakeCheckpoint() {
  std::lock_guard<std::mutex> lk(mu_);
  return CheckpointLocked();
}

// --- transaction interface ---------------------------------------------------

Result<TxnId> TxnManager::Begin() {
  std::lock_guard<std::mutex> lk(mu_);
  if (JournalFailedLocked()) {
    return Errc::kIo;  // fail-stopped: no new transactions either
  }
  auto txn = std::make_unique<Txn>();
  txn->id = next_txid_++;
  txn->begin_clock = clock_;
  txn->view = mirror_;  // snapshot isolation: a private deep copy
  const TxnId id = txn->id;
  open_.emplace(id, std::move(txn));
  ++stats_.begins;
  m_begins_.Inc();
  GhostEvent(TraceEventType::kTxnBegin, id, 0, 0);
  return id;
}

OpResult TxnManager::Apply(TxnId id, const OpCall& call) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) {
    OpResult r;
    r.status = Status(Errc::kInval);
    return r;
  }
  Txn& txn = *it->second;
  Footprint fp = FootprintOf(call);
  txn.footprint.reads.insert(txn.footprint.reads.end(), fp.reads.begin(), fp.reads.end());
  txn.footprint.writes.insert(txn.footprint.writes.end(), fp.writes.begin(), fp.writes.end());
  txn.footprint.subtrees.insert(txn.footprint.subtrees.end(), fp.subtrees.begin(),
                                fp.subtrees.end());
  OpResult result = RunOp(txn.view, call);
  if (result.status.ok() && IsMutation(call.kind)) {
    txn.writes.push_back(call);
  }
  return result;
}

Status TxnManager::Abort(TxnId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) {
    return Status(Errc::kInval);
  }
  open_.erase(it);
  ++stats_.aborts;
  m_aborts_.Inc();
  GhostEvent(TraceEventType::kTxnAbort, id, /*conflict=*/0, 0);
  return Status::Ok();
}

Status TxnManager::Commit(TxnId id) {
  const uint64_t t0 = NowNs();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) {
    return Status(Errc::kInval);
  }
  std::unique_ptr<Txn> txn = std::move(it->second);
  open_.erase(it);  // OCC: a failed commit finishes the transaction too

  if (JournalFailedLocked()) {
    return Status(Errc::kIo);  // fail-stopped journal: nothing commits
  }
  if (!ValidateLocked(*txn)) {
    ++stats_.conflicts;
    m_conflicts_.Inc();
    GhostEvent(TraceEventType::kTxnAbort, id, /*conflict=*/1, 0);
    return Status(Errc::kTxConflict);
  }
  // Read-only transactions validate (their reads were of the committed
  // state) and commit without touching the log or the clocks.
  if (txn->writes.empty()) {
    ++stats_.commits;
    m_commits_.Inc();
    GhostEvent(TraceEventType::kTxnCommit, id, 0, commit_seq_);
    return Status::Ok();
  }
  // Dry-run on a scratch copy of the committed mirror: the buffered ops ran
  // against the snapshot, and validation says their footprint is unchanged,
  // but all-or-nothing demands proof before the first real application.
  SpecFs probe = mirror_;
  for (const OpCall& call : txn->writes) {
    if (Status st = RunOp(probe, call).status; !st.ok()) {
      ++stats_.conflicts;
      m_conflicts_.Inc();
      GhostEvent(TraceEventType::kTxnAbort, id, /*conflict=*/1, 0);
      return st;
    }
  }
  // Commit point (WAL flush / fsync). A log failure reaches the client as
  // kIo with NOTHING applied — the inner FS, the mirror, and the clocks are
  // untouched, so the in-memory state never runs ahead of a log that
  // rejected the unit. The poisoned writer fail-stops all later commits.
  if (Status logged = LogCommittedLocked(id, txn->writes); !logged.ok()) {
    return logged;
  }
  for (const OpCall& call : txn->writes) {
    const Status inner_st = RunOp(*inner_, call).status;
    ATOMFS_CHECK(inner_st.ok() && "validated transactional op failed on inner fs");
    const Status mirror_st = RunOp(mirror_, call).status;
    ATOMFS_CHECK(mirror_st.ok());
  }
  BumpVersionsLocked(txn->footprint);
  GhostEvent(TraceEventType::kTxnCommit, id, txn->writes.size(), commit_seq_);
  RecordUnitLocked(id, txn->writes);
  ++stats_.commits;
  m_commits_.Inc();
  m_commit_ops_.Record(txn->writes.size());
  m_commit_latency_.Record(NowNs() - t0);
  MaybeCheckpointLocked();
  return Status::Ok();
}

// --- direct (auto-committed) ops ---------------------------------------------

OpResult TxnManager::Direct(const OpCall& call) {
  std::lock_guard<std::mutex> lk(mu_);
  if (JournalFailedLocked()) {
    OpResult failed;
    failed.status = Status(Errc::kIo);
    return failed;
  }
  OpResult result = RunOp(*inner_, call);
  if (result.status.ok()) {
    // Unlike Commit, the inner op has already run when the append fails:
    // the caller still gets kIo (the mutation is NOT durable), and the
    // poisoned writer fail-stops every later mutation, confining the
    // one-op divergence between memory and log until restart.
    if (Status logged = LogCommittedLocked(/*id=*/0, {call}); !logged.ok()) {
      result.status = logged;
      return result;
    }
    const Status mirror_st = RunOp(mirror_, call).status;
    ATOMFS_CHECK(mirror_st.ok() && "mirror diverged from inner fs");
    BumpVersionsLocked(FootprintOf(call));
    RecordUnitLocked(/*id=*/0, {call});
    MaybeCheckpointLocked();
  }
  return result;
}

Status TxnManager::Mkdir(const Path& path) { return Direct(OpCall::MkdirOf(path)).status; }
Status TxnManager::Mknod(const Path& path) { return Direct(OpCall::MknodOf(path)).status; }
Status TxnManager::Rmdir(const Path& path) { return Direct(OpCall::RmdirOf(path)).status; }
Status TxnManager::Unlink(const Path& path) { return Direct(OpCall::UnlinkOf(path)).status; }

Status TxnManager::Rename(const Path& src, const Path& dst) {
  return Direct(OpCall::RenameOf(src, dst)).status;
}

Status TxnManager::Exchange(const Path& a, const Path& b) {
  return Direct(OpCall::ExchangeOf(a, b)).status;
}

Status TxnManager::Truncate(const Path& path, uint64_t size) {
  return Direct(OpCall::TruncateOf(path, size)).status;
}

Result<size_t> TxnManager::Write(const Path& path, uint64_t offset,
                                 std::span<const std::byte> data) {
  const OpResult r =
      Direct(OpCall::WriteOf(path, offset, std::vector<std::byte>(data.begin(), data.end())));
  if (!r.status.ok()) {
    return r.status;
  }
  return static_cast<size_t>(r.nbytes);
}

// Direct reads bypass the commit lock: they are linearized by the inner FS
// itself, participate in no footprint, and must not serialize behind
// commits.
Result<Attr> TxnManager::Stat(const Path& path) { return inner_->Stat(path); }

Result<std::vector<DirEntry>> TxnManager::ReadDir(const Path& path) {
  return inner_->ReadDir(path);
}

Result<size_t> TxnManager::Read(const Path& path, uint64_t offset, std::span<std::byte> out) {
  return inner_->Read(path, offset, out);
}

// --- introspection -----------------------------------------------------------

TxnStatsSnapshot TxnManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::vector<CommitDescriptor> TxnManager::commit_log() const {
  std::lock_guard<std::mutex> lk(mu_);
  return commit_log_;
}

size_t TxnManager::open_txns() const {
  std::lock_guard<std::mutex> lk(mu_);
  return open_.size();
}

bool TxnManager::journal_failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return JournalFailedLocked();
}

uint64_t TxnManager::checkpoints_taken() const {
  std::lock_guard<std::mutex> lk(mu_);
  return checkpoints_taken_;
}

}  // namespace atomfs
