// TxnManager: atomic multi-op transactions over any FileSystem, with
// optimistic concurrency control and write-ahead journaling.
//
// The paper verifies per-op linearizability; this layer adds the two things
// the paper's §6 defers — durability and multi-op atomicity — as a decorator
// above the verified FS, leaving the lock-coupling artifact untouched:
//
//   * TxnManager is itself a FileSystem. Ops called directly on it are
//     auto-committed single-op transactions: they run on the inner FS under
//     the commit lock, are journaled as txid-0 WAL records, and bump the
//     conflict clocks so open transactions observe them. They are the only
//     auto-commit journal front end: a WAL is written only by a TxnManager
//     and read back only by RecoverJournal (src/journal/checkpoint.h),
//     whose stats reopen it through Options::recovered.
//   * Begin() clones the committed abstract state (a SpecFs mirror of the
//     inner FS) into a private per-transaction view: snapshot isolation with
//     read-your-writes. Ops applied via Apply() execute against the view and
//     are buffered; nothing touches the real FS until commit.
//   * Commit() is classic OCC backward validation under one commit mutex:
//     the transaction's path footprint (entries read/written, subtrees
//     moved) is checked against two version maps — per-entry versions, and
//     per-subtree versions that rename/exchange/unlink/rmdir bump so a moved
//     ancestor invalidates everything beneath it. A stale footprint returns
//     kTxConflict and the transaction rolls back whole. A valid transaction
//     is dry-run on a copy of the mirror (all-or-nothing: any op failure
//     aborts with that status before anything is applied), then journaled as
//     begin / op* / commit records and flushed — the commit point — and only
//     then applied to the inner FS and the mirror.
//
// Durability refinement (checked by src/txn/crash.h): because the WAL flush
// precedes application and recovery replays whole committed transactions in
// commit order, the state recovered after a crash at ANY byte of the log
// equals replaying a prefix of the commit descriptor sequence on SpecFs —
// incomplete transactions are never partially visible.
//
// The commit point is honest about failure: a WAL append/flush (or, with
// Options::fsync_commits, fdatasync) that fails reports kIo to the
// committing client BEFORE anything is applied, and fail-stops the journal —
// every later mutating call answers kIo too, because a journal that dropped
// bytes can no longer prove anything about durability. Checkpointing
// (TakeCheckpoint / the checkpoint_* thresholds) compacts the log by
// materializing the committed mirror into a sidecar file and rotating the
// WAL, so recovery cost is bounded by the checkpoint interval
// (src/journal/checkpoint.h has the protocol).
//
// Commit order == lock acquisition order == WAL record order, so the commit
// descriptor list is a legal linearization of the transactional history at
// transaction granularity; the ghost events (kTxnBegin/Commit/Abort) fold
// that order into the same flight recorder the CRL-H monitor writes.

#ifndef ATOMFS_SRC_TXN_TXN_H_
#define ATOMFS_SRC_TXN_TXN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/afs/op.h"
#include "src/afs/spec_fs.h"
#include "src/journal/checkpoint.h"
#include "src/journal/wal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/txn_host.h"
#include "src/vfs/filesystem.h"

namespace atomfs {

using TxnId = uint64_t;

// One committed atomic unit, in commit order: a transaction (txid > 0) or an
// auto-committed direct op (txid == 0). The crash harness replays prefixes
// of this sequence as the durability refinement oracle.
struct CommitDescriptor {
  TxnId txid = 0;
  uint64_t commit_seq = 0;  // position in commit order, from 0
  std::vector<OpCall> ops;
};

struct TxnStatsSnapshot {
  uint64_t begins = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;     // explicit aborts (not conflicts)
  uint64_t conflicts = 0;  // commits rejected by validation / dry-run
};

class TxnManager : public FileSystem, public TxnHost {
 public:
  struct Options {
    // Committed state; every mutation flows through here. Required.
    FileSystem* inner = nullptr;
    // WAL path; empty disables journaling (transactions stay atomic and
    // isolated, just not durable).
    std::string wal_path;
    // Optional txn.* metrics (txn.begins / commits / aborts / conflicts,
    // txn.commit.ops, txn.commit.latency_ns).
    MetricsRegistry* metrics = nullptr;
    // Optional ghost-event sink (kTxnBegin / kTxnCommit / kTxnAbort).
    TraceRing* trace_ring = nullptr;
    // Abstract mirror seed; must be structurally equal to `inner`'s state
    // (e.g. AtomFs::SnapshotSpec() after WAL recovery). Default: empty FS.
    SpecFs initial;
    // Record every committed unit in commit_log() — required by the crash
    // harness and tests, unbounded memory on a long-running server.
    bool record_commit_log = false;
    // fdatasync the WAL at every commit point: commits then survive power
    // loss, not just a process kill. Off by default — tests and the crash
    // harness model page-cache loss by cutting the log at byte offsets,
    // which the cheap mode's semantics match exactly.
    bool fsync_commits = false;
    // Automatic checkpoint triggers: take a checkpoint when the live WAL
    // generation exceeds this many bytes / this many committed units since
    // the last checkpoint. 0 disables that trigger; Checkpoint() always
    // works explicitly.
    uint64_t checkpoint_bytes = 0;
    uint64_t checkpoint_units = 0;
    // What RecoverJournal reported for the journal at `wal_path` when
    // reopening it; nullptr for a fresh journal. Read only by the
    // constructor: transaction ids continue above max_txid (a discarded
    // transaction's begin survives in the clean prefix, and reusing its id
    // would read as a duplicate bracket on the next recovery), checkpoint
    // ids above generation, and checkpoint headers carry committed_units
    // forward so the cumulative count survives compaction.
    const JournalRecoveryStats* recovered = nullptr;
    // Forwarded to the WalWriter (fault injection in tests).
    WalWriterOptions wal;
  };

  explicit TxnManager(Options options);
  ~TxnManager() override;

  // --- transaction interface (also the TxnHost the server drives) ----------
  Result<TxnId> Begin();
  Status Commit(TxnId id);
  Status Abort(TxnId id);
  // Runs one op inside the transaction, against its private view. Reads see
  // the transaction's own writes; failed ops are reported but not buffered.
  OpResult Apply(TxnId id, const OpCall& call);

  Result<uint64_t> TxBegin() override { return Begin(); }
  Status TxCommit(uint64_t txid) override { return Commit(txid); }
  Status TxAbort(uint64_t txid) override { return Abort(txid); }
  OpResult TxApply(uint64_t txid, const OpCall& call) override { return Apply(txid, call); }
  Status TxCheckpoint() override { return TakeCheckpoint(); }

  // Checkpoints + compacts the journal now: writes the committed mirror as
  // a checkpoint file (write-temp, fdatasync, atomic rename) and rotates
  // the WAL to a fresh generation. kInval without a journal; kIo if the
  // checkpoint could not be written (journal unaffected) or the rotation
  // failed (journal fail-stopped).
  Status TakeCheckpoint();

  // --- FileSystem interface: auto-committed direct ops ---------------------
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
  using FileSystem::Exchange;
  using FileSystem::Mkdir;
  using FileSystem::Mknod;
  using FileSystem::Read;
  using FileSystem::ReadDir;
  using FileSystem::Rename;
  using FileSystem::Rmdir;
  using FileSystem::Stat;
  using FileSystem::Truncate;
  using FileSystem::Unlink;
  using FileSystem::Write;

  // --- introspection -------------------------------------------------------
  TxnStatsSnapshot stats() const;
  // Copy of the commit-order descriptor list (empty unless
  // Options::record_commit_log).
  std::vector<CommitDescriptor> commit_log() const;
  // Open (begun, not yet finished) transactions.
  size_t open_txns() const;
  // True once a journal write failed: the manager is fail-stopped — every
  // mutating call (Begin/Commit/direct ops) answers kIo from then on.
  bool journal_failed() const;
  // Checkpoints taken by this instance (explicit + threshold-triggered).
  uint64_t checkpoints_taken() const;

 private:
  // The path footprint of one op: entries whose version the op depends on,
  // entries it bumps, and subtrees it moves/destroys.
  struct Footprint {
    std::vector<std::string> reads;     // validated only
    std::vector<std::string> writes;    // validated + entry-bumped at commit
    std::vector<std::string> subtrees;  // validated + subtree-bumped at commit
  };
  static Footprint FootprintOf(const OpCall& call);

  struct Txn {
    TxnId id = 0;
    uint64_t begin_clock = 0;  // commit clock at Begin
    SpecFs view;               // private snapshot + own writes
    std::vector<OpCall> writes;
    Footprint footprint;  // union over every applied op
  };

  bool ValidateLocked(const Txn& txn) const;
  void BumpVersionsLocked(const Footprint& fp);
  // Appends + flushes (and optionally fsyncs) the unit's records — the
  // commit point. kIo poisons the writer: the unit is NOT durable and the
  // caller must not apply it anywhere.
  Status LogCommittedLocked(TxnId id, const std::vector<OpCall>& ops);
  void RecordUnitLocked(TxnId id, const std::vector<OpCall>& ops);
  void GhostEvent(TraceEventType type, TxnId id, uint64_t arg, uint64_t aux);
  // Runs one auto-committed op: inner FS first, then its txid-0 WAL record.
  OpResult Direct(const OpCall& call);
  Status CheckpointLocked();
  // Threshold check after each committed unit; best-effort (a failed
  // checkpoint write leaves the journal valid, just uncompacted).
  void MaybeCheckpointLocked();
  bool JournalFailedLocked() const { return wal_ != nullptr && !wal_->ok(); }

  FileSystem* inner_;
  std::unique_ptr<WalWriter> wal_;
  std::string wal_path_;
  TraceRing* ring_;
  bool record_commit_log_;
  bool fsync_commits_;
  uint64_t checkpoint_bytes_;
  uint64_t checkpoint_units_;

  mutable std::mutex mu_;
  SpecFs mirror_;
  uint64_t clock_ = 0;
  TxnId next_txid_ = 1;
  uint64_t commit_seq_ = 0;
  uint64_t next_ckpt_id_ = 1;
  uint64_t recovered_units_ = 0;
  uint64_t units_since_ckpt_ = 0;
  uint64_t checkpoints_taken_ = 0;
  std::unordered_map<TxnId, std::unique_ptr<Txn>> open_;
  std::unordered_map<std::string, uint64_t> entry_ver_;
  std::unordered_map<std::string, uint64_t> subtree_ver_;
  std::vector<CommitDescriptor> commit_log_;
  TxnStatsSnapshot stats_;

  Counter m_begins_, m_commits_, m_aborts_, m_conflicts_;
  Counter m_ckpt_count_, m_ckpt_bytes_, m_fsyncs_;
  Histogram m_commit_ops_, m_commit_latency_, m_ckpt_ms_;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_TXN_TXN_H_
