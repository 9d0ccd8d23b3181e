// Checkpointing and compaction for the WAL (src/journal/wal.h).
//
// A checkpoint is a sidecar text file materializing the committed state as
// an op sequence in the trace-line format (src/workload/trace.h
// ExportAsTrace) — replaying it on an empty file system recreates the state
// exactly, so the trace format doubles as the snapshot format:
//
//   # atomfs-checkpoint v1
//   ckpt <id> <max_txid> <committed_units> <nops>
//   <nops trace lines>
//   sum <fnv1a-64 hex over everything above>
//
// Files, for a journal at path P:
//   P            the live WAL (newest generation)
//   P.prevwal    the previous WAL generation (renamed aside by Rotate)
//   P.ckpt       the newest checkpoint
//   P.ckpt.prev  the previous checkpoint (corruption fallback)
//   P.ckpt.tmp   in-flight checkpoint being written (never read)
//
// Checkpoint write protocol (CheckpointWriter / WriteCheckpointFile):
//   1. write the full checkpoint to P.ckpt.tmp, fdatasync it
//   2. rename P.ckpt -> P.ckpt.prev (keeps the fallback)
//   3. rename P.ckpt.tmp -> P.ckpt (atomic publish)
//   4. WalWriter::Rotate: rename P -> P.prevwal, open a fresh P whose head
//      record is a kCkpt marker carrying <id>, fsync it
// Every step is atomic-or-absent, so a crash anywhere leaves a recoverable
// combination of files.
//
// Recovery procedure (RecoverJournal):
//   1. Parse P.ckpt; on corruption fall back to P.ckpt.prev. Call the id of
//      the checkpoint actually used U (0 = none usable/present).
//   2. Scan P.prevwal and P, reading each file's generation from its kCkpt
//      head record (a file with no marker is generation 0).
//   3. Replay the checkpoint's ops, then the WAL files whose generation
//      is >= U, in [P.prevwal, P] order. A file with generation < U is
//      fully covered by the checkpoint (the rotate that would have retired
//      it was interrupted) and is skipped — this is what makes the
//      post-rename-pre-rotate crash state unambiguous.
//   4. With repair=true, normalize the on-disk files so an O_APPEND writer
//      can safely continue: complete an interrupted rotation, truncate a
//      torn tail (an append after torn bytes would be unreadable forever),
//      and delete a stale P.ckpt.tmp.
//
// Recovery cost is therefore bounded by the records written since the last
// checkpoint, not by total history — the compaction claim perfbench's
// txn-journal workload re-measures as journal.recover_ms.

#ifndef ATOMFS_SRC_JOURNAL_CHECKPOINT_H_
#define ATOMFS_SRC_JOURNAL_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/afs/op.h"
#include "src/afs/spec_fs.h"
#include "src/journal/wal.h"
#include "src/util/status.h"
#include "src/vfs/filesystem.h"

namespace atomfs {

// Sidecar file paths for a journal at `wal_path`.
std::string CheckpointPath(const std::string& wal_path);      // + ".ckpt"
std::string PrevCheckpointPath(const std::string& wal_path);  // + ".ckpt.prev"
std::string TmpCheckpointPath(const std::string& wal_path);   // + ".ckpt.tmp"
std::string PrevWalPath(const std::string& wal_path);         // + ".prevwal"

struct Checkpoint {
  // Monotonic checkpoint id; pairs the checkpoint with the WAL generation
  // whose kCkpt head record carries the same id.
  uint64_t ckpt_id = 0;
  // Largest txid folded into the state — recovery reports
  // max(this, WAL max) so reopened writers keep allocating above it.
  uint64_t max_txid = 0;
  // Cumulative committed units represented by the state (reporting only).
  uint64_t committed_units = 0;
  // The materialized state: replaying these on an empty fs recreates it.
  std::vector<OpCall> ops;
};

// Serializes / parses the checkpoint file format. ParseCheckpoint returns
// kInval on any corruption: bad header, op-count mismatch, unparsable trace
// line, or checksum failure.
std::string FormatCheckpoint(const Checkpoint& c);
Result<Checkpoint> ParseCheckpoint(std::string_view bytes);

// Builds a checkpoint from a committed state snapshot.
Checkpoint BuildCheckpoint(const SpecFs& state, uint64_t ckpt_id, uint64_t max_txid,
                           uint64_t committed_units);

// Runs steps 1-3 of the write protocol (temp + fdatasync + atomic renames)
// and returns the checkpoint file's size in bytes. The caller completes the
// checkpoint with WalWriter::Rotate(c.ckpt_id). kIo on any I/O failure —
// the caller must treat the checkpoint as not taken (the live WAL still
// covers everything).
Result<uint64_t> WriteCheckpointFile(const std::string& wal_path, const Checkpoint& c);

struct JournalRecoveryStats {
  // Aggregated over every WAL file replayed; clean_bytes/torn_tail describe
  // the live file only.
  WalRecoveryStats wal;
  bool used_checkpoint = false;
  // True when P.ckpt existed but was corrupt and P.ckpt.prev was used.
  bool fell_back_to_prev = false;
  uint64_t checkpoint_ops = 0;  // ops replayed from the checkpoint file
  // Newest journal generation seen (used checkpoint id or a WAL head
  // marker, whichever is larger). The next checkpoint must use
  // generation + 1.
  uint64_t generation = 0;
  // max(checkpoint max_txid, WAL max_txid): the txid allocation floor.
  uint64_t max_txid = 0;
  // checkpoint committed_units + units replayed from the WAL files.
  uint64_t committed_units = 0;
};

// Full journal recovery: checkpoint (with fallback) + WAL suffix replay,
// per the procedure above. kNoEnt if no journal file exists at all; kIo if
// the WAL demands a checkpoint generation no readable checkpoint provides
// (both checkpoint files corrupt — unrecoverable, better loud than wrong).
// repair=true additionally normalizes the files on disk (see above) so a
// WalWriter reopened on `wal_path` appends into a clean log.
Result<JournalRecoveryStats> RecoverJournal(const std::string& wal_path, FileSystem& fs,
                                            bool repair = false);

}  // namespace atomfs

#endif  // ATOMFS_SRC_JOURNAL_CHECKPOINT_H_
