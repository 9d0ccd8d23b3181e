// Record-oriented write-ahead log written by TxnManager (src/txn): its
// auto-committed direct ops and its multi-op transactions share one log.
//
// On-disk format — a flat sequence of checksummed binary records:
//
//   record  := u8 magic (0xA7) | u8 type | u64 txid | u32 payload_len
//            | u32 checksum | payload_len bytes
//   type    := 1 begin | 2 op | 3 commit | 4 abort | 5 ckpt
//
// All integers are little-endian. The checksum is FNV-1a/32 over
// (type, txid, payload); `payload_len` is implicitly covered because a
// length mismatch either truncates the payload (checksum fails) or reads
// past the next record's magic byte (checksum fails). An op record's payload
// is one trace line (src/workload/trace.h FormatTraceLine); begin / commit /
// abort records carry no payload.
//
// txid 0 is reserved for auto-committed standalone operations: an op record
// with txid 0 is durable (and replayed at recovery) on its own, with no
// begin/commit bracket — the contract of TxnManager's direct ops. Records
// with txid > 0 belong to a transaction and become visible atomically at
// their commit record, in log order; a begin without a commit (the crash
// case) and an aborted group are discarded whole.
//
// A ckpt record (type 5) is a generation marker, not an operation: it is the
// first record of every log file created by WalWriter::Rotate, and its txid
// field carries the id of the checkpoint file that made the preceding
// generation redundant. Replay treats it as a no-op; recovery
// (src/journal/checkpoint.h RecoverJournal) uses it to pair each log file
// with the checkpoint whose state it extends, which is what makes the
// rename-then-rotate checkpoint protocol unambiguous at every crash point.
//
// Durability contract (WalWriter):
//   * Append() buffers in process memory — nothing is durable yet.
//   * Flush() writes the buffer to the file with write(2), checking every
//     byte. After a successful Flush the records survive a process kill
//     (SIGKILL, assert, OOM) but NOT a power failure or kernel panic: the
//     bytes sit in the page cache.
//   * Fsync() calls fdatasync(2). After a successful Fsync the records
//     survive power failure. Callers that promise durability to a client
//     (TxnManager with Options::fsync_commits, atomfsd --journal-fsync)
//     fsync at the commit point; the default cheap mode stops at Flush,
//     which is also what the crash harness models (it cuts at arbitrary
//     byte offsets — exactly the torn states a page-cache loss produces).
//   * Every call returns a Status. The first failure (ENOSPC, EIO, a short
//     write that cannot make progress) POISONS the writer: the failed bytes
//     are untrusted, so every later Append/Flush/Fsync fails with the same
//     kIo status and the owner must fail-stop the journal (no further
//     commits) rather than diverge from the log.
//
// Recovery is prefix-exact: ScanWalBytes parses records until the first torn,
// truncated, or checksum-failed record and ignores everything from there on.
// Cutting the log at ANY byte offset therefore yields a clean prefix of
// complete records — the property tests/crash_injection_test.cc sweeps.
// Checkpoint files bound how much log recovery must replay; the sidecar
// format and the load-newest-fall-back-to-previous procedure live in
// src/journal/checkpoint.h.

#ifndef ATOMFS_SRC_JOURNAL_WAL_H_
#define ATOMFS_SRC_JOURNAL_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"
#include "src/vfs/filesystem.h"

namespace atomfs {

inline constexpr uint8_t kWalMagic = 0xA7;
// Fixed bytes before the payload: magic, type, txid, payload_len, checksum.
inline constexpr size_t kWalHeaderBytes = 1 + 1 + 8 + 4 + 4;
// Parse-time sanity cap on one record's payload; anything larger is treated
// as corruption (the largest legal op payload is one wire write, 4 MiB, plus
// its hex encoding and line framing).
inline constexpr uint32_t kWalMaxPayloadBytes = 16u << 20;

enum class WalRecordType : uint8_t {
  kBegin = 1,
  kOp = 2,
  kCommit = 3,
  kAbort = 4,
  // Generation marker: head record of a post-rotation log file; txid = the
  // id of the checkpoint the file's records are relative to. No payload.
  kCkpt = 5,
};

std::string_view WalRecordTypeName(WalRecordType t);

struct WalRecord {
  WalRecordType type = WalRecordType::kOp;
  uint64_t txid = 0;
  std::string payload;
  // Byte offset one past this record in the log — i.e. the record boundary
  // the crash harness truncates at.
  uint64_t end_offset = 0;
};

// Test hook: consulted by WalWriter before each physical write. Return 0 to
// proceed; return an errno (ENOSPC, EIO, ...) to fail the write after at
// most `fault_short_bytes` of the buffer reached the file — i.e. a torn
// prefix on disk plus an error to the caller, the exact shape of a full
// disk or a dying device.
struct WalWriterOptions {
  std::function<int(std::string_view bytes)> write_fault;
  size_t fault_short_bytes = 0;
};

// Append-side handle over an O_APPEND file descriptor. Not internally
// synchronized: the caller (TxnManager) already serializes appends under
// its commit mutex. See the durability contract in the header comment.
class WalWriter {
 public:
  // Opens `path` for append, creating it if missing.
  explicit WalWriter(const std::string& path, WalWriterOptions opts = {});
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // False once the open failed or any write poisoned the writer.
  bool ok() const { return fd_ >= 0 && status_.ok(); }
  // The first error, sticky; Status() (ok) while healthy.
  Status status() const { return status_; }

  Status Append(WalRecordType type, uint64_t txid, std::string_view payload);
  Status Flush();
  Status Fsync();

  // Starts a new log generation after checkpoint `ckpt_id` was durably
  // renamed into place: flushes + fsyncs, renames the live file to
  // `path + ".prevwal"` (replacing any older one — its records are covered
  // by the previous checkpoint), opens a fresh file at `path`, and writes +
  // fsyncs a kCkpt head record carrying `ckpt_id`. On failure the writer is
  // poisoned — a half-rotated journal must not accept new records.
  Status Rotate(uint64_t ckpt_id);

  // Bytes in the current log generation (file size + unflushed buffer) —
  // the checkpoint-trigger measure. Reset by Rotate.
  uint64_t bytes() const { return bytes_; }

 private:
  Status WriteAll(std::string_view bytes);
  Status Poison(Status s);

  std::string path_;
  WalWriterOptions opts_;
  int fd_ = -1;
  std::string buf_;
  uint64_t bytes_ = 0;
  Status status_;
};

// Encodes one record (header + payload) — exposed for tests that build
// hand-crafted or deliberately corrupted logs.
std::string EncodeWalRecord(WalRecordType type, uint64_t txid, std::string_view payload);

struct WalScan {
  std::vector<WalRecord> records;
  // Length of the longest well-formed prefix; bytes past it were torn or
  // corrupt and are ignored.
  uint64_t clean_bytes = 0;
  bool torn_tail = false;
};

// Parses in-memory log bytes (a whole file, or a truncated copy in the crash
// harness); empty bytes scan to an empty record list. Never fails on
// corrupt bytes — they just end the clean prefix.
WalScan ScanWalBytes(std::string_view bytes);

struct WalRecoveryStats {
  uint64_t applied_ops = 0;  // op records actually replayed onto `fs`
  uint64_t committed = 0;    // atomic units applied: txn commits + auto ops
  uint64_t aborted = 0;      // transactions with an abort record
  uint64_t discarded = 0;    // open transactions dropped at the torn tail
  uint64_t clean_bytes = 0;
  bool torn_tail = false;
  // Largest transaction id seen anywhere in the clean prefix, including
  // dangling begins (ckpt markers excluded — their txid field is a
  // checkpoint id, a separate counter). A writer reopening this log must
  // allocate ids above it (TxnManager::Options::recovered): reusing the id
  // of a discarded transaction would make the reused begin look like a
  // duplicate bracket on the next recovery, which stops the replay at that
  // record.
  uint64_t max_txid = 0;
};

// Replays log bytes onto `fs`: auto-committed ops in log order,
// transactions atomically at their commit record's position; ckpt markers
// are skipped. A logged op that fails to re-apply, or a transactional
// record sequence that is internally inconsistent (an op or commit with no
// begin), ends recovery at the last good unit — the log can no longer be
// trusted past that point. This is the byte-level primitive; a journal on
// disk is recovered only through RecoverJournal (src/journal/checkpoint.h),
// which reads the WAL files and layers checkpoint loading + fallback on top
// of this replay.
WalRecoveryStats RecoverWalBytes(std::string_view bytes, FileSystem& fs);

}  // namespace atomfs

#endif  // ATOMFS_SRC_JOURNAL_WAL_H_
