#include "src/journal/wal.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <map>

#include "src/afs/op.h"
#include "src/util/check.h"
#include "src/workload/trace.h"

namespace atomfs {

std::string_view WalRecordTypeName(WalRecordType t) {
  switch (t) {
    case WalRecordType::kBegin:
      return "begin";
    case WalRecordType::kOp:
      return "op";
    case WalRecordType::kCommit:
      return "commit";
    case WalRecordType::kAbort:
      return "abort";
    case WalRecordType::kCkpt:
      return "ckpt";
  }
  return "unknown";
}

namespace {

// FNV-1a/32 over (type, txid, payload) — cheap, byte-order-stable, and more
// than enough to catch torn writes and bit rot in a single record.
uint32_t WalChecksum(WalRecordType type, uint64_t txid, std::string_view payload) {
  uint32_t h = 2166136261u;
  auto mix = [&h](uint8_t b) {
    h ^= b;
    h *= 16777619u;
  };
  mix(static_cast<uint8_t>(type));
  for (int i = 0; i < 8; ++i) {
    mix(static_cast<uint8_t>((txid >> (8 * i)) & 0xff));
  }
  for (char c : payload) {
    mix(static_cast<uint8_t>(c));
  }
  return h;
}

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

}  // namespace

std::string EncodeWalRecord(WalRecordType type, uint64_t txid, std::string_view payload) {
  std::string out;
  out.reserve(kWalHeaderBytes + payload.size());
  out.push_back(static_cast<char>(kWalMagic));
  out.push_back(static_cast<char>(type));
  PutU64(out, txid);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, WalChecksum(type, txid, payload));
  out.append(payload);
  return out;
}

WalWriter::WalWriter(const std::string& path, WalWriterOptions opts)
    : path_(path), opts_(std::move(opts)) {
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    status_ = Status(Errc::kIo);
    return;
  }
  struct stat st{};
  if (::fstat(fd_, &st) == 0) {
    bytes_ = static_cast<uint64_t>(st.st_size);
  }
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status WalWriter::Poison(Status s) {
  if (status_.ok()) {
    status_ = s;
  }
  return status_;
}

Status WalWriter::WriteAll(std::string_view bytes) {
  if (opts_.write_fault) {
    const int err = opts_.write_fault(bytes);
    if (err != 0) {
      // Model a device that tore the record: land a prefix, then fail.
      const size_t n = std::min(opts_.fault_short_bytes, bytes.size());
      if (n > 0) {
        ssize_t ignored = ::write(fd_, bytes.data(), n);
        (void)ignored;
      }
      errno = err;
      return Status(Errc::kIo);
    }
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status(Errc::kIo);
    }
    if (n == 0) {
      return Status(Errc::kIo);  // no forward progress
    }
    off += static_cast<size_t>(n);
  }
  return Status();
}

Status WalWriter::Append(WalRecordType type, uint64_t txid, std::string_view payload) {
  if (!status_.ok()) {
    return status_;
  }
  if (fd_ < 0) {
    return Poison(Status(Errc::kIo));
  }
  const std::string rec = EncodeWalRecord(type, txid, payload);
  buf_.append(rec);
  bytes_ += rec.size();
  return Status();
}

Status WalWriter::Flush() {
  if (!status_.ok()) {
    return status_;
  }
  if (buf_.empty()) {
    return Status();
  }
  Status s = WriteAll(buf_);
  if (!s.ok()) {
    // The buffer may be partially on disk as a torn record; nothing after
    // this point can be trusted to line up with the file. Fail-stop.
    return Poison(s);
  }
  buf_.clear();
  return Status();
}

Status WalWriter::Fsync() {
  if (!status_.ok()) {
    return status_;
  }
  Status s = Flush();
  if (!s.ok()) {
    return s;
  }
  if (::fdatasync(fd_) != 0) {
    return Poison(Status(Errc::kIo));
  }
  return Status();
}

Status WalWriter::Rotate(uint64_t ckpt_id) {
  Status s = Fsync();
  if (!s.ok()) {
    return s;
  }
  ::close(fd_);
  fd_ = -1;
  const std::string prev = path_ + ".prevwal";
  if (std::rename(path_.c_str(), prev.c_str()) != 0) {
    return Poison(Status(Errc::kIo));
  }
  fd_ = ::open(path_.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    return Poison(Status(Errc::kIo));
  }
  bytes_ = 0;
  s = Append(WalRecordType::kCkpt, ckpt_id, {});
  if (!s.ok()) {
    return s;
  }
  // The head marker must be durable before any record lands after it:
  // recovery pairs this file with checkpoint `ckpt_id` by reading it.
  return Fsync();
}

WalScan ScanWalBytes(std::string_view bytes) {
  WalScan scan;
  size_t off = 0;
  while (off < bytes.size()) {
    const size_t remaining = bytes.size() - off;
    if (remaining < kWalHeaderBytes) {
      break;  // torn header
    }
    const char* p = bytes.data() + off;
    if (static_cast<uint8_t>(p[0]) != kWalMagic) {
      break;  // corrupt: lost framing
    }
    const uint8_t raw_type = static_cast<uint8_t>(p[1]);
    if (raw_type < static_cast<uint8_t>(WalRecordType::kBegin) ||
        raw_type > static_cast<uint8_t>(WalRecordType::kCkpt)) {
      break;
    }
    const uint64_t txid = GetU64(p + 2);
    const uint32_t len = GetU32(p + 10);
    const uint32_t crc = GetU32(p + 14);
    if (len > kWalMaxPayloadBytes || remaining - kWalHeaderBytes < len) {
      break;  // absurd length (corrupt) or torn payload
    }
    const std::string_view payload(p + kWalHeaderBytes, len);
    const WalRecordType type = static_cast<WalRecordType>(raw_type);
    if (WalChecksum(type, txid, payload) != crc) {
      break;
    }
    WalRecord rec;
    rec.type = type;
    rec.txid = txid;
    rec.payload = std::string(payload);
    rec.end_offset = off + kWalHeaderBytes + len;
    scan.records.push_back(std::move(rec));
    off += kWalHeaderBytes + len;
  }
  scan.clean_bytes = off;
  scan.torn_tail = off != bytes.size();
  return scan;
}

WalRecoveryStats RecoverWalBytes(std::string_view bytes, FileSystem& fs) {
  const WalScan scan = ScanWalBytes(bytes);
  WalRecoveryStats stats;
  stats.clean_bytes = scan.clean_bytes;
  stats.torn_tail = scan.torn_tail;
  // Transactions open at the current scan position, in begin order. Ops are
  // parsed eagerly (a begin whose ops cannot parse must not count as
  // committed later) but applied only at their commit record.
  std::map<uint64_t, std::vector<OpCall>> open;
  for (const WalRecord& rec : scan.records) {
    if (rec.type != WalRecordType::kCkpt && rec.txid > stats.max_txid) {
      stats.max_txid = rec.txid;
    }
    switch (rec.type) {
      case WalRecordType::kBegin: {
        if (rec.txid == 0 || open.count(rec.txid) != 0) {
          return stats;  // inconsistent bracket: stop at the last good unit
        }
        open[rec.txid];
        break;
      }
      case WalRecordType::kOp: {
        auto call = ParseTraceLine(rec.payload);
        if (!call.ok()) {
          return stats;
        }
        if (rec.txid == 0) {
          // Auto-committed standalone op: durable on its own.
          if (!RunOp(fs, *call).status.ok()) {
            return stats;
          }
          ++stats.applied_ops;
          ++stats.committed;
        } else {
          auto it = open.find(rec.txid);
          if (it == open.end()) {
            return stats;  // op with no begin
          }
          it->second.push_back(std::move(*call));
        }
        break;
      }
      case WalRecordType::kCommit: {
        auto it = open.find(rec.txid);
        if (it == open.end()) {
          return stats;
        }
        // The writer (TxnManager) validates a transaction against committed
        // state before logging it, so every op must re-apply cleanly here;
        // a failure means the log is inconsistent and recovery stops.
        for (const OpCall& call : it->second) {
          if (!RunOp(fs, call).status.ok()) {
            return stats;
          }
          ++stats.applied_ops;
        }
        ++stats.committed;
        open.erase(it);
        break;
      }
      case WalRecordType::kAbort: {
        auto it = open.find(rec.txid);
        if (it == open.end()) {
          return stats;
        }
        open.erase(it);
        ++stats.aborted;
        break;
      }
      case WalRecordType::kCkpt: {
        // Generation marker: states which checkpoint this file's records
        // extend. Replay itself ignores it — RecoverJournal already decided
        // which files to feed here.
        break;
      }
    }
  }
  // Transactions still open at the end of the clean prefix never committed:
  // the crash beat their commit record, so they are invisible — whole.
  stats.discarded = open.size();
  return stats;
}

}  // namespace atomfs
