#include "src/net/wire.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/util/status_table.h"
#include "src/vfs/path.h"

namespace atomfs {

std::string_view WireOpName(WireOp op) {
  switch (op) {
    case WireOp::kPing:
      return "ping";
    case WireOp::kMkdir:
      return "mkdir";
    case WireOp::kMknod:
      return "mknod";
    case WireOp::kRmdir:
      return "rmdir";
    case WireOp::kUnlink:
      return "unlink";
    case WireOp::kRename:
      return "rename";
    case WireOp::kExchange:
      return "exchange";
    case WireOp::kStat:
      return "stat";
    case WireOp::kReadDir:
      return "readdir";
    case WireOp::kRead:
      return "read";
    case WireOp::kWrite:
      return "write";
    case WireOp::kTruncate:
      return "truncate";
    case WireOp::kOpen:
      return "open";
    case WireOp::kClose:
      return "close";
    case WireOp::kFdRead:
      return "fdread";
    case WireOp::kFdWrite:
      return "fdwrite";
    case WireOp::kFdPread:
      return "fdpread";
    case WireOp::kFdPwrite:
      return "fdpwrite";
    case WireOp::kFstat:
      return "fstat";
    case WireOp::kFdReadDir:
      return "fdreaddir";
    case WireOp::kFtruncate:
      return "ftruncate";
    case WireOp::kSeek:
      return "seek";
    case WireOp::kStats:
      return "stats";
    case WireOp::kMetrics:
      return "metrics";
    case WireOp::kHello:
      return "hello";
    case WireOp::kMsgBatch:
      return "msgbatch";
    case WireOp::kTraceDump:
      return "trace";
    case WireOp::kProm:
      return "prom";
    case WireOp::kTxBegin:
      return "txbegin";
    case WireOp::kTxCommit:
      return "txcommit";
    case WireOp::kTxAbort:
      return "txabort";
    case WireOp::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

// --- status mapping ----------------------------------------------------------

// Both directions are generated from the one normative X-macro table
// (src/util/status_table.h); the docs-drift test pins that table against the
// status table in docs/WIRE_PROTOCOL.md.

uint8_t WireStatusOf(Errc code) {
  switch (code) {
#define ATOMFS_WIRE_STATUS_OF_CASE(errc, wire_byte, errc_name, wire_name) \
  case Errc::errc:                                                        \
    return wire_byte;
    ATOMFS_WIRE_STATUS_TABLE(ATOMFS_WIRE_STATUS_OF_CASE)
#undef ATOMFS_WIRE_STATUS_OF_CASE
  }
  return 13;  // unmapped codes degrade to EIO
}

Errc ErrcOfWireStatus(uint8_t wire) {
  switch (wire) {
#define ATOMFS_ERRC_OF_WIRE_CASE(errc, wire_byte, errc_name, wire_name) \
  case wire_byte:                                                       \
    return Errc::errc;
    ATOMFS_WIRE_STATUS_TABLE(ATOMFS_ERRC_OF_WIRE_CASE)
#undef ATOMFS_ERRC_OF_WIRE_CASE
    default:
      return Errc::kProto;
  }
}

// --- primitive serialization -------------------------------------------------

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  for (char c : s) {
    buf_.push_back(static_cast<std::byte>(c));
  }
}

void WireWriter::Blob(std::span<const std::byte> b) {
  U32(static_cast<uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

bool WireReader::Take(size_t n, const std::byte** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool WireReader::U8(uint8_t* out) {
  const std::byte* p = nullptr;
  if (!Take(1, &p)) {
    return false;
  }
  *out = static_cast<uint8_t>(*p);
  return true;
}

bool WireReader::U32(uint32_t* out) {
  const std::byte* p = nullptr;
  if (!Take(4, &p)) {
    return false;
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint32_t>(p[i]);
  }
  *out = v;
  return true;
}

bool WireReader::U64(uint64_t* out) {
  const std::byte* p = nullptr;
  if (!Take(8, &p)) {
    return false;
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint64_t>(p[i]);
  }
  *out = v;
  return true;
}

bool WireReader::I32(int32_t* out) {
  uint32_t v = 0;
  if (!U32(&v)) {
    return false;
  }
  *out = static_cast<int32_t>(v);
  return true;
}

bool WireReader::Str(std::string* out, size_t max_len) {
  uint32_t len = 0;
  if (!U32(&len) || len > max_len) {
    ok_ = false;
    return false;
  }
  const std::byte* p = nullptr;
  if (!Take(len, &p)) {
    return false;
  }
  out->assign(reinterpret_cast<const char*>(p), len);
  return true;
}

bool WireReader::Blob(std::vector<std::byte>* out, size_t max_len) {
  uint32_t len = 0;
  if (!U32(&len) || len > max_len) {
    ok_ = false;
    return false;
  }
  const std::byte* p = nullptr;
  if (!Take(len, &p)) {
    return false;
  }
  out->assign(p, p + len);
  return true;
}

// --- request model -----------------------------------------------------------

std::vector<std::byte> EncodeRequest(const WireRequest& req) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(req.op));
  switch (req.op) {
    case WireOp::kPing:
    case WireOp::kStats:
    case WireOp::kMetrics:
    case WireOp::kTraceDump:
    case WireOp::kProm:
    case WireOp::kTxBegin:
    case WireOp::kCheckpoint:
      break;
    case WireOp::kTxCommit:
    case WireOp::kTxAbort:
      w.U64(req.txid);
      break;
    case WireOp::kMkdir:
    case WireOp::kMknod:
    case WireOp::kRmdir:
    case WireOp::kUnlink:
    case WireOp::kStat:
    case WireOp::kReadDir:
      w.Str(req.path_a);
      break;
    case WireOp::kRename:
    case WireOp::kExchange:
      w.Str(req.path_a);
      w.Str(req.path_b);
      break;
    case WireOp::kRead:
      w.Str(req.path_a);
      w.U64(req.offset);
      w.U32(req.count);
      break;
    case WireOp::kWrite:
      w.Str(req.path_a);
      w.U64(req.offset);
      w.Blob(req.data);
      break;
    case WireOp::kTruncate:
      w.Str(req.path_a);
      w.U64(req.offset);
      break;
    case WireOp::kOpen:
      w.Str(req.path_a);
      w.U32(req.flags);
      break;
    case WireOp::kClose:
    case WireOp::kFstat:
    case WireOp::kFdReadDir:
      w.I32(req.fd);
      break;
    case WireOp::kFdRead:
      w.I32(req.fd);
      w.U32(req.count);
      break;
    case WireOp::kFdWrite:
      w.I32(req.fd);
      w.Blob(req.data);
      break;
    case WireOp::kFdPread:
      w.I32(req.fd);
      w.U64(req.offset);
      w.U32(req.count);
      break;
    case WireOp::kFdPwrite:
      w.I32(req.fd);
      w.U64(req.offset);
      w.Blob(req.data);
      break;
    case WireOp::kFtruncate:
    case WireOp::kSeek:
      w.I32(req.fd);
      w.U64(req.offset);
      break;
    case WireOp::kHello:
      w.U32(req.proto_version);
      w.U32(req.max_inflight);
      break;
    case WireOp::kMsgBatch:
      w.U32(static_cast<uint32_t>(req.batch.size()));
      for (const WireRequest& sub : req.batch) {
        w.Blob(EncodeRequest(sub));
      }
      break;
  }
  return w.Take();
}

namespace {

Result<WireRequest> ParseRequestImpl(std::span<const std::byte> payload, bool allow_batch) {
  WireReader r(payload);
  uint8_t raw_op = 0;
  if (!r.U8(&raw_op) || !WireOpKnown(raw_op)) {
    return Errc::kProto;
  }
  WireRequest req;
  req.op = static_cast<WireOp>(raw_op);
  bool good = true;
  switch (req.op) {
    case WireOp::kPing:
    case WireOp::kStats:
    case WireOp::kMetrics:
    case WireOp::kTraceDump:
    case WireOp::kProm:
    case WireOp::kTxBegin:
    case WireOp::kCheckpoint:
      break;
    case WireOp::kTxCommit:
    case WireOp::kTxAbort:
      good = r.U64(&req.txid);
      break;
    case WireOp::kMkdir:
    case WireOp::kMknod:
    case WireOp::kRmdir:
    case WireOp::kUnlink:
    case WireOp::kStat:
    case WireOp::kReadDir:
      good = r.Str(&req.path_a, kMaxPathLen);
      break;
    case WireOp::kRename:
    case WireOp::kExchange:
      good = r.Str(&req.path_a, kMaxPathLen) && r.Str(&req.path_b, kMaxPathLen);
      break;
    case WireOp::kRead:
      good = r.Str(&req.path_a, kMaxPathLen) && r.U64(&req.offset) && r.U32(&req.count);
      break;
    case WireOp::kWrite:
      good = r.Str(&req.path_a, kMaxPathLen) && r.U64(&req.offset) &&
             r.Blob(&req.data, kWireMaxFrameBytes);
      break;
    case WireOp::kTruncate:
      good = r.Str(&req.path_a, kMaxPathLen) && r.U64(&req.offset);
      break;
    case WireOp::kOpen:
      good = r.Str(&req.path_a, kMaxPathLen) && r.U32(&req.flags);
      break;
    case WireOp::kClose:
    case WireOp::kFstat:
    case WireOp::kFdReadDir:
      good = r.I32(&req.fd);
      break;
    case WireOp::kFdRead:
      good = r.I32(&req.fd) && r.U32(&req.count);
      break;
    case WireOp::kFdWrite:
      good = r.I32(&req.fd) && r.Blob(&req.data, kWireMaxFrameBytes);
      break;
    case WireOp::kFdPread:
      good = r.I32(&req.fd) && r.U64(&req.offset) && r.U32(&req.count);
      break;
    case WireOp::kFdPwrite:
      good = r.I32(&req.fd) && r.U64(&req.offset) && r.Blob(&req.data, kWireMaxFrameBytes);
      break;
    case WireOp::kFtruncate:
    case WireOp::kSeek:
      good = r.I32(&req.fd) && r.U64(&req.offset);
      break;
    case WireOp::kHello:
      good = r.U32(&req.proto_version) && r.U32(&req.max_inflight);
      break;
    case WireOp::kMsgBatch: {
      uint32_t n = 0;
      good = allow_batch && r.U32(&n) && n >= 1 && n <= kWireMaxBatchRequests;
      req.batch.reserve(good ? n : 0);
      for (uint32_t i = 0; good && i < n; ++i) {
        std::vector<std::byte> sub_bytes;
        if (!r.Blob(&sub_bytes, kWireMaxFrameBytes)) {
          good = false;
          break;
        }
        Result<WireRequest> sub = ParseRequestImpl(sub_bytes, /*allow_batch=*/false);
        // HELLO must stand alone: a window change mid-batch would be
        // ambiguous against the batch's own admission.
        if (!sub.ok() || sub->op == WireOp::kHello) {
          good = false;
          break;
        }
        req.batch.push_back(std::move(*sub));
      }
      break;
    }
  }
  if (!good || !r.AtEnd()) {
    return Errc::kProto;
  }
  // Reads are answered with one blob in one frame; an unbounded count would
  // let a client demand an oversized response.
  if (req.count > kWireMaxFrameBytes) {
    return Errc::kProto;
  }
  return req;
}

}  // namespace

Result<WireRequest> ParseRequest(std::span<const std::byte> payload) {
  return ParseRequestImpl(payload, /*allow_batch=*/true);
}

// --- HELLO negotiation -------------------------------------------------------

void EncodeHello(WireWriter& w, const WireHello& hello) {
  w.U32(hello.version);
  w.U32(hello.max_inflight);
  if (hello.version >= 3) {
    w.U32(hello.caps);
  }
}

bool ParseHello(WireReader& r, WireHello* out) {
  if (!r.U32(&out->version) || !r.U32(&out->max_inflight)) {
    return false;
  }
  // The capability bitmask exists only in the v3 body; a v2 peer's reply
  // ends after the granted window (caps stays 0 = nothing advertised).
  out->caps = 0;
  return out->version < 3 || r.U32(&out->caps);
}

// --- response payload pieces -------------------------------------------------

void EncodeAttr(WireWriter& w, const Attr& attr) {
  w.U64(attr.ino);
  w.U8(attr.type == FileType::kDir ? 1 : 0);
  w.U64(attr.size);
}

bool ParseAttr(WireReader& r, Attr* out) {
  uint8_t type = 0;
  if (!r.U64(&out->ino) || !r.U8(&type) || type > 1) {
    return false;
  }
  out->type = type == 1 ? FileType::kDir : FileType::kFile;
  return r.U64(&out->size);
}

void EncodeDirEntries(WireWriter& w, const std::vector<DirEntry>& entries) {
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const DirEntry& e : entries) {
    w.Str(e.name);
    w.U64(e.ino);
    w.U8(e.type == FileType::kDir ? 1 : 0);
  }
}

bool ParseDirEntries(WireReader& r, std::vector<DirEntry>* out) {
  uint32_t count = 0;
  if (!r.U32(&count) || count > kWireMaxFrameBytes / 8) {
    return false;
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DirEntry e;
    uint8_t type = 0;
    if (!r.Str(&e.name, kMaxNameLen) || !r.U64(&e.ino) || !r.U8(&type) || type > 1) {
      return false;
    }
    e.type = type == 1 ? FileType::kDir : FileType::kFile;
    out->push_back(std::move(e));
  }
  return true;
}

void EncodeServerStats(WireWriter& w, const WireServerStats& stats) {
  w.U64(stats.connections_accepted);
  w.U64(stats.protocol_errors);
  w.U32(static_cast<uint32_t>(stats.ops.size()));
  for (const WireOpStats& s : stats.ops) {
    w.U8(s.op);
    w.U64(s.count);
    w.U64(s.mean_ns);
    w.U64(s.p50_ns);
    w.U64(s.p99_ns);
    w.U64(s.p999_ns);
  }
}

bool ParseServerStats(WireReader& r, WireServerStats* out) {
  uint32_t rows = 0;
  if (!r.U64(&out->connections_accepted) || !r.U64(&out->protocol_errors) || !r.U32(&rows) ||
      rows > 256) {
    return false;
  }
  out->ops.clear();
  out->ops.reserve(rows);
  for (uint32_t i = 0; i < rows; ++i) {
    WireOpStats s;
    if (!r.U8(&s.op) || !r.U64(&s.count) || !r.U64(&s.mean_ns) || !r.U64(&s.p50_ns) ||
        !r.U64(&s.p99_ns) || !r.U64(&s.p999_ns)) {
      return false;
    }
    out->ops.push_back(s);
  }
  return true;
}

namespace {

// Caps keeping a malicious METRICS response from forcing absurd allocations.
inline constexpr uint32_t kMaxMetricName = 256;
inline constexpr uint32_t kMaxMetricRows = 4096;

}  // namespace

void EncodeMetricsSnapshot(WireWriter& w, const MetricsSnapshot& snap) {
  w.U32(static_cast<uint32_t>(snap.counters.size()));
  for (const CounterSnapshot& c : snap.counters) {
    w.Str(c.name);
    w.U64(c.value);
  }
  w.U32(static_cast<uint32_t>(snap.gauges.size()));
  for (const GaugeSnapshot& g : snap.gauges) {
    w.Str(g.name);
    w.U64(static_cast<uint64_t>(g.value));  // two's complement round-trip
  }
  w.U32(static_cast<uint32_t>(snap.histograms.size()));
  for (const HistogramSnapshot& h : snap.histograms) {
    w.Str(h.name);
    w.U64(h.count);
    w.U64(h.sum);
    w.U32(static_cast<uint32_t>(h.buckets.size()));
    for (uint64_t b : h.buckets) {
      w.U64(b);
    }
  }
}

bool ParseMetricsSnapshot(WireReader& r, MetricsSnapshot* out) {
  uint32_t n = 0;
  if (!r.U32(&n) || n > kMaxMetricRows) {
    return false;
  }
  out->counters.clear();
  out->counters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    CounterSnapshot c;
    if (!r.Str(&c.name, kMaxMetricName) || !r.U64(&c.value)) {
      return false;
    }
    out->counters.push_back(std::move(c));
  }
  if (!r.U32(&n) || n > kMaxMetricRows) {
    return false;
  }
  out->gauges.clear();
  out->gauges.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    GaugeSnapshot g;
    uint64_t raw = 0;
    if (!r.Str(&g.name, kMaxMetricName) || !r.U64(&raw)) {
      return false;
    }
    g.value = static_cast<int64_t>(raw);
    out->gauges.push_back(std::move(g));
  }
  if (!r.U32(&n) || n > kMaxMetricRows) {
    return false;
  }
  out->histograms.clear();
  out->histograms.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    HistogramSnapshot h;
    uint32_t n_buckets = 0;
    if (!r.Str(&h.name, kMaxMetricName) || !r.U64(&h.count) || !r.U64(&h.sum) ||
        !r.U32(&n_buckets) || n_buckets > h.buckets.size()) {
      return false;
    }
    for (uint32_t b = 0; b < n_buckets; ++b) {
      if (!r.U64(&h.buckets[b])) {
        return false;
      }
    }
    out->histograms.push_back(std::move(h));
  }
  return true;
}

// --- framing helpers ---------------------------------------------------------

void AppendU32(std::vector<std::byte>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void AppendFrame(std::vector<std::byte>& out, std::span<const std::byte> payload) {
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

uint32_t PeekFrameLen(const std::byte* header) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint32_t>(header[i]);
  }
  return v;
}

void ClearAndTrim(std::vector<std::byte>& buf) {
  buf.clear();
  if (buf.capacity() > kWireBufferKeepBytes) {
    std::vector<std::byte> fresh;
    fresh.reserve(kWireBufferKeepBytes);
    buf.swap(fresh);
  }
}

std::span<std::byte> WireRecvBuffer::Room(size_t min_room) {
  const size_t unread = len_ - pos_;
  if (cap_ - len_ < std::max(min_room, kWireBufferKeepBytes) && pos_ > 0) {
    std::memmove(buf_.get(), buf_.get() + pos_, unread);
    pos_ = 0;
    len_ = unread;
  }
  if (cap_ - len_ < min_room) {
    // Doubling keeps a large frame arriving in small reads linear in copies.
    const size_t cap = std::max(2 * cap_, unread + std::max(min_room, kWireBufferKeepBytes));
    std::unique_ptr<std::byte[]> grown(new std::byte[cap]);  // default-init: no zero-fill
    if (unread > 0) {
      std::memcpy(grown.get(), buf_.get() + pos_, unread);
    }
    buf_ = std::move(grown);
    cap_ = cap;
    pos_ = 0;
    len_ = unread;
  }
  return {buf_.get() + len_, cap_ - len_};
}

void WireRecvBuffer::Consume(size_t n) {
  pos_ += n;
  if (pos_ == len_) {
    pos_ = 0;
    len_ = 0;
    if (cap_ > kWireBufferKeepBytes) {
      buf_.reset(new std::byte[kWireBufferKeepBytes]);
      cap_ = kWireBufferKeepBytes;
    }
  }
}

// --- frame transport ---------------------------------------------------------

namespace {

Status SendAll(int sock, const std::byte* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = send(sock, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status(Errc::kIo);
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// Returns 1 on success, 0 on clean EOF before the first byte, -1 on error
// (including EOF after at least one byte).
int RecvAll(int sock, std::byte* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = recv(sock, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (n == 0) {
      return got == 0 ? 0 : -1;
    }
    got += static_cast<size_t>(n);
  }
  return 1;
}

}  // namespace

Status SendFrame(int sock, std::span<const std::byte> payload) {
  std::vector<std::byte> frame;
  frame.reserve(kWireFrameHeaderBytes + payload.size());
  AppendFrame(frame, payload);
  return SendAll(sock, frame.data(), frame.size());
}

Result<std::vector<std::byte>> RecvFrame(int sock, uint32_t max_bytes) {
  std::byte header[kWireFrameHeaderBytes];
  const int rc = RecvAll(sock, header, sizeof header);
  if (rc == 0) {
    return Errc::kNoEnt;  // clean close between frames
  }
  if (rc < 0) {
    return Errc::kIo;
  }
  const uint32_t len = PeekFrameLen(header);
  if (len > max_bytes) {
    return Errc::kProto;
  }
  std::vector<std::byte> payload(len);
  if (len > 0 && RecvAll(sock, payload.data(), len) != 1) {
    return Errc::kIo;
  }
  return payload;
}

}  // namespace atomfs
