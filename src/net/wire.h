// The atomfsd wire protocol: length-prefixed binary frames over a stream
// socket (Unix-domain or TCP).
//
// Framing
//   frame    := u32 payload_len (little-endian) | payload
//   request  := u8 opcode | op-specific body
//   response := u8 wire status | body on success (empty on error)
//
// A connection carries a pipelined conversation: the client may have up to
// `max_inflight` request frames outstanding (negotiated via HELLO, see
// below) and the server answers every request, in order, with exactly one
// response frame per request unit. MSGBATCH packs several requests into one
// frame; the server still answers each packed sub-request with its own
// response frame, in order, as if they had been sent individually. All
// integers are little-endian; strings and blobs are u32 length + bytes.
// Payloads are capped at kWireMaxFrameBytes — a larger declared length is a
// protocol error and the server drops the connection (framing can no longer
// be trusted).
//
// Version negotiation: a client should open the conversation with HELLO
// carrying its protocol version and desired inflight window. The server
// answers with its version and the granted window (clamped to server
// policy). An unsupported version gets a clean EPROTO error reply — not a
// dropped connection — so old/new peers can fail soft. A client that skips
// HELLO speaks at the server's default window.
//
// The protocol covers the complete path-based FileSystem interface plus the
// Vfs descriptor ops (open/close/read/write/pread/pwrite/fstat/readdirfd/
// ftruncate/seek; descriptors are per-connection, like a process fd table)
// plus two admin ops: STATS (per-op latency digest) and METRICS (the full
// atomtrace registry snapshot, src/obs).
//
// docs/WIRE_PROTOCOL.md is the normative spec of this protocol; a docs-drift
// test (tests/obs_test.cc) fails if an opcode exists here but not there.
//
// Every decoder here is bounds-checked and total: arbitrary bytes parse to
// either a value or a clean kProto error, never undefined behavior. That is
// what tests/wire_test.cc fuzzes.

#ifndef ATOMFS_SRC_NET_WIRE_H_
#define ATOMFS_SRC_NET_WIRE_H_

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/clock.h"
#include "src/util/status.h"
#include "src/vfs/filesystem.h"

namespace atomfs {

// Hard cap on one frame's payload. A single read or write burst must fit in
// one frame; callers moving more than this chunk their I/O.
inline constexpr uint32_t kWireMaxFrameBytes = 4u << 20;

// Protocol version spoken by this build. v1 was PR 1's unversioned
// synchronous protocol; v2 adds HELLO, MSGBATCH and pipelining; v3 adds the
// server capability bitmask to the HELLO reply. The server still accepts v2
// clients (kWireProtoVersionMin) and answers them with the v2-shaped reply.
inline constexpr uint32_t kWireProtoVersion = 3;
inline constexpr uint32_t kWireProtoVersionMin = 2;

// Hard cap on sub-requests inside one MSGBATCH frame.
inline constexpr uint32_t kWireMaxBatchRequests = 256;

enum class WireOp : uint8_t {
  kPing = 1,
  // Path-based FileSystem interface.
  kMkdir = 2,
  kMknod = 3,
  kRmdir = 4,
  kUnlink = 5,
  kRename = 6,
  kExchange = 7,
  kStat = 8,
  kReadDir = 9,
  kRead = 10,
  kWrite = 11,
  kTruncate = 12,
  // Vfs descriptor ops (per-connection descriptor table).
  kOpen = 13,
  kClose = 14,
  kFdRead = 15,
  kFdWrite = 16,
  kFdPread = 17,
  kFdPwrite = 18,
  kFstat = 19,
  kFdReadDir = 20,
  kFtruncate = 21,
  kSeek = 22,
  // Admin.
  kStats = 23,
  kMetrics = 24,
  // Session control (protocol v2).
  kHello = 25,     // version + inflight-window negotiation
  kMsgBatch = 26,  // several requests packed into one frame
  // Flight-recorder admin ops (still protocol v2: unknown ops on old
  // servers answer EPROTO, which the client surfaces cleanly).
  kTraceDump = 27,  // Chrome trace-event JSON of the server's TraceRing
  kProm = 28,       // Prometheus text exposition of the metrics registry
  // Transactions (still protocol v2; a server without a transaction layer
  // answers EINVAL, an old server EPROTO — both fail soft). A connection
  // holds at most one open transaction; while it is open, path-based
  // FileSystem ops on the connection execute inside it, and MSGBATCH lets a
  // whole begin/ops/commit sequence ship in one frame.
  kTxBegin = 29,   // — | reply u64 txid
  kTxCommit = 30,  // u64 txid (0 = the connection's open txn) | —
  kTxAbort = 31,   // u64 txid (0 = the connection's open txn) | —
  // Journal admin (still protocol v2, same fail-soft story): checkpoint +
  // compact the server's journal now. EINVAL without a journaled
  // transaction layer, EIO if the checkpoint write or WAL rotation failed.
  kCheckpoint = 32,  // — | —
};

inline constexpr uint8_t kWireOpMin = 1;
inline constexpr uint8_t kWireOpMax = 32;

inline bool WireOpKnown(uint8_t raw) { return raw >= kWireOpMin && raw <= kWireOpMax; }
std::string_view WireOpName(WireOp op);

// --- status mapping ----------------------------------------------------------
// Wire status bytes are an explicit stable table, independent of the Errc
// enum layout, so old clients keep working if Errc grows or is reordered.

uint8_t WireStatusOf(Errc code);
Errc ErrcOfWireStatus(uint8_t wire);  // unknown bytes map to kProto

// --- primitive serialization -------------------------------------------------

class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void Str(std::string_view s);
  void Blob(std::span<const std::byte> b);

  const std::vector<std::byte>& buf() const { return buf_; }
  std::vector<std::byte> Take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

// Bounds-checked cursor over a received payload. Every accessor returns
// false (and latches the failure) instead of reading out of range; callers
// check ok() / the accessor result and translate to kProto.
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  bool U8(uint8_t* out);
  bool U32(uint32_t* out);
  bool U64(uint64_t* out);
  bool I32(int32_t* out);
  // Length-prefixed string, rejecting lengths beyond `max_len` or the
  // remaining payload.
  bool Str(std::string* out, size_t max_len);
  bool Blob(std::vector<std::byte>* out, size_t max_len);

  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }

 private:
  bool Take(size_t n, const std::byte** out);

  std::span<const std::byte> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- request model -----------------------------------------------------------
// The union of every request's fields; EncodeRequest writes exactly the
// fields `op` needs and ParseRequest reads exactly those back (and requires
// the payload to end there — trailing garbage is a protocol error).

struct WireRequest {
  WireOp op = WireOp::kPing;
  std::string path_a;            // path ops, open
  std::string path_b;            // rename / exchange
  uint64_t offset = 0;           // read/write/truncate/pread/pwrite/seek
  uint32_t count = 0;            // read/fdread/pread length
  uint32_t flags = 0;            // open
  int32_t fd = -1;               // descriptor ops
  std::vector<std::byte> data;   // write/fdwrite/pwrite payload
  // HELLO: protocol version and desired inflight window (0 = server default).
  uint32_t proto_version = 0;
  uint32_t max_inflight = 0;
  // TXCOMMIT / TXABORT: the transaction to finish (0 = the connection's
  // currently open transaction).
  uint64_t txid = 0;
  // MSGBATCH: the packed sub-requests. Nested MSGBATCH and packed HELLO are
  // protocol errors (a window change mid-batch would be ambiguous).
  std::vector<WireRequest> batch;
};

std::vector<std::byte> EncodeRequest(const WireRequest& req);
Result<WireRequest> ParseRequest(std::span<const std::byte> payload);

// --- HELLO negotiation -------------------------------------------------------
// Request body:  u32 version | u32 desired max_inflight (0 = server default)
// Success reply: u32 version | u32 granted max_inflight (>= 1)
//                | u32 caps (v3 replies only: FileSystem capability bitmask,
//                  kFsCap* in src/vfs/filesystem.h — how clients discover
//                  txn/rcu_walk/sharding support instead of EINVAL-probing)
// An unsupported version is answered with wire status EPROTO and the
// connection stays open. A v2 client gets the v2-shaped reply (no caps).

struct WireHello {
  uint32_t version = 0;
  uint32_t max_inflight = 0;
  uint32_t caps = 0;
};

void EncodeHello(WireWriter& w, const WireHello& hello);
bool ParseHello(WireReader& r, WireHello* out);

// --- response payload pieces -------------------------------------------------

void EncodeAttr(WireWriter& w, const Attr& attr);
bool ParseAttr(WireReader& r, Attr* out);

void EncodeDirEntries(WireWriter& w, const std::vector<DirEntry>& entries);
bool ParseDirEntries(WireReader& r, std::vector<DirEntry>* out);

// Per-op server-side latency digest served by WireOp::kStats.
struct WireOpStats {
  uint8_t op = 0;  // raw WireOp value
  uint64_t count = 0;
  uint64_t mean_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
};

struct WireServerStats {
  uint64_t connections_accepted = 0;
  uint64_t protocol_errors = 0;
  std::vector<WireOpStats> ops;  // only ops with count > 0
};

void EncodeServerStats(WireWriter& w, const WireServerStats& stats);
bool ParseServerStats(WireReader& r, WireServerStats* out);

// Full atomtrace registry snapshot served by WireOp::kMetrics. Histograms
// travel with their complete bucket arrays, so a client computes the same
// percentiles the server would (shared bucket math, src/util/stats.h). A
// snapshot with fewer buckets than kLatencyBucketCount parses (future
// bucket-count reductions stay compatible); more than kLatencyBucketCount is
// a protocol error.
void EncodeMetricsSnapshot(WireWriter& w, const MetricsSnapshot& snap);
bool ParseMetricsSnapshot(WireReader& r, MetricsSnapshot* out);

// --- framing helpers ---------------------------------------------------------
// Shared by both ends of the socket: the client's flush packer and session
// reader, the server's decoder and outbox, and the blocking helpers below.

inline constexpr size_t kWireFrameHeaderBytes = 4;

// Receive buffers, send buffers and outboxes give back capacity above this
// once drained, so a burst (a 4 MiB read reply) does not stay pinned on an
// idle connection. It is also the size a receive buffer starts at.
inline constexpr size_t kWireBufferKeepBytes = 64u << 10;

// Appends `v` little-endian (the layout of every wire integer).
void AppendU32(std::vector<std::byte>& out, uint32_t v);
// Appends one frame: the payload's u32 length, then the payload. A blob
// inside a payload has the same layout.
void AppendFrame(std::vector<std::byte>& out, std::span<const std::byte> payload);
// The payload length declared by the frame header at `header` (4 bytes).
uint32_t PeekFrameLen(const std::byte* header);
// Empties `buf` and gives back its capacity above kWireBufferKeepBytes.
void ClearAndTrim(std::vector<std::byte>& buf);

// Receive side of a framed stream. Bytes land in the spare room past the
// filled end (storage is never value-initialised), whole frames are parsed
// in place from Unread(), and consumed bytes are reclaimed by moving the
// unread tail to the front only when room runs short.
class WireRecvBuffer {
 public:
  // Received bytes not yet consumed.
  std::span<const std::byte> Unread() const { return {buf_.get() + pos_, len_ - pos_}; }
  // Spare room past the filled end, at least `min_room` bytes. Compacts
  // first; grows (at least doubling) only when compacting is not enough,
  // and then leaves at least kWireBufferKeepBytes of room.
  std::span<std::byte> Room(size_t min_room);
  // Marks `n` bytes of Room() as received.
  void Fill(size_t n) { len_ += n; }
  // Drops `n` bytes off the front of Unread(). Once nothing is left unread
  // the buffer restarts at its front and gives back capacity above
  // kWireBufferKeepBytes.
  void Consume(size_t n);
  void Clear() { Consume(len_ - pos_); }

 private:
  std::unique_ptr<std::byte[]> buf_;
  size_t cap_ = 0;
  size_t pos_ = 0;  // first unread byte
  size_t len_ = 0;  // end of the received bytes
};

// --- waiting for the peer ----------------------------------------------------
// Both ends of a depth-1 conversation wait a few microseconds for the other:
// the server loop for the next request of the client it just answered, the
// client for that reply. Blocking at once costs each side a sleep and a
// wakeup per call, so a waiter first polls for kPollBeforeParkNs, yielding
// its CPU between polls (to the peer, when both share a core), and only
// then parks in its blocking call. The yield is the point: a busy spin
// keeps the peer off the CPU and made p99 worse.

inline constexpr uint64_t kPollBeforeParkNs = 50'000;

// Calls the non-blocking `try_once` after a sched_yield() until it returns
// true (progress) or kPollBeforeParkNs have passed since `since_ns`
// (NowNs()). Returns whether `try_once` made progress; on false the caller
// parks.
template <typename TryOnce>
bool PollBeforePark(uint64_t since_ns, TryOnce&& try_once) {
  while (NowNs() - since_ns < kPollBeforeParkNs) {
    sched_yield();
    if (try_once()) {
      return true;
    }
  }
  return false;
}

// --- frame transport ---------------------------------------------------------
// Blocking, whole-frame socket I/O. SendFrame uses MSG_NOSIGNAL so a dead
// peer surfaces as kIo, not SIGPIPE.

Status SendFrame(int sock, std::span<const std::byte> payload);

// Receives one frame. Errors:
//   kNoEnt - the peer closed cleanly before any byte of a new frame
//   kIo    - socket error or EOF mid-frame
//   kProto - declared payload length exceeds `max_bytes`
Result<std::vector<std::byte>> RecvFrame(int sock, uint32_t max_bytes = kWireMaxFrameBytes);

}  // namespace atomfs

#endif  // ATOMFS_SRC_NET_WIRE_H_
