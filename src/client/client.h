// AtomFsClient: a remote AtomFS mount speaking the src/net wire protocol.
//
// The client *is a* FileSystem, so every existing workload driver, test
// harness, and conformance suite runs unmodified against a served instance —
// the linearizability the server inherits from its backend is exactly what
// makes this substitution sound. On top of the path interface it mirrors the
// Vfs descriptor ops (the descriptor table lives server-side, scoped to this
// connection).
//
// Underneath, the connection is a pipelined ClientSession (protocol v2):
// Submit() stages a request and returns a Future, Flush() packs staged
// requests into MSGBATCH frames (respecting the HELLO-negotiated
// `max_inflight` window) and puts them on the wire, Future::Wait() drives
// the socket until that request's reply arrives. Replies always resolve in
// submission order. Bytes move in bulk both ways: a flush packs its frames
// into one reused buffer for one send(2), and one recv(2) takes every reply
// the kernel has buffered, which are then parsed in place (a batch of 8
// replies usually costs one receive, not 16). The synchronous FileSystem
// methods are thin submit+flush+wait wrappers, so they cost one round trip
// exactly as before; pipelined callers grab session() and overlap many.
//
// A mutex serializes concurrent callers on the same session; parallel load
// wants one client per thread (see bench/bench_server_throughput.cc).
// Wire-level failures carry distinct codes: transport failures surface as
// kIo, server-rejected frames as kProto, idle-reaped connections as
// kTimedOut, window-overcommitted batches as kBackpressure. None of these
// is ever produced by an in-process FileSystem, so remote-only failures are
// distinguishable. Once a session sees a transport failure it is broken for
// good: every queued and future request fails with the same code.

#ifndef ATOMFS_SRC_CLIENT_CLIENT_H_
#define ATOMFS_SRC_CLIENT_CLIENT_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/wire.h"
#include "src/util/status.h"
#include "src/vfs/filesystem.h"
#include "src/vfs/vfs.h"

namespace atomfs {

// Inflight window the client asks for in HELLO; the server may grant less.
inline constexpr uint32_t kDefaultClientInflight = 64;

// One pipelined wire conversation over a connected stream socket.
class ClientSession {
 private:
  struct Pending {
    // Resolution is sticky: `result` is written before `done` flips, and an
    // already-done future reads `result` without taking the session lock —
    // which is what lets a resolved Future outlive its session.
    std::atomic<bool> done{false};
    bool staged = true;  // not yet on the wire
    Result<std::vector<std::byte>> result{Errc::kIo};
  };

 public:
  // A handle to one submitted request's eventual reply (the response
  // payload past the status byte; error statuses surface as the Result's
  // status). Wait() drives the session's socket as needed; once resolved,
  // further Wait() calls return the stored result without touching the
  // session. The session destructor resolves every still-pending request
  // with kIo, so Wait() on a future that outlived its session is safe —
  // only Wait() racing the destructor itself is not.
  //
  // When no whole reply is buffered, Wait() polls the socket without
  // blocking, yielding its CPU between polls, for up to kPollBeforeParkNs
  // (50 µs, the server loop's budget too; see PollBeforePark in
  // src/net/wire.h), and only then parks in a blocking recv(2) (counted
  // by parks()). A local server's depth-1 reply usually lands inside that
  // budget, which saves the client a sleep and a wakeup per call. The
  // price is CPU, so a session whose last wait outlasted the budget (a
  // slow, remote or CPU-starved server) parks at once, without polling
  // (counted by polls()), until a wait ends within the budget again.
  class Future {
   public:
    Future() = default;
    bool valid() const { return state_ != nullptr; }
    Result<std::vector<std::byte>> Wait();

   private:
    friend class ClientSession;
    Future(ClientSession* session, std::shared_ptr<Pending> state)
        : session_(session), state_(std::move(state)) {}
    ClientSession* session_ = nullptr;
    std::shared_ptr<Pending> state_;
  };

  // Takes ownership of a connected socket (closes it on failure and in the
  // destructor), performs the HELLO handshake asking for `want_inflight`,
  // and returns the negotiated session. kProto if the server rejects the
  // protocol version or answers HELLO malformed.
  static Result<std::unique_ptr<ClientSession>> Negotiate(int sock, uint32_t want_inflight);

  // Resolves every unresolved request with kIo (so outstanding Futures
  // never dangle), then closes the socket.
  ~ClientSession();
  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  // Stages a request; nothing hits the wire until Flush()/Wait()/Call().
  Future Submit(const WireRequest& req);

  // Packs every staged request into frames (MSGBATCH when more than one fits
  // the window) and sends them, reading replies as needed to respect the
  // negotiated window. Returns the session's broken-status on failure.
  Status Flush();

  // Synchronous convenience: submit + flush + wait.
  Result<std::vector<std::byte>> Call(const WireRequest& req);

  // Negotiated session parameters.
  uint32_t max_inflight() const { return window_; }
  uint32_t server_version() const { return server_version_; }
  // Capability bitmask (kFsCap*) from the v3 HELLO reply; 0 from a v2 server.
  uint32_t server_caps() const { return server_caps_; }
  // Blocking receives entered so far: reply waits that outlasted the poll
  // or skipped it (see Future::Wait).
  uint64_t parks() const { return parks_.load(); }
  // Reply waits that polled before taking the reply or parking.
  uint64_t polls() const { return polls_.load(); }

 private:
  explicit ClientSession(int sock) : sock_(sock) {}

  struct StagedOp {
    std::vector<std::byte> payload;  // encoded request, unframed
    std::shared_ptr<Pending> pending;
  };

  std::shared_ptr<Pending> SubmitLocked(const WireRequest& req);
  Status FlushLocked();
  Status ReadOneReplyLocked();
  Status BreakLocked(Status st);  // poisons the session and every request
  Result<std::vector<std::byte>> WaitLocked(const std::shared_ptr<Pending>& p);

  std::mutex mu_;  // serializes the whole conversation
  int sock_ = -1;
  uint32_t window_ = 1;  // 1 until HELLO's grant arrives
  uint32_t server_version_ = 0;
  uint32_t server_caps_ = 0;
  Status broken_ = Status::Ok();
  std::vector<StagedOp> staged_;
  std::deque<std::shared_ptr<Pending>> outstanding_;  // on the wire, FIFO
  std::vector<std::byte> sendbuf_;  // frames of the flush being packed
  WireRecvBuffer rbuf_;             // received reply bytes, parsed in place
  std::atomic<uint64_t> parks_{0};  // written under mu_, read by parks()
  std::atomic<uint64_t> polls_{0};  // written under mu_, read by polls()
  bool park_at_once_ = false;       // the last wait outlasted the poll budget
};

class AtomFsClient : public FileSystem {
 public:
  static Result<std::unique_ptr<AtomFsClient>> ConnectUnix(const std::string& socket_path);
  // Connects to 127.0.0.1:port (atomfsd only binds loopback).
  static Result<std::unique_ptr<AtomFsClient>> ConnectTcp(uint16_t port);
  // Parses "unix:PATH" or "tcp:PORT" (the form atomfsd and fsshell accept).
  static Result<std::unique_ptr<AtomFsClient>> Connect(const std::string& endpoint);

  ~AtomFsClient() override;

  AtomFsClient(const AtomFsClient&) = delete;
  AtomFsClient& operator=(const AtomFsClient&) = delete;

  // The pipelined session underneath, for callers that want to overlap
  // requests: session().Submit(...) xN, session().Flush(), futures resolve
  // in order.
  ClientSession& session() { return *session_; }
  uint32_t protocol_version() const { return session_->server_version(); }
  uint32_t max_inflight() const { return session_->max_inflight(); }

  // What the server advertised in HELLO — discovery without EINVAL-probing.
  uint32_t Capabilities() const override { return session_->server_caps(); }

  // FileSystem interface (remote).
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
  using FileSystem::Mkdir;
  using FileSystem::Mknod;
  using FileSystem::Rmdir;
  using FileSystem::Unlink;
  using FileSystem::Rename;
  using FileSystem::Exchange;
  using FileSystem::Stat;
  using FileSystem::ReadDir;
  using FileSystem::Read;
  using FileSystem::Write;
  using FileSystem::Truncate;

  // Remote descriptor ops (server-side per-connection Vfs).
  Result<Fd> Open(std::string_view path, uint32_t flags);
  Status Close(Fd fd);
  Result<size_t> FdRead(Fd fd, std::span<std::byte> out);
  Result<size_t> FdWrite(Fd fd, std::span<const std::byte> data);
  Result<size_t> Pread(Fd fd, uint64_t offset, std::span<std::byte> out);
  Result<size_t> Pwrite(Fd fd, uint64_t offset, std::span<const std::byte> data);
  Result<Attr> Fstat(Fd fd);
  Result<std::vector<DirEntry>> ReadDirFd(Fd fd);
  Status Ftruncate(Fd fd, uint64_t size);
  Result<uint64_t> Seek(Fd fd, uint64_t offset);

  // Transactions. TxBegin opens a transaction on this connection (at most
  // one open at a time; the server answers EBUSY otherwise) and returns its
  // id. While open, every path-based op on this client executes inside it:
  // buffered against a private snapshot, invisible to other connections,
  // rolled back wholesale on TxAbort or on connection loss. TxCommit makes
  // the buffered sequence durable and visible atomically — or fails with
  // kTxConflict (retryable: begin again and replay) if a concurrent commit
  // touched the transaction's footprint first. txid 0 means "the
  // connection's current transaction". Descriptor ops are refused (EBUSY)
  // while a transaction is open.
  Result<uint64_t> TxBegin();
  Status TxCommit(uint64_t txid = 0);
  Status TxAbort(uint64_t txid = 0);

  // Admin.
  Status Ping();
  // Ask the server to checkpoint + compact its journal now
  // (WireOp::kCheckpoint). EINVAL on a server without a journaled
  // transaction layer; EIO if the checkpoint write or WAL rotation failed
  // (the server's journal is then fail-stopped — see src/journal/wal.h).
  Status Checkpoint();
  Result<WireServerStats> FetchStats();
  // Full atomtrace registry snapshot (WireOp::kMetrics): server per-op
  // latencies plus, when the server attached a TracingObserver, the
  // lock-coupling and helper metrics. Percentiles computed on the returned
  // snapshot equal the server's (buckets travel whole).
  Result<MetricsSnapshot> FetchMetrics();
  // Chrome trace-event / Perfetto JSON of the server's flight-recorder ring
  // (WireOp::kTraceDump). Valid-but-empty document when the server has no
  // ring attached; the oldest events are dropped server-side if the full
  // window would overflow a wire frame.
  Result<std::string> FetchTraceJson();
  // Prometheus text exposition of the server's metrics registry
  // (WireOp::kProm).
  Result<std::string> FetchPrometheus();

 private:
  explicit AtomFsClient(std::unique_ptr<ClientSession> session)
      : session_(std::move(session)) {}

  static Result<std::unique_ptr<AtomFsClient>> FromSocket(Result<int> fd);

  // Sends `req` and returns the response payload past the status byte
  // (submit + flush + wait on the session).
  Result<std::vector<std::byte>> Call(const WireRequest& req);
  Status CallStatusOnly(const WireRequest& req);

  std::unique_ptr<ClientSession> session_;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_CLIENT_CLIENT_H_
