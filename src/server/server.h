// AtomFsServer: the event-loop serving layer of atomfsd.
//
// Threading model (protocol v2, pipelined, run to completion): one acceptor
// thread per listener (Unix-domain and/or TCP on 127.0.0.1) round-robins
// accepted sockets across N event-loop shards. Each shard runs a
// non-blocking epoll loop that owns a set of connections outright; no other
// thread touches them. On readiness the loop receives whatever the kernel
// has buffered into the spare room of the connection's receive buffer (no
// zero-fill), decodes the complete frames up to the connection's negotiated
// `max_inflight` window in place, executes them in order against the shared
// FileSystem on the loop thread itself, and appends each reply frame to one
// contiguous outbox that a single send(2) loop flushes. Both buffers give
// back capacity above kWireBufferKeepBytes once drained. A connection runs
// at most one window per loop turn: one that pipelined past its window
// keeps its next frame parked and gets its next window after the turn's
// other readiness events, so a peer that ignores its window cannot
// monopolise the loop. Replies leave in request order, and each
// connection's Vfs is only ever touched by its loop.
// Both ends of a connection poll before they park, through one helper
// (PollBeforePark in src/net/wire.h) and one budget, kPollBeforeParkNs
// (50 µs), yielding the CPU between polls. A loop that has just handled
// events polls its epoll set without blocking until 50 µs have passed since
// its last busy turn, and only then blocks (server.loop.parks); a
// ClientSession whose reply is not yet buffered polls its socket with
// MSG_DONTWAIT for 50 µs before its blocking recv(2) (ClientSession::parks).
// A depth-1 client's next request, and a local server's reply, usually
// arrive inside that budget, so neither side pays the sleep and the wakeup
// that parking at once cost per call, and the loop is not preempted by the
// client it just answered; the yield gives the peer the CPU instead. The
// price is CPU: a loop under closed-loop load is busy ~90% of a core
// instead of ~70%, an idle loop parks within 50 µs, and a waiting client
// burns up to 50 µs of CPU per reply, also against a slow or remote server.
// Owed windows make a turn a single non-blocking poll, Stop's eventfd ends
// the poll like any event, and the idle sweep runs once per turn, not once
// per empty poll.
// Linearizability comes from the file system's own lock coupling; the loop
// adds no locking of its own. A long request holds up every other
// connection of its shard: a journaled TXBEGIN or TXCOMMIT (mirror copy,
// WAL write, fdatasync, checkpoint) delays even the direct reads that
// TxnManager itself would let run beside it. Other shards are unaffected.
//
// Backpressure is structural, not advisory: a frame is admitted only when
// its request units fit the rest of the window whole, so the requests one
// drain executes never exceed the window (the one exception, a msgbatch that
// alone exceeds the window, admits on its own and is shed with
// EBACKPRESSURE). A frame that does not fit is parked parsed until the drain
// ahead of it has run. Once the un-flushed reply bytes pass
// `max_outbox_bytes` (the peer is not reading), the shard stops admitting
// and stops reading from that socket (EPOLLIN disarmed) until the outbox
// drains, so the peer's sends back up into its own socket buffer. Idle and
// half-open connections are reaped after `idle_timeout_ms` with a
// best-effort ETIMEDOUT reply.
//
// Every connection gets its own Vfs over the shared FileSystem, so
// descriptor tables are isolated per connection — exactly a process fd
// table — and dropping the connection drops its descriptors.
//
// Robustness contract: arbitrary bytes on the wire never crash the server.
// A frame that is oversized, truncated, or fails ParseRequest poisons the
// connection: earlier pipelined requests still get their replies, then a
// kProto error response is sent and the connection is closed, because
// framing can no longer be trusted. Well-framed requests with bad arguments
// (unparsable path, unknown fd) get their error status back and the
// conversation continues.
//
// Stop() is graceful: listeners close first (no new connections), then each
// shard wakes, finishes the readiness pass it is in and exits, and its
// connections are torn down; every thread is joined before Stop() returns.

#ifndef ATOMFS_SRC_SERVER_SERVER_H_
#define ATOMFS_SRC_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/txn_host.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/vfs/filesystem.h"

namespace atomfs {

struct ServerOptions {
  // Unix-domain listener path; empty disables. The path is unlinked on
  // Start (stale socket) and again on Stop.
  std::string unix_path;
  // TCP listener on 127.0.0.1; port 0 picks an ephemeral port (see
  // BoundTcpPort). Disabled unless tcp_listen is set.
  bool tcp_listen = false;
  uint16_t tcp_port = 0;
  // Event-loop shards; accepted connections are round-robined across them,
  // and each shard executes its connections' requests itself.
  int shards = 2;
  uint32_t max_frame_bytes = kWireMaxFrameBytes;
  // Largest inflight window HELLO will grant, and the window a connection
  // speaks at before (or without) HELLO.
  uint32_t max_inflight = 128;
  uint32_t default_inflight = 32;
  // Reap a connection with nothing inflight and nothing buffered after this
  // long without traffic (a best-effort ETIMEDOUT reply is attempted).
  // 0 disables the sweep.
  uint32_t idle_timeout_ms = 0;
  // Admitting and reading from a connection pause while its un-flushed
  // reply bytes exceed this, independent of the inflight window.
  size_t max_outbox_bytes = 8u << 20;
  // Registry for the server's own metrics (server.connections,
  // server.protocol_errors, server.op.<name>.latency_ns, plus the loop
  // counters server.loop.wakeups / server.loop.parks /
  // server.backpressure_stalls / server.idle_timeouts, the
  // server.conns.active gauge and the server.worker.batch_size histogram)
  // and the source of the WireOp::kMetrics response. Share one registry
  // between the server and a TracingObserver on the backend to serve a
  // unified snapshot; when null the server owns a private registry, so
  // kMetrics always works. A caller-provided registry must outlive the
  // server's threads — Stop() (or the server destructor) before destroying
  // it.
  MetricsRegistry* metrics = nullptr;
  // Flight-recorder ring served by WireOp::kTraceDump (usually the ring the
  // backend's TracingObserver writes into). Optional: when null, kTraceDump
  // answers with an empty (but valid) Chrome trace document. Same lifetime
  // rule as `metrics`.
  TraceRing* trace_ring = nullptr;
  // Transaction host driving TXBEGIN / TXCOMMIT / TXABORT (usually the
  // TxnManager wrapping the backend — in which case `fs` should be that same
  // TxnManager, so direct mutations are journaled and conflict-tracked too).
  // Optional: when null the transaction opcodes answer EINVAL. Same lifetime
  // rule as `metrics`.
  TxnHost* txn = nullptr;
};

class AtomFsServer {
 public:
  // `fs` must outlive the server and be thread-safe (every FileSystem here
  // is; that is the paper's whole point).
  AtomFsServer(FileSystem* fs, ServerOptions options);
  ~AtomFsServer();

  AtomFsServer(const AtomFsServer&) = delete;
  AtomFsServer& operator=(const AtomFsServer&) = delete;

  // Binds the listeners and spawns acceptors + shards. kInval if
  // no listener is configured; kIo on socket/bind/epoll failure.
  Status Start();

  // Graceful shutdown; idempotent. Joins all threads.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Actual TCP port after Start (useful with tcp_port = 0).
  uint16_t BoundTcpPort() const { return bound_tcp_port_; }

  // Snapshot of the counters served by WireOp::kStats, derived from the
  // same registry histograms kMetrics serves (one bucket math, one answer).
  WireServerStats StatsSnapshot() const;

  // The registry backing this server's stats (options.metrics or the
  // internally-owned one).
  MetricsRegistry* metrics() const { return metrics_; }

 private:
  struct Conn;
  struct Shard;

  void AcceptLoop(int listen_fd);
  void ShardLoop(Shard& shard);

  // Shard-thread helpers (a connection is touched only by its shard). The
  // bool-valued ones return false when they destroyed the connection.
  void RegisterIntake(Shard& shard);
  void ReadAvailable(Conn* c);
  // Runs one window of the connection's buffered requests to completion:
  // decode up to the window, execute, flush. A connection left with a parked
  // frame is queued on Shard::runnable for the next loop turn.
  void Drain(Shard& shard, Conn* c);
  std::vector<WireRequest> DecodeBuffered(Conn* c);
  void PoisonConn(Conn* c);
  void Execute(Conn& conn, const std::vector<WireRequest>& todo);
  bool FlushOutbox(Shard& shard, Conn* c);
  void UpdateReadInterest(Shard& shard, Conn* c);
  void ApplyMask(Shard& shard, Conn* c, uint32_t mask);
  void SweepIdle(Shard& shard);
  bool MaybeClose(Shard& shard, Conn* c);
  void DestroyConn(Shard& shard, Conn* c);

  // Handles one parsed non-batch request; returns the response payload.
  // Needs the connection for its Vfs and for HELLO's window update.
  std::vector<std::byte> DispatchOne(Conn& conn, const WireRequest& req);
  // Routes one request into the connection's open transaction. Returns an
  // empty vector for requests that bypass the transaction (admin/session
  // ops), which then fall through to the normal dispatch.
  std::vector<std::byte> DispatchInTxn(Conn& conn, const WireRequest& req);
  void RecordLatency(WireOp op, uint64_t nanos);
  void NoteProtocolError();

  FileSystem* fs_;
  ServerOptions opts_;

  std::vector<int> listen_fds_;
  uint16_t bound_tcp_port_ = 0;
  std::vector<std::thread> acceptors_;

  // Event-loop shards.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> shard_threads_;
  std::atomic<uint64_t> next_shard_{0};
  // Atomic because running() is a cross-thread observer (tests poll it while
  // Start/Stop run elsewhere); Start/Stop themselves are externally
  // serialized.
  std::atomic<bool> running_{false};

  // Stats live in the metrics registry; recording is lock-free (per-thread
  // shards), unlike the mutex-guarded histograms this replaced.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  Histogram op_latency_[kWireOpMax + 1];
  Counter connections_accepted_;
  Counter protocol_errors_;
  Counter loop_wakeups_;
  Counter loop_parks_;
  Counter backpressure_stalls_;
  Counter idle_timeouts_;
  Gauge active_conns_;
  Histogram exec_batch_size_;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_SERVER_SERVER_H_
