#include "src/server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/obs/export.h"
#include "src/util/clock.h"
#include "src/vfs/vfs.h"

namespace atomfs {

namespace {

// How much one readiness cycle will read from a single connection before
// yielding to the shard's other connections (fairness under pipelined load).
constexpr size_t kReadChunk = kWireBufferKeepBytes;
constexpr size_t kMaxReadPerCycle = 256u << 10;

uint64_t NowMs() { return NowNs() / 1'000'000; }

// Success responses begin with wire status 0; the body is written after it.
WireWriter OkBody() {
  WireWriter w;
  w.U8(0);
  return w;
}

std::vector<std::byte> StatusResponse(Status st) {
  WireWriter w;
  w.U8(WireStatusOf(st.code()));
  return w.Take();
}

// --- routable-op mapping -----------------------------------------------------
// The protocol's path-based FileSystem surface maps onto the one FsOp
// descriptor (src/vfs/filesystem.h): normal dispatch, transactional dispatch
// and the response encoding share this mapping instead of keeping a switch
// statement each.

std::optional<OpKind> PathOpKindOf(WireOp op) {
  switch (op) {
    case WireOp::kMkdir:
      return OpKind::kMkdir;
    case WireOp::kMknod:
      return OpKind::kMknod;
    case WireOp::kRmdir:
      return OpKind::kRmdir;
    case WireOp::kUnlink:
      return OpKind::kUnlink;
    case WireOp::kRename:
      return OpKind::kRename;
    case WireOp::kExchange:
      return OpKind::kExchange;
    case WireOp::kStat:
      return OpKind::kStat;
    case WireOp::kReadDir:
      return OpKind::kReadDir;
    case WireOp::kRead:
      return OpKind::kRead;
    case WireOp::kWrite:
      return OpKind::kWrite;
    case WireOp::kTruncate:
      return OpKind::kTruncate;
    default:
      return std::nullopt;
  }
}

// Parses the request's paths into the descriptor. The write payload stays a
// view into the request, valid for the duration of the dispatch.
Result<FsOp> FsOpOfRequest(OpKind kind, const WireRequest& req) {
  FsOp op;
  op.kind = kind;
  auto a = ParsePath(req.path_a);
  if (!a.ok()) {
    return a.status();
  }
  op.a = std::move(*a);
  if (kind == OpKind::kRename || kind == OpKind::kExchange) {
    auto b = ParsePath(req.path_b);
    if (!b.ok()) {
      return b.status();
    }
    op.b = std::move(*b);
  }
  op.offset = req.offset;
  op.len = req.count;
  op.payload = std::span<const std::byte>(req.data);
  return op;
}

std::vector<std::byte> FsOpResponse(OpKind kind, const FsOpResult& r) {
  if (!r.status.ok()) {
    return StatusResponse(r.status);
  }
  WireWriter body = OkBody();
  switch (kind) {
    case OpKind::kStat:
      EncodeAttr(body, r.attr);
      break;
    case OpKind::kReadDir:
      EncodeDirEntries(body, r.entries);
      break;
    case OpKind::kRead:
      body.Blob(std::span<const std::byte>(r.data.data(), r.data.size()));
      break;
    case OpKind::kWrite:
      body.U64(r.nbytes);
      break;
    default:
      break;  // status-only reply
  }
  return body.Take();
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

}  // namespace

// Per-connection state, owned by the connection's shard thread.
struct AtomFsServer::Conn {
  explicit Conn(FileSystem* fs) : vfs(fs) {}

  int fd = -1;
  Vfs vfs;                  // per-connection descriptor table
  uint64_t active_txn = 0;  // open transaction id (0 = none)

  WireRecvBuffer rbuf;  // received request bytes, decoded in place
  bool peer_eof = false;
  bool poisoned = false;  // framing broke; never read or decode again
  bool stalled = false;   // decode parked on a full window (metric edge)
  // A parsed frame waiting for window room (kept parsed so admitting it in
  // the next drain costs nothing); decode stalls while this is set.
  std::unique_ptr<WireRequest> parked;
  uint32_t parked_units = 0;
  bool runnable = false;  // on Shard::runnable, owed another window
  uint32_t armed_mask = 0;
  uint64_t last_activity_ms = 0;

  // Framed replies back to back, in request order; [out_off, size()) is
  // not yet sent.
  std::vector<std::byte> outbox;
  size_t out_off = 0;
  uint32_t window = 1;      // negotiated max_inflight
  bool want_close = false;  // flush the outbox, then close
  bool dead = false;        // transport broken; close now

  // Queues one reply frame behind the earlier ones.
  void Reply(std::span<const std::byte> payload) { AppendFrame(outbox, payload); }
  size_t Unsent() const { return outbox.size() - out_off; }
};

struct AtomFsServer::Shard {
  int epoll_fd = -1;
  int event_fd = -1;  // wakes the loop for intake and for Stop
  std::atomic<bool> stop{false};
  std::mutex mu;            // guards intake
  std::vector<int> intake;  // accepted sockets awaiting registration
  std::unordered_map<Conn*, std::unique_ptr<Conn>> conns;  // loop-owned
  // Connections whose window filled with a frame still parked: each gets one
  // more window per loop turn, after that turn's readiness events. `turn`
  // holds the ones being served now (a destroyed one is nulled in place).
  std::vector<Conn*> runnable;
  std::vector<Conn*> turn;
};

AtomFsServer::AtomFsServer(FileSystem* fs, ServerOptions options)
    : fs_(fs), opts_(std::move(options)) {
  if (opts_.metrics != nullptr) {
    metrics_ = opts_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  connections_accepted_ = metrics_->GetCounter("server.connections");
  protocol_errors_ = metrics_->GetCounter("server.protocol_errors");
  loop_wakeups_ = metrics_->GetCounter("server.loop.wakeups");
  loop_parks_ = metrics_->GetCounter("server.loop.parks");
  backpressure_stalls_ = metrics_->GetCounter("server.backpressure_stalls");
  idle_timeouts_ = metrics_->GetCounter("server.idle_timeouts");
  active_conns_ = metrics_->GetGauge("server.conns.active");
  exec_batch_size_ = metrics_->GetHistogram("server.worker.batch_size");
  for (uint8_t op = kWireOpMin; op <= kWireOpMax; ++op) {
    op_latency_[op] = metrics_->GetHistogram(
        "server.op." + std::string(WireOpName(static_cast<WireOp>(op))) + ".latency_ns");
  }
}

AtomFsServer::~AtomFsServer() { Stop(); }

Status AtomFsServer::Start() {
  if (running_) {
    return Status(Errc::kBusy);
  }
  if (opts_.unix_path.empty() && !opts_.tcp_listen) {
    return Status(Errc::kInval);
  }

  if (!opts_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status(Errc::kNameTooLong);
    }
    std::strncpy(addr.sun_path, opts_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status(Errc::kIo);
    }
    unlink(opts_.unix_path.c_str());  // stale socket from a crashed daemon
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 || listen(fd, 128) < 0) {
      close(fd);
      return Status(Errc::kIo);
    }
    listen_fds_.push_back(fd);
  }

  if (opts_.tcp_listen) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      Stop();
      return Status(Errc::kIo);
    }
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts_.tcp_port);
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 || listen(fd, 128) < 0) {
      close(fd);
      Stop();
      return Status(Errc::kIo);
    }
    socklen_t len = sizeof addr;
    getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_tcp_port_ = ntohs(addr.sin_port);
    listen_fds_.push_back(fd);
  }

  const int n_shards = opts_.shards > 0 ? opts_.shards : 1;
  for (int i = 0; i < n_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    shard->event_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (shard->epoll_fd < 0 || shard->event_fd < 0) {
      shards_.push_back(std::move(shard));
      Stop();
      return Status(Errc::kIo);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr marks the wakeup eventfd
    epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->event_fd, &ev);
    shards_.push_back(std::move(shard));
  }

  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    shard_threads_.emplace_back([this, s = shard.get()] { ShardLoop(*s); });
  }
  for (int fd : listen_fds_) {
    acceptors_.emplace_back([this, fd] { AcceptLoop(fd); });
  }
  return Status::Ok();
}

void AtomFsServer::Stop() {
  if (!running_.load(std::memory_order_acquire) && listen_fds_.empty() && shards_.empty()) {
    return;
  }
  // Closing the listeners makes accept() fail and the acceptors exit.
  for (int fd : listen_fds_) {
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  listen_fds_.clear();
  for (std::thread& t : acceptors_) {
    t.join();
  }
  acceptors_.clear();
  for (auto& shard : shards_) {
    shard->stop.store(true, std::memory_order_release);
    if (shard->event_fd >= 0) {
      const uint64_t one = 1;
      [[maybe_unused]] ssize_t n = write(shard->event_fd, &one, sizeof one);
    }
  }
  for (std::thread& t : shard_threads_) {
    t.join();
  }
  shard_threads_.clear();
  // With the shard threads joined nothing else touches a connection.
  for (auto& shard : shards_) {
    for (auto& [ptr, c] : shard->conns) {
      if (opts_.txn != nullptr && c->active_txn != 0) {
        opts_.txn->TxAbort(c->active_txn);  // never leave a txn half-open
      }
      close(c->fd);
      active_conns_.Sub(1);
    }
    shard->conns.clear();
    for (int fd : shard->intake) {
      close(fd);
    }
    shard->intake.clear();
    if (shard->epoll_fd >= 0) {
      close(shard->epoll_fd);
    }
    if (shard->event_fd >= 0) {
      close(shard->event_fd);
    }
  }
  shards_.clear();
  if (!opts_.unix_path.empty()) {
    unlink(opts_.unix_path.c_str());
  }
  running_.store(false, std::memory_order_release);
}

void AtomFsServer::AcceptLoop(int listen_fd) {
  for (;;) {
    const int sock = accept(listen_fd, nullptr, nullptr);
    if (sock < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener closed (Stop) or fatal error
    }
    // Pipelined framing is still latency-bound on the last frame of a burst:
    // without this, Nagle holds the tail until the client's delayed ACK.
    // No-op (ENOTSUP) on unix-domain sockets.
    const int one = 1;
    setsockopt(sock, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_accepted_.Inc();
    // Relaxed: the counter only round-robins placement; the socket itself is
    // handed over under shard.mu below. A socket accepted while Stop() runs
    // lands in an intake list that Stop() closes once the shards are joined.
    Shard& shard =
        *shards_[next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size()];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.intake.push_back(sock);
    }
    const uint64_t one64 = 1;
    [[maybe_unused]] ssize_t n = write(shard.event_fd, &one64, sizeof one64);
  }
}

// --- shard event loop --------------------------------------------------------

void AtomFsServer::ShardLoop(Shard& shard) {
  epoll_event evs[64];
  const int timeout_ms =
      opts_.idle_timeout_ms > 0 ? std::max(1, static_cast<int>(opts_.idle_timeout_ms / 4)) : -1;
  // When the last turn that handled anything ended (0: park at once).
  uint64_t last_work_ns = 0;
  for (;;) {
    // Owed windows make this turn a poll: fresh readiness interleaves with
    // them instead of waiting behind a connection that pipelines past its
    // window. Otherwise poll before parking (see server.h): the yield gives
    // the CPU to the client just answered, whose next request the poll
    // then catches without a sleep and a wakeup. Stop's eventfd ends the
    // poll like any other event.
    int n = epoll_wait(shard.epoll_fd, evs, 64, 0);
    bool parked = false;
    if (n == 0 && shard.runnable.empty()) {
      const bool woke = PollBeforePark(last_work_ns, [&] {
        n = epoll_wait(shard.epoll_fd, evs, 64, 0);
        return n != 0;
      });
      if (!woke) {
        loop_parks_.Inc();
        parked = true;
        n = epoll_wait(shard.epoll_fd, evs, 64, timeout_ms);
      }
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    if (n > 0 || parked) {
      loop_wakeups_.Inc();
    }
    if (shard.stop.load(std::memory_order_acquire)) {
      return;  // Stop() closes the fds after joining us
    }
    // Connections queued by this turn's events wait for the next turn.
    shard.turn.swap(shard.runnable);
    bool notified = false;
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.ptr == nullptr) {
        uint64_t junk = 0;
        while (read(shard.event_fd, &junk, sizeof junk) > 0) {
        }
        notified = true;
        continue;
      }
      Conn* c = static_cast<Conn*>(evs[i].data.ptr);
      const uint32_t events = evs[i].events;
      if ((events & EPOLLERR) != 0) {
        c->dead = true;
        MaybeClose(shard, c);
        continue;
      }
      if ((events & EPOLLOUT) != 0 && !FlushOutbox(shard, c)) {
        continue;
      }
      if ((events & (EPOLLIN | EPOLLHUP)) != 0) {
        ReadAvailable(c);
      }
      if (c->runnable) {
        MaybeClose(shard, c);  // its window runs below, once this turn
      } else {
        Drain(shard, c);
      }
    }
    for (Conn* c : shard.turn) {
      if (c != nullptr) {
        c->runnable = false;
        Drain(shard, c);
      }
    }
    if (n > 0 || !shard.turn.empty()) {
      last_work_ns = NowNs();
    }
    shard.turn.clear();
    if (notified) {
      RegisterIntake(shard);
    }
    if (opts_.idle_timeout_ms > 0) {
      SweepIdle(shard);
    }
  }
}

void AtomFsServer::RegisterIntake(Shard& shard) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    fds.swap(shard.intake);
  }
  for (int fd : fds) {
    SetNonBlocking(fd);
    auto conn = std::make_unique<Conn>(fs_);
    Conn* c = conn.get();
    c->fd = fd;
    c->window = std::clamp<uint32_t>(opts_.default_inflight, 1,
                                     std::max<uint32_t>(1, opts_.max_inflight));
    c->last_activity_ms = NowMs();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c;
    if (epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      close(fd);
      continue;
    }
    c->armed_mask = EPOLLIN;
    active_conns_.Add(1);
    shard.conns.emplace(c, std::move(conn));
  }
}

void AtomFsServer::ReadAvailable(Conn* c) {
  if (c->poisoned) {
    return;  // reading is disarmed, but EPOLLHUP still lands here
  }
  size_t total = 0;
  for (;;) {
    const std::span<std::byte> spare = c->rbuf.Room(kReadChunk);
    const std::span<std::byte> room = spare.first(std::min(spare.size(), kMaxReadPerCycle - total));
    const ssize_t n = recv(c->fd, room.data(), room.size(), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        c->dead = true;
      }
      break;
    }
    if (n == 0) {
      c->peer_eof = true;
      break;
    }
    c->rbuf.Fill(static_cast<size_t>(n));
    total += static_cast<size_t>(n);
    if (static_cast<size_t>(n) < room.size() || total >= kMaxReadPerCycle) {
      break;  // drained, or yield to the shard's other connections
    }
  }
  c->last_activity_ms = NowMs();
}

void AtomFsServer::Drain(Shard& shard, Conn* c) {
  // Admission stops while the peer leaves its replies unread; the EPOLLOUT
  // that empties the outbox drains again.
  if (!c->dead && c->Unsent() <= opts_.max_outbox_bytes) {
    const bool was_poisoned = c->poisoned;
    const std::vector<WireRequest> todo = DecodeBuffered(c);
    Execute(*c, todo);
    if (c->poisoned && !was_poisoned) {
      // Framing broke behind the requests just answered: EPROTO, in order,
      // then close.
      c->Reply(StatusResponse(Status(Errc::kProto)));
      c->want_close = true;
    }
    if (!FlushOutbox(shard, c)) {
      return;
    }
    if (c->parked != nullptr && !c->runnable && c->Unsent() <= opts_.max_outbox_bytes) {
      // One window per turn: the rest waits behind the loop's other work.
      c->runnable = true;
      shard.runnable.push_back(c);
    }
  }
  UpdateReadInterest(shard, c);
  MaybeClose(shard, c);
}

std::vector<WireRequest> AtomFsServer::DecodeBuffered(Conn* c) {
  std::vector<WireRequest> todo;
  uint32_t admitted = 0;
  while (!c->poisoned) {
    // Admission: a frame joins the drain only when its request units fit the
    // rest of the window *whole*, so one drain never executes more than the
    // negotiated window. The one exception is a frame that opens the drain —
    // it always admits, so a msgbatch that alone exceeds the window cannot
    // park forever; execution sheds it with BACKPRESSURE.
    if (c->parked != nullptr) {
      if (admitted != 0 && admitted + c->parked_units > c->window) {
        if (!c->stalled) {
          // Window full: park until the next drain.
          c->stalled = true;
          backpressure_stalls_.Inc();
        }
        break;
      }
      admitted += c->parked_units;
      todo.push_back(std::move(*c->parked));
      c->parked.reset();
      c->stalled = false;
    }
    const std::span<const std::byte> unread = c->rbuf.Unread();
    if (unread.size() < kWireFrameHeaderBytes) {
      break;
    }
    const uint32_t len = PeekFrameLen(unread.data());
    if (len > opts_.max_frame_bytes) {
      // Oversized declared length: framing is beyond resynchronization.
      PoisonConn(c);
      break;
    }
    if (unread.size() < kWireFrameHeaderBytes + len) {
      break;
    }
    Result<WireRequest> req = ParseRequest(unread.subspan(kWireFrameHeaderBytes, len));
    c->rbuf.Consume(kWireFrameHeaderBytes + len);
    if (!req.ok()) {
      PoisonConn(c);
      break;
    }
    c->parked_units =
        req->op == WireOp::kMsgBatch ? static_cast<uint32_t>(req->batch.size()) : 1;
    c->parked = std::make_unique<WireRequest>(std::move(*req));
    // Loop back to the admission step above.
  }
  // EOF with everything decodable decoded: answer what was admitted, flush,
  // then close. A trailing partial frame is dropped with the connection; a
  // parked frame (parsed or still buffered) is work still owed.
  if (c->peer_eof && !c->poisoned && c->parked == nullptr) {
    const std::span<const std::byte> unread = c->rbuf.Unread();
    const bool complete_frame_parked =
        unread.size() >= kWireFrameHeaderBytes &&
        unread.size() >= kWireFrameHeaderBytes + PeekFrameLen(unread.data());
    if (!complete_frame_parked) {
      c->want_close = true;
    }
  }
  return todo;
}

void AtomFsServer::PoisonConn(Conn* c) {
  NoteProtocolError();
  c->poisoned = true;
  c->rbuf.Clear();
  c->parked.reset();  // decode never runs again; drop any pending frame
}

void AtomFsServer::Execute(Conn& conn, const std::vector<WireRequest>& todo) {
  if (todo.empty()) {
    return;
  }
  exec_batch_size_.Record(todo.size());
  for (const WireRequest& req : todo) {
    if (req.op != WireOp::kMsgBatch) {
      WallTimer timer;
      conn.Reply(DispatchOne(conn, req));
      RecordLatency(req.op, timer.ElapsedNanos());
      continue;
    }
    WallTimer batch_timer;
    if (req.batch.size() > conn.window) {
      // Over-committed batch: shed the whole frame, execute nothing.
      // Every sub-request still gets its reply slot.
      const std::vector<std::byte> shed = StatusResponse(Status(Errc::kBackpressure));
      for (size_t i = 0; i < req.batch.size(); ++i) {
        conn.Reply(shed);
      }
    } else {
      for (const WireRequest& sub : req.batch) {
        WallTimer timer;
        conn.Reply(DispatchOne(conn, sub));
        RecordLatency(sub.op, timer.ElapsedNanos());
      }
    }
    RecordLatency(WireOp::kMsgBatch, batch_timer.ElapsedNanos());
  }
}

bool AtomFsServer::FlushOutbox(Shard& shard, Conn* c) {
  while (!c->dead && c->Unsent() > 0) {
    const size_t offered = c->Unsent();
    const ssize_t wrote = send(c->fd, c->outbox.data() + c->out_off, offered, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      c->dead = true;
      return MaybeClose(shard, c);
    }
    c->out_off += static_cast<size_t>(wrote);
    if (static_cast<size_t>(wrote) < offered) {
      break;  // short write: the socket buffer is full
    }
  }
  if (c->Unsent() > 0) {
    // The peer's socket buffer is full. Drop the sent prefix once it
    // outweighs the rest, so a peer that reads slowly but never catches up
    // cannot grow the outbox without bound; each byte moves O(1) times.
    if (c->out_off >= c->Unsent()) {
      c->outbox.erase(c->outbox.begin(), c->outbox.begin() + static_cast<ptrdiff_t>(c->out_off));
      c->out_off = 0;
    }
    ApplyMask(shard, c, (c->armed_mask & EPOLLIN) | EPOLLOUT);
    return true;
  }
  ClearAndTrim(c->outbox);
  c->out_off = 0;
  ApplyMask(shard, c, c->armed_mask & ~static_cast<uint32_t>(EPOLLOUT));
  return true;
}

void AtomFsServer::UpdateReadInterest(Shard& shard, Conn* c) {
  // A parked frame means the window is effectively full: reading more would
  // only grow the buffer behind a frame that cannot be admitted yet.
  const bool want_read = !c->poisoned && !c->peer_eof && c->parked == nullptr && !c->dead &&
                         !c->want_close && c->Unsent() <= opts_.max_outbox_bytes;
  const uint32_t mask = (want_read ? EPOLLIN : 0u) | (c->armed_mask & EPOLLOUT);
  ApplyMask(shard, c, mask);
}

void AtomFsServer::ApplyMask(Shard& shard, Conn* c, uint32_t mask) {
  if (mask == c->armed_mask) {
    return;
  }
  epoll_event ev{};
  ev.events = mask;
  ev.data.ptr = c;
  epoll_ctl(shard.epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  c->armed_mask = mask;
}

void AtomFsServer::SweepIdle(Shard& shard) {
  const uint64_t now = NowMs();
  std::vector<Conn*> victims;
  for (auto& [c, conn] : shard.conns) {
    if (now - c->last_activity_ms >= opts_.idle_timeout_ms && c->Unsent() == 0 &&
        c->parked == nullptr && !c->want_close) {
      victims.push_back(c);
    }
  }
  for (Conn* c : victims) {
    idle_timeouts_.Inc();
    // Best-effort courtesy frame; if the peer is half-open it just fails.
    std::vector<std::byte> frame;
    AppendFrame(frame, StatusResponse(Status(Errc::kTimedOut)));
    send(c->fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    DestroyConn(shard, c);
  }
}

bool AtomFsServer::MaybeClose(Shard& shard, Conn* c) {
  if (c->dead || (c->want_close && c->Unsent() == 0)) {
    DestroyConn(shard, c);
    return false;
  }
  return true;
}

void AtomFsServer::DestroyConn(Shard& shard, Conn* c) {
  if (opts_.txn != nullptr && c->active_txn != 0) {
    // Dropping the connection rolls its open transaction back — its ops
    // were buffered in the txn's private view and are never visible.
    opts_.txn->TxAbort(c->active_txn);
    c->active_txn = 0;
  }
  if (c->runnable) {
    std::erase(shard.runnable, c);
    std::replace(shard.turn.begin(), shard.turn.end(), c, static_cast<Conn*>(nullptr));
  }
  epoll_ctl(shard.epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
  close(c->fd);
  active_conns_.Sub(1);
  shard.conns.erase(c);
}

// --- dispatch ----------------------------------------------------------------

std::vector<std::byte> AtomFsServer::DispatchOne(Conn& conn, const WireRequest& req) {
  if (conn.active_txn != 0 && opts_.txn != nullptr) {
    std::vector<std::byte> routed = DispatchInTxn(conn, req);
    if (!routed.empty()) {
      return routed;  // the op executed inside (or was refused by) the txn
    }
    // Empty: an admin/session/txn-control op; normal dispatch below.
  }
  Vfs& vfs = conn.vfs;
  switch (req.op) {
    case WireOp::kPing:
      return OkBody().Take();
    case WireOp::kMkdir:
    case WireOp::kMknod:
    case WireOp::kRmdir:
    case WireOp::kUnlink:
    case WireOp::kRename:
    case WireOp::kExchange:
    case WireOp::kTruncate:
    case WireOp::kStat:
    case WireOp::kReadDir:
    case WireOp::kRead:
    case WireOp::kWrite: {
      const OpKind kind = *PathOpKindOf(req.op);
      auto op = FsOpOfRequest(kind, req);
      if (!op.ok()) {
        return StatusResponse(op.status());
      }
      return FsOpResponse(kind, fs_->Dispatch(*op));
    }
    case WireOp::kOpen: {
      auto fd = vfs.Open(req.path_a, req.flags);
      if (!fd.ok()) {
        return StatusResponse(fd.status());
      }
      WireWriter body = OkBody();
      body.I32(*fd);
      return body.Take();
    }
    case WireOp::kClose:
      return StatusResponse(vfs.Close(req.fd));
    case WireOp::kFdRead: {
      std::vector<std::byte> buf(req.count);
      auto n = vfs.Read(req.fd, buf);
      if (!n.ok()) {
        return StatusResponse(n.status());
      }
      WireWriter body = OkBody();
      body.Blob(std::span<const std::byte>(buf.data(), *n));
      return body.Take();
    }
    case WireOp::kFdWrite: {
      auto n = vfs.Write(req.fd, req.data);
      if (!n.ok()) {
        return StatusResponse(n.status());
      }
      WireWriter body = OkBody();
      body.U64(*n);
      return body.Take();
    }
    case WireOp::kFdPread: {
      std::vector<std::byte> buf(req.count);
      auto n = vfs.Pread(req.fd, req.offset, buf);
      if (!n.ok()) {
        return StatusResponse(n.status());
      }
      WireWriter body = OkBody();
      body.Blob(std::span<const std::byte>(buf.data(), *n));
      return body.Take();
    }
    case WireOp::kFdPwrite: {
      auto n = vfs.Pwrite(req.fd, req.offset, req.data);
      if (!n.ok()) {
        return StatusResponse(n.status());
      }
      WireWriter body = OkBody();
      body.U64(*n);
      return body.Take();
    }
    case WireOp::kFstat: {
      auto attr = vfs.Fstat(req.fd);
      if (!attr.ok()) {
        return StatusResponse(attr.status());
      }
      WireWriter body = OkBody();
      EncodeAttr(body, *attr);
      return body.Take();
    }
    case WireOp::kFdReadDir: {
      auto entries = vfs.ReadDirFd(req.fd);
      if (!entries.ok()) {
        return StatusResponse(entries.status());
      }
      WireWriter body = OkBody();
      EncodeDirEntries(body, *entries);
      return body.Take();
    }
    case WireOp::kFtruncate:
      return StatusResponse(vfs.Ftruncate(req.fd, req.offset));
    case WireOp::kSeek: {
      auto pos = vfs.Seek(req.fd, req.offset);
      if (!pos.ok()) {
        return StatusResponse(pos.status());
      }
      WireWriter body = OkBody();
      body.U64(*pos);
      return body.Take();
    }
    case WireOp::kStats: {
      WireWriter body = OkBody();
      EncodeServerStats(body, StatsSnapshot());
      return body.Take();
    }
    case WireOp::kMetrics: {
      WireWriter body = OkBody();
      EncodeMetricsSnapshot(body, metrics_->Snapshot());
      return body.Take();
    }
    case WireOp::kTraceDump: {
      // Export capped below the frame limit; ExportChromeTrace drops the
      // oldest events if the full window would not fit (flight-recorder
      // semantics carried through to the wire).
      const size_t cap = opts_.max_frame_bytes > 256 ? opts_.max_frame_bytes - 256 : 256;
      const std::string json =
          opts_.trace_ring != nullptr
              ? ExportChromeTrace(opts_.trace_ring->Snapshot(), cap)
              : ExportChromeTrace({});
      WireWriter body = OkBody();
      body.Str(json);
      return body.Take();
    }
    case WireOp::kProm: {
      WireWriter body = OkBody();
      body.Str(PrometheusText(metrics_->Snapshot()));
      return body.Take();
    }
    case WireOp::kHello: {
      if (req.proto_version < kWireProtoVersionMin || req.proto_version > kWireProtoVersion) {
        // Unknown version: a clean error reply, not a dropped connection.
        // The peer may retry with a version we speak.
        return StatusResponse(Status(Errc::kProto));
      }
      const uint32_t cap = std::max<uint32_t>(1, opts_.max_inflight);
      const uint32_t granted =
          req.max_inflight == 0
              ? std::clamp<uint32_t>(opts_.default_inflight, 1, cap)
              : std::min(req.max_inflight, cap);
      conn.window = granted;
      // Reply in the client's version: a v2 peer gets the v2-shaped body, a
      // v3 peer additionally gets the capability bitmask (rule 3 of the
      // versioning contract — bodies are frozen per opcode *per version*).
      WireHello reply;
      reply.version = req.proto_version;
      reply.max_inflight = granted;
      reply.caps = fs_->Capabilities() | (opts_.txn != nullptr ? kFsCapTxn : 0);
      WireWriter body = OkBody();
      EncodeHello(body, reply);
      return body.Take();
    }
    case WireOp::kTxBegin: {
      if (opts_.txn == nullptr) {
        return StatusResponse(Status(Errc::kInval));
      }
      if (conn.active_txn != 0) {
        // One open transaction per connection: finish it first.
        return StatusResponse(Status(Errc::kBusy));
      }
      auto id = opts_.txn->TxBegin();
      if (!id.ok()) {
        return StatusResponse(id.status());
      }
      conn.active_txn = *id;
      WireWriter body = OkBody();
      body.U64(*id);
      return body.Take();
    }
    case WireOp::kTxCommit:
    case WireOp::kTxAbort: {
      if (opts_.txn == nullptr) {
        return StatusResponse(Status(Errc::kInval));
      }
      const uint64_t target = req.txid != 0 ? req.txid : conn.active_txn;
      if (target == 0 || target != conn.active_txn) {
        return StatusResponse(Status(Errc::kInval));
      }
      // The transaction is finished either way — a commit that loses the
      // conflict race rolls back and reports kTxConflict, it does not stay
      // open for a retry under the same id.
      conn.active_txn = 0;
      return StatusResponse(req.op == WireOp::kTxCommit ? opts_.txn->TxCommit(target)
                                                        : opts_.txn->TxAbort(target));
    }
    case WireOp::kCheckpoint:
      // Journal admin: checkpoint + compact now. Fails soft with EINVAL on a
      // server without a journaled transaction layer (TxnHost's default).
      if (opts_.txn == nullptr) {
        return StatusResponse(Status(Errc::kInval));
      }
      return StatusResponse(opts_.txn->TxCheckpoint());
    case WireOp::kMsgBatch:
      // Batches are unpacked in Execute and nesting is rejected at
      // parse; reaching here means a logic error upstream.
      return StatusResponse(Status(Errc::kProto));
  }
  return StatusResponse(Status(Errc::kProto));
}

std::vector<std::byte> AtomFsServer::DispatchInTxn(Conn& conn, const WireRequest& req) {
  const std::optional<OpKind> kind = PathOpKindOf(req.op);
  if (!kind.has_value()) {
    switch (req.op) {
      case WireOp::kOpen:
      case WireOp::kClose:
      case WireOp::kFdRead:
      case WireOp::kFdWrite:
      case WireOp::kFdPread:
      case WireOp::kFdPwrite:
      case WireOp::kFstat:
      case WireOp::kFdReadDir:
      case WireOp::kFtruncate:
      case WireOp::kSeek:
        // Descriptor ops run against the shared backend directly, so inside a
        // transaction they would bypass its snapshot (reads) and its write
        // buffer (writes). Refuse them rather than leak uncommitted state.
        return StatusResponse(Status(Errc::kBusy));
      default:
        return {};  // not a FileSystem op: fall through to normal dispatch
    }
  }
  auto op = FsOpOfRequest(*kind, req);
  if (!op.ok()) {
    return StatusResponse(op.status());
  }
  return FsOpResponse(*kind, opts_.txn->TxApply(conn.active_txn, OpCall::FromFsOp(*op)));
}

void AtomFsServer::RecordLatency(WireOp op, uint64_t nanos) {
  op_latency_[static_cast<uint8_t>(op)].Record(nanos);
}

void AtomFsServer::NoteProtocolError() { protocol_errors_.Inc(); }

WireServerStats AtomFsServer::StatsSnapshot() const {
  WireServerStats out;
  const MetricsSnapshot snap = metrics_->Snapshot();
  out.connections_accepted = snap.CounterValue("server.connections");
  out.protocol_errors = snap.CounterValue("server.protocol_errors");
  for (uint8_t op = kWireOpMin; op <= kWireOpMax; ++op) {
    const HistogramSnapshot* h = snap.FindHistogram(
        "server.op." + std::string(WireOpName(static_cast<WireOp>(op))) + ".latency_ns");
    if (h == nullptr || h->count == 0) {
      continue;
    }
    WireOpStats s;
    s.op = op;
    s.count = h->count;
    s.mean_ns = static_cast<uint64_t>(h->Mean());
    s.p50_ns = h->Percentile(0.50);
    s.p99_ns = h->Percentile(0.99);
    s.p999_ns = h->Percentile(0.999);
    out.ops.push_back(s);
  }
  return out;
}

}  // namespace atomfs
