#include "src/client/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace atomfs {

namespace {

Result<int> ConnectUnixSocket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Errc::kNameTooLong;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Errc::kIo;
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    close(fd);
    return Errc::kIo;
  }
  return fd;
}

Result<int> ConnectTcpSocket(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Errc::kIo;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    close(fd);
    return Errc::kIo;
  }
  return fd;
}

// Raw send loop (frames are already length-prefixed by the flush packer).
Status SendBytes(int sock, std::span<const std::byte> data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = send(sock, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
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

}  // namespace

// --- ClientSession -----------------------------------------------------------

Result<std::unique_ptr<ClientSession>> ClientSession::Negotiate(int sock,
                                                                uint32_t want_inflight) {
  std::unique_ptr<ClientSession> session(new ClientSession(sock));
  WireRequest hello;
  hello.op = WireOp::kHello;
  hello.proto_version = kWireProtoVersion;
  hello.max_inflight = want_inflight;
  auto reply = session->Call(hello);  // window_ is 1 here: plain round trip
  if (!reply.ok()) {
    return reply.status();  // session destructor closes the socket
  }
  WireReader r(*reply);
  WireHello granted;
  if (!ParseHello(r, &granted) || !r.AtEnd()) {
    return Errc::kProto;
  }
  session->server_version_ = granted.version;
  session->window_ = std::max<uint32_t>(1, granted.max_inflight);
  session->server_caps_ = granted.caps;
  return session;
}

ClientSession::~ClientSession() {
  {
    // Resolve whatever is still pending (submitted-but-never-flushed, or
    // flushed with the reply never read) so Futures outliving this session
    // hold a result instead of a dangling handle.
    std::lock_guard<std::mutex> lock(mu_);
    BreakLocked(broken_.ok() ? Status(Errc::kIo) : broken_);
  }
  if (sock_ >= 0) {
    close(sock_);
  }
}

std::shared_ptr<ClientSession::Pending> ClientSession::SubmitLocked(const WireRequest& req) {
  auto pending = std::make_shared<Pending>();
  staged_.push_back(StagedOp{EncodeRequest(req), pending});
  return pending;
}

ClientSession::Future ClientSession::Submit(const WireRequest& req) {
  std::lock_guard<std::mutex> lock(mu_);
  return Future(this, SubmitLocked(req));
}

Status ClientSession::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Result<std::vector<std::byte>> ClientSession::Call(const WireRequest& req) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!broken_.ok()) {
    return broken_;
  }
  return WaitLocked(SubmitLocked(req));
}

Result<std::vector<std::byte>> ClientSession::Future::Wait() {
  if (state_ == nullptr) {
    return Errc::kInval;
  }
  if (state_->done.load(std::memory_order_acquire)) {
    return state_->result;  // resolved: never touches the (possibly gone) session
  }
  std::lock_guard<std::mutex> lock(session_->mu_);
  return session_->WaitLocked(state_);
}

Result<std::vector<std::byte>> ClientSession::WaitLocked(const std::shared_ptr<Pending>& p) {
  if (p->staged && !p->done) {
    FlushLocked();  // a failure marks p done via BreakLocked
  }
  while (!p->done) {
    if (Status st = ReadOneReplyLocked(); !st.ok()) {
      break;  // BreakLocked marked everything, including p
    }
  }
  return p->result;
}

Status ClientSession::BreakLocked(Status st) {
  broken_ = st;
  for (auto& p : outstanding_) {
    p->result = st;
    p->done.store(true, std::memory_order_release);
  }
  outstanding_.clear();
  for (auto& op : staged_) {
    // FlushLocked moves consumed entries into outstanding_ in place and only
    // clears staged_ once the whole flush is packed, so a mid-flush failure
    // sees the already-moved (null) holders here.
    if (op.pending != nullptr) {
      op.pending->result = st;
      op.pending->done.store(true, std::memory_order_release);
    }
  }
  staged_.clear();
  return st;
}

Status ClientSession::FlushLocked() {
  if (!broken_.ok()) {
    return staged_.empty() ? broken_ : BreakLocked(broken_);
  }
  // Pack staged requests into frames, preserving FIFO order. Consecutive
  // requests coalesce into one MSGBATCH frame up to the window, the batch
  // cap, and the frame cap; a run of one goes unwrapped. Frames accumulate
  // into one buffer so a whole flush is typically a single send(2).
  auto send_buffered = [&]() -> Status {
    if (sendbuf_.empty()) {
      return Status::Ok();
    }
    Status st = SendBytes(sock_, sendbuf_);
    ClearAndTrim(sendbuf_);
    return st.ok() ? st : BreakLocked(st);
  };
  size_t i = 0;
  while (i < staged_.size()) {
    const size_t max_group =
        std::min<size_t>(std::min<uint32_t>(window_, kWireMaxBatchRequests),
                         staged_.size() - i);
    size_t group_bytes = 1 + 4;  // MSGBATCH opcode + count
    size_t j = i;
    while (j - i < max_group && group_bytes + 4 + staged_[j].payload.size() <=
                                    kWireMaxFrameBytes) {
      group_bytes += 4 + staged_[j].payload.size();
      ++j;
      if (j == staged_.size()) {
        break;
      }
    }
    if (j == i) {
      j = i + 1;  // an oversized single still goes out unwrapped
    }
    const size_t units = j - i;
    // Respect the window: drain replies (sending what we buffered first, or
    // the server could never produce them) until the group fits.
    while (outstanding_.size() + units > window_ && !outstanding_.empty()) {
      if (Status st = send_buffered(); !st.ok()) {
        return st;
      }
      if (Status st = ReadOneReplyLocked(); !st.ok()) {
        return st;
      }
    }
    if (units == 1) {
      AppendFrame(sendbuf_, staged_[i].payload);
    } else {
      // MSGBATCH straight into the send buffer: u8 opcode | u32 count |
      // `count` blobs, each laid out exactly like a frame.
      AppendU32(sendbuf_, static_cast<uint32_t>(group_bytes));
      sendbuf_.push_back(static_cast<std::byte>(WireOp::kMsgBatch));
      AppendU32(sendbuf_, static_cast<uint32_t>(units));
      for (size_t k = i; k < j; ++k) {
        AppendFrame(sendbuf_, staged_[k].payload);
      }
    }
    for (size_t k = i; k < j; ++k) {
      staged_[k].pending->staged = false;
      outstanding_.push_back(std::move(staged_[k].pending));
    }
    i = j;
  }
  staged_.clear();
  return send_buffered();
}

Status ClientSession::ReadOneReplyLocked() {
  // Replies are parsed in place from the receive buffer; the socket is read
  // only when no whole frame is buffered, and then for as much as fits.
  std::span<const std::byte> payload;
  for (;;) {
    const std::span<const std::byte> unread = rbuf_.Unread();
    size_t need = kWireFrameHeaderBytes;
    if (unread.size() >= need) {
      const uint32_t len = PeekFrameLen(unread.data());
      if (len > kWireMaxFrameBytes) {
        return BreakLocked(Status(Errc::kProto));
      }
      need += len;
      if (unread.size() >= need) {
        payload = unread.subspan(kWireFrameHeaderBytes, len);
        break;
      }
    }
    const std::span<std::byte> room = rbuf_.Room(need - unread.size());
    // Poll before parking (see Future::Wait): a reply that lands within
    // kPollBeforeParkNs is taken without a sleep and a wakeup. A wait that
    // outlasted the budget, polled or parked, says polling would only burn
    // CPU, so the next wait parks at once until one ends within the budget.
    ssize_t n = recv(sock_, room.data(), room.size(), MSG_DONTWAIT);
    auto would_block = [&] { return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK); };
    if (would_block()) {
      const uint64_t wait_start = NowNs();
      const bool poll = !park_at_once_;
      if (poll) {
        ++polls_;
      }
      if (!poll || !PollBeforePark(wait_start, [&] {
            n = recv(sock_, room.data(), room.size(), MSG_DONTWAIT);
            return !would_block();
          })) {
        ++parks_;
        n = recv(sock_, room.data(), room.size(), 0);
      }
      park_at_once_ = NowNs() - wait_start >= kPollBeforeParkNs;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      // A server-side close, between frames or inside one, is a transport
      // failure from the caller's point of view.
      return BreakLocked(Status(Errc::kIo));
    }
    rbuf_.Fill(static_cast<size_t>(n));
  }
  if (payload.empty()) {
    return BreakLocked(Status(Errc::kProto));  // no status byte
  }
  const Errc code = ErrcOfWireStatus(static_cast<uint8_t>(payload[0]));
  if (outstanding_.empty()) {
    // Unsolicited frame: the server's idle-timeout courtesy reply carries
    // kTimedOut; anything else means framing drifted.
    return BreakLocked(Status(code != Errc::kOk ? code : Errc::kProto));
  }
  std::shared_ptr<Pending> p = std::move(outstanding_.front());
  outstanding_.pop_front();
  if (code != Errc::kOk) {
    p->result = code;
  } else {
    p->result = std::vector<std::byte>(payload.begin() + 1, payload.end());
  }
  rbuf_.Consume(kWireFrameHeaderBytes + payload.size());
  p->done.store(true, std::memory_order_release);
  return Status::Ok();
}

// --- AtomFsClient ------------------------------------------------------------

Result<std::unique_ptr<AtomFsClient>> AtomFsClient::FromSocket(Result<int> fd) {
  if (!fd.ok()) {
    return fd.status();
  }
  auto session = ClientSession::Negotiate(*fd, kDefaultClientInflight);
  if (!session.ok()) {
    return session.status();
  }
  return std::unique_ptr<AtomFsClient>(new AtomFsClient(std::move(*session)));
}

Result<std::unique_ptr<AtomFsClient>> AtomFsClient::ConnectUnix(const std::string& socket_path) {
  return FromSocket(ConnectUnixSocket(socket_path));
}

Result<std::unique_ptr<AtomFsClient>> AtomFsClient::ConnectTcp(uint16_t port) {
  return FromSocket(ConnectTcpSocket(port));
}

Result<std::unique_ptr<AtomFsClient>> AtomFsClient::Connect(const std::string& endpoint) {
  if (endpoint.rfind("unix:", 0) == 0) {
    return ConnectUnix(endpoint.substr(5));
  }
  if (endpoint.rfind("tcp:", 0) == 0) {
    const int port = std::atoi(endpoint.c_str() + 4);
    if (port <= 0 || port > 65535) {
      return Errc::kInval;
    }
    return ConnectTcp(static_cast<uint16_t>(port));
  }
  return Errc::kInval;
}

AtomFsClient::~AtomFsClient() = default;

Result<std::vector<std::byte>> AtomFsClient::Call(const WireRequest& req) {
  return session_->Call(req);
}

Status AtomFsClient::CallStatusOnly(const WireRequest& req) {
  auto body = Call(req);
  return body.ok() ? Status::Ok() : body.status();
}

// --- path-based FileSystem interface ----------------------------------------

Status AtomFsClient::Mkdir(const Path& path) {
  WireRequest req;
  req.op = WireOp::kMkdir;
  req.path_a = path.ToString();
  return CallStatusOnly(req);
}

Status AtomFsClient::Mknod(const Path& path) {
  WireRequest req;
  req.op = WireOp::kMknod;
  req.path_a = path.ToString();
  return CallStatusOnly(req);
}

Status AtomFsClient::Rmdir(const Path& path) {
  WireRequest req;
  req.op = WireOp::kRmdir;
  req.path_a = path.ToString();
  return CallStatusOnly(req);
}

Status AtomFsClient::Unlink(const Path& path) {
  WireRequest req;
  req.op = WireOp::kUnlink;
  req.path_a = path.ToString();
  return CallStatusOnly(req);
}

Status AtomFsClient::Rename(const Path& src, const Path& dst) {
  WireRequest req;
  req.op = WireOp::kRename;
  req.path_a = src.ToString();
  req.path_b = dst.ToString();
  return CallStatusOnly(req);
}

Status AtomFsClient::Exchange(const Path& a, const Path& b) {
  WireRequest req;
  req.op = WireOp::kExchange;
  req.path_a = a.ToString();
  req.path_b = b.ToString();
  return CallStatusOnly(req);
}

Result<Attr> AtomFsClient::Stat(const Path& path) {
  WireRequest req;
  req.op = WireOp::kStat;
  req.path_a = path.ToString();
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  Attr attr;
  if (!ParseAttr(r, &attr) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return attr;
}

Result<std::vector<DirEntry>> AtomFsClient::ReadDir(const Path& path) {
  WireRequest req;
  req.op = WireOp::kReadDir;
  req.path_a = path.ToString();
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  std::vector<DirEntry> entries;
  if (!ParseDirEntries(r, &entries) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return entries;
}

Result<size_t> AtomFsClient::Read(const Path& path, uint64_t offset, std::span<std::byte> out) {
  WireRequest req;
  req.op = WireOp::kRead;
  req.path_a = path.ToString();
  req.offset = offset;
  req.count = static_cast<uint32_t>(std::min<size_t>(out.size(), kWireMaxFrameBytes));
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  std::vector<std::byte> data;
  if (!r.Blob(&data, out.size()) || !r.AtEnd()) {
    return Errc::kProto;
  }
  std::copy(data.begin(), data.end(), out.begin());
  return data.size();
}

Result<size_t> AtomFsClient::Write(const Path& path, uint64_t offset,
                                   std::span<const std::byte> data) {
  WireRequest req;
  req.op = WireOp::kWrite;
  req.path_a = path.ToString();
  req.offset = offset;
  req.data.assign(data.begin(), data.end());
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  uint64_t written = 0;
  if (!r.U64(&written) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return static_cast<size_t>(written);
}

Status AtomFsClient::Truncate(const Path& path, uint64_t size) {
  WireRequest req;
  req.op = WireOp::kTruncate;
  req.path_a = path.ToString();
  req.offset = size;
  return CallStatusOnly(req);
}

// --- descriptor ops ----------------------------------------------------------

Result<Fd> AtomFsClient::Open(std::string_view path, uint32_t flags) {
  WireRequest req;
  req.op = WireOp::kOpen;
  req.path_a = std::string(path);
  req.flags = flags;
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  int32_t fd = -1;
  if (!r.I32(&fd) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return Fd{fd};
}

Status AtomFsClient::Close(Fd fd) {
  WireRequest req;
  req.op = WireOp::kClose;
  req.fd = fd;
  return CallStatusOnly(req);
}

namespace {

// FdRead / Pread share the blob-into-span response shape.
Result<size_t> ParseDataInto(Result<std::vector<std::byte>> body, std::span<std::byte> out) {
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  std::vector<std::byte> data;
  if (!r.Blob(&data, out.size()) || !r.AtEnd()) {
    return Errc::kProto;
  }
  std::copy(data.begin(), data.end(), out.begin());
  return data.size();
}

Result<size_t> ParseWritten(Result<std::vector<std::byte>> body) {
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  uint64_t written = 0;
  if (!r.U64(&written) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return static_cast<size_t>(written);
}

}  // namespace

Result<size_t> AtomFsClient::FdRead(Fd fd, std::span<std::byte> out) {
  WireRequest req;
  req.op = WireOp::kFdRead;
  req.fd = fd;
  req.count = static_cast<uint32_t>(std::min<size_t>(out.size(), kWireMaxFrameBytes));
  return ParseDataInto(Call(req), out);
}

Result<size_t> AtomFsClient::FdWrite(Fd fd, std::span<const std::byte> data) {
  WireRequest req;
  req.op = WireOp::kFdWrite;
  req.fd = fd;
  req.data.assign(data.begin(), data.end());
  return ParseWritten(Call(req));
}

Result<size_t> AtomFsClient::Pread(Fd fd, uint64_t offset, std::span<std::byte> out) {
  WireRequest req;
  req.op = WireOp::kFdPread;
  req.fd = fd;
  req.offset = offset;
  req.count = static_cast<uint32_t>(std::min<size_t>(out.size(), kWireMaxFrameBytes));
  return ParseDataInto(Call(req), out);
}

Result<size_t> AtomFsClient::Pwrite(Fd fd, uint64_t offset, std::span<const std::byte> data) {
  WireRequest req;
  req.op = WireOp::kFdPwrite;
  req.fd = fd;
  req.offset = offset;
  req.data.assign(data.begin(), data.end());
  return ParseWritten(Call(req));
}

Result<Attr> AtomFsClient::Fstat(Fd fd) {
  WireRequest req;
  req.op = WireOp::kFstat;
  req.fd = fd;
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  Attr attr;
  if (!ParseAttr(r, &attr) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return attr;
}

Result<std::vector<DirEntry>> AtomFsClient::ReadDirFd(Fd fd) {
  WireRequest req;
  req.op = WireOp::kFdReadDir;
  req.fd = fd;
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  std::vector<DirEntry> entries;
  if (!ParseDirEntries(r, &entries) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return entries;
}

Status AtomFsClient::Ftruncate(Fd fd, uint64_t size) {
  WireRequest req;
  req.op = WireOp::kFtruncate;
  req.fd = fd;
  req.offset = size;
  return CallStatusOnly(req);
}

Result<uint64_t> AtomFsClient::Seek(Fd fd, uint64_t offset) {
  WireRequest req;
  req.op = WireOp::kSeek;
  req.fd = fd;
  req.offset = offset;
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  uint64_t pos = 0;
  if (!r.U64(&pos) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return pos;
}

// --- admin -------------------------------------------------------------------

Status AtomFsClient::Ping() {
  WireRequest req;
  req.op = WireOp::kPing;
  return CallStatusOnly(req);
}

// --- transactions ------------------------------------------------------------

Result<uint64_t> AtomFsClient::TxBegin() {
  WireRequest req;
  req.op = WireOp::kTxBegin;
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  uint64_t txid = 0;
  if (!r.U64(&txid) || !r.AtEnd() || txid == 0) {
    return Errc::kProto;
  }
  return txid;
}

Status AtomFsClient::TxCommit(uint64_t txid) {
  WireRequest req;
  req.op = WireOp::kTxCommit;
  req.txid = txid;
  return CallStatusOnly(req);
}

Status AtomFsClient::TxAbort(uint64_t txid) {
  WireRequest req;
  req.op = WireOp::kTxAbort;
  req.txid = txid;
  return CallStatusOnly(req);
}

Status AtomFsClient::Checkpoint() {
  WireRequest req;
  req.op = WireOp::kCheckpoint;
  return CallStatusOnly(req);
}

Result<WireServerStats> AtomFsClient::FetchStats() {
  WireRequest req;
  req.op = WireOp::kStats;
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  WireServerStats stats;
  if (!ParseServerStats(r, &stats) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return stats;
}

Result<MetricsSnapshot> AtomFsClient::FetchMetrics() {
  WireRequest req;
  req.op = WireOp::kMetrics;
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  MetricsSnapshot snap;
  if (!ParseMetricsSnapshot(r, &snap) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return snap;
}

Result<std::string> AtomFsClient::FetchTraceJson() {
  WireRequest req;
  req.op = WireOp::kTraceDump;
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  std::string json;
  if (!r.Str(&json, kWireMaxFrameBytes) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return json;
}

Result<std::string> AtomFsClient::FetchPrometheus() {
  WireRequest req;
  req.op = WireOp::kProm;
  auto body = Call(req);
  if (!body.ok()) {
    return body.status();
  }
  WireReader r(*body);
  std::string text;
  if (!r.Str(&text, kWireMaxFrameBytes) || !r.AtEnd()) {
    return Errc::kProto;
  }
  return text;
}

}  // namespace atomfs
