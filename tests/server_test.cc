// End-to-end tests for the atomfsd serving layer: loopback round-trips of
// every FileSystem and descriptor op through AtomFsClient, a POSIX
// conformance subset run against the remote mount, survival under malformed
// byte streams, graceful shutdown, a multi-client concurrent stress with the
// CRL-H monitor attached server-side (zero violations expected — the serving
// layer must not weaken the linearizability the backend provides), and the
// RCU-walk counters fetched over the wire accounting for every optimistic op.

#include "src/server/server.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/core/atom_fs.h"
#include "src/crlh/gate.h"
#include "src/crlh/monitor.h"
#include "src/crlh/op_thread.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/txn/txn.h"
#include "src/util/rand.h"
#include "src/workload/filebench.h"

namespace atomfs {
namespace {

std::span<const std::byte> Bytes(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

std::string UniqueSocketPath(const char* tag) {
  static int counter = 0;
  return "/tmp/atomfs_test_" + std::to_string(getpid()) + "_" + tag + "_" +
         std::to_string(counter++) + ".sock";
}

// Raw client socket for sending hand-crafted (malformed) byte streams.
int RawConnect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

class ServerTest : public ::testing::Test {
 protected:
  // `shards` bounds how many requests run at once: each loop runs its
  // connections' requests itself.
  void StartUnix(FileSystem* fs, int shards = 2) {
    sock_path_ = UniqueSocketPath("srv");
    ServerOptions options;
    options.unix_path = sock_path_;
    options.shards = shards;
    server_ = std::make_unique<AtomFsServer>(fs, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<AtomFsClient> Client() {
    auto c = AtomFsClient::ConnectUnix(sock_path_);
    EXPECT_TRUE(c.ok());
    return std::move(*c);
  }

  std::string sock_path_;
  std::unique_ptr<AtomFsServer> server_;
};

// --- basic lifecycle ---------------------------------------------------------

TEST_F(ServerTest, StartAndStopIsClean) {
  AtomFs fs;
  StartUnix(&fs);
  EXPECT_TRUE(server_->running());
  server_->Stop();
  EXPECT_FALSE(server_->running());
  server_->Stop();  // idempotent
}

TEST_F(ServerTest, StartWithoutListenersFails) {
  AtomFs fs;
  AtomFsServer server(&fs, ServerOptions{});
  EXPECT_EQ(server.Start().code(), Errc::kInval);
}

TEST_F(ServerTest, StopUnblocksIdleConnection) {
  AtomFs fs;
  StartUnix(&fs);
  auto client = Client();
  ASSERT_TRUE(client->Ping().ok());
  server_->Stop();  // must not hang on the parked worker
  EXPECT_EQ(client->Ping().code(), Errc::kIo);
}

// --- full-interface round-trip over Unix-domain ------------------------------

TEST_F(ServerTest, RoundTripsEveryOperation) {
  AtomFs fs;
  StartUnix(&fs);
  auto client = Client();

  // Tree ops.
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Mkdir("/d").ok());
  EXPECT_TRUE(client->Mkdir("/d/sub").ok());
  EXPECT_TRUE(client->Mknod("/d/f").ok());
  EXPECT_TRUE(client->Rename("/d/f", "/d/g").ok());
  EXPECT_TRUE(client->Mknod("/d/h").ok());
  EXPECT_TRUE(client->Exchange("/d/g", "/d/h").ok());

  // Data plane via paths.
  EXPECT_TRUE(WriteString(*client, "/d/g", "remote bytes").ok());
  auto text = ReadString(*client, "/d/g");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "remote bytes");
  EXPECT_TRUE(client->Truncate("/d/g", 6).ok());
  auto attr = client->Stat("/d/g");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 6u);
  EXPECT_EQ(attr->type, FileType::kFile);

  auto entries = client->ReadDir("/d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);  // sub, g, h

  // Descriptor plane.
  auto fd = client->Open("/d/g", OpenFlags::kRead | OpenFlags::kWrite);
  ASSERT_TRUE(fd.ok());
  auto fstat = client->Fstat(*fd);
  ASSERT_TRUE(fstat.ok());
  EXPECT_EQ(fstat->ino, attr->ino);
  std::byte buf[16];
  auto n = client->FdRead(*fd, std::span<std::byte>(buf, 6));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 6u);
  EXPECT_EQ(std::memcmp(buf, "remote", 6), 0);
  auto pos = client->Seek(*fd, 0);
  ASSERT_TRUE(pos.ok());
  auto wrote = client->FdWrite(*fd, Bytes("REMOTE"));
  ASSERT_TRUE(wrote.ok());
  EXPECT_EQ(*wrote, 6u);
  auto pread = client->Pread(*fd, 0, std::span<std::byte>(buf, 6));
  ASSERT_TRUE(pread.ok());
  EXPECT_EQ(std::memcmp(buf, "REMOTE", 6), 0);
  EXPECT_TRUE(client->Pwrite(*fd, 2, Bytes("xx")).ok());
  EXPECT_TRUE(client->Ftruncate(*fd, 4).ok());
  auto after = client->Fstat(*fd);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size, 4u);
  EXPECT_TRUE(client->Close(*fd).ok());
  EXPECT_EQ(client->Close(*fd).code(), Errc::kBadFd);

  // Directory descriptor.
  auto dfd = client->Open("/d", OpenFlags::kRead);
  ASSERT_TRUE(dfd.ok());
  auto dentries = client->ReadDirFd(*dfd);
  ASSERT_TRUE(dentries.ok());
  EXPECT_EQ(dentries->size(), 3u);
  EXPECT_TRUE(client->Close(*dfd).ok());

  // Cleanup ops.
  EXPECT_TRUE(client->Unlink("/d/g").ok());
  EXPECT_TRUE(client->Unlink("/d/h").ok());
  EXPECT_TRUE(client->Rmdir("/d/sub").ok());
  EXPECT_TRUE(client->Rmdir("/d").ok());

  // Admin stats: every op family exercised above must show up.
  auto stats = client->FetchStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->connections_accepted, 1u);
  EXPECT_EQ(stats->protocol_errors, 0u);
  EXPECT_GT(stats->ops.size(), 15u);
  for (const WireOpStats& s : stats->ops) {
    EXPECT_GT(s.count, 0u) << WireOpName(static_cast<WireOp>(s.op));
  }
}

TEST_F(ServerTest, TcpRoundTrip) {
  AtomFs fs;
  ServerOptions options;
  options.tcp_listen = true;  // ephemeral port
  server_ = std::make_unique<AtomFsServer>(&fs, options);
  ASSERT_TRUE(server_->Start().ok());
  ASSERT_NE(server_->BoundTcpPort(), 0);

  auto client = AtomFsClient::ConnectTcp(server_->BoundTcpPort());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Mkdir("/t").ok());
  EXPECT_TRUE(WriteString(**client, "/t/f", "over tcp").ok());
  auto text = ReadString(**client, "/t/f");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "over tcp");
}

TEST_F(ServerTest, ErrorsCrossTheWireFaithfully) {
  AtomFs fs;
  StartUnix(&fs);
  auto client = Client();
  EXPECT_EQ(client->Stat("/missing").status().code(), Errc::kNoEnt);
  ASSERT_TRUE(client->Mkdir("/d").ok());
  EXPECT_EQ(client->Mkdir("/d").code(), Errc::kExist);
  ASSERT_TRUE(client->Mknod("/d/f").ok());
  EXPECT_EQ(client->Rmdir("/d").code(), Errc::kNotEmpty);
  EXPECT_EQ(client->ReadDir("/d/f").status().code(), Errc::kNotDir);
  EXPECT_EQ(client->Rmdir("/d/f").code(), Errc::kNotDir);
  EXPECT_EQ(client->Fstat(999).status().code(), Errc::kBadFd);
  EXPECT_EQ(client->Mkdir("relative/path").code(), Errc::kInval);
}

TEST_F(ServerTest, DescriptorTablesArePerConnection) {
  AtomFs fs;
  StartUnix(&fs);
  auto a = Client();
  auto b = Client();
  ASSERT_TRUE(a->Mknod("/f").ok());
  auto fd = a->Open("/f", OpenFlags::kRead);
  ASSERT_TRUE(fd.ok());
  // The same numeric descriptor means nothing on another connection.
  EXPECT_EQ(b->Fstat(*fd).status().code(), Errc::kBadFd);
  EXPECT_TRUE(a->Fstat(*fd).ok());
}

// --- POSIX conformance subset through the remote mount -----------------------

TEST_F(ServerTest, ConformanceSubsetOverTheWire) {
  AtomFs fs;
  StartUnix(&fs);
  auto client = Client();
  FileSystem& remote = *client;  // the whole point: a FileSystem like any other

  // mkdir/mknod semantics.
  ASSERT_TRUE(remote.Mkdir("/d").ok());
  EXPECT_EQ(remote.Mkdir("/d").code(), Errc::kExist);
  EXPECT_EQ(remote.Mkdir("/no/dir").code(), Errc::kNoEnt);
  ASSERT_TRUE(remote.Mknod("/d/f").ok());
  EXPECT_EQ(remote.Mkdir("/d/f/x").code(), Errc::kNotDir);
  EXPECT_EQ(remote.Mknod("/d/f").code(), Errc::kExist);

  // unlink/rmdir.
  EXPECT_EQ(remote.Unlink("/d").code(), Errc::kIsDir);
  EXPECT_EQ(remote.Rmdir("/").code(), Errc::kBusy);

  // rename semantics: into descendant fails, over empty dir works.
  ASSERT_TRUE(remote.Mkdir("/d/sub").ok());
  EXPECT_EQ(remote.Rename("/d", "/d/sub/x").code(), Errc::kInval);
  ASSERT_TRUE(remote.Mkdir("/e").ok());
  EXPECT_TRUE(remote.Rename("/e", "/d/sub2").ok());
  EXPECT_EQ(remote.Stat("/e").status().code(), Errc::kNoEnt);

  // exchange requires both ends.
  EXPECT_EQ(remote.Exchange("/d/f", "/nope").code(), Errc::kNoEnt);
  ASSERT_TRUE(remote.Mknod("/d/g").ok());
  EXPECT_TRUE(remote.Exchange("/d/f", "/d/g").ok());

  // read/write/truncate.
  ASSERT_TRUE(WriteString(remote, "/d/f", "0123456789").ok());
  std::byte buf[4];
  auto r = remote.Read("/d/f", 8, std::span<std::byte>(buf, 4));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2u);  // short read at EOF
  EXPECT_TRUE(remote.Truncate("/d/f", 3).ok());
  auto text = ReadString(remote, "/d/f");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "012");
  EXPECT_EQ(remote.Read("/d", 0, std::span<std::byte>(buf, 4)).status().code(), Errc::kIsDir);

  // Directory listings reflect all of the above.
  auto entries = remote.ReadDir("/d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 4u);  // f, g, sub, sub2
}

// --- malformed frames --------------------------------------------------------

TEST_F(ServerTest, SurvivesGarbageAndStaysServiceable) {
  AtomFs fs;
  StartUnix(&fs);

  // 1. A frame whose payload is garbage: server answers EPROTO and closes.
  {
    const int raw = RawConnect(sock_path_);
    std::vector<std::byte> garbage(32, std::byte{0xee});
    ASSERT_TRUE(SendFrame(raw, garbage).ok());
    auto response = RecvFrame(raw);
    ASSERT_TRUE(response.ok());
    WireReader r(*response);
    uint8_t status = 0;
    ASSERT_TRUE(r.U8(&status));
    EXPECT_EQ(ErrcOfWireStatus(status), Errc::kProto);
    // Connection is closed afterwards.
    EXPECT_EQ(RecvFrame(raw).status().code(), Errc::kNoEnt);
    close(raw);
  }

  // 2. An oversized declared length: EPROTO, closed.
  {
    const int raw = RawConnect(sock_path_);
    WireWriter header;
    header.U32(kWireMaxFrameBytes + 1);
    ASSERT_EQ(send(raw, header.buf().data(), header.buf().size(), MSG_NOSIGNAL), 4);
    auto response = RecvFrame(raw);
    ASSERT_TRUE(response.ok());
    WireReader r(*response);
    uint8_t status = 0;
    ASSERT_TRUE(r.U8(&status));
    EXPECT_EQ(ErrcOfWireStatus(status), Errc::kProto);
    close(raw);
  }

  // 3. A truncated frame (header promises more than we send) then close.
  {
    const int raw = RawConnect(sock_path_);
    WireWriter header;
    header.U32(100);
    ASSERT_EQ(send(raw, header.buf().data(), header.buf().size(), MSG_NOSIGNAL), 4);
    close(raw);  // server sees EOF mid-frame and must just drop the conn
  }

  // 4. Fuzz volley: random byte blasts on fresh connections.
  Rng rng(0x5eed);
  for (int iter = 0; iter < 50; ++iter) {
    const int raw = RawConnect(sock_path_);
    std::vector<std::byte> noise(1 + rng.Below(256));
    for (auto& b : noise) {
      b = static_cast<std::byte>(rng.Below(256));
    }
    send(raw, noise.data(), noise.size(), MSG_NOSIGNAL);
    close(raw);
  }

  // The server is still fully serviceable for a well-behaved client...
  auto client = Client();
  EXPECT_TRUE(client->Mkdir("/alive").ok());
  EXPECT_TRUE(client->Stat("/alive").ok());
  auto stats = client->FetchStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->protocol_errors, 2u);  // cases 1 and 2 at minimum
  // ...and still shuts down cleanly (no leaked blocked connections).
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

// --- protocol v2: HELLO, pipelining, windows, backpressure, timeouts ---------

// Prepends the 4-byte length header, so several frames can go in one send().
std::vector<std::byte> Framed(std::span<const std::byte> payload) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  std::vector<std::byte> out(w.buf().begin(), w.buf().end());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::vector<std::byte> FramedRequest(const WireRequest& req) {
  return Framed(EncodeRequest(req));
}

void Append(std::vector<std::byte>& out, const std::vector<std::byte>& more) {
  out.insert(out.end(), more.begin(), more.end());
}

// Reads one response frame and returns its leading wire status; kIo when the
// peer closed instead of replying.
Errc RecvStatus(int fd) {
  auto response = RecvFrame(fd);
  if (!response.ok()) {
    return Errc::kIo;
  }
  WireReader r(*response);
  uint8_t status = 0;
  return r.U8(&status) ? ErrcOfWireStatus(status) : Errc::kIo;
}

WireRequest HelloRequest(uint32_t version, uint32_t want) {
  WireRequest req;
  req.op = WireOp::kHello;
  req.proto_version = version;
  req.max_inflight = want;
  return req;
}

TEST_F(ServerTest, HelloNegotiatesWindowAndSurvivesUnknownVersion) {
  AtomFs fs;
  StartUnix(&fs);
  const int raw = RawConnect(sock_path_);

  ASSERT_TRUE(SendFrame(raw, EncodeRequest(HelloRequest(kWireProtoVersion, 4))).ok());
  auto response = RecvFrame(raw);
  ASSERT_TRUE(response.ok());
  WireReader r(*response);
  uint8_t status = 0;
  ASSERT_TRUE(r.U8(&status));
  EXPECT_EQ(ErrcOfWireStatus(status), Errc::kOk);
  WireHello granted;
  ASSERT_TRUE(ParseHello(r, &granted));
  EXPECT_EQ(granted.version, kWireProtoVersion);
  EXPECT_EQ(granted.max_inflight, 4u);

  // An unknown version earns a clean EPROTO reply — and the connection
  // stays open and serviceable, it is NOT dropped.
  ASSERT_TRUE(SendFrame(raw, EncodeRequest(HelloRequest(999, 4))).ok());
  EXPECT_EQ(RecvStatus(raw), Errc::kProto);
  WireRequest ping;
  ping.op = WireOp::kPing;
  ASSERT_TRUE(SendFrame(raw, EncodeRequest(ping)).ok());
  EXPECT_EQ(RecvStatus(raw), Errc::kOk);
  close(raw);
}

TEST_F(ServerTest, PipelinedRepliesPreserveSubmissionOrder) {
  AtomFs fs;
  StartUnix(&fs);
  {
    auto setup = Client();
    for (int i = 1; i <= 5; ++i) {
      const std::string path = "/f" + std::to_string(i);
      ASSERT_TRUE(setup->Mknod(path).ok());
      ASSERT_TRUE(WriteString(*setup, path, std::string(static_cast<size_t>(i), 'x')).ok());
    }
  }

  // HELLO plus five stats in a single send: the replies must come back in
  // submission order, distinguishable by the five distinct file sizes.
  const int raw = RawConnect(sock_path_);
  std::vector<std::byte> burst = FramedRequest(HelloRequest(kWireProtoVersion, 8));
  for (int i = 1; i <= 5; ++i) {
    WireRequest stat;
    stat.op = WireOp::kStat;
    stat.path_a = "/f" + std::to_string(i);
    Append(burst, FramedRequest(stat));
  }
  ASSERT_EQ(send(raw, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  EXPECT_EQ(RecvStatus(raw), Errc::kOk);  // HELLO
  for (int i = 1; i <= 5; ++i) {
    auto response = RecvFrame(raw);
    ASSERT_TRUE(response.ok());
    WireReader r(*response);
    uint8_t status = 0;
    ASSERT_TRUE(r.U8(&status));
    ASSERT_EQ(ErrcOfWireStatus(status), Errc::kOk);
    Attr attr;
    ASSERT_TRUE(ParseAttr(r, &attr));
    EXPECT_EQ(attr.size, static_cast<uint64_t>(i)) << "reply " << i << " out of order";
  }
  close(raw);
}

TEST_F(ServerTest, WindowEnforcementStopsReadingAndCountsStalls) {
  AtomFs fs;
  MetricsRegistry registry;
  sock_path_ = UniqueSocketPath("win");
  ServerOptions options;
  options.unix_path = sock_path_;
  options.metrics = &registry;
  server_ = std::make_unique<AtomFsServer>(&fs, options);
  ASSERT_TRUE(server_->Start().ok());

  const int raw = RawConnect(sock_path_);
  ASSERT_TRUE(SendFrame(raw, EncodeRequest(HelloRequest(kWireProtoVersion, 2))).ok());
  EXPECT_EQ(RecvStatus(raw), Errc::kOk);

  // Ten pings in one send against a window of two: the server may only parse
  // up to the window, must stall the rest in its read buffer, and resume as
  // replies drain — every request still gets its reply, in order.
  WireRequest ping;
  ping.op = WireOp::kPing;
  std::vector<std::byte> burst;
  for (int i = 0; i < 10; ++i) {
    Append(burst, FramedRequest(ping));
  }
  ASSERT_EQ(send(raw, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(RecvStatus(raw), Errc::kOk) << "ping " << i;
  }
  close(raw);

  EXPECT_GE(registry.Snapshot().CounterValue("server.backpressure_stalls"), 1u);
  server_->Stop();  // the local registry must outlive every server thread
}

TEST_F(ServerTest, IdleConnectionsAreReapedWithTimedOutFrame) {
  AtomFs fs;
  MetricsRegistry registry;
  sock_path_ = UniqueSocketPath("idle");
  ServerOptions options;
  options.unix_path = sock_path_;
  options.metrics = &registry;
  options.idle_timeout_ms = 50;
  server_ = std::make_unique<AtomFsServer>(&fs, options);
  ASSERT_TRUE(server_->Start().ok());

  // A connection that never sends anything (half-open in spirit) gets a
  // courtesy ETIMEDOUT frame and then EOF.
  const int raw = RawConnect(sock_path_);
  EXPECT_EQ(RecvStatus(raw), Errc::kTimedOut);
  EXPECT_FALSE(RecvFrame(raw).ok());
  close(raw);
  EXPECT_GE(registry.Snapshot().CounterValue("server.idle_timeouts"), 1u);
  server_->Stop();  // the local registry must outlive every server thread
}

// CPU time of the whole process (every server and client thread), in µs.
uint64_t ProcessCpuMicros() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto micros = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000 + static_cast<uint64_t>(tv.tv_usec);
  };
  return micros(ru.ru_utime) + micros(ru.ru_stime);
}

TEST_F(ServerTest, IdleLoopsParkAfterPollingAndBurnNoCpu) {
  AtomFs fs;
  StartUnix(&fs);
  auto a = Client();
  auto b = Client();
  const MetricsRegistry& registry = *server_->metrics();
  const auto counter = [&registry](const char* name) {
    return registry.Snapshot().CounterValue(name);
  };
  const uint64_t parks = counter("server.loop.parks");
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(a->Ping().ok());
    ASSERT_TRUE(b->Ping().ok());
  }

  // A loop polls only for a bounded time after its last event, then parks.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (counter("server.loop.parks") == parks && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(counter("server.loop.parks"), parks) << "no loop parked within 1 s of going idle";

  // Parked loops stay asleep: no wakeup and next to no CPU while nobody calls.
  const uint64_t wakeups = counter("server.loop.wakeups");
  const uint64_t cpu_us = ProcessCpuMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(counter("server.loop.wakeups"), wakeups);
  EXPECT_LT(ProcessCpuMicros() - cpu_us, 30'000u) << "an idle loop kept polling";
}

TEST_F(ServerTest, MalformedFrameMidPipelineDrainsEarlierRepliesFirst) {
  AtomFs fs;
  StartUnix(&fs);
  const int raw = RawConnect(sock_path_);

  // Two good requests, then a garbage frame, then another request — all in
  // one send. The server must answer the two good ones in order, then a
  // clean EPROTO for the garbage, then close; the trailing request is never
  // executed.
  WireRequest ping;
  ping.op = WireOp::kPing;
  std::vector<std::byte> burst = FramedRequest(ping);
  Append(burst, FramedRequest(ping));
  Append(burst, Framed(std::vector<std::byte>(24, std::byte{0xee})));
  Append(burst, FramedRequest(ping));
  ASSERT_EQ(send(raw, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  EXPECT_EQ(RecvStatus(raw), Errc::kOk);
  EXPECT_EQ(RecvStatus(raw), Errc::kOk);
  EXPECT_EQ(RecvStatus(raw), Errc::kProto);
  EXPECT_FALSE(RecvFrame(raw).ok());  // closed after the poison reply
  close(raw);
}

TEST_F(ServerTest, OverWindowBatchIsShedWithBackpressure) {
  AtomFs fs;
  StartUnix(&fs);
  const int raw = RawConnect(sock_path_);
  ASSERT_TRUE(SendFrame(raw, EncodeRequest(HelloRequest(kWireProtoVersion, 2))).ok());
  EXPECT_EQ(RecvStatus(raw), Errc::kOk);

  // A MSGBATCH of five against a window of two overcommits the negotiated
  // window in one frame: every sub-request is answered EBACKPRESSURE and
  // none executes, but the connection stays usable.
  WireRequest batch;
  batch.op = WireOp::kMsgBatch;
  WireRequest sub;
  sub.op = WireOp::kMkdir;
  for (int i = 0; i < 5; ++i) {
    sub.path_a = "/shed" + std::to_string(i);
    batch.batch.push_back(sub);
  }
  ASSERT_TRUE(SendFrame(raw, EncodeRequest(batch)).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(RecvStatus(raw), Errc::kBackpressure) << "sub " << i;
  }
  WireRequest stat;
  stat.op = WireOp::kStat;
  stat.path_a = "/shed0";
  ASSERT_TRUE(SendFrame(raw, EncodeRequest(stat)).ok());
  EXPECT_EQ(RecvStatus(raw), Errc::kNoEnt);  // shed mkdir never executed
  close(raw);
}

TEST_F(ServerTest, ClientSessionPipelinesAndResolvesFuturesInOrder) {
  AtomFs fs;
  StartUnix(&fs);
  auto client = Client();
  EXPECT_EQ(client->protocol_version(), kWireProtoVersion);
  EXPECT_GE(client->max_inflight(), 1u);

  ClientSession& session = client->session();
  std::vector<ClientSession::Future> futures;
  for (int i = 0; i < 6; ++i) {
    WireRequest req;
    req.op = WireOp::kMkdir;
    req.path_a = "/p" + std::to_string(i);
    futures.push_back(session.Submit(req));
  }
  ASSERT_TRUE(session.Flush().ok());
  for (auto& f : futures) {
    ASSERT_TRUE(f.valid());
    EXPECT_TRUE(f.Wait().ok());
  }
  // Waiting twice returns the stored result.
  EXPECT_TRUE(futures.front().Wait().ok());

  // Far more submissions than any window: Flush must interleave sends and
  // reply reads without deadlock, and every future resolves.
  futures.clear();
  WireRequest stat;
  stat.op = WireOp::kStat;
  stat.path_a = "/p0";
  for (int i = 0; i < 300; ++i) {
    futures.push_back(session.Submit(stat));
  }
  ASSERT_TRUE(session.Flush().ok());
  for (auto& f : futures) {
    EXPECT_TRUE(f.Wait().ok());
  }
  // All of it really happened on the server.
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(client->Stat("/p" + std::to_string(i)).ok());
  }
}

TEST_F(ServerTest, FlushFailureAcrossWindowGroupsBreaksEveryFuture) {
  // Regression: with a window smaller than the staged backlog, Flush packs
  // several MSGBATCH groups and drains replies between them; a transport
  // failure in that inter-group drain used to crash on the moved-from
  // entries still sitting in the staged queue. Every future must instead
  // resolve with the transport error.
  AtomFs fs;
  sock_path_ = UniqueSocketPath("brk");
  ServerOptions options;
  options.unix_path = sock_path_;
  options.max_inflight = 2;
  options.default_inflight = 2;
  server_ = std::make_unique<AtomFsServer>(&fs, options);
  ASSERT_TRUE(server_->Start().ok());

  auto client = Client();
  ASSERT_EQ(client->max_inflight(), 2u);
  server_->Stop();  // closes the connection under the client

  ClientSession& session = client->session();
  WireRequest ping;
  ping.op = WireOp::kPing;
  std::vector<ClientSession::Future> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(session.Submit(ping));
  }
  EXPECT_FALSE(session.Flush().ok());
  for (auto& f : futures) {
    EXPECT_EQ(f.Wait().status().code(), Errc::kIo);
  }
}

TEST_F(ServerTest, FuturesOutliveTheirSession) {
  AtomFs fs;
  StartUnix(&fs);
  ClientSession::Future resolved;
  ClientSession::Future unresolved;
  {
    auto client = Client();
    WireRequest ping;
    ping.op = WireOp::kPing;
    resolved = client->session().Submit(ping);
    ASSERT_TRUE(resolved.Wait().ok());
    unresolved = client->session().Submit(ping);  // never flushed
  }
  // A resolved future returns its stored result without touching the dead
  // session; an unresolved one was broken with kIo by the destructor.
  EXPECT_TRUE(resolved.Wait().ok());
  EXPECT_EQ(unresolved.Wait().status().code(), Errc::kIo);
}

TEST_F(ServerTest, SessionDestroyedWithStagedPendingsDuringIdleReap) {
  // Teardown-ordering race: the server's idle sweep reaps the connection
  // (sending a best-effort ETIMEDOUT and closing the socket) under a session
  // that still holds staged, never-flushed pendings — and the session object
  // is then destroyed while that reap may still be in flight. Nothing may
  // crash, and every unflushed future must resolve with a sticky kIo from
  // the destructor's BreakLocked, not hang or read freed session state.
  AtomFs fs;
  sock_path_ = UniqueSocketPath("reap");
  ServerOptions options;
  options.unix_path = sock_path_;
  options.idle_timeout_ms = 5;
  server_ = std::make_unique<AtomFsServer>(&fs, options);
  ASSERT_TRUE(server_->Start().ok());

  std::vector<ClientSession::Future> futures;
  {
    auto client = Client();
    ASSERT_TRUE(client->Ping().ok());  // connection live, last_activity stamped
    WireRequest ping;
    ping.op = WireOp::kPing;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(client->session().Submit(ping));  // staged, never flushed
    }
    // Let the idle sweep (period = timeout/4) reap the connection while the
    // staged queue is still full, then drop the session on the way out.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.Wait().status().code(), Errc::kIo);
  }
  server_->Stop();
}

TEST_F(ServerTest, BatchParksUntilItFitsTheWindowWhole) {
  // Regression: a MSGBATCH arriving with requests already inflight used to
  // be admitted whenever inflight < window, overcommitting the window by up
  // to the batch size. It must park (a backpressure stall) until it fits
  // whole, then execute normally.
  AtomFs fs;
  MetricsRegistry registry;
  sock_path_ = UniqueSocketPath("park");
  ServerOptions options;
  options.unix_path = sock_path_;
  options.metrics = &registry;
  options.max_inflight = 2;
  options.default_inflight = 2;
  server_ = std::make_unique<AtomFsServer>(&fs, options);
  ASSERT_TRUE(server_->Start().ok());

  const int raw = RawConnect(sock_path_);
  WireRequest ping;
  ping.op = WireOp::kPing;
  WireRequest batch;
  batch.op = WireOp::kMsgBatch;
  WireRequest sub;
  sub.op = WireOp::kMkdir;
  for (int i = 0; i < 2; ++i) {
    sub.path_a = "/park" + std::to_string(i);
    batch.batch.push_back(sub);
  }
  // One send: a ping occupies the window, so the two-wide batch cannot fit
  // whole until the ping's reply drains.
  std::vector<std::byte> burst = FramedRequest(ping);
  Append(burst, FramedRequest(batch));
  ASSERT_EQ(send(raw, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  EXPECT_EQ(RecvStatus(raw), Errc::kOk);  // ping
  EXPECT_EQ(RecvStatus(raw), Errc::kOk);  // mkdir /park0
  EXPECT_EQ(RecvStatus(raw), Errc::kOk);  // mkdir /park1
  close(raw);

  EXPECT_GE(registry.Snapshot().CounterValue("server.backpressure_stalls"), 1u);
  {
    auto client = Client();
    EXPECT_TRUE(client->Stat("/park0").ok());
    EXPECT_TRUE(client->Stat("/park1").ok());
  }
  server_->Stop();  // the local registry must outlive every server thread
}

TEST_F(ServerTest, PeerThatNeverReadsDoesNotStallItsLoopNeighbour) {
  // Requests run to completion on the shard loop, so one loop serves both
  // connections below. A peer that pipelines large reads and never reads a
  // reply fills its socket and its outbox; the loop must park that peer and
  // keep serving the other connection, not block on the stalled send.
  AtomFs fs;
  sock_path_ = UniqueSocketPath("stall");
  ServerOptions options;
  options.unix_path = sock_path_;
  options.shards = 1;
  options.max_outbox_bytes = 64u << 10;
  server_ = std::make_unique<AtomFsServer>(&fs, options);
  ASSERT_TRUE(server_->Start().ok());

  constexpr uint32_t kWindow = 16;
  constexpr size_t kFileBytes = 256u << 10;
  {
    auto setup = Client();
    ASSERT_TRUE(setup->Mknod("/big").ok());
    ASSERT_TRUE(WriteString(*setup, "/big", std::string(kFileBytes, 'z')).ok());
  }

  // Two full windows of 256 KiB reads in one send: 8 MiB of replies, far
  // past the socket buffers and the 64 KiB outbox cap.
  const int stalled = RawConnect(sock_path_);
  std::vector<std::byte> burst = FramedRequest(HelloRequest(kWireProtoVersion, kWindow));
  WireRequest read;
  read.op = WireOp::kRead;
  read.path_a = "/big";
  read.offset = 0;
  read.count = kFileBytes;
  for (uint32_t i = 0; i < 2 * kWindow; ++i) {
    Append(burst, FramedRequest(read));
  }
  ASSERT_EQ(send(stalled, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  auto reads_served = [this] {
    const MetricsSnapshot snap = server_->metrics()->Snapshot();
    const HistogramSnapshot* h = snap.FindHistogram("server.op.read.latency_ns");
    return h != nullptr ? h->count : 0;
  };
  const auto started = std::chrono::steady_clock::now();
  while (reads_served() == 0 &&
         std::chrono::steady_clock::now() - started < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The neighbour's round trips must finish within the deadline.
  std::promise<bool> done;
  std::future<bool> finished = done.get_future();
  std::thread neighbour([&] {
    auto client = Client();
    bool ok = client != nullptr;
    for (int i = 0; ok && i < 50; ++i) {
      ok = client->Ping().ok() && client->Stat("/big").ok();
    }
    done.set_value(ok);
  });
  const bool in_time =
      finished.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  if (!in_time) {
    shutdown(stalled, SHUT_RDWR);  // unwedge a blocked loop so the join returns
  }
  neighbour.join();
  EXPECT_TRUE(in_time) << "a peer that never reads stalled its loop neighbour";
  EXPECT_TRUE(finished.get());

  // Once the stalled peer reads, every reply arrives, in order and whole.
  if (in_time) {
    EXPECT_EQ(RecvStatus(stalled), Errc::kOk);  // HELLO
    for (uint32_t i = 0; i < 2 * kWindow; ++i) {
      auto response = RecvFrame(stalled);
      ASSERT_TRUE(response.ok()) << "read reply " << i;
      EXPECT_EQ(response->size(), 1 + 4 + kFileBytes) << "read reply " << i;
    }
  }
  close(stalled);
  server_->Stop();
}

TEST_F(ServerTest, LargeReadsPipelinedBeforeAnyReplyIsReadArriveWholeInOrder) {
  // 32 reads of 256 KiB each, all sent before the peer reads anything: the
  // 8 MiB of replies fill the socket and queue in the connection's outbox,
  // which then drains through many partial sends as the peer reads. Every
  // reply must arrive whole and in request order.
  AtomFs fs;
  StartUnix(&fs, 1);
  constexpr uint32_t kReads = 32;
  constexpr size_t kChunk = 256u << 10;
  auto pattern = [](uint32_t chunk, size_t k) {
    return static_cast<std::byte>((chunk * 29 + k * 13 + (k >> 9)) & 0xff);
  };
  {
    auto setup = Client();
    ASSERT_TRUE(setup->Mknod("/big").ok());
    std::vector<std::byte> data(kChunk);
    for (uint32_t i = 0; i < kReads; ++i) {
      for (size_t k = 0; k < kChunk; ++k) {
        data[k] = pattern(i, k);
      }
      auto n = setup->Write("/big", uint64_t{i} * kChunk, data);
      ASSERT_TRUE(n.ok());
      ASSERT_EQ(*n, kChunk);
    }
  }

  const int raw = RawConnect(sock_path_);
  timeval deadline{};
  deadline.tv_sec = 10;
  setsockopt(raw, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof deadline);
  setsockopt(raw, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof deadline);
  std::vector<std::byte> burst;
  for (uint32_t i = 0; i < kReads; ++i) {
    WireRequest read;
    read.op = WireOp::kRead;
    read.path_a = "/big";
    read.offset = uint64_t{i} * kChunk;
    read.count = kChunk;
    Append(burst, FramedRequest(read));
  }
  ASSERT_EQ(send(raw, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  // Let the loop run the whole window and back up into its outbox.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  for (uint32_t i = 0; i < kReads; ++i) {
    auto response = RecvFrame(raw);
    ASSERT_TRUE(response.ok()) << "read reply " << i;
    WireReader r(*response);
    uint8_t status = 0;
    ASSERT_TRUE(r.U8(&status));
    ASSERT_EQ(ErrcOfWireStatus(status), Errc::kOk) << "read reply " << i;
    std::vector<std::byte> data;
    ASSERT_TRUE(r.Blob(&data, kChunk));
    ASSERT_TRUE(r.AtEnd());
    ASSERT_EQ(data.size(), kChunk) << "read reply " << i;
    for (size_t k = 0; k < kChunk; ++k) {
      ASSERT_EQ(data[k], pattern(i, k)) << "read reply " << i << " byte " << k;
    }
  }
  close(raw);
}

TEST_F(ServerTest, PeerPipeliningPastItsWindowSharesItsLoop) {
  // A peer that reads its replies but keeps many windows of stat requests
  // buffered must get one window per loop turn, so a neighbour on the same
  // loop waits behind at most a few windows, not behind everything the peer
  // has sent. Measured in peer requests served during each neighbour round
  // trip, which does not depend on how fast the host is.
  AtomFs fs;
  sock_path_ = UniqueSocketPath("flood");
  ServerOptions options;
  options.unix_path = sock_path_;
  options.shards = 1;
  server_ = std::make_unique<AtomFsServer>(&fs, options);
  ASSERT_TRUE(server_->Start().ok());
  {
    auto setup = Client();
    ASSERT_TRUE(setup->Mknod("/s").ok());
  }
  auto stats_served = [this] {
    const MetricsSnapshot snap = server_->metrics()->Snapshot();
    const HistogramSnapshot* h = snap.FindHistogram("server.op.stat.latency_ns");
    return h != nullptr ? h->count : 0;
  };

  constexpr uint32_t kWindow = 8;
  const int peer = RawConnect(sock_path_);
  std::atomic<bool> flooding{true};
  std::thread writer([&] {
    std::vector<std::byte> hello = FramedRequest(HelloRequest(kWireProtoVersion, kWindow));
    if (send(peer, hello.data(), hello.size(), MSG_NOSIGNAL) < 0) {
      return;
    }
    WireRequest stat;
    stat.op = WireOp::kStat;
    stat.path_a = "/s";
    std::vector<std::byte> chunk;
    for (int i = 0; i < 4096; ++i) {
      Append(chunk, FramedRequest(stat));
    }
    while (flooding.load(std::memory_order_relaxed)) {
      if (send(peer, chunk.data(), chunk.size(), MSG_NOSIGNAL) < 0) {
        return;
      }
    }
  });
  std::thread reader([&] {
    std::vector<char> sink(256u << 10);
    while (recv(peer, sink.data(), sink.size(), 0) > 0) {
    }
  });
  const auto started = std::chrono::steady_clock::now();
  while (stats_served() < 20000 &&
         std::chrono::steady_clock::now() - started < std::chrono::seconds(30)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  constexpr int kRoundTrips = 200;
  std::vector<uint64_t> served_during(kRoundTrips, 0);
  std::promise<bool> done;
  std::future<bool> finished = done.get_future();
  std::thread neighbour([&] {
    auto client = Client();
    bool ok = client != nullptr;
    for (int i = 0; ok && i < kRoundTrips; ++i) {
      const uint64_t before = stats_served();
      ok = client->Ping().ok();
      served_during[static_cast<size_t>(i)] = stats_served() - before;
    }
    done.set_value(ok);
  });
  const bool in_time =
      finished.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  flooding.store(false, std::memory_order_relaxed);
  shutdown(peer, SHUT_RDWR);  // unblocks the flood threads (and a wedged loop)
  writer.join();
  reader.join();
  neighbour.join();
  close(peer);
  ASSERT_TRUE(in_time) << "a peer pipelining past its window starved its loop neighbour";
  EXPECT_TRUE(finished.get());

  // One turn runs a window or two of the peer; draining everything it has
  // buffered runs thousands (a 256 KiB read holds ~20k stat frames). The
  // bound leaves room for the neighbour thread being descheduled.
  std::sort(served_during.begin(), served_during.end());
  const uint64_t median = served_during[kRoundTrips / 2];
  EXPECT_LE(median, 128u * kWindow)
      << "median peer requests run during one neighbour round trip";
  server_->Stop();
}

TEST_F(ServerTest, StopWhileTrafficInFlightShutsDownCleanly) {
  AtomFs fs;
  StartUnix(&fs, /*shards=*/4);  // one loop per client, all mid-request
  std::atomic<bool> go{true};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      auto client = AtomFsClient::ConnectUnix(sock_path_);
      if (!client.ok()) {
        return;
      }
      while (go.load(std::memory_order_relaxed)) {
        if (!(*client)->Ping().ok()) {
          return;  // server went away mid-conversation: expected
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server_->Stop();  // races the shard loops mid-request
  go.store(false, std::memory_order_relaxed);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(server_->running());
}

// --- multi-client concurrent stress with the CRL-H monitor -------------------

TEST_F(ServerTest, MultiClientStressUnderMonitorHasNoViolations) {
  CrlhMonitor monitor;
  AtomFs::Options fs_options;
  fs_options.observer = &monitor;
  AtomFs fs(std::move(fs_options));
  constexpr int kClients = 6;
  StartUnix(&fs, /*shards=*/kClients);  // every client's ops can run at once

  // A small filebench population shared by all clients.
  FilebenchProfile profile;
  profile.name = "stress";
  profile.dirs = 8;
  profile.files = 64;
  profile.file_bytes = 512;
  profile.io_bytes = 256;
  {
    auto setup = Client();
    FilebenchSetup(*setup, profile, /*seed=*/3);
  }

  constexpr uint64_t kOpsPerClient = 120;
  std::vector<std::thread> threads;
  std::vector<WorkerStats> stats(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = AtomFsClient::ConnectUnix(sock_path_);
      ASSERT_TRUE(client.ok());
      if (c % 3 == 2) {
        // Every third client hammers cross-directory renames/exchanges so
        // the helper mechanism actually fires under served concurrency.
        Rng rng(static_cast<uint64_t>(c) * 131 + 7);
        for (uint64_t i = 0; i < kOpsPerClient; ++i) {
          const std::string a = "/fb/d" + std::to_string(rng.Below(profile.dirs));
          const std::string b = "/fb/d" + std::to_string(rng.Below(profile.dirs));
          const std::string fa = a + "/f" + std::to_string(rng.Below(profile.files));
          const std::string fb = b + "/f" + std::to_string(rng.Below(profile.files));
          if (rng.Chance(1, 2)) {
            (*client)->Rename(fa, fb);
          } else {
            (*client)->Exchange(fa, fb);
          }
          (*client)->Stat(fb);
        }
      } else {
        stats[static_cast<size_t>(c)] = FilebenchWorker(
            **client, profile, /*seed=*/500 + static_cast<uint64_t>(c), kOpsPerClient);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  uint64_t total_ops = 0;
  for (const WorkerStats& s : stats) {
    total_ops += s.ops;
  }
  EXPECT_GT(total_ops, 0u);

  server_->Stop();

  // The serving layer preserved linearizability: the monitor saw every
  // operation the workers issued and found no refinement or invariant
  // violation; at quiescence abstract and concrete trees agree.
  EXPECT_TRUE(monitor.CheckQuiescent(fs.SnapshotSpec()));
  EXPECT_TRUE(monitor.ok()) << monitor.violations().front();
  EXPECT_TRUE(monitor.violations().empty());
}

// --- RCU-walk accounting over the wire ---------------------------------------

// RCU-walk is on in every AtomFs, so a short traced fileserver run over the
// real wire must show the optimistic walk engaged, never bypassing
// validation, and accounting for every op that walks optimistically (every
// single-path op: reads, and the mutators, whose validated walks are
// adopted). Each such op ends in exactly one passing attempt (a validated
// miss and an adoption included) or one fallback, and each failed attempt (a
// retracted read or a withdrawn adoption included) is an interior retry, so
// attempts - validation_failures + fallbacks equals the optimistic ops
// served. The fileserver profile never creates or removes the root itself,
// the one single-path case that fails before it walks.
TEST_F(ServerTest, RcuWalkCountersAccountForEveryOptimisticOp) {
  MetricsRegistry registry;
  TracingObserver tracer(&registry);
  GateObserver gate;
  TeeObserver tee(&tracer, &gate);
  AtomFs::Options fs_options;
  fs_options.observer = &tee;
  AtomFs fs(std::move(fs_options));
  sock_path_ = UniqueSocketPath("rcu");
  ServerOptions options;
  options.unix_path = sock_path_;
  options.metrics = &registry;
  server_ = std::make_unique<AtomFsServer>(&fs, options);
  ASSERT_TRUE(server_->Start().ok());

  // Populate directly on the backend; the setup's ops are counted too.
  const FilebenchProfile profile = FilebenchProfile::Fileserver();
  FilebenchSetup(fs, profile, /*seed=*/7);

  constexpr int kClients = 2;
  constexpr uint64_t kOpsPerClient = 150;
  std::vector<std::unique_ptr<AtomFsClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(Client());
  }
  std::vector<std::future<WorkerStats>> results;
  std::vector<std::thread> workers;
  for (int c = 0; c < kClients; ++c) {
    std::packaged_task<WorkerStats()> task([&, c] {
      return FilebenchWorker(*clients[static_cast<size_t>(c)], profile,
                             /*seed=*/1000 + static_cast<uint64_t>(c), kOpsPerClient);
    });
    results.push_back(task.get_future());
    workers.emplace_back(std::move(task));
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool in_time = true;
  for (auto& r : results) {
    in_time = in_time && r.wait_until(deadline) == std::future_status::ready;
  }
  if (!in_time) {
    server_->Stop();  // fails every pending call, so the workers return
  }
  for (auto& t : workers) {
    t.join();
  }
  ASSERT_TRUE(in_time) << "the filebench workers did not finish within 30 s";
  uint64_t worker_failures = 0;
  for (auto& r : results) {
    worker_failures += r.get().failures;
  }
  EXPECT_EQ(worker_failures, 0u);

  // That load is too light to contend, so none of its ops falls back. Force
  // one fallback over the wire so the identity covers that term too: park a
  // holder on the root lock (a held ancestor fails every optimistic
  // attempt), send a stat, and let the holder go once every attempt of the
  // stat has failed; it then falls back and waits for the root.
  const auto failures_now = [&registry] {
    return registry.Snapshot().CounterValue("core.rcuwalk.validation_failures");
  };
  const uint64_t failures_before = failures_now();
  OpThread holder([&] { EXPECT_TRUE(fs.Stat("/").ok()); });
  gate.Arm(holder.tid(), GateObserver::Point::kLockAcquired, kRootInum);
  holder.Go();
  gate.WaitParked(holder.tid());
  std::thread contender([&] { EXPECT_TRUE(clients.back()->Stat("/fb").ok()); });
  const auto failed_by = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (failures_now() < failures_before + AtomFs::kRcuWalkAttempts &&
         std::chrono::steady_clock::now() < failed_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Open(holder.tid());
  holder.Join();
  contender.join();
  EXPECT_EQ(failures_now() - failures_before, AtomFs::kRcuWalkAttempts)
      << "the stat behind a held root did not fail every optimistic attempt";

  // The counters as an operator sees them: a METRICS fetch over the wire.
  auto remote = clients.front()->FetchMetrics();
  server_->Stop();
  ASSERT_TRUE(remote.ok());
  auto served = [&remote](const char* kind) -> uint64_t {
    const HistogramSnapshot* h =
        remote->FindHistogram("fs.op." + std::string(kind) + ".latency_ns");
    return h != nullptr ? h->count : 0;
  };
  uint64_t optimistic_ops = 0;
  for (const char* kind : {"stat", "readdir", "read", "mkdir", "mknod", "rmdir", "unlink",
                           "write", "truncate"}) {
    optimistic_ops += served(kind);
  }
  const uint64_t attempts = remote->CounterValue("core.rcuwalk.attempts");
  const uint64_t failures = remote->CounterValue("core.rcuwalk.validation_failures");
  const uint64_t fallbacks = remote->CounterValue("core.rcuwalk.fallbacks");
  EXPECT_GT(attempts, 0u) << "no optimistic walk attempts recorded";
  EXPECT_GT(fallbacks, 0u);
  EXPECT_EQ(remote->CounterValue("core.rcuwalk.unvalidated_reads"), 0u)
      << "the unsafe skip-validation hook must never be live outside tests";
  EXPECT_EQ(attempts - failures + fallbacks, optimistic_ops)
      << attempts << " attempts, " << failures << " validation failures, " << fallbacks
      << " fallbacks";
}

// --- transactions over the wire ----------------------------------------------

class TxnServerTest : public ServerTest {
 protected:
  // The server's fs pointer IS the TxnManager, so direct ops (no open txn)
  // are conflict-tracked too — the same wiring atomfsd --journal uses.
  void StartUnixWithTxn(TxnManager* txn) {
    sock_path_ = UniqueSocketPath("srvtx");
    ServerOptions options;
    options.unix_path = sock_path_;
    options.shards = 4;  // connections' txn ops run concurrently
    options.txn = txn;
    server_ = std::make_unique<AtomFsServer>(txn, options);
    ASSERT_TRUE(server_->Start().ok());
  }
};

TEST_F(TxnServerTest, CommitIsAtomicAcrossConnections) {
  AtomFs fs;
  TxnManager::Options topt;
  topt.inner = &fs;
  TxnManager txn(topt);
  StartUnixWithTxn(&txn);
  auto writer = Client();
  auto reader = Client();

  auto txid = writer->TxBegin();
  ASSERT_TRUE(txid.ok());
  EXPECT_GT(*txid, 0u);
  EXPECT_TRUE(writer->Mkdir("/cfg").ok());
  EXPECT_TRUE(writer->Mknod("/cfg/a").ok());
  EXPECT_TRUE(WriteString(*writer, "/cfg/a", "v1").ok());
  // Read-your-writes on the transaction's connection...
  EXPECT_EQ(ReadString(*writer, "/cfg/a").value(), "v1");
  // ...total invisibility on every other connection.
  EXPECT_EQ(reader->Stat("/cfg").status().code(), Errc::kNoEnt);

  ASSERT_TRUE(writer->TxCommit().ok());
  EXPECT_TRUE(reader->Stat("/cfg/a").ok());
  EXPECT_EQ(ReadString(*reader, "/cfg/a").value(), "v1");
  server_->Stop();
}

TEST_F(TxnServerTest, ConflictingCommitLosesWithTxConflict) {
  AtomFs fs;
  TxnManager::Options topt;
  topt.inner = &fs;
  TxnManager txn(topt);
  StartUnixWithTxn(&txn);
  auto a = Client();
  auto b = Client();
  ASSERT_TRUE(a->Mkdir("/d").ok());  // direct, auto-committed

  ASSERT_TRUE(a->TxBegin().ok());
  ASSERT_TRUE(b->TxBegin().ok());
  EXPECT_TRUE(a->Mknod("/d/f").ok());
  EXPECT_TRUE(b->Mknod("/d/f").ok());
  EXPECT_TRUE(a->TxCommit().ok());
  EXPECT_EQ(b->TxCommit().code(), Errc::kTxConflict);
  EXPECT_TRUE(a->Stat("/d/f").ok());
  // The losing connection is free again: a retry commits cleanly.
  ASSERT_TRUE(b->TxBegin().ok());
  EXPECT_TRUE(b->Mknod("/d/g").ok());
  EXPECT_TRUE(b->TxCommit().ok());
  EXPECT_TRUE(a->Stat("/d/g").ok());
  server_->Stop();
}

TEST_F(TxnServerTest, TxOpsWithoutTxnLayerAnswerInval) {
  AtomFs fs;
  StartUnix(&fs);
  auto c = Client();
  EXPECT_EQ(c->TxBegin().status().code(), Errc::kInval);
  EXPECT_EQ(c->TxCommit(7).code(), Errc::kInval);
  EXPECT_EQ(c->TxAbort(7).code(), Errc::kInval);
  server_->Stop();
}

TEST_F(TxnServerTest, OneTransactionPerConnectionAndIdChecks) {
  AtomFs fs;
  TxnManager::Options topt;
  topt.inner = &fs;
  TxnManager txn(topt);
  StartUnixWithTxn(&txn);
  auto c = Client();
  auto txid = c->TxBegin();
  ASSERT_TRUE(txid.ok());
  EXPECT_EQ(c->TxBegin().status().code(), Errc::kBusy);    // already open
  EXPECT_EQ(c->TxCommit(*txid + 99).code(), Errc::kInval); // not this conn's txn
  EXPECT_TRUE(c->TxAbort(*txid).ok());                     // explicit id works
  EXPECT_EQ(c->TxCommit().code(), Errc::kInval);           // nothing open now
  ASSERT_TRUE(c->TxBegin().ok());                          // fresh txn allowed
  EXPECT_TRUE(c->TxAbort().ok());
  server_->Stop();
}

TEST_F(TxnServerTest, DescriptorOpsRefusedInsideTransaction) {
  AtomFs fs;
  TxnManager::Options topt;
  topt.inner = &fs;
  TxnManager txn(topt);
  StartUnixWithTxn(&txn);
  auto c = Client();
  ASSERT_TRUE(c->Mkdir("/d").ok());
  ASSERT_TRUE(c->Mknod("/d/f").ok());
  ASSERT_TRUE(c->TxBegin().ok());
  EXPECT_EQ(c->Open("/d/f", OpenFlags::kRead).status().code(), Errc::kBusy);
  EXPECT_TRUE(c->TxAbort().ok());
  EXPECT_TRUE(c->Open("/d/f", OpenFlags::kRead).ok());
  server_->Stop();
}

TEST_F(TxnServerTest, DroppedConnectionAbortsItsTransaction) {
  AtomFs fs;
  TxnManager::Options topt;
  topt.inner = &fs;
  TxnManager txn(topt);
  StartUnixWithTxn(&txn);
  {
    auto c = Client();
    ASSERT_TRUE(c->TxBegin().ok());
    EXPECT_TRUE(c->Mkdir("/never").ok());
    EXPECT_EQ(txn.open_txns(), 1u);
  }  // connection dropped with the transaction open
  for (int i = 0; i < 500 && txn.open_txns() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(txn.open_txns(), 0u);
  auto c2 = Client();
  EXPECT_EQ(c2->Stat("/never").status().code(), Errc::kNoEnt);
  server_->Stop();
}

TEST_F(TxnServerTest, BatchedTransactionCommitsInOneFlush) {
  AtomFs fs;
  TxnManager::Options topt;
  topt.inner = &fs;
  TxnManager txn(topt);
  StartUnixWithTxn(&txn);
  auto c = Client();

  // The whole atomic sequence staged and flushed as one MSGBATCH: TXBEGIN,
  // ops, TXCOMMIT. Replies resolve in order; the commit's reply is the
  // transaction's outcome.
  ClientSession& s = c->session();
  WireRequest begin;
  begin.op = WireOp::kTxBegin;
  WireRequest mk;
  mk.op = WireOp::kMkdir;
  mk.path_a = "/batched";
  WireRequest mk2;
  mk2.op = WireOp::kMknod;
  mk2.path_a = "/batched/f";
  WireRequest commit;
  commit.op = WireOp::kTxCommit;
  auto f_begin = s.Submit(begin);
  auto f_mk = s.Submit(mk);
  auto f_mk2 = s.Submit(mk2);
  auto f_commit = s.Submit(commit);
  ASSERT_TRUE(s.Flush().ok());
  EXPECT_TRUE(f_begin.Wait().ok());
  EXPECT_TRUE(f_mk.Wait().ok());
  EXPECT_TRUE(f_mk2.Wait().ok());
  EXPECT_TRUE(f_commit.Wait().ok());
  EXPECT_TRUE(c->Stat("/batched/f").ok());
  server_->Stop();
}

}  // namespace
}  // namespace atomfs
