// Wire-protocol unit tests: exact round-trips for every message shape, and
// fuzz-style robustness — random byte streams, truncations, and bit flips
// must parse to a clean kProto error (or a valid message), never crash or
// read out of bounds. This is the ISSUE's malformed-frame contract at the
// deserializer level; tests/server_test.cc checks the same contract over a
// real socket. The framing helpers and the client session's bulk reply
// reader are driven here against a scripted peer on a socketpair.

#include "src/net/wire.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <thread>

#include "src/client/client.h"
#include "src/util/rand.h"

namespace atomfs {
namespace {

std::span<const std::byte> Bytes(const std::vector<std::byte>& v) {
  return std::span<const std::byte>(v.data(), v.size());
}

// One representative request per opcode, with every field its op uses set
// to a non-default value so round-trips are discriminating.
std::vector<WireRequest> AllRequests() {
  std::vector<WireRequest> reqs;
  auto add = [&](WireOp op, auto&& fill) {
    WireRequest r;
    r.op = op;
    fill(r);
    reqs.push_back(std::move(r));
  };
  auto path = [](WireRequest& r) { r.path_a = "/some/deep/path"; };
  add(WireOp::kPing, [](WireRequest&) {});
  add(WireOp::kStats, [](WireRequest&) {});
  add(WireOp::kMetrics, [](WireRequest&) {});
  add(WireOp::kMkdir, path);
  add(WireOp::kMknod, path);
  add(WireOp::kRmdir, path);
  add(WireOp::kUnlink, path);
  add(WireOp::kStat, path);
  add(WireOp::kReadDir, path);
  add(WireOp::kRename, [](WireRequest& r) {
    r.path_a = "/a/b";
    r.path_b = "/c/d";
  });
  add(WireOp::kExchange, [](WireRequest& r) {
    r.path_a = "/x";
    r.path_b = "/y";
  });
  add(WireOp::kRead, [](WireRequest& r) {
    r.path_a = "/f";
    r.offset = 123456789;
    r.count = 4096;
  });
  add(WireOp::kWrite, [](WireRequest& r) {
    r.path_a = "/f";
    r.offset = 42;
    r.data = {std::byte{1}, std::byte{2}, std::byte{3}};
  });
  add(WireOp::kTruncate, [](WireRequest& r) {
    r.path_a = "/f";
    r.offset = 77;
  });
  add(WireOp::kOpen, [](WireRequest& r) {
    r.path_a = "/f";
    r.flags = 0x2b;
  });
  add(WireOp::kClose, [](WireRequest& r) { r.fd = 7; });
  add(WireOp::kFstat, [](WireRequest& r) { r.fd = 8; });
  add(WireOp::kFdReadDir, [](WireRequest& r) { r.fd = 9; });
  add(WireOp::kFdRead, [](WireRequest& r) {
    r.fd = 10;
    r.count = 512;
  });
  add(WireOp::kFdWrite, [](WireRequest& r) {
    r.fd = 11;
    r.data = {std::byte{0xff}, std::byte{0x00}};
  });
  add(WireOp::kFdPread, [](WireRequest& r) {
    r.fd = 12;
    r.offset = 5;
    r.count = 64;
  });
  add(WireOp::kFdPwrite, [](WireRequest& r) {
    r.fd = 13;
    r.offset = 6;
    r.data = {std::byte{0xaa}};
  });
  add(WireOp::kFtruncate, [](WireRequest& r) {
    r.fd = 14;
    r.offset = 99;
  });
  add(WireOp::kSeek, [](WireRequest& r) {
    r.fd = 15;
    r.offset = 1000;
  });
  add(WireOp::kHello, [](WireRequest& r) {
    r.proto_version = kWireProtoVersion;
    r.max_inflight = 32;
  });
  add(WireOp::kTxBegin, [](WireRequest&) {});
  add(WireOp::kTxCommit, [](WireRequest& r) { r.txid = 0x1122334455667788ULL; });
  add(WireOp::kTxAbort, [](WireRequest& r) { r.txid = 42; });
  add(WireOp::kMsgBatch, [](WireRequest& r) {
    WireRequest a;
    a.op = WireOp::kStat;
    a.path_a = "/batched/a";
    WireRequest b;
    b.op = WireOp::kWrite;
    b.path_a = "/batched/b";
    b.offset = 9;
    b.data = {std::byte{7}, std::byte{8}};
    r.batch = {std::move(a), std::move(b)};
  });
  return reqs;
}

// --- primitives --------------------------------------------------------------

TEST(WireReaderTest, PrimitivesRoundTrip) {
  WireWriter w;
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I32(-42);
  w.Str("hello");
  w.Blob(std::vector<std::byte>{std::byte{9}, std::byte{8}});

  WireReader r(Bytes(w.buf()));
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  std::string s;
  std::vector<std::byte> blob;
  EXPECT_TRUE(r.U8(&u8));
  EXPECT_TRUE(r.U32(&u32));
  EXPECT_TRUE(r.U64(&u64));
  EXPECT_TRUE(r.I32(&i32));
  EXPECT_TRUE(r.Str(&s, 100));
  EXPECT_TRUE(r.Blob(&blob, 100));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(blob.size(), 2u);
}

TEST(WireReaderTest, ReadPastEndFailsAndLatches) {
  WireWriter w;
  w.U8(1);
  WireReader r(Bytes(w.buf()));
  uint32_t v = 0;
  EXPECT_FALSE(r.U32(&v));
  EXPECT_FALSE(r.ok());
  uint8_t b = 0;
  EXPECT_FALSE(r.U8(&b));  // failure is sticky
}

TEST(WireReaderTest, StringOverMaxLenRejected) {
  WireWriter w;
  w.Str("abcdefgh");
  WireReader r(Bytes(w.buf()));
  std::string s;
  EXPECT_FALSE(r.Str(&s, 4));
  EXPECT_FALSE(r.ok());
}

TEST(WireReaderTest, DeclaredLengthBeyondPayloadRejected) {
  WireWriter w;
  w.U32(1000);  // blob length prefix promising bytes that do not exist
  WireReader r(Bytes(w.buf()));
  std::vector<std::byte> blob;
  EXPECT_FALSE(r.Blob(&blob, 1u << 20));
}

// --- status mapping ----------------------------------------------------------

TEST(WireStatusTest, EveryErrcRoundTrips) {
  for (uint8_t raw = 0; raw <= static_cast<uint8_t>(Errc::kShardMoved); ++raw) {
    const Errc code = static_cast<Errc>(raw);
    EXPECT_EQ(ErrcOfWireStatus(WireStatusOf(code)), code) << ErrcName(code);
  }
}

TEST(WireStatusTest, NewStatusBytesAreStable) {
  // Wire values are protocol surface (docs/WIRE_PROTOCOL.md); they must
  // never be renumbered.
  EXPECT_EQ(WireStatusOf(Errc::kTimedOut), 15);
  EXPECT_EQ(WireStatusOf(Errc::kBackpressure), 16);
  EXPECT_EQ(WireStatusOf(Errc::kTxConflict), 17);
  EXPECT_EQ(WireStatusOf(Errc::kShardMoved), 18);
  EXPECT_EQ(ErrcOfWireStatus(15), Errc::kTimedOut);
  EXPECT_EQ(ErrcOfWireStatus(16), Errc::kBackpressure);
  EXPECT_EQ(ErrcOfWireStatus(17), Errc::kTxConflict);
  EXPECT_EQ(ErrcOfWireStatus(18), Errc::kShardMoved);
}

TEST(WireStatusTest, UnknownWireByteDegradesToProto) {
  EXPECT_EQ(ErrcOfWireStatus(200), Errc::kProto);
  EXPECT_EQ(ErrcOfWireStatus(255), Errc::kProto);
}

// --- request round-trips -----------------------------------------------------

TEST(WireRequestTest, AllOpsRoundTrip) {
  for (const WireRequest& req : AllRequests()) {
    auto encoded = EncodeRequest(req);
    auto parsed = ParseRequest(Bytes(encoded));
    ASSERT_TRUE(parsed.ok()) << WireOpName(req.op);
    EXPECT_EQ(parsed->op, req.op);
    EXPECT_EQ(parsed->path_a, req.path_a);
    EXPECT_EQ(parsed->path_b, req.path_b);
    EXPECT_EQ(parsed->offset, req.offset);
    EXPECT_EQ(parsed->count, req.count);
    EXPECT_EQ(parsed->flags, req.flags);
    EXPECT_EQ(parsed->fd, req.fd);
    EXPECT_EQ(parsed->data, req.data);
    EXPECT_EQ(parsed->proto_version, req.proto_version);
    EXPECT_EQ(parsed->max_inflight, req.max_inflight);
    EXPECT_EQ(parsed->txid, req.txid);
    ASSERT_EQ(parsed->batch.size(), req.batch.size());
    for (size_t i = 0; i < req.batch.size(); ++i) {
      EXPECT_EQ(parsed->batch[i].op, req.batch[i].op);
      EXPECT_EQ(parsed->batch[i].path_a, req.batch[i].path_a);
      EXPECT_EQ(parsed->batch[i].offset, req.batch[i].offset);
      EXPECT_EQ(parsed->batch[i].data, req.batch[i].data);
    }
  }
}

TEST(WireRequestTest, EveryTruncationRejected) {
  for (const WireRequest& req : AllRequests()) {
    const auto encoded = EncodeRequest(req);
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      std::vector<std::byte> prefix(encoded.begin(),
                                    encoded.begin() + static_cast<ptrdiff_t>(cut));
      auto parsed = ParseRequest(Bytes(prefix));
      EXPECT_FALSE(parsed.ok()) << WireOpName(req.op) << " cut at " << cut;
      EXPECT_EQ(parsed.status().code(), Errc::kProto);
    }
  }
}

TEST(WireRequestTest, TrailingGarbageRejected) {
  for (const WireRequest& req : AllRequests()) {
    auto encoded = EncodeRequest(req);
    encoded.push_back(std::byte{0x5a});
    auto parsed = ParseRequest(Bytes(encoded));
    EXPECT_FALSE(parsed.ok()) << WireOpName(req.op);
  }
}

TEST(WireRequestTest, UnknownOpcodeRejected) {
  for (uint16_t raw : {0, 24, 99, 200, 255}) {
    WireWriter w;
    w.U8(static_cast<uint8_t>(raw));
    auto parsed = ParseRequest(Bytes(w.buf()));
    if (WireOpKnown(static_cast<uint8_t>(raw))) {
      continue;  // not the subject here
    }
    EXPECT_FALSE(parsed.ok()) << raw;
  }
}

TEST(WireRequestTest, OversizedReadCountRejected) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(WireOp::kRead));
  w.Str("/f");
  w.U64(0);
  w.U32(kWireMaxFrameBytes + 1);
  auto parsed = ParseRequest(Bytes(w.buf()));
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Errc::kProto);
}

TEST(WireRequestTest, PathLongerThanLimitRejected) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(WireOp::kMkdir));
  w.Str(std::string(kMaxPathLen + 1, 'a'));
  EXPECT_FALSE(ParseRequest(Bytes(w.buf())).ok());
}

// --- HELLO handshake ---------------------------------------------------------

TEST(WireHelloTest, RoundTrips) {
  WireHello hello;
  hello.version = kWireProtoVersion;
  hello.max_inflight = 77;
  WireWriter w;
  EncodeHello(w, hello);
  WireReader r(Bytes(w.buf()));
  WireHello back;
  ASSERT_TRUE(ParseHello(r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.version, hello.version);
  EXPECT_EQ(back.max_inflight, hello.max_inflight);
}

TEST(WireHelloTest, V3CarriesTheCapabilityBitmask) {
  WireHello hello;
  hello.version = 3;
  hello.max_inflight = 12;
  hello.caps = kFsCapTxn | kFsCapSharding;
  WireWriter w;
  EncodeHello(w, hello);
  WireReader r(Bytes(w.buf()));
  WireHello back;
  ASSERT_TRUE(ParseHello(r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.caps, kFsCapTxn | kFsCapSharding);
}

TEST(WireHelloTest, V2BodyStaysCapsFreeAndParsesAsZero) {
  // A v2 peer's body must not grow the caps word (bodies are frozen per
  // opcode per version), and parsing one leaves caps = nothing advertised.
  WireHello hello;
  hello.version = 2;
  hello.max_inflight = 12;
  hello.caps = 0xffffffff;  // must not be encoded
  WireWriter w;
  EncodeHello(w, hello);
  EXPECT_EQ(w.buf().size(), 8u);
  WireReader r(Bytes(w.buf()));
  WireHello back;
  back.caps = 7;  // stale garbage the parser must clear
  ASSERT_TRUE(ParseHello(r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.caps, 0u);
}

TEST(WireHelloTest, ShortBodyRejected) {
  for (size_t len = 0; len < 8; ++len) {
    std::vector<std::byte> body(len, std::byte{0x11});
    WireReader r(Bytes(body));
    WireHello out;
    EXPECT_FALSE(ParseHello(r, &out)) << "len " << len;
  }
}

// --- MSGBATCH constraints ----------------------------------------------------

TEST(WireBatchTest, TransactionSequencePacksIntoOneBatch) {
  // The intended one-round-trip shape: TXBEGIN, the whole op sequence, and
  // TXCOMMIT packed into a single MSGBATCH frame.
  WireRequest batch;
  batch.op = WireOp::kMsgBatch;
  WireRequest begin;
  begin.op = WireOp::kTxBegin;
  WireRequest op;
  op.op = WireOp::kMkdir;
  op.path_a = "/t";
  WireRequest commit;
  commit.op = WireOp::kTxCommit;
  batch.batch = {begin, op, commit};
  auto parsed = ParseRequest(Bytes(EncodeRequest(batch)));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->batch.size(), 3u);
  EXPECT_EQ(parsed->batch[0].op, WireOp::kTxBegin);
  EXPECT_EQ(parsed->batch[1].op, WireOp::kMkdir);
  EXPECT_EQ(parsed->batch[2].op, WireOp::kTxCommit);
}

TEST(WireBatchTest, NestedBatchRejected) {
  WireRequest inner;
  inner.op = WireOp::kMsgBatch;
  WireRequest ping;
  ping.op = WireOp::kPing;
  inner.batch.push_back(ping);
  WireRequest outer;
  outer.op = WireOp::kMsgBatch;
  outer.batch.push_back(std::move(inner));
  auto parsed = ParseRequest(Bytes(EncodeRequest(outer)));
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Errc::kProto);
}

TEST(WireBatchTest, PackedHelloRejected) {
  WireRequest hello;
  hello.op = WireOp::kHello;
  hello.proto_version = kWireProtoVersion;
  WireRequest batch;
  batch.op = WireOp::kMsgBatch;
  batch.batch.push_back(std::move(hello));
  auto parsed = ParseRequest(Bytes(EncodeRequest(batch)));
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Errc::kProto);
}

TEST(WireBatchTest, EmptyBatchRejected) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(WireOp::kMsgBatch));
  w.U32(0);
  EXPECT_FALSE(ParseRequest(Bytes(w.buf())).ok());
}

TEST(WireBatchTest, CountAtCapAcceptedOverCapRejected) {
  WireRequest ping;
  ping.op = WireOp::kPing;
  WireRequest batch;
  batch.op = WireOp::kMsgBatch;
  for (uint32_t i = 0; i < kWireMaxBatchRequests; ++i) {
    batch.batch.push_back(ping);
  }
  auto at_cap = ParseRequest(Bytes(EncodeRequest(batch)));
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(at_cap->batch.size(), static_cast<size_t>(kWireMaxBatchRequests));

  batch.batch.push_back(ping);
  auto over_cap = ParseRequest(Bytes(EncodeRequest(batch)));
  EXPECT_FALSE(over_cap.ok());
  EXPECT_EQ(over_cap.status().code(), Errc::kProto);
}

// --- fuzz: random and bit-flipped byte streams -------------------------------

TEST(WireFuzzTest, RandomBytesNeverCrashTheRequestParser) {
  Rng rng(0xf00d);
  int accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::byte> payload(rng.Below(64));
    for (auto& b : payload) {
      b = static_cast<std::byte>(rng.Below(256));
    }
    auto parsed = ParseRequest(Bytes(payload));
    if (parsed.ok()) {
      ++accepted;  // random bytes may form a legal request; that is fine
    } else {
      EXPECT_EQ(parsed.status().code(), Errc::kProto);
    }
  }
  // Sanity: the parser is strict enough that almost everything is rejected.
  EXPECT_LT(accepted, 2000);
}

TEST(WireFuzzTest, BitFlippedRequestsNeverCrashTheParser) {
  Rng rng(0xbeef);
  for (const WireRequest& req : AllRequests()) {
    const auto pristine = EncodeRequest(req);
    for (int iter = 0; iter < 200; ++iter) {
      auto mutated = pristine;
      // Flip 1-3 random bits.
      const int flips = 1 + static_cast<int>(rng.Below(3));
      for (int f = 0; f < flips; ++f) {
        const size_t byte_idx = rng.Below(mutated.size());
        mutated[byte_idx] ^= static_cast<std::byte>(1u << rng.Below(8));
      }
      ParseRequest(Bytes(mutated));  // must not crash; outcome is free
    }
  }
}

TEST(WireFuzzTest, RandomBytesNeverCrashTheResponseParsers) {
  Rng rng(0xcafe);
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::byte> payload(rng.Below(96));
    for (auto& b : payload) {
      b = static_cast<std::byte>(rng.Below(256));
    }
    {
      WireReader r(Bytes(payload));
      Attr attr;
      ParseAttr(r, &attr);
    }
    {
      WireReader r(Bytes(payload));
      std::vector<DirEntry> entries;
      ParseDirEntries(r, &entries);
    }
    {
      WireReader r(Bytes(payload));
      WireServerStats stats;
      ParseServerStats(r, &stats);
    }
    {
      WireReader r(Bytes(payload));
      WireHello hello;
      ParseHello(r, &hello);
    }
  }
}

// --- response payload round-trips --------------------------------------------

TEST(WireResponseTest, AttrRoundTrips) {
  Attr attr;
  attr.ino = 42;
  attr.type = FileType::kDir;
  attr.size = 7;
  WireWriter w;
  EncodeAttr(w, attr);
  WireReader r(Bytes(w.buf()));
  Attr back;
  ASSERT_TRUE(ParseAttr(r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back, attr);
}

TEST(WireResponseTest, DirEntriesRoundTrip) {
  std::vector<DirEntry> entries = {
      {"alpha", 10, FileType::kFile},
      {"beta", 11, FileType::kDir},
      {"gamma", 12, FileType::kFile},
  };
  WireWriter w;
  EncodeDirEntries(w, entries);
  WireReader r(Bytes(w.buf()));
  std::vector<DirEntry> back;
  ASSERT_TRUE(ParseDirEntries(r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back, entries);
}

TEST(WireResponseTest, ServerStatsRoundTrip) {
  WireServerStats stats;
  stats.connections_accepted = 17;
  stats.protocol_errors = 3;
  stats.ops.push_back({static_cast<uint8_t>(WireOp::kMkdir), 100, 1500, 1200, 9000, 20000});
  stats.ops.push_back({static_cast<uint8_t>(WireOp::kRead), 2000, 800, 700, 2000, 5000});
  WireWriter w;
  EncodeServerStats(w, stats);
  WireReader r(Bytes(w.buf()));
  WireServerStats back;
  ASSERT_TRUE(ParseServerStats(r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.connections_accepted, 17u);
  EXPECT_EQ(back.protocol_errors, 3u);
  ASSERT_EQ(back.ops.size(), 2u);
  EXPECT_EQ(back.ops[0].op, static_cast<uint8_t>(WireOp::kMkdir));
  EXPECT_EQ(back.ops[1].p999_ns, 5000u);
}

// --- framing helpers ---------------------------------------------------------

TEST(WireFramingTest, AppendFrameAndPeekFrameLenAgree) {
  const std::vector<std::byte> payload(300, std::byte{0x5a});
  std::vector<std::byte> out{std::byte{0xee}};
  AppendFrame(out, payload);
  ASSERT_EQ(out.size(), 1 + kWireFrameHeaderBytes + payload.size());
  EXPECT_EQ(PeekFrameLen(out.data() + 1), 300u);
  // Little-endian, like every wire integer.
  EXPECT_EQ(out[1], std::byte{0x2c});
  EXPECT_EQ(out[2], std::byte{0x01});
  WireWriter w;
  w.Blob(payload);
  EXPECT_TRUE(std::equal(w.buf().begin(), w.buf().end(), out.begin() + 1));
}

TEST(WireFramingTest, BuffersGiveBackBurstCapacity) {
  WireRecvBuffer rbuf;
  EXPECT_EQ(rbuf.Room(1).size(), kWireBufferKeepBytes);
  const std::span<std::byte> big = rbuf.Room(kWireMaxFrameBytes);
  ASSERT_GE(big.size(), kWireMaxFrameBytes);
  big[0] = std::byte{1};
  big[kWireMaxFrameBytes - 1] = std::byte{2};
  rbuf.Fill(kWireMaxFrameBytes);
  rbuf.Consume(kWireMaxFrameBytes - 1);
  ASSERT_EQ(rbuf.Unread().size(), 1u);
  EXPECT_EQ(rbuf.Unread()[0], std::byte{2});
  rbuf.Consume(1);
  EXPECT_EQ(rbuf.Unread().size(), 0u);
  EXPECT_EQ(rbuf.Room(1).size(), kWireBufferKeepBytes);

  std::vector<std::byte> out(kWireMaxFrameBytes);
  ClearAndTrim(out);
  EXPECT_TRUE(out.empty());
  EXPECT_LE(out.capacity(), kWireBufferKeepBytes);
}

TEST(WireFramingTest, RoomCompactsUnreadBytesToTheFront) {
  WireRecvBuffer rbuf;
  std::span<std::byte> room = rbuf.Room(1);
  for (size_t i = 0; i < room.size(); ++i) {
    room[i] = static_cast<std::byte>(i & 0xff);
  }
  rbuf.Fill(room.size());
  rbuf.Consume(room.size() - 10);
  // The 10 unread bytes move to the front; no growth is needed for this.
  room = rbuf.Room(100);
  EXPECT_EQ(room.size(), kWireBufferKeepBytes - 10);
  ASSERT_EQ(rbuf.Unread().size(), 10u);
  EXPECT_EQ(rbuf.Unread()[0], static_cast<std::byte>((kWireBufferKeepBytes - 10) & 0xff));
}

// --- client session reader against a scripted peer ---------------------------
// The peer end of a socketpair plays the server: it answers HELLO, then runs
// a script. Both ends time out after 10 s, so a reader that waits for bytes
// that never come fails the test instead of hanging it.

void SetDeadlines(int fd) {
  timeval tv{};
  tv.tv_sec = 10;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool SendRaw(int fd, std::span<const std::byte> bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// A success reply frame whose body (what the client's future yields) is
// `body`.
void AppendReply(std::vector<std::byte>& out, std::span<const std::byte> body) {
  std::vector<std::byte> payload{std::byte{0}};
  payload.insert(payload.end(), body.begin(), body.end());
  AppendFrame(out, payload);
}

// Distinct body per reply index; reply `big_index` is 1 MiB, the size of a
// large read reply.
std::vector<std::byte> ReplyBody(size_t i, size_t big_index) {
  const size_t len = i == big_index ? (1u << 20) : 1 + (i * 37) % 300;
  std::vector<std::byte> body(len);
  for (size_t k = 0; k < len; ++k) {
    body[k] = static_cast<std::byte>((i * 131 + k * 7) & 0xff);
  }
  return body;
}

class ScriptedPeerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int sv[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    SetDeadlines(sv[0]);
    SetDeadlines(sv[1]);
    peer_ = sv[1];
    std::thread hello([peer = peer_] {
      auto frame = RecvFrame(peer);
      ASSERT_TRUE(frame.ok());
      auto req = ParseRequest(*frame);
      ASSERT_TRUE(req.ok());
      ASSERT_EQ(req->op, WireOp::kHello);
      WireWriter w;
      w.U8(0);
      EncodeHello(w, WireHello{req->proto_version, req->max_inflight, 0});
      ASSERT_TRUE(SendFrame(peer, w.buf()).ok());
    });
    auto session = ClientSession::Negotiate(sv[0], kDefaultClientInflight);
    hello.join();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
    ASSERT_EQ(session_->max_inflight(), kDefaultClientInflight);
  }

  void TearDown() override {
    if (script_.joinable()) {
      script_.join();
    }
    session_.reset();
    if (peer_ >= 0) {
      close(peer_);
    }
  }

  // Runs `script` on the peer end, beside the test body.
  void Peer(std::function<void(int)> script) { script_ = std::thread(std::move(script), peer_); }

  // Reads one request frame and returns its request units (a MSGBATCH counts
  // its sub-requests); 0 when no well-formed frame arrived.
  static size_t ReadFrameUnits(int fd, std::vector<std::byte>* raw = nullptr) {
    auto frame = RecvFrame(fd);
    if (!frame.ok()) {
      return 0;
    }
    auto req = ParseRequest(*frame);
    if (!req.ok()) {
      return 0;
    }
    if (raw != nullptr) {
      *raw = *frame;
    }
    return req->op == WireOp::kMsgBatch ? req->batch.size() : 1;
  }

  std::vector<ClientSession::Future> SubmitPings(size_t n) {
    WireRequest ping;
    ping.op = WireOp::kPing;
    std::vector<ClientSession::Future> futures;
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(session_->Submit(ping));
    }
    return futures;
  }

  int peer_ = -1;
  std::unique_ptr<ClientSession> session_;
  std::thread script_;
};

TEST_F(ScriptedPeerTest, EightRepliesInOneSendResolveEightFuturesInOrder) {
  constexpr size_t kReplies = 8;
  std::vector<std::byte> request_frame;
  Peer([&](int fd) {
    ASSERT_EQ(ReadFrameUnits(fd, &request_frame), kReplies);
    std::vector<std::byte> replies;
    for (size_t i = 0; i < kReplies; ++i) {
      AppendReply(replies, ReplyBody(i, kReplies));
    }
    EXPECT_TRUE(SendRaw(fd, replies));
  });
  auto futures = SubmitPings(kReplies);
  ASSERT_TRUE(session_->Flush().ok());
  for (size_t i = 0; i < kReplies; ++i) {
    auto body = futures[i].Wait();
    ASSERT_TRUE(body.ok()) << "reply " << i;
    EXPECT_EQ(*body, ReplyBody(i, kReplies)) << "reply " << i;
  }
  script_.join();
  // The packer's MSGBATCH frame is byte-identical to the codec's encoding.
  WireRequest batch;
  batch.op = WireOp::kMsgBatch;
  batch.batch.resize(kReplies);
  EXPECT_EQ(request_frame, EncodeRequest(batch));
}

TEST_F(ScriptedPeerTest, ReplyDribbledOneBytePerSendResolves) {
  Peer([&](int fd) {
    ASSERT_EQ(ReadFrameUnits(fd), 1u);
    std::vector<std::byte> reply;
    AppendReply(reply, ReplyBody(3, 0));
    for (std::byte b : reply) {
      ASSERT_TRUE(SendRaw(fd, std::span<const std::byte>(&b, 1)));
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  auto futures = SubmitPings(1);
  ASSERT_TRUE(session_->Flush().ok());
  auto body = futures[0].Wait();
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, ReplyBody(3, 0));
}

TEST_F(ScriptedPeerTest, SeededRandomChunkingOf200RepliesIsByteIdentical) {
  constexpr size_t kReplies = 200;
  constexpr size_t kBig = 100;
  Peer([&](int fd) {
    Rng rng(20261017);
    size_t answered = 0;
    while (answered < kReplies) {
      // Answer frame by frame, as a server does: the client sends its next
      // window only after reading this one's replies.
      const size_t units = ReadFrameUnits(fd);
      ASSERT_GT(units, 0u);
      std::vector<std::byte> replies;
      for (size_t i = answered; i < answered + units; ++i) {
        AppendReply(replies, ReplyBody(i, kBig));
      }
      answered += units;
      size_t off = 0;
      while (off < replies.size()) {
        const size_t chunk = rng.Chance(1, 3) ? rng.Between(1, 8) : rng.Between(1, 96u << 10);
        const size_t n = std::min(chunk, replies.size() - off);
        ASSERT_TRUE(SendRaw(fd, std::span<const std::byte>(replies).subspan(off, n)));
        off += n;
      }
    }
  });
  auto futures = SubmitPings(kReplies);
  ASSERT_TRUE(session_->Flush().ok());
  for (size_t i = 0; i < kReplies; ++i) {
    auto body = futures[i].Wait();
    ASSERT_TRUE(body.ok()) << "reply " << i;
    ASSERT_EQ(*body, ReplyBody(i, kBig)) << "reply " << i;
  }
}

// CPU time the calling thread has used so far.
std::chrono::microseconds ThreadCpuTime() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return std::chrono::seconds(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         std::chrono::microseconds(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

TEST_F(ScriptedPeerTest, SlowReplyParksTheClientAfterPolling) {
  Peer([&](int fd) {
    ASSERT_EQ(ReadFrameUnits(fd), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::vector<std::byte> reply;
    AppendReply(reply, ReplyBody(5, 0));
    EXPECT_TRUE(SendRaw(fd, reply));
  });
  const uint64_t parks_before = session_->parks();
  const auto cpu_before = ThreadCpuTime();
  auto futures = SubmitPings(1);
  ASSERT_TRUE(session_->Flush().ok());
  auto body = futures[0].Wait();
  const auto cpu = ThreadCpuTime() - cpu_before;
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, ReplyBody(5, 0));
  // The wait polled for its 50 µs budget, then slept in one blocking recv
  // instead of spinning through the peer's 300 ms.
  EXPECT_EQ(session_->parks() - parks_before, 1u);
  EXPECT_LT(cpu, std::chrono::milliseconds(30));
}

TEST_F(ScriptedPeerTest, SlowRepliesParkAtOnceUntilAPromptOne) {
  constexpr int kSlow = 5;
  constexpr int kPromptTries = 50;
  // Far beyond the 50 µs poll budget, and long enough that a client thread
  // preempted on a busy host still finds the reply missing.
  constexpr auto kDelay = std::chrono::milliseconds(20);
  Peer([&](int fd) {
    for (int i = 1; i <= kSlow; ++i) {
      ASSERT_EQ(ReadFrameUnits(fd), 1u);
      std::this_thread::sleep_for(kDelay);
      std::vector<std::byte> reply;
      AppendReply(reply, ReplyBody(i, 0));  // (ReplyBody(0, 0) is 1 MiB)
      EXPECT_TRUE(SendRaw(fd, reply));
    }
    // Then answer at once until the client hangs up.
    while (ReadFrameUnits(fd) == 1) {
      std::vector<std::byte> reply;
      AppendReply(reply, ReplyBody(9, 0));
      if (!SendRaw(fd, reply)) {
        break;
      }
    }
  });
  auto call = [&](size_t body) {
    auto futures = SubmitPings(1);
    ASSERT_TRUE(session_->Flush().ok());
    auto reply = futures[0].Wait();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(*reply, ReplyBody(body, 0));
  };
  const uint64_t parks_before = session_->parks();
  call(1);  // polls for its budget, then parks
  const uint64_t polls_after_first = session_->polls();
  const auto cpu_before = ThreadCpuTime();
  for (int i = 2; i <= kSlow; ++i) {
    call(i);
  }
  const auto cpu = ThreadCpuTime() - cpu_before;
  // One park per slow reply. Calls 2-5 parked without polling first, since
  // each wait before them outlasted the budget, so they burned no CPU.
  EXPECT_EQ(session_->parks() - parks_before, uint64_t{kSlow});
  EXPECT_EQ(session_->polls(), polls_after_first);
  EXPECT_LT(cpu, std::chrono::milliseconds(1));
  // A park that returns within the budget turns polling back on, so a
  // prompt reply is soon taken by a poll, without a park.
  bool unparked = false;
  for (int i = 0; i < kPromptTries && !unparked; ++i) {
    const uint64_t parks = session_->parks();
    const uint64_t polls = session_->polls();
    call(9);
    unparked = session_->parks() == parks && session_->polls() == polls + 1;
  }
  EXPECT_TRUE(unparked);
  session_.reset();  // the peer's loop ends on the hang-up
}

TEST_F(ScriptedPeerTest, BufferedReplyNeverParks) {
  Peer([&](int fd) {
    ASSERT_EQ(ReadFrameUnits(fd), 1u);
    std::vector<std::byte> reply;
    AppendReply(reply, ReplyBody(6, 0));
    EXPECT_TRUE(SendRaw(fd, reply));
  });
  const uint64_t parks_before = session_->parks();
  auto futures = SubmitPings(1);
  ASSERT_TRUE(session_->Flush().ok());
  script_.join();  // the whole reply now sits in the client's socket buffer
  auto body = futures[0].Wait();
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, ReplyBody(6, 0));
  EXPECT_EQ(session_->parks(), parks_before);
}

TEST_F(ScriptedPeerTest, OversizedDeclaredLengthFailsEveryFutureWithProto) {
  Peer([&](int fd) {
    ASSERT_EQ(ReadFrameUnits(fd), 3u);
    std::vector<std::byte> header;
    AppendU32(header, kWireMaxFrameBytes + 1);
    EXPECT_TRUE(SendRaw(fd, header));
  });
  auto futures = SubmitPings(3);
  ASSERT_TRUE(session_->Flush().ok());
  for (auto& f : futures) {
    EXPECT_EQ(f.Wait().status().code(), Errc::kProto);
  }
  EXPECT_EQ(session_->Flush().code(), Errc::kProto);  // broken for good
}

TEST_F(ScriptedPeerTest, EofInsideAFrameBreaksTheSessionWithIo) {
  Peer([&](int fd) {
    ASSERT_EQ(ReadFrameUnits(fd), 2u);
    std::vector<std::byte> reply;
    AppendReply(reply, ReplyBody(0, 0));
    EXPECT_TRUE(SendRaw(fd, std::span<const std::byte>(reply).first(reply.size() / 2)));
    shutdown(fd, SHUT_WR);
  });
  auto futures = SubmitPings(2);
  ASSERT_TRUE(session_->Flush().ok());
  for (auto& f : futures) {
    EXPECT_EQ(f.Wait().status().code(), Errc::kIo);
  }
}

TEST_F(ScriptedPeerTest, EofBetweenFramesBreaksTheSessionWithIo) {
  Peer([&](int fd) {
    ASSERT_EQ(ReadFrameUnits(fd), 3u);
    std::vector<std::byte> reply;
    AppendReply(reply, ReplyBody(0, 0));
    EXPECT_TRUE(SendRaw(fd, reply));
    shutdown(fd, SHUT_WR);
  });
  auto futures = SubmitPings(3);
  ASSERT_TRUE(session_->Flush().ok());
  auto first = futures[0].Wait();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, ReplyBody(0, 0));
  EXPECT_EQ(futures[1].Wait().status().code(), Errc::kIo);
  EXPECT_EQ(futures[2].Wait().status().code(), Errc::kIo);
}

}  // namespace
}  // namespace atomfs
