#include "perfbench/harness/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <latch>
#include <memory>
#include <thread>

#include "perfbench/harness/layers.h"
#include "perfbench/harness/probes.h"
#include "perfbench/harness/spans.h"
#include "src/afs/op.h"
#include "src/afs/spec_fs.h"
#include "src/client/client.h"
#include "src/core/atom_fs.h"
#include "src/journal/checkpoint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/server/server.h"
#include "src/txn/txn.h"
#include "src/util/rand.h"
#include "src/workload/filebench.h"
#include "src/workload/trace.h"

namespace perfbench {

using atomfs::AtomFs;
using atomfs::Errc;
using atomfs::FileSystem;
using atomfs::FilebenchProfile;
using atomfs::OpKind;
using atomfs::SpecFs;
using atomfs::Status;

namespace {

constexpr int kConns = 4;              // client threads / connections
constexpr int kSetupRepeats = 7;       // set-ups per untraced run (setup_s is their median)
constexpr int kSlices = 10;            // the timed window is summarized per slice
// Untimed load before each timed window: the fileserver and varmail datasets
// drift from fully populated to their delete/create equilibrium within ~3 s.
constexpr double kWarmupSeconds = 2.0;
constexpr int kRecoverRepeats = 3;     // RecoverJournal timings per traced run
constexpr uint64_t kReplayOps = 1500;  // op-by-op checked replay before the window
constexpr size_t kPipelineDepth = 8;
constexpr size_t kPipelineWriteBytes = 64;
constexpr uint32_t kPipelineReadBytes = 16;
constexpr size_t kTxWriteBytes = 256;
constexpr int kTxFiles = 4;   // written by every transaction
constexpr int kHotFiles = 4;  // written by direct ops and by every 8th transaction
constexpr uint64_t kCheckpointBytes = 16ull << 20;  // txn-journal checkpoint threshold
constexpr double kFloorSeconds = 0.5;
constexpr double kMaxTracedSeconds = 4.0;
constexpr int kCodecRounds = 20;
constexpr size_t kTraceSpansWritten = 50000;

// Seed streams: unit k of connection c draws from Mix(seed, c + 1, k).
constexpr uint64_t kReplayStream = 1000;
constexpr uint64_t kTxnStream = 2000;
constexpr uint64_t kPayloadStream = 3000;

enum class Kind { kFileserverWire, kPipelineWire, kWebproxyLib, kTxnJournal };

struct Spec {
  Kind kind;
  FilebenchProfile profile;
  bool wire;       // served by an in-process AtomFsServer over a unix socket
  bool journaled;  // a journaled TxnManager between the server and AtomFs
};

bool SpecOf(std::string_view name, Spec* out) {
  if (name == "fileserver-wire") {
    *out = Spec{Kind::kFileserverWire, FilebenchProfile::Fileserver(), true, false};
  } else if (name == "pipeline-wire") {
    *out = Spec{Kind::kPipelineWire, FilebenchProfile::Fileserver(), true, false};
  } else if (name == "webproxy-lib") {
    *out = Spec{Kind::kWebproxyLib, FilebenchProfile::Webproxy(), false, false};
  } else if (name == "txn-journal") {
    *out = Spec{Kind::kTxnJournal, FilebenchProfile::Varmail(), true, true};
  } else {
    return false;
  }
  return true;
}

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  atomfs::SplitMix64 sm(a ^ (b * 0xD1B54A32D192ED03ULL) ^ (c * 0x94D049BB133111EBULL));
  return sm.Next();
}

std::vector<std::byte> Payload(size_t n, uint64_t seed, uint64_t a, uint64_t b) {
  atomfs::Rng rng(Mix(seed ^ kPayloadStream, a, b));
  std::vector<std::byte> out(n);
  for (std::byte& x : out) {
    x = static_cast<std::byte>(rng.Next());
  }
  return out;
}

std::string PipeFile(int conn) {
  return "/fb/d" + std::to_string(conn) + "/pipe" + std::to_string(conn);
}
std::string TxFile(int k) { return "/tx/f" + std::to_string(k); }
std::string HotFile(uint64_t h) { return "/tx/h" + std::to_string(h); }

bool Populate(FileSystem& fs, const Spec& spec, uint64_t seed) {
  atomfs::FilebenchSetup(fs, spec.profile, seed);
  bool ok = true;
  if (spec.kind == Kind::kPipelineWire) {
    for (int c = 0; c < kConns; ++c) {
      ok = ok && fs.Mknod(PipeFile(c)).ok() &&
           fs.Write(PipeFile(c), 0, Payload(kPipelineWriteBytes, seed, c, 0)).ok();
    }
  }
  if (spec.kind == Kind::kTxnJournal) {
    ok = ok && fs.Mkdir(std::string_view("/tx")).ok();
    for (int k = 0; k < kTxFiles; ++k) {
      ok = ok && fs.Mknod(TxFile(k)).ok();
    }
    for (uint64_t h = 0; h < kHotFiles; ++h) {
      ok = ok && fs.Mknod(HotFile(h)).ok();
    }
  }
  return ok;
}

void RemoveJournal(const std::string& wal) {
  for (const std::string& p : {wal, atomfs::PrevWalPath(wal), atomfs::CheckpointPath(wal),
                               atomfs::PrevCheckpointPath(wal), atomfs::TmpCheckpointPath(wal)}) {
    std::remove(p.c_str());
  }
}

// --- the system under test ---------------------------------------------------

// One instance of the served (or in-process) stack. Traced stacks insert the
// benchmark's decorators: LockObserver on AtomFs, core.op spans around it,
// txn.direct spans around TxnManager, TimedTxnHost for the server.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    conns.clear();
    if (server) {
      server->Stop();
    }
  }

  std::unique_ptr<LockObserver> observer;
  std::unique_ptr<AtomFs> atom;
  std::unique_ptr<ProbedFs<SpanProbe>> core;
  atomfs::MetricsRegistry registry;
  std::unique_ptr<atomfs::TraceRing> ring;
  std::atomic<uint64_t> wal_bytes{0};  // bytes the WAL wrote (traced)
  std::unique_ptr<atomfs::TxnManager> txn;
  std::unique_ptr<ProbedFs<SpanProbe>> direct;
  std::unique_ptr<TimedTxnHost> host;
  std::unique_ptr<atomfs::AtomFsServer> server;
  std::vector<std::unique_ptr<atomfs::AtomFsClient>> conns;
  FileSystem* top = nullptr;  // what the server (or in-process callers) drive
};

struct Files {
  std::string sock;
  std::string wal;
};

std::unique_ptr<Stack> BuildStack(const Spec& spec, uint64_t seed, bool traced, const Files& files,
                                  Report& report) {
  auto st = std::make_unique<Stack>();
  AtomFs::Options opts;
  if (traced) {
    st->observer = std::make_unique<LockObserver>();
    opts.observer = st->observer.get();
  }
  st->atom = std::make_unique<AtomFs>(opts);
  // The dataset goes straight into AtomFs. A journaled stack starts its
  // TxnManager mirror from the same dataset, so the WAL holds what the
  // workload does and the first checkpoint carries the whole state.
  if (!Populate(*st->atom, spec, seed)) {
    report.Fail("populating the dataset failed");
    return nullptr;
  }
  FileSystem* fs = st->atom.get();
  if (traced) {
    st->core = std::make_unique<ProbedFs<SpanProbe>>(fs, SpanProbe(SpanName::kCoreOp));
    fs = st->core.get();
  }
  atomfs::TxnHost* host = nullptr;
  if (spec.journaled) {
    RemoveJournal(files.wal);
    atomfs::TxnManager::Options t;
    t.inner = fs;
    t.wal_path = files.wal;
    t.metrics = &st->registry;
    t.checkpoint_bytes = kCheckpointBytes;  // one WAL write per commit, no fdatasync
    // The mirror must equal the inner state structurally; a SpecFs built
    // from the same dataset is, and allocates its own inode numbers.
    if (!Populate(t.initial, spec, seed)) {
      report.Fail("populating the transaction mirror failed");
      return nullptr;
    }
    if (traced) {
      st->ring = std::make_unique<atomfs::TraceRing>(1 << 14);
      t.trace_ring = st->ring.get();
      std::atomic<uint64_t>* bytes = &st->wal_bytes;
      t.wal.write_fault = [bytes](std::string_view b) {
        bytes->fetch_add(b.size(), std::memory_order_relaxed);  // a tally, read after Stop
        return 0;
      };
    }
    st->txn = std::make_unique<atomfs::TxnManager>(std::move(t));
    fs = st->txn.get();
    host = st->txn.get();
    if (traced) {
      st->direct = std::make_unique<ProbedFs<SpanProbe>>(fs, SpanProbe(SpanName::kTxnDirect));
      fs = st->direct.get();
      st->host = std::make_unique<TimedTxnHost>(host);
      host = st->host.get();
    }
  }
  st->top = fs;
  if (!spec.wire) {
    return st;
  }
  atomfs::ServerOptions so;
  so.unix_path = files.sock;
  so.metrics = &st->registry;
  so.txn = host;
  st->server = std::make_unique<atomfs::AtomFsServer>(fs, so);
  if (!st->server->Start().ok()) {
    report.Fail("cannot start the server on " + files.sock);
    return nullptr;
  }
  for (int c = 0; c < kConns; ++c) {
    auto client = atomfs::AtomFsClient::ConnectUnix(files.sock);
    if (!client.ok()) {
      report.Fail("cannot connect to " + files.sock);
      return nullptr;
    }
    st->conns.push_back(std::move(*client));
  }
  return st;
}

// --- checks ------------------------------------------------------------------

// The calls the workload's op generator makes on the set-up dataset, one at a
// time: the pipelined connection's sequence on pipeline-wire, else the
// filebench personality recorded from a scratch AtomFs.
std::vector<atomfs::OpCall> ReplayCalls(const Spec& spec, uint64_t seed, Report& report) {
  const uint64_t replay_seed = Mix(seed, kReplayStream, 0);
  std::vector<atomfs::OpCall> calls;
  if (spec.kind == Kind::kPipelineWire) {
    const atomfs::Path file = *atomfs::ParsePath(PipeFile(0));
    for (uint64_t i = 0; i < kReplayOps; ++i) {
      switch (i % 3) {
        case 0:
          calls.push_back(atomfs::OpCall::StatOf(file));
          break;
        case 1:
          calls.push_back(atomfs::OpCall::ReadOf(file, 0, kPipelineReadBytes));
          break;
        default:
          calls.push_back(atomfs::OpCall::WriteOf(
              file, 0, Payload(kPipelineWriteBytes, replay_seed, 0, i)));
          break;
      }
    }
    return calls;
  }
  atomfs::TraceRecorder recorder;
  AtomFs::Options opts;
  opts.observer = &recorder;
  AtomFs scratch(opts);
  if (!Populate(scratch, spec, seed)) {
    report.Fail("populating the replay generator's file system failed");
    return calls;
  }
  (void)recorder.Take();  // the set-up
  atomfs::FilebenchWorker(scratch, spec.profile, replay_seed, kReplayOps);
  return recorder.Take();
}

// Replays the workload's op generator on one connection (in process for
// webproxy-lib), each op checked against SpecFs started from the same
// dataset.
void ReplayCheck(const Spec& spec, Stack& st, uint64_t seed, Report& report) {
  SpecFs oracle;
  if (!Populate(oracle, spec, seed)) {
    report.Fail("populating the oracle failed");
    return;
  }
  FileSystem& target = spec.wire ? static_cast<FileSystem&>(*st.conns[0]) : *st.top;
  const CheckedReplay r = CheckCalls(target, oracle, ReplayCalls(spec, seed, report));
  report.MetaNumber("replay_checked_ops", static_cast<double>(r.ops));
  if (r.mismatches > 0) {
    report.Fail("replay diverged from SpecFs in " + std::to_string(r.mismatches) +
                " op(s); first: " + r.first_mismatch);
  }
}

// --- the timed window --------------------------------------------------------

struct TxnTally {
  bool committed = false;
  uint64_t last_committed = 0;
};

struct Window {
  double wall_s = 0;
  double slice_s = 0;
  std::vector<CallLog> logs;
  std::atomic<uint64_t> content_mismatches{0};
  TxnTally txn;
};

// Runs body(conn, deadline_ns) on kConns threads released together; returns
// the wall time from release until the last thread finished.
double RunClosedLoop(double seconds, const std::function<void(int, int64_t)>& body) {
  std::latch go(1);
  int64_t deadline = 0;  // published to the threads by the latch
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      go.wait();
      body(c, deadline);
    });
  }
  const int64_t start = NowNs();
  deadline = start + static_cast<int64_t>(seconds * 1e9);
  go.count_down();
  for (std::thread& t : threads) {
    t.join();
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

// Closed loop of the filebench personality: unit k is one pass of the
// personality's loop (FilebenchWorker with op_count 1).
void FilebenchLoop(FileSystem& fs, CallLog& log, const FilebenchProfile& profile, uint64_t seed,
                   int conn, int64_t deadline) {
  for (uint64_t k = 0; NowNs() < deadline; ++k) {
    const int64_t t0 = NowNs();
    atomfs::FilebenchWorker(fs, profile, Mix(seed, static_cast<uint64_t>(conn) + 1, k), 1);
    log.AddUnit(t0, NowNs());
  }
}

bool ReplyMatches(atomfs::WireOp op, const atomfs::Result<std::vector<std::byte>>& reply,
                  const std::vector<std::byte>& expect) {
  atomfs::WireReader in(*reply);
  switch (op) {
    case atomfs::WireOp::kStat: {
      atomfs::Attr attr;
      return atomfs::ParseAttr(in, &attr) && in.AtEnd() && attr.size == kPipelineWriteBytes;
    }
    case atomfs::WireOp::kRead: {
      std::vector<std::byte> data;
      return in.Blob(&data, kPipelineReadBytes) && in.AtEnd() && data == expect;
    }
    default: {
      uint64_t n = 0;
      return in.U64(&n) && in.AtEnd() && n == kPipelineWriteBytes;
    }
  }
}

// Submit-8 / flush / wait-all of stat, read (16 B) and write (64 B) on the
// connection's own file. Every read must return the first bytes of the last
// write submitted before it.
void PipelineLoop(atomfs::ClientSession& s, CallLog& log, int conn, uint64_t seed,
                  int64_t deadline, std::atomic<uint64_t>& mismatches) {
  const std::string file = PipeFile(conn);
  std::vector<std::byte> last = Payload(kPipelineWriteBytes, seed, conn, 0);
  std::vector<atomfs::ClientSession::Future> futures(kPipelineDepth);
  std::vector<atomfs::WireRequest> reqs(kPipelineDepth);
  std::vector<std::vector<std::byte>> expect(kPipelineDepth);
  std::vector<int64_t> submitted(kPipelineDepth);
  {
    // The replay check may have rewritten the file: restore the known bytes.
    atomfs::WireRequest reset;
    reset.op = atomfs::WireOp::kWrite;
    reset.path_a = file;
    reset.data = last;
    if (!s.Call(reset).ok()) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  }
  uint64_t seq = 0;
  uint64_t writes = 0;
  for (uint64_t batch = 1; NowNs() < deadline; ++batch) {
    const int64_t unit_t0 = NowNs();
    SpanLog::Scope call(SpanName::kClientCall, 0, 0,
                        (uint64_t{static_cast<uint32_t>(conn) + 1} << 40) | batch);
    call.set_calls(kPipelineDepth);
    {
      SpanLog::Scope send(SpanName::kClientSend);
      send.set_calls(kPipelineDepth);
      for (size_t k = 0; k < kPipelineDepth; ++k, ++seq) {
        atomfs::WireRequest& req = reqs[k];
        req = atomfs::WireRequest{};
        req.path_a = file;
        switch (seq % 3) {
          case 0:
            req.op = atomfs::WireOp::kStat;
            break;
          case 1:
            req.op = atomfs::WireOp::kRead;
            req.count = kPipelineReadBytes;
            expect[k].assign(last.begin(), last.begin() + kPipelineReadBytes);
            break;
          default:
            req.op = atomfs::WireOp::kWrite;
            req.data = Payload(kPipelineWriteBytes, seed, conn, ++writes);
            last = req.data;
            break;
        }
        submitted[k] = NowNs();
        futures[k] = s.Submit(req);
      }
      (void)s.Flush();  // a failure resolves every future with the session's error
      ++log.flushes;
    }
    SpanLog::Scope wait(SpanName::kClientWait);
    wait.set_calls(kPipelineDepth);
    for (size_t k = 0; k < kPipelineDepth; ++k) {
      const auto reply = futures[k].Wait();
      const int64_t now = NowNs();
      const Errc code = reply.ok() ? Errc::kOk : reply.status().code();
      if (reply.ok() && !ReplyMatches(reqs[k].op, reply, expect[k])) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      log.Record(submitted[k], now, code);
      log.Capture(reqs[k]);
      ++log.replies;
      log.reply_bytes += 5 + (reply.ok() ? reply->size() : 0);
      if (reply.ok() && reqs[k].op == atomfs::WireOp::kWrite) {
        log.payload_bytes += kPipelineWriteBytes;
      }
    }
    log.AddUnit(unit_t0, NowNs());
  }
}

// txn-journal's one caller thread, on two connections, looping rounds: a
// transaction on `tx` (TXBEGIN, a write to each /tx file, on every 8th round
// a write of a hot file too, TXCOMMIT), with a write of a hot file made on
// `direct` as an auto-committed op while the transaction is open; then one
// varmail personality loop on `direct`. A transaction whose hot file the
// direct write changed fails OCC validation. Only direct calls are latency
// samples; a unit is a committed transaction. One thread, so no two calls
// wait on each other for the manager's mutex and the run is not at the mercy
// of which waiter the scheduler wakes.
void TxnLoop(atomfs::AtomFsClient& tx, atomfs::AtomFsClient& direct, CallLog& log,
             const FilebenchProfile& profile, uint64_t seed, int64_t deadline, TxnTally& tally) {
  ProbedFs<CallProbe> in_tx(&tx, CallProbe(&log, SpanName::kClientCall, 0));
  ProbedFs<CallProbe> out(&direct, CallProbe(&log, SpanName::kClientCall, 1));
  for (uint64_t round = 0; NowNs() < deadline; ++round) {
    atomfs::Rng rng(Mix(seed, kTxnStream, round));
    log.latency_samples = false;
    const int64_t t0 = NowNs();
    const uint64_t bytes_before = log.payload_bytes;
    const auto id = tx.TxBegin();
    log.Record(t0, NowNs(), CodeOf(id));
    ++log.flushes;
    if (id.ok()) {
      for (int k = 0; k < kTxFiles; ++k) {
        (void)in_tx.Write(TxFile(k), 0, Payload(kTxWriteBytes, seed, round, k));
      }
      if (round % 8 == 0) {
        (void)in_tx.Write(HotFile(rng.Below(kHotFiles)), 0,
                          Payload(kTxWriteBytes, seed, round, kTxFiles));
      }
      log.latency_samples = true;
      (void)out.Write(HotFile(rng.Below(kHotFiles)), 0,
                      Payload(kTxWriteBytes, seed, round, kTxFiles + 1));
      log.latency_samples = false;
      const int64_t commit_t0 = NowNs();
      const Status st = tx.TxCommit();
      const int64_t t1 = NowNs();
      log.Record(commit_t0, t1, st.code());
      ++log.flushes;
      if (st.ok()) {
        log.AddUnit(t0, t1);
        tally.committed = true;
        tally.last_committed = round;
      } else {
        log.payload_bytes = bytes_before;  // nothing of it became durable
      }
    }
    log.latency_samples = true;
    atomfs::FilebenchWorker(out, profile, Mix(seed, 1, round), 1);
  }
}

std::unique_ptr<Window> RunWindow(const Spec& spec, Stack& st, uint64_t seed, double seconds,
                                  bool capture) {
  auto w = std::make_unique<Window>();
  w->logs.resize(kConns);
  for (CallLog& log : w->logs) {
    log.Reserve(static_cast<size_t>(seconds * 80000), static_cast<size_t>(seconds * 20000));
    log.capture = capture;
  }
  // Each caller's calls go through the program's own FileSystem methods: an
  // AtomFsClient connection, or AtomFs in process.
  std::vector<std::unique_ptr<ProbedFs<CallProbe>>> callers;
  for (int c = 0; c < kConns; ++c) {
    const auto conn = static_cast<uint32_t>(c);
    FileSystem* target = spec.wire ? static_cast<FileSystem*>(st.conns[c].get()) : st.top;
    const SpanName name = spec.wire ? SpanName::kClientCall : SpanName::kLibCall;
    callers.push_back(
        std::make_unique<ProbedFs<CallProbe>>(target, CallProbe(&w->logs[c], name, conn)));
  }
  const auto window_ns = static_cast<int64_t>(seconds * 1e9);
  w->slice_s = seconds / kSlices;
  w->wall_s = RunClosedLoop(seconds, [&](int c, int64_t deadline) {
    CallLog& log = w->logs[c];
    log.StartSlices(deadline - window_ns, window_ns / kSlices);
    switch (spec.kind) {
      case Kind::kFileserverWire:
      case Kind::kWebproxyLib:
        FilebenchLoop(*callers[c], log, spec.profile, seed, c, deadline);
        break;
      case Kind::kPipelineWire:
        PipelineLoop(st.conns[c]->session(), log, c, seed, deadline, w->content_mismatches);
        break;
      case Kind::kTxnJournal:
        if (c == 0) {
          TxnLoop(*st.conns[0], *st.conns[1], log, spec.profile, seed, deadline, w->txn);
        }
        break;
    }
  });
  return w;
}

// Completed calls per second: the median over the window's slices.
SliceSummary CallSlices(const Window& w) {
  std::vector<SlicedSeries> series;
  for (const CallLog& log : w.logs) {
    series.push_back(SlicedSeries{&log.lat_ns, &log.lat_marks});
  }
  return SummarizeSlices(series, kSlices, w.slice_s);
}

double OpsPerSecond(const Window& w) { return CallSlices(w).rate; }

// --- after the window ----------------------------------------------------------

struct Recovery {
  std::vector<double> ms;
  uint64_t ops = 0;
};

// Tree read back through the workload's own path == AtomFs::SnapshotSpec();
// pipelined reads saw the last write; the last committed transaction is
// visible; the recovered journal equals the live state. Stops the server.
Recovery PostChecks(const Spec& spec, Stack& st, const Window& w, uint64_t seed, const Files& files,
                    int recover_repeats, Report& report) {
  if (const uint64_t bad = w.content_mismatches.load(); bad > 0) {
    report.Fail(std::to_string(bad) + " pipelined repl(y/ies) did not match the last write");
  }
  FileSystem& reader = spec.wire ? static_cast<FileSystem&>(*st.conns[0]) : *st.top;
  auto tree = ReadTree(reader);
  if (st.server) {
    st.conns.clear();
    st.server->Stop();
  }
  const SpecFs live = st.atom->SnapshotSpec();
  if (!tree.ok()) {
    report.Fail(std::string("reading the tree back failed: ") +
                std::string(atomfs::ErrcName(tree.status().code())));
  } else if (!atomfs::StructurallyEqual(*tree, live)) {
    report.Fail("the tree read back differs from AtomFs::SnapshotSpec()");
  } else if (spec.kind == Kind::kTxnJournal && w.txn.committed) {
    for (int k = 0; k < kTxFiles; ++k) {
      const auto want = Payload(kTxWriteBytes, seed, w.txn.last_committed, k);
      auto got = atomfs::ReadString(*tree, TxFile(k));
      if (!got.ok() || got->size() != want.size() ||
          std::memcmp(got->data(), want.data(), want.size()) != 0) {
        report.Fail(TxFile(k) + " does not hold the last committed transaction's bytes");
        break;
      }
    }
  }
  Recovery rec;
  if (!spec.journaled) {
    return rec;
  }
  // Without a checkpoint the WAL only extends the set-up dataset.
  const bool from_checkpoint = st.txn->checkpoints_taken() > 0;
  for (int i = 0; i < recover_repeats; ++i) {
    AtomFs fresh;
    if (!from_checkpoint && !Populate(fresh, spec, seed)) {
      report.Fail("populating the recovery target failed");
      return rec;
    }
    const int64_t t0 = NowNs();
    auto stats = atomfs::RecoverJournal(files.wal, fresh);
    rec.ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!stats.ok()) {
      report.Fail("RecoverJournal failed");
      return rec;
    }
    rec.ops = stats->checkpoint_ops + stats->wal.applied_ops;
    if (i == 0 && !atomfs::StructurallyEqual(fresh.SnapshotSpec(), live)) {
      report.Fail("the recovered journal differs from the live state");
    }
  }
  return rec;
}

void EndToEnd(const Window& w, double setup_s, Report& report) {
  std::vector<SlicedSeries> units;
  for (const CallLog& log : w.logs) {
    units.push_back(SlicedSeries{&log.unit_ns, &log.unit_marks});
  }
  const SliceSummary lq = CallSlices(w);
  const SliceSummary uq = SummarizeSlices(units, kSlices, w.slice_s);
  report.Metric("ops_per_s", lq.rate);
  report.Metric("lat_p50_us", static_cast<double>(lq.p50_ns) / 1e3);
  report.Metric("lat_p99_us", static_cast<double>(lq.p99_ns) / 1e3);
  report.Metric("units_per_s", uq.rate);
  report.Metric("unit_p50_us", static_cast<double>(uq.p50_ns) / 1e3);
  report.Metric("unit_p99_us", static_cast<double>(uq.p99_ns) / 1e3);
  report.Metric("setup_s", setup_s);
  report.MetaNumber("wall_s", w.wall_s);
  std::string rates = "[";
  for (double r : lq.rates) {
    rates += (rates.size() > 1 ? ", " : "") + std::to_string(std::llround(r));
  }
  report.Meta("slice_ops_per_s", rates + "]");
  report.MetaNumber("lat_samples", static_cast<double>(lq.count));
  report.MetaNumber("unit_samples", static_cast<double>(uq.count));
}

double P50Us(std::vector<uint64_t> ns) { return static_cast<double>(ExactQuantile(ns, 0.5)) / 1e3; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool IsMutation(OpKind k) {
  return k != OpKind::kStat && k != OpKind::kRead && k != OpKind::kReadDir;
}

// The per-layer ledger of a traced window. Layers the workload does not
// reach report 0.
void PerLayer(const Spec& spec, Stack& st, const Window& w, const atomfs::MetricsSnapshot& before,
              const atomfs::MetricsSnapshot& after, uint64_t ring_start, const Recovery& rec,
              const WireJoin& join, double untraced_ops, Report& report) {
  const auto threads = SpanLog::Threads();
  auto stats = AnalyzeSpans(threads);
  auto of = [&stats](SpanName n) -> SpanStats& { return stats[static_cast<size_t>(n)]; };

  // client
  uint64_t calls = 0, flushes = 0, reply_bytes = 0, replies = 0, payload = 0;
  std::vector<atomfs::WireRequest> mix;
  std::vector<uint64_t> lat;
  for (const CallLog& log : w.logs) {
    calls += log.outcomes.Attempted();
    flushes += log.flushes;
    reply_bytes += log.reply_bytes;
    replies += log.replies;
    payload += log.payload_bytes;
    mix.insert(mix.end(), log.mix.begin(), log.mix.end());
    lat.insert(lat.end(), log.lat_ns.begin(), log.lat_ns.end());
  }
  report.Metric("client.send_us", spec.wire ? P50Us(of(SpanName::kClientSend).per_call_ns) : 0);
  report.Metric("client.wait_us", spec.wire ? P50Us(of(SpanName::kClientWait).per_call_ns) : 0);
  report.Metric("client.calls_per_frame", Ratio(static_cast<double>(calls), static_cast<double>(flushes)));

  // net: the codec over the recorded request mix
  const CodecResult codec = ReplayCodec(mix, kCodecRounds);
  if (!codec.ok) {
    report.Fail("codec replay did not round-trip the request mix");
  }
  report.Metric("net.codec_ns", codec.ns_per_request);
  report.Metric("net.req_bytes", codec.mean_request_bytes);

  // floor: the kernel's cost for the same frames and connection count
  const size_t req_frame = 4 + static_cast<size_t>(std::llround(codec.mean_request_bytes));
  const size_t reply_frame =
      static_cast<size_t>(std::llround(Ratio(static_cast<double>(reply_bytes), static_cast<double>(replies))));
  const FloorResult floor = MeasureFloor(kConns, req_frame, reply_frame, kFloorSeconds);
  const double floor_us = static_cast<double>(floor.p50_ns) / 1e3;
  report.Metric("floor.rtt_us", floor_us);
  report.MetaNumber("floor_req_frame_bytes", static_cast<double>(req_frame));
  report.MetaNumber("floor_reply_frame_bytes", static_cast<double>(reply_frame));

  // core: per-op spans around AtomFs
  std::vector<uint64_t> core_all;
  std::array<std::vector<uint64_t>, 11> by_kind;
  uint64_t core_ops = 0, misses = 0, committed_direct = 0;
  for (const ThreadSpans* t : threads) {
    for (const Span& s : t->spans) {
      if (s.end_ns == 0 || s.kind == 0) {
        continue;
      }
      const OpKind kind = static_cast<OpKind>(s.kind - 1);
      if (s.name == SpanName::kTxnDirect && s.status == Errc::kOk && IsMutation(kind)) {
        ++committed_direct;
      }
      if (s.name != SpanName::kCoreOp) {
        continue;
      }
      const auto d = static_cast<uint64_t>(s.Duration());
      core_all.push_back(d);
      by_kind[static_cast<size_t>(kind)].push_back(d);
      ++core_ops;
      misses += Classify(s.status) == Outcome::kMiss ? 1 : 0;
    }
  }
  auto kind_p50 = [&by_kind](std::initializer_list<OpKind> kinds) {
    std::vector<uint64_t> v;
    for (OpKind k : kinds) {
      v.insert(v.end(), by_kind[static_cast<size_t>(k)].begin(), by_kind[static_cast<size_t>(k)].end());
    }
    return P50Us(std::move(v));
  };
  const Quantiles core_q = Summarize(core_all);
  report.Metric("core.op_p50_us", static_cast<double>(core_q.p50_ns) / 1e3);
  report.Metric("core.op_p99_us", static_cast<double>(core_q.p99_ns) / 1e3);
  report.Metric("core.stat_us", kind_p50({OpKind::kStat}));
  report.Metric("core.read_us", kind_p50({OpKind::kRead}));
  report.Metric("core.write_us", kind_p50({OpKind::kWrite}));
  report.Metric("core.create_us", kind_p50({OpKind::kMknod, OpKind::kMkdir}));
  report.Metric("core.unlink_us", kind_p50({OpKind::kUnlink, OpKind::kRmdir}));
  const LockObserver::Totals locks = st.observer->Collect();
  report.Metric("core.locks_per_op", Ratio(static_cast<double>(locks.locks), static_cast<double>(locks.ops)));
  report.Metric("core.lock_step_us", Ratio(static_cast<double>(locks.step_ns), static_cast<double>(locks.steps)) / 1e3);
  report.Metric("core.miss_ratio", Ratio(static_cast<double>(misses), static_cast<double>(core_ops)));

  // server: round trip minus core minus floor, per joined request when the
  // spans join, else as a difference of medians
  double server_self = 0;
  std::string method = "none";
  if (spec.wire) {
    if (join.joined > 0 && join.joined * 2 >= join.server_roots) {
      std::vector<uint64_t> gap = join.gap_ns;
      server_self = P50Us(std::move(gap)) - floor_us;
      method = "per-request join";
    } else {
      server_self = P50Us(lat) - static_cast<double>(core_q.p50_ns) / 1e3 - floor_us;
      method = "difference of medians";
    }
  }
  report.Metric("server.self_us", server_self);
  report.MetaString("server_self_method", method);
  report.MetaNumber("server_spans_joined", static_cast<double>(join.joined));
  report.MetaNumber("server_root_spans", static_cast<double>(join.server_roots));
  auto delta = [&](const char* name) {
    return static_cast<double>(after.CounterValue(name) - before.CounterValue(name));
  };
  double batch_mean = 0;
  if (const auto* a = after.FindHistogram("server.worker.batch_size"); a != nullptr) {
    const auto* b = before.FindHistogram("server.worker.batch_size");
    const uint64_t n = a->count - (b != nullptr ? b->count : 0);
    const uint64_t sum = a->sum - (b != nullptr ? b->sum : 0);
    batch_mean = Ratio(static_cast<double>(sum), static_cast<double>(n));
  }
  report.Metric("server.wakeups_per_call", spec.wire ? Ratio(delta("server.loop.wakeups"), static_cast<double>(calls)) : 0);
  report.Metric("server.batch_mean", batch_mean);
  report.Metric("server.backpressure_stalls", delta("server.backpressure_stalls"));

  // txn
  const atomfs::TxnStatsSnapshot ts = st.txn ? st.txn->stats() : atomfs::TxnStatsSnapshot{};
  report.Metric("txn.begin_us", P50Us(of(SpanName::kTxnBegin).dur_ns));
  report.Metric("txn.apply_us", P50Us(of(SpanName::kTxnApply).dur_ns));
  report.Metric("txn.commit_us", P50Us(of(SpanName::kTxnCommit).dur_ns));
  report.Metric("txn.direct_self_us", P50Us(of(SpanName::kTxnDirect).self_ns));
  report.Metric("txn.conflict_ratio", Ratio(static_cast<double>(ts.conflicts), static_cast<double>(ts.commits + ts.conflicts)));

  // journal
  const atomfs::MetricsSnapshot local = st.registry.Snapshot();
  const double units = static_cast<double>(committed_direct + ts.commits);
  const double wal_bytes = static_cast<double>(st.wal_bytes.load(std::memory_order_relaxed));
  const double ckpt_bytes = static_cast<double>(local.CounterValue("journal.checkpoint.bytes") -
                                                before.CounterValue("journal.checkpoint.bytes"));
  report.Metric("journal.bytes_per_commit", Ratio(wal_bytes, units));
  report.Metric("journal.write_amp", spec.journaled ? Ratio(wal_bytes + ckpt_bytes, static_cast<double>(payload)) : 0);
  report.Metric("journal.checkpoints", static_cast<double>(local.CounterValue("journal.checkpoint.count") -
                                                           before.CounterValue("journal.checkpoint.count")));
  std::vector<double> ckpt_ms;
  if (st.ring) {
    uint64_t begin_ns = 0;
    for (const atomfs::TraceEvent& e : st.ring->Snapshot()) {
      if (e.seq < ring_start) {
        continue;
      }
      if (e.type == atomfs::TraceEventType::kCkptBegin) {
        begin_ns = e.t_ns;
      } else if (e.type == atomfs::TraceEventType::kCkptEnd && begin_ns != 0) {
        ckpt_ms.push_back(static_cast<double>(e.t_ns - begin_ns) / 1e6);
        begin_ns = 0;
      }
    }
  }
  report.Metric("journal.checkpoint_ms", Median(ckpt_ms));
  report.Metric("journal.recover_ops", static_cast<double>(rec.ops));
  report.Metric("journal.recover_ms", Median(rec.ms));
  if (spec.journaled) {
    report.MetaString("flush_policy",
                      "one WAL write per commit, no fdatasync, checkpoint every 16 MiB of WAL");
  }

  const double traced_ops = OpsPerSecond(w);
  report.Metric("trace.overhead_pct", Ratio(untraced_ops - traced_ops, untraced_ops) * 100.0);
  report.MetaNumber("traced_ops_per_s", traced_ops);
  report.MetaNumber("untraced_ops_per_s", untraced_ops);
}

void NoteOutcomes(const Window& w, Report& report) {
  for (const CallLog& log : w.logs) {
    report.outcomes += log.outcomes;
  }
  for (size_t i = 0; i < kOutcomeCount; ++i) {
    report.MetaNumber("calls_" + std::string(OutcomeName(static_cast<Outcome>(i))),
                      static_cast<double>(report.outcomes.n[i]));
  }
}

atomfs::MetricsSnapshot FetchMetrics(Stack& st) {
  if (st.conns.empty()) {
    return st.registry.Snapshot();
  }
  auto snap = st.conns[0]->FetchMetrics();
  return snap.ok() ? std::move(*snap) : atomfs::MetricsSnapshot{};
}

Report RunUntraced(const Spec& spec, const Config& cfg, const Files& files) {
  Report report;
  std::unique_ptr<Stack> st;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    st.reset();
    const int64_t t0 = NowNs();
    st = BuildStack(spec, cfg.seed, /*traced=*/false, files, report);
    if (!st) {
      return report;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::string setups = "[";
  for (double v : setup_s) {
    setups += (setups.size() > 1 ? ", " : "") + std::to_string(v);
  }
  report.Meta("setup_runs_s", setups + "]");
  ReplayCheck(spec, *st, cfg.seed, report);
  RunWindow(spec, *st, cfg.seed, kWarmupSeconds, /*capture=*/false);
  auto w = RunWindow(spec, *st, cfg.seed, cfg.seconds, /*capture=*/false);
  PostChecks(spec, *st, *w, cfg.seed, files, /*recover_repeats=*/1, report);
  EndToEnd(*w, Median(setup_s), report);
  NoteOutcomes(*w, report);
  return report;
}

Report RunTraced(const Spec& spec, const Config& cfg, const Files& files) {
  Report report;
  // Each window is capped so a long run does not keep millions of spans.
  const double half = std::min(cfg.seconds / 2, kMaxTracedSeconds);
  // An untraced stack first: its call rate is the baseline of
  // trace.overhead_pct, and it stays up, idle, for the session replay.
  const Files base_files{files.sock + ".base", files.wal + ".base"};
  auto base = BuildStack(spec, cfg.seed, /*traced=*/false, base_files, report);
  if (!base) {
    return report;
  }
  ReplayCheck(spec, *base, cfg.seed, report);
  RunWindow(spec, *base, cfg.seed, kWarmupSeconds, /*capture=*/false);
  const double untraced_ops =
      OpsPerSecond(*RunWindow(spec, *base, cfg.seed, half, /*capture=*/false));

  auto st = BuildStack(spec, cfg.seed, /*traced=*/true, files, report);
  if (!st) {
    return report;
  }
  RunWindow(spec, *st, cfg.seed, kWarmupSeconds, /*capture=*/false);
  const atomfs::MetricsSnapshot before = FetchMetrics(*st);
  const uint64_t ring_start = st->ring ? st->ring->total_appended() : 0;
  st->wal_bytes.store(0, std::memory_order_relaxed);
  SpanLog::Clear();
  SpanLog::Enable(true);
  auto w = RunWindow(spec, *st, cfg.seed, half, /*capture=*/true);
  SpanLog::Enable(false);
  const atomfs::MetricsSnapshot after = FetchMetrics(*st);
  // Stops the server, so every recording thread has been joined before the
  // spans and observer tallies are read below.
  const Recovery rec = PostChecks(spec, *st, *w, cfg.seed, files, kRecoverRepeats, report);
  if (spec.wire && spec.kind != Kind::kPipelineWire) {
    // The depth-1 calls, split into send and wait on the untraced stack.
    std::vector<atomfs::ClientSession*> sessions;
    std::vector<std::vector<atomfs::WireRequest>> mixes;
    for (int c = 0; c < kConns; ++c) {
      sessions.push_back(&base->conns[c]->session());
      mixes.push_back(w->logs[c].mix);
    }
    SpanLog::Enable(true);
    ReplaySessions(sessions, mixes);
    SpanLog::Enable(false);
  }
  base.reset();
  const WireJoin join = JoinAcrossWire(SpanLog::Threads());
  PerLayer(spec, *st, *w, before, after, ring_start, rec, join, untraced_ops, report);
  NoteOutcomes(*w, report);
  if (!WriteChromeTrace(cfg.trace_path, SpanLog::Threads(), join, kTraceSpansWritten)) {
    report.Fail("cannot write " + cfg.trace_path);
  }
  report.MetaString("trace_file", cfg.trace_path);
  SpanLog::Clear();
  return report;
}

}  // namespace

void Report::MetaNumber(std::string key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  Meta(std::move(key), buf);
}

void Report::MetaString(std::string key, std::string_view value) {
  std::string json = "\"";
  for (char ch : value) {
    if (ch == '"' || ch == '\\') {
      json += '\\';
    }
    json += ch;
  }
  json += '"';
  Meta(std::move(key), std::move(json));
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{"fileserver-wire", "pipeline-wire", "webproxy-lib",
                                              "txn-journal"};
  return names;
}

Report RunWorkload(const Config& cfg) {
  Spec spec;
  if (!SpecOf(cfg.workload, &spec)) {
    Report r;
    r.Fail("unknown workload " + cfg.workload);
    return r;
  }
  const Files files{cfg.run_dir + "/s.sock", cfg.run_dir + "/journal.wal"};
  Report report = cfg.trace ? RunTraced(spec, cfg, files) : RunUntraced(spec, cfg, files);
  if (spec.journaled) {
    RemoveJournal(files.wal);
  }
  return report;
}

}  // namespace perfbench
