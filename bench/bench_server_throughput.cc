// bench_server_throughput: closed-loop multi-client load generator for the
// atomfsd serving layer.
//
// For each requested Filebench profile it starts an in-process AtomFsServer
// (fresh backend each time), connects N clients — one connection and one
// thread per client — and drives the profile's op mix through AtomFsClient,
// i.e. over the real wire protocol. Every FileSystem call is timed
// client-side into an atomtrace metrics registry, so the reported
// p50/p99/p999 use the same bucket math as the server's own histograms (a
// client and a `METRICS` fetch can never disagree about a percentile).
//
// The primary pass runs with a TracingObserver attached to the backend
// (atomfs/biglock), and the report carries the lock-coupling profile —
// per-depth hold/step histograms — and helper counters pulled over the wire
// via the METRICS op. For the fileserver profile the run doubles as the
// tracing-overhead experiment: two servers over identical datasets (one
// untraced, one traced) take load in alternating paired slices, and the
// median traced/untraced throughput ratio yields `tracing_overhead_pct`
// plus the hardware-independent `tracing_overhead_ns_per_op` (suppressed
// under --monitor, where verification — not tracing — dominates). The same
// paired-slice harness then runs a second instrument — tracer-without-ring
// vs tracer-with-ring — whose `ghost_overhead_pct`/`ghost_overhead_ns_per_op`
// price the flight-recorder ring alone (the `flight_recorder` JSON block).
//
// A second mode exercises the pipelined request API: `--connections M
// --pipeline N` runs M concurrent connections for a fixed wall-time window,
// each in a closed submit-N / flush / wait-all loop over its own files
// (stat/read/write through ClientSession). The run always takes two passes —
// depth 1 (one request per round trip, protocol v2's lower bound) and depth
// N — so the report carries a pipelined-vs-unpipelined throughput pair plus
// per-connection fairness (min/max completed ops across connections).
// `--check` turns the report into a gate: any non-OK reply or a fairness
// ratio above 10x exits nonzero (run_tier1.sh uses this as the serving-layer
// smoke). `--connect ENDPOINT` points both passes at an already-running
// atomfsd instead of an in-process server.
//
// The profile run also emits a top-level `txn` block: transaction commit
// throughput over the wire against a journaled TxnManager (TXBEGIN / writes /
// TXCOMMIT per connection, with a shared-file slice to exercise the
// conflict/retry path), then recovery time replaying 25% / 50% / 100%
// prefixes of the journal that load produced.
//
// A top-level `rcu_walk` block reports how the optimistic walk fared on a
// traced fileserver run of the default atomfs stack (no --monitor): the
// core.rcuwalk.* counters, the reads and all optimistic ops served and the
// derived `fallback_rate`. `--rcu-smoke` runs a short version as a gate
// instead: exit nonzero unless the optimistic path engaged (attempts > 0)
// with zero unvalidated walks and the counters account for every
// optimistic op (run_tier1.sh's rcu-walk smoke stage).
//
//   bench_server_throughput [--clients N]     concurrent clients (default 4)
//                           [--ops N]         filebench ops per client (default 800)
//                           [--profile fileserver|webproxy|both]   (default both)
//                           [--backend atomfs|biglock|retryfs|naive]
//                           [--transport unix|tcp]                 (default unix)
//                           [--monitor]       attach the CRL-H monitor too
//                           [--json PATH]     output file (default BENCH_server.json)
//                           [--rcu-smoke]     short rcu-walk gate; no JSON
//   pipeline mode:          [--connections M] concurrent connections
//                           [--pipeline N]    requests in flight per connection
//                           [--seconds S]     wall time per pass (default 2)
//                           [--connect unix:PATH|tcp:PORT]  use a running daemon
//                           [--check]         exit nonzero on non-OK / unfairness
//                           [--fairness-limit X]  max per-conn max/min ratio the
//                                             check allows (default 10; raise under
//                                             sanitizer instrumentation, where
//                                             scheduling skew is not meaningful)

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/biglock/big_lock_fs.h"
#include "src/client/client.h"
#include "src/core/atom_fs.h"
#include "src/crlh/monitor.h"
#include "src/journal/checkpoint.h"
#include "src/journal/wal.h"
#include "src/naive/naive_fs.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/tracer.h"
#include "src/retryfs/retry_fs.h"
#include "src/server/server.h"
#include "src/shard/sharded_fs.h"
#include "src/txn/txn.h"
#include "src/util/json.h"
#include "src/util/rand.h"
#include "src/util/stats.h"
#include "src/workload/filebench.h"

namespace atomfs {
namespace {

// The path-based ops a filebench worker can issue, for per-op bucketing.
enum OpKind : int {
  kOpMkdir,
  kOpMknod,
  kOpRmdir,
  kOpUnlink,
  kOpRename,
  kOpExchange,
  kOpStat,
  kOpReadDir,
  kOpRead,
  kOpWrite,
  kOpTruncate,
  kOpKindCount,
};

const char* OpKindName(int k) {
  static const char* kNames[kOpKindCount] = {"mkdir",  "mknod",    "rmdir", "unlink",
                                             "rename", "exchange", "stat",  "readdir",
                                             "read",   "write",    "truncate"};
  return kNames[k];
}

// FileSystem decorator that timestamps every call into shared registry
// histograms ("client.op.<kind>.latency_ns"). The registry shards by thread,
// and each client runs on its own thread, so recording stays contention-free.
class LatencyRecordingFs : public FileSystem {
 public:
  LatencyRecordingFs(FileSystem* inner, MetricsRegistry* registry) : inner_(inner) {
    for (int k = 0; k < kOpKindCount; ++k) {
      hist_[k] =
          registry->GetHistogram(std::string("client.op.") + OpKindName(k) + ".latency_ns");
    }
  }

  // Defined before its uses: auto return deduction needs the body in scope.
  template <typename Fn>
  auto Timed(int kind, Fn&& fn) {
    WallTimer timer;
    auto result = fn();
    hist_[kind].Record(timer.ElapsedNanos());
    return result;
  }

  Status Mkdir(const Path& p) override { return Timed(kOpMkdir, [&] { return inner_->Mkdir(p); }); }
  Status Mknod(const Path& p) override { return Timed(kOpMknod, [&] { return inner_->Mknod(p); }); }
  Status Rmdir(const Path& p) override { return Timed(kOpRmdir, [&] { return inner_->Rmdir(p); }); }
  Status Unlink(const Path& p) override {
    return Timed(kOpUnlink, [&] { return inner_->Unlink(p); });
  }
  Status Rename(const Path& s, const Path& d) override {
    return Timed(kOpRename, [&] { return inner_->Rename(s, d); });
  }
  Status Exchange(const Path& a, const Path& b) override {
    return Timed(kOpExchange, [&] { return inner_->Exchange(a, b); });
  }
  Result<Attr> Stat(const Path& p) override {
    return Timed(kOpStat, [&] { return inner_->Stat(p); });
  }
  Result<std::vector<DirEntry>> ReadDir(const Path& p) override {
    return Timed(kOpReadDir, [&] { return inner_->ReadDir(p); });
  }
  Result<size_t> Read(const Path& p, uint64_t off, std::span<std::byte> out) override {
    return Timed(kOpRead, [&] { return inner_->Read(p, off, out); });
  }
  Result<size_t> Write(const Path& p, uint64_t off, std::span<const std::byte> data) override {
    return Timed(kOpWrite, [&] { return inner_->Write(p, off, data); });
  }
  Status Truncate(const Path& p, uint64_t size) override {
    return Timed(kOpTruncate, [&] { return inner_->Truncate(p, size); });
  }

 private:
  FileSystem* inner_;
  Histogram hist_[kOpKindCount];
};

bool BackendObservable(const std::string& name) { return name == "atomfs" || name == "biglock"; }

std::unique_ptr<FileSystem> MakeBackend(const std::string& name, FsObserver* observer) {
  if (name == "atomfs") {
    AtomFs::Options o;
    o.observer = observer;
    return std::make_unique<AtomFs>(std::move(o));
  }
  if (name == "biglock") {
    BigLockFs::Options o;
    o.observer = observer;
    return std::make_unique<BigLockFs>(o);
  }
  if (name == "retryfs") {
    return std::make_unique<RetryFs>();
  }
  if (name == "naive") {
    return std::make_unique<NaiveFs>();
  }
  return nullptr;
}

struct ProfileResult {
  std::string name;
  bool traced = false;
  double wall_seconds = 0;
  uint64_t fs_calls = 0;
  uint64_t filebench_ops = 0;
  uint64_t worker_failures = 0;
  double ops_per_sec = 0;
  // Per-connection fairness: completed filebench ops on the least- and
  // most-served connection. A ratio far above 1 means the server starves
  // some connections under contention.
  uint64_t min_conn_ops = 0;
  uint64_t max_conn_ops = 0;
  // Client-side registry snapshot: client.op.<kind>.latency_ns histograms.
  MetricsSnapshot client;
  // Server-side registry, fetched over the wire with the METRICS op; carries
  // the lock-coupling profile and helper counters when `traced`.
  MetricsSnapshot remote;
  WireServerStats server;
};

ProfileResult RunProfile(const FilebenchProfile& profile, const std::string& backend,
                         const std::string& transport, int clients, uint64_t ops_per_client,
                         bool traced, bool with_monitor) {
  ProfileResult result;
  result.name = profile.name;
  result.traced = traced;

  // Server-side observability: the registry always backs the METRICS op; the
  // tracer (and optionally the CRL-H monitor) only attach on a traced pass.
  MetricsRegistry server_registry;
  std::unique_ptr<TracingObserver> tracer;
  std::unique_ptr<CrlhMonitor> monitor;
  std::unique_ptr<TeeObserver> tee;
  FsObserver* observer = nullptr;
  if (traced && BackendObservable(backend)) {
    tracer = std::make_unique<TracingObserver>(&server_registry, /*ring=*/nullptr);
    observer = tracer.get();
    if (with_monitor) {
      CrlhMonitor::Options mopts;
      mopts.obs = tracer.get();
      monitor = std::make_unique<CrlhMonitor>(mopts);
      tee = std::make_unique<TeeObserver>(monitor.get(), tracer.get());
      observer = tee.get();
    }
  }

  std::unique_ptr<FileSystem> fs = MakeBackend(backend, observer);
  const std::string sock_path =
      "/tmp/atomfs_bench_" + std::to_string(getpid()) + "_" + profile.name + ".sock";
  ServerOptions options;
  options.metrics = &server_registry;
  if (transport == "tcp") {
    options.tcp_listen = true;  // ephemeral port
  } else {
    options.unix_path = sock_path;
  }
  AtomFsServer server(fs.get(), options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "cannot start server for %s\n", profile.name.c_str());
    std::exit(1);
  }
  auto connect = [&]() {
    return transport == "tcp" ? AtomFsClient::ConnectTcp(server.BoundTcpPort())
                              : AtomFsClient::ConnectUnix(sock_path);
  };

  // Populate directly on the backend — setup is not what we measure.
  FilebenchSetup(*fs, profile, /*seed=*/7);

  MetricsRegistry client_registry;
  std::vector<std::unique_ptr<AtomFsClient>> conns;
  std::vector<std::unique_ptr<LatencyRecordingFs>> recorders;
  for (int c = 0; c < clients; ++c) {
    auto conn = connect();
    if (!conn.ok()) {
      std::fprintf(stderr, "client %d cannot connect\n", c);
      std::exit(1);
    }
    conns.push_back(std::move(*conn));
    recorders.push_back(
        std::make_unique<LatencyRecordingFs>(conns.back().get(), &client_registry));
  }

  std::vector<WorkerStats> worker_stats(static_cast<size_t>(clients));
  WallTimer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      worker_stats[static_cast<size_t>(c)] =
          FilebenchWorker(*recorders[static_cast<size_t>(c)], profile,
                          /*seed=*/1000 + static_cast<uint64_t>(c), ops_per_client);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  result.wall_seconds = wall.ElapsedSeconds();

  for (int c = 0; c < clients; ++c) {
    const uint64_t ops = worker_stats[static_cast<size_t>(c)].ops;
    result.filebench_ops += ops;
    result.worker_failures += worker_stats[static_cast<size_t>(c)].failures;
    result.min_conn_ops = c == 0 ? ops : std::min(result.min_conn_ops, ops);
    result.max_conn_ops = std::max(result.max_conn_ops, ops);
  }
  result.client = client_registry.Snapshot();
  for (const HistogramSnapshot& h : result.client.histograms) {
    result.fs_calls += h.count;
  }
  result.ops_per_sec = static_cast<double>(result.fs_calls) / result.wall_seconds;

  // Pull the server registry over the real wire — this is the same bytes an
  // operator would get from fsshell's `metrics` command.
  if (auto remote = conns.front()->FetchMetrics(); remote.ok()) {
    result.remote = std::move(*remote);
  } else {
    std::fprintf(stderr, "METRICS fetch failed for %s\n", profile.name.c_str());
    std::exit(1);
  }

  result.server = server.StatsSnapshot();
  server.Stop();

  if (monitor) {
    if (auto* atom = dynamic_cast<AtomFs*>(fs.get()); atom != nullptr) {
      monitor->CheckQuiescent(atom->SnapshotSpec());
    }
    if (!monitor->ok()) {
      std::fprintf(stderr, "CRL-H VIOLATIONS during %s:\n", profile.name.c_str());
      for (const auto& v : monitor->violations()) {
        std::fprintf(stderr, "  %s\n", v.c_str());
      }
      std::exit(1);
    }
    std::printf("monitor: every op linearizable (%llu helped)\n",
                static_cast<unsigned long long>(monitor->helped_ops()));
  }
  return result;
}

// The tracing-overhead experiment. Sequential untraced-then-traced passes
// cannot resolve a few-percent effect: every freshly built server gets its
// own allocation layout and scheduler luck, and pass-to-pass throughput
// varies by more than the tracer costs. So both servers are built ONCE —
// identical datasets, one untraced, one traced — and the load alternates
// between them in back-to-back slices driven with the same seeds. Layout
// differences freeze for the whole experiment, adjacent slices share the
// machine's conditions, and each pair yields one traced/untraced throughput
// ratio; the reported overhead comes from the median ratio. Both sides go
// through identical LatencyRecordingFs decorators so recorder cost cancels.
struct OverheadOutcome {
  ProfileResult traced;  // aggregated over the traced slices
  double untraced_ops_per_sec = 0;
  double overhead_pct = 0;
  double overhead_ns_per_op = 0;  // added machine time per FileSystem call
  int pairs = 0;
};

// The generic side of the harness: callers build the two FileSystem
// instances (with whatever observers/options the comparison is about) plus
// their server registries, and this drives the paired slices. Three
// instruments share it: the tracing experiment (side A bare, side B carrying
// a TracingObserver), the flight-recorder experiment (both sides traced,
// side B additionally streaming every event into a TraceRing) and the
// sharding experiment (side A a 1-shard ShardedFs, side B an N-shard one). `label_a`/`label_b` name the sides in the per-pair
// printout; `sock_tag` keeps concurrent experiments' sockets distinct.
// `setup`, when set, replaces the single-tree FilebenchSetup (the sharding
// experiment populates one tenant tree per client); `worker`, when set,
// replaces the plain FilebenchWorker slice body — it must be deterministic
// in (client, seed) so both sides' datasets stay byte-for-byte comparable.
using SliceWorker = std::function<WorkerStats(FileSystem& fs, int client, uint64_t seed)>;

OverheadOutcome RunPairedSliceExperiment(FileSystem* fs_a_raw, FileSystem* fs_b_raw,
                                         MetricsRegistry* registry_a_ptr,
                                         MetricsRegistry* registry_b_ptr,
                                         const char* sock_tag, const FilebenchProfile& profile,
                                         const std::string& transport, int clients,
                                         uint64_t ops_per_client, int pairs, const char* label_a,
                                         const char* label_b,
                                         const std::function<void(FileSystem&)>& setup = {},
                                         const SliceWorker& worker = {}) {
  const int kPairs = pairs;
  OverheadOutcome out;

  MetricsRegistry& registry_a = *registry_a_ptr;  // baseline server
  MetricsRegistry& registry_b = *registry_b_ptr;  // instrumented server

  const std::string sock_base =
      "/tmp/atomfs_bench_" + std::to_string(getpid()) + "_" + profile.name + sock_tag;

  struct Side {
    std::unique_ptr<AtomFsServer> server;
    std::string sock_path;
    MetricsRegistry client_registry;
    std::vector<std::unique_ptr<AtomFsClient>> conns;
    std::vector<std::unique_ptr<LatencyRecordingFs>> recorders;
    double wall = 0;
    uint64_t filebench_ops = 0;
    uint64_t failures = 0;
    std::vector<uint64_t> per_conn_ops;
  };
  Side side_a;
  Side side_b;

  auto start_side = [&](Side& side, FileSystem* fs, MetricsRegistry* registry,
                        const std::string& suffix) {
    ServerOptions options;
    options.metrics = registry;
    if (transport == "tcp") {
      options.tcp_listen = true;
    } else {
      side.sock_path = sock_base + suffix + ".sock";
      options.unix_path = side.sock_path;
    }
    side.server = std::make_unique<AtomFsServer>(fs, options);
    if (!side.server->Start().ok()) {
      std::fprintf(stderr, "cannot start overhead server for %s\n", profile.name.c_str());
      std::exit(1);
    }
    if (setup) {
      setup(*fs);
    } else {
      FilebenchSetup(*fs, profile, /*seed=*/7);
    }
    for (int c = 0; c < clients; ++c) {
      auto conn = transport == "tcp" ? AtomFsClient::ConnectTcp(side.server->BoundTcpPort())
                                     : AtomFsClient::ConnectUnix(side.sock_path);
      if (!conn.ok()) {
        std::fprintf(stderr, "overhead client %d cannot connect\n", c);
        std::exit(1);
      }
      side.conns.push_back(std::move(*conn));
      side.recorders.push_back(
          std::make_unique<LatencyRecordingFs>(side.conns.back().get(), &side.client_registry));
    }
  };
  start_side(side_a, fs_a_raw, &registry_a, "_a");
  start_side(side_b, fs_b_raw, &registry_b, "_b");

  // One slice = every client running the profile once against one side. The
  // same seeds drive both sides of a pair, so the two datasets stay
  // byte-for-byte comparable as the experiment mutates them.
  auto drive = [&](Side& side, uint64_t seed_base) {
    std::vector<WorkerStats> stats(static_cast<size_t>(clients));
    WallTimer wall;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        FileSystem& rec = *side.recorders[static_cast<size_t>(c)];
        const uint64_t seed = seed_base + static_cast<uint64_t>(c);
        stats[static_cast<size_t>(c)] =
            worker ? worker(rec, c, seed) : FilebenchWorker(rec, profile, seed, ops_per_client);
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    const double secs = wall.ElapsedSeconds();
    side.wall += secs;
    side.per_conn_ops.resize(static_cast<size_t>(clients), 0);
    for (int c = 0; c < clients; ++c) {
      const WorkerStats& s = stats[static_cast<size_t>(c)];
      side.filebench_ops += s.ops;
      side.failures += s.failures;
      side.per_conn_ops[static_cast<size_t>(c)] += s.ops;
    }
    return secs;
  };

  // One untimed warm-up slice per side, driven through the raw connections
  // so the client-side registries stay clean: a freshly built server's
  // first slice is dominated by cold caches and lazy allocation, which
  // would otherwise bias the first pair. The same seed mutates both
  // datasets identically.
  auto warm = [&](Side& side) {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        FileSystem& conn = *side.conns[static_cast<size_t>(c)];
        const uint64_t seed = 500 + static_cast<uint64_t>(c);
        if (worker) {
          worker(conn, c, seed);
        } else {
          FilebenchWorker(conn, profile, seed, ops_per_client);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  };
  warm(side_a);
  warm(side_b);

  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(pair) * 977;
    double wall_a = 0;
    double wall_b = 0;
    // Alternate which side goes first so drift inside a pair cancels too.
    if (pair % 2 == 0) {
      wall_a = drive(side_a, seed);
      wall_b = drive(side_b, seed);
    } else {
      wall_b = drive(side_b, seed);
      wall_a = drive(side_a, seed);
    }
    // Equal op counts per slice, so the throughput ratio is the wall ratio.
    ratios.push_back(wall_a / wall_b);
    std::printf("overhead pair %d: %s %.3fs %s %.3fs (%s/%s throughput %.3f)\n", pair, label_a,
                wall_a, label_b, wall_b, label_b, label_a, wall_a / wall_b);
  }

  std::sort(ratios.begin(), ratios.end());
  const double median_ratio = ratios[ratios.size() / 2];

  uint64_t calls_a = 0;
  for (const HistogramSnapshot& h : side_a.client_registry.Snapshot().histograms) {
    calls_a += h.count;
  }
  out.untraced_ops_per_sec = static_cast<double>(calls_a) / side_a.wall;
  out.overhead_pct = (1.0 - median_ratio) * 100.0;
  // The percentage depends on how much CPU an op costs on this machine (on a
  // single-core container every tracer nanosecond is throughput-critical);
  // the added time per op is the hardware-comparable number.
  out.overhead_ns_per_op =
      (1.0 / (out.untraced_ops_per_sec * median_ratio) - 1.0 / out.untraced_ops_per_sec) * 1e9;
  out.pairs = kPairs;

  ProfileResult& r = out.traced;
  r.name = profile.name;
  r.traced = true;
  r.wall_seconds = side_b.wall;
  r.filebench_ops = side_b.filebench_ops;
  r.worker_failures = side_b.failures;
  if (!side_b.per_conn_ops.empty()) {
    r.min_conn_ops = *std::min_element(side_b.per_conn_ops.begin(), side_b.per_conn_ops.end());
    r.max_conn_ops = *std::max_element(side_b.per_conn_ops.begin(), side_b.per_conn_ops.end());
  }
  r.client = side_b.client_registry.Snapshot();
  for (const HistogramSnapshot& h : r.client.histograms) {
    r.fs_calls += h.count;
  }
  // Ratio-consistent throughput so the JSON overhead field reproduces the
  // printed number exactly.
  r.ops_per_sec = out.untraced_ops_per_sec * median_ratio;
  if (auto remote = side_b.conns.front()->FetchMetrics(); remote.ok()) {
    r.remote = std::move(*remote);
  } else {
    std::fprintf(stderr, "METRICS fetch failed for %s\n", profile.name.c_str());
    std::exit(1);
  }
  r.server = side_b.server->StatsSnapshot();
  side_a.server->Stop();
  side_b.server->Stop();
  return out;
}

// The tracing / flight-recorder instruments: side A optionally traced
// (`baseline_traced`), side B always traced and optionally streaming into
// `ring`. Backends come from MakeBackend, so this covers atomfs and biglock.
OverheadOutcome RunOverheadExperiment(const FilebenchProfile& profile, const std::string& backend,
                                      const std::string& transport, int clients,
                                      uint64_t ops_per_client, bool baseline_traced,
                                      TraceRing* ring, const char* label_a,
                                      const char* label_b) {
  MetricsRegistry registry_a;
  MetricsRegistry registry_b;
  std::unique_ptr<TracingObserver> tracer_a;
  if (baseline_traced) {
    tracer_a = std::make_unique<TracingObserver>(&registry_a, /*ring=*/nullptr);
  }
  TracingObserver tracer(&registry_b, ring);
  std::unique_ptr<FileSystem> fs_a = MakeBackend(backend, tracer_a.get());
  std::unique_ptr<FileSystem> fs_b = MakeBackend(backend, &tracer);
  return RunPairedSliceExperiment(fs_a.get(), fs_b.get(), &registry_a, &registry_b,
                                  ring != nullptr ? "_ring" : "", profile, transport, clients,
                                  ops_per_client, /*pairs=*/9, label_a, label_b);
}

// --- rcu-walk counters ------------------------------------------------------

// RCU-walk is on in every AtomFs with inode locks, so there is no locked
// side left to compare against (perfbench's webproxy-lib carries the
// speedup). One traced fileserver run on the default atomfs stack reports
// how the optimistic walk fared: the core.rcuwalk.* counters, fetched over
// the wire like any METRICS reply, and the number of ops that walk
// optimistically — every single-path op: reads, and the mutators, whose
// validated walks are adopted — that the file system served. (The
// fileserver profile never creates or removes the root itself, the one
// single-path case that fails before it walks.)
struct RcuWalkOutcome {
  double fallback_rate = 0;  // fallbacks / optimistic ops
  double ops_per_sec = 0;
  uint64_t reads = 0;           // stat + readdir + read ops served
  uint64_t optimistic_ops = 0;  // reads + mkdir/mknod/rmdir/unlink/write/truncate
  uint64_t attempts = 0;  // OptimisticAttempt calls, retries included
  uint64_t validation_failures = 0;
  uint64_t fallbacks = 0;
  uint64_t unvalidated_reads = 0;  // must be 0: the unsafe hook is test-only
  uint64_t worker_failures = 0;
};

RcuWalkOutcome RunRcuWalk(const std::string& transport, int clients, uint64_t ops_per_client) {
  const ProfileResult r = RunProfile(FilebenchProfile::Fileserver(), "atomfs", transport, clients,
                                     ops_per_client, /*traced=*/true, /*with_monitor=*/false);
  RcuWalkOutcome rw;
  rw.ops_per_sec = r.ops_per_sec;
  rw.worker_failures = r.worker_failures;
  const MetricsSnapshot& remote = r.remote;
  auto served = [&remote](const char* kind) -> uint64_t {
    const HistogramSnapshot* h =
        remote.FindHistogram("fs.op." + std::string(kind) + ".latency_ns");
    return h != nullptr ? h->count : 0;
  };
  for (const char* kind : {"stat", "readdir", "read"}) {
    rw.reads += served(kind);
  }
  rw.optimistic_ops = rw.reads;
  for (const char* kind : {"mkdir", "mknod", "rmdir", "unlink", "write", "truncate"}) {
    rw.optimistic_ops += served(kind);
  }
  rw.attempts = remote.CounterValue("core.rcuwalk.attempts");
  rw.validation_failures = remote.CounterValue("core.rcuwalk.validation_failures");
  rw.fallbacks = remote.CounterValue("core.rcuwalk.fallbacks");
  rw.unvalidated_reads = remote.CounterValue("core.rcuwalk.unvalidated_reads");
  rw.fallback_rate = rw.optimistic_ops > 0 ? static_cast<double>(rw.fallbacks) /
                                                 static_cast<double>(rw.optimistic_ops)
                                           : 0.0;
  return rw;
}

void PrintRcuWalk(const RcuWalkOutcome& rw) {
  std::printf(
      "rcu walk: %llu optimistic op(s), %llu of them read(s), at %.0f ops/sec; %llu attempt(s), "
      "%llu validation failure(s), %llu fallback(s) (fallback rate %.4f), %llu unvalidated "
      "walk(s)\n",
      static_cast<unsigned long long>(rw.optimistic_ops),
      static_cast<unsigned long long>(rw.reads), rw.ops_per_sec,
      static_cast<unsigned long long>(rw.attempts),
      static_cast<unsigned long long>(rw.validation_failures),
      static_cast<unsigned long long>(rw.fallbacks), rw.fallback_rate,
      static_cast<unsigned long long>(rw.unvalidated_reads));
}

void JsonRcuWalk(JsonWriter& json, const RcuWalkOutcome& rw) {
  json.Key("rcu_walk").BeginObject();
  json.Field("fallback_rate", rw.fallback_rate);
  json.Field("ops_per_sec", rw.ops_per_sec);
  json.Field("reads", rw.reads);
  json.Field("optimistic_ops", rw.optimistic_ops);
  json.Field("attempts", rw.attempts);
  json.Field("validation_failures", rw.validation_failures);
  json.Field("fallbacks", rw.fallbacks);
  json.Field("unvalidated_reads", rw.unvalidated_reads);
  json.Field("worker_failures", rw.worker_failures);
  json.EndObject();
}

// The --rcu-smoke gate (run_tier1.sh): on the default stack the optimistic
// path must engage, never bypass validation, and account for every
// optimistic op: each ends in exactly one pass (a validated miss and a
// mutator's adoption included) or one fallback, and each failed attempt
// (a retracted read or withdrawn adoption included) is an interior retry,
// so attempts - validation_failures + fallbacks == optimistic ops.
int RcuSmokeGate(const RcuWalkOutcome& rw) {
  int rc = 0;
  if (rw.attempts == 0) {
    std::fprintf(stderr, "RCU SMOKE FAILED: no optimistic walk attempts recorded\n");
    rc = 1;
  }
  if (rw.unvalidated_reads != 0) {
    std::fprintf(stderr,
                 "RCU SMOKE FAILED: %llu unvalidated optimistic walk(s) — the unsafe "
                 "skip-validation hook must never be live outside tests\n",
                 static_cast<unsigned long long>(rw.unvalidated_reads));
    rc = 1;
  }
  if (rw.attempts - rw.validation_failures + rw.fallbacks != rw.optimistic_ops) {
    std::fprintf(stderr,
                 "RCU SMOKE FAILED: attempts - validation_failures + fallbacks = %llu, "
                 "but %llu optimistic op(s) were served\n",
                 static_cast<unsigned long long>(rw.attempts - rw.validation_failures +
                                                 rw.fallbacks),
                 static_cast<unsigned long long>(rw.optimistic_ops));
    rc = 1;
  }
  if (rw.worker_failures != 0) {
    std::fprintf(stderr, "RCU SMOKE FAILED: %llu failed filebench op(s)\n",
                 static_cast<unsigned long long>(rw.worker_failures));
    rc = 1;
  }
  if (rc == 0) {
    std::printf(
        "rcu smoke: ok (%llu attempts for %llu optimistic ops, %llu of them reads, 0 "
        "unvalidated walks)\n",
        static_cast<unsigned long long>(rw.attempts),
        static_cast<unsigned long long>(rw.optimistic_ops),
        static_cast<unsigned long long>(rw.reads));
  }
  return rc;
}

// --- sharding experiment -----------------------------------------------------

// Namespace-scaling: the same multi-tenant fileserver load — one tenant tree
// per client, tenant roots spread round-robin over the shards, plus a <5%
// cross-shard rename mix — drives a 1-shard ShardedFs (side A: every tenant
// serialized through one AtomFs) against an N-shard one (side B). The
// paired-slice median ratio is the scaling factor at N; side B's migration
// counters show how much of the load ran the two-shard commit protocol.
struct ShardingPoint {
  uint32_t shards = 1;
  double ops_per_sec = 0;
  double speedup = 0;  // vs the 1-shard side of the same experiment
  uint64_t migrations_completed = 0;
  uint64_t migrations_aborted = 0;
  uint64_t cross_shard_help_edges = 0;
  uint64_t stale_route_retries = 0;
  uint64_t worker_failures = 0;
  int pairs = 0;
};

struct ShardingOutcome {
  std::vector<ShardingPoint> points;  // shards = 1, then each requested N
  double cross_shard_mix_pct = 0;
};

ShardingOutcome RunShardingExperiment(const std::string& transport, int clients,
                                      uint64_t ops_per_client,
                                      const std::vector<uint32_t>& shard_counts, int pairs) {
  ShardingOutcome out;

  // One scaled-down fileserver tree per client: the worker mix is the
  // fileserver personality, the sizes shrink so per-side setup stays a small
  // fraction of the measured slices.
  FilebenchProfile base = FilebenchProfile::Fileserver();
  base.dirs = 32;
  base.files = 1000;

  // Per slice each client runs `ops_per_client` filebench ops on its own
  // tenant, then `cross_pairs` rename round-trips into the next client's
  // tenant — 2*cross_pairs/(ops+2*cross_pairs) of the slice, kept under 5%.
  const uint64_t cross_pairs = std::max<uint64_t>(1, ops_per_client / 64);
  out.cross_shard_mix_pct = 100.0 * static_cast<double>(2 * cross_pairs) /
                            static_cast<double>(ops_per_client + 2 * cross_pairs);

  for (const uint32_t n : shard_counts) {
    // Tenant roots chosen so client c's tenant homes on shard c % n (the
    // router hash is stable, so scanning candidate names terminates fast).
    ShardRouter router(n);
    std::vector<std::string> roots;
    int candidate = 0;
    for (int c = 0; c < clients; ++c) {
      const uint32_t want = static_cast<uint32_t>(c) % n;
      for (;; ++candidate) {
        const std::string name = "t" + std::to_string(candidate);
        if (router.Route(name) == want) {
          roots.push_back("/" + name);
          ++candidate;
          break;
        }
      }
    }
    std::vector<FilebenchProfile> tenants;
    for (int c = 0; c < clients; ++c) {
      FilebenchProfile p = base;
      p.root = roots[static_cast<size_t>(c)];
      tenants.push_back(std::move(p));
    }

    auto setup = [&](FileSystem& fs) {
      for (int c = 0; c < clients; ++c) {
        FilebenchSetup(fs, tenants[static_cast<size_t>(c)], /*seed=*/7);
      }
    };
    // Deterministic in (client, seed) so both sides' datasets stay
    // comparable: a file already deleted by this client's own filebench
    // pass fails its rename identically on both sides.
    auto worker = [&](FileSystem& fs, int c, uint64_t seed) {
      WorkerStats st = FilebenchWorker(fs, tenants[static_cast<size_t>(c)], seed, ops_per_client);
      const std::string& src_root = roots[static_cast<size_t>(c)];
      const std::string& dst_root = roots[static_cast<size_t>((c + 1) % clients)];
      Rng rng(seed * 0x9e3779b9ULL + static_cast<uint64_t>(c));
      for (uint64_t k = 0; k < cross_pairs; ++k) {
        const uint32_t idx = static_cast<uint32_t>(rng.Below(base.files));
        const std::string src = src_root + "/d" + std::to_string(idx % base.dirs) + "/f" +
                                std::to_string(idx);
        const std::string parked =
            dst_root + "/x" + std::to_string(c) + "_" + std::to_string(k);
        ++st.ops;
        if (!fs.Rename(src, parked).ok()) {
          ++st.failures;
          continue;
        }
        ++st.ops;
        if (!fs.Rename(parked, src).ok()) {
          ++st.failures;
        }
      }
      return st;
    };

    MetricsRegistry registry_a;
    MetricsRegistry registry_b;
    ShardedFs::Options oa;
    oa.shards = 1;
    oa.record_history = false;  // throughput run; nothing replays this
    ShardedFs::Options ob;
    ob.shards = n;
    ob.record_history = false;
    ob.metrics = &registry_b;
    auto fs_a = std::make_unique<ShardedFs>(std::move(oa));
    auto fs_b = std::make_unique<ShardedFs>(std::move(ob));
    const std::string tag = "_shard" + std::to_string(n);
    const std::string label_b = std::to_string(n) + "-shard";
    const OverheadOutcome res = RunPairedSliceExperiment(
        fs_a.get(), fs_b.get(), &registry_a, &registry_b, tag.c_str(), base, transport, clients,
        ops_per_client, pairs, "1-shard", label_b.c_str(), setup, worker);

    if (out.points.empty()) {
      ShardingPoint p1;
      p1.shards = 1;
      p1.ops_per_sec = res.untraced_ops_per_sec;
      p1.speedup = 1.0;
      p1.pairs = res.pairs;
      out.points.push_back(p1);
    }
    ShardingPoint p;
    p.shards = n;
    p.ops_per_sec = res.traced.ops_per_sec;
    p.speedup =
        res.untraced_ops_per_sec > 0 ? res.traced.ops_per_sec / res.untraced_ops_per_sec : 0;
    p.migrations_completed = fs_b->migrations_completed();
    p.migrations_aborted = fs_b->migrations_aborted();
    p.cross_shard_help_edges = fs_b->cross_shard_help_edges();
    p.stale_route_retries = fs_b->stale_route_retries();
    p.worker_failures = res.traced.worker_failures;
    p.pairs = res.pairs;
    out.points.push_back(p);
    std::printf(
        "sharding %u: %.2fx 1-shard throughput (%.0f vs %.0f ops/sec, median over %d pairs); "
        "%llu migration(s), %llu aborted, %llu cross-shard help edge(s), %llu stale retrie(s)\n",
        n, p.speedup, p.ops_per_sec, res.untraced_ops_per_sec, p.pairs,
        static_cast<unsigned long long>(p.migrations_completed),
        static_cast<unsigned long long>(p.migrations_aborted),
        static_cast<unsigned long long>(p.cross_shard_help_edges),
        static_cast<unsigned long long>(p.stale_route_retries));
  }
  return out;
}

void JsonSharding(JsonWriter& json, const ShardingOutcome& sh, int clients) {
  json.Key("sharding").BeginObject();
  json.Field("profile", "fileserver");
  json.Field("tenants", static_cast<uint64_t>(clients));
  json.Field("cross_shard_mix_pct", sh.cross_shard_mix_pct);
  json.Key("points").BeginArray();
  for (const ShardingPoint& p : sh.points) {
    json.BeginObject();
    json.Field("shards", static_cast<uint64_t>(p.shards));
    json.Field("ops_per_sec", p.ops_per_sec);
    json.Field("speedup", p.speedup);
    json.Field("migrations_completed", p.migrations_completed);
    json.Field("migrations_aborted", p.migrations_aborted);
    json.Field("cross_shard_help_edges", p.cross_shard_help_edges);
    json.Field("stale_route_retries", p.stale_route_retries);
    json.Field("worker_failures", p.worker_failures);
    json.Field("pairs", static_cast<uint64_t>(p.pairs));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

void PrintProfile(const ProfileResult& r, int clients) {
  std::printf("\n=== %s%s: %d client(s), %llu wire calls in %s s => %.0f ops/sec ===\n",
              r.name.c_str(), r.traced ? "" : " (untraced baseline)", clients,
              static_cast<unsigned long long>(r.fs_calls), FormatSeconds(r.wall_seconds).c_str(),
              r.ops_per_sec);
  std::printf("%-10s %10s %10s %10s %10s %10s\n", "op", "count", "mean_us", "p50_us", "p99_us",
              "p999_us");
  auto us = [](uint64_t ns) { return static_cast<double>(ns) / 1000.0; };
  for (int k = 0; k < kOpKindCount; ++k) {
    const HistogramSnapshot* h =
        r.client.FindHistogram(std::string("client.op.") + OpKindName(k) + ".latency_ns");
    if (h == nullptr || h->count == 0) {
      continue;
    }
    std::printf("%-10s %10llu %10.1f %10.1f %10.1f %10.1f\n", OpKindName(k),
                static_cast<unsigned long long>(h->count), h->Mean() / 1000.0,
                us(h->Percentile(0.50)), us(h->Percentile(0.99)), us(h->Percentile(0.999)));
  }
  std::printf("server: %llu connection(s), %llu protocol error(s)\n",
              static_cast<unsigned long long>(r.server.connections_accepted),
              static_cast<unsigned long long>(r.server.protocol_errors));
  if (const uint64_t acq = r.remote.CounterValue("lock.acquires"); acq > 0) {
    std::printf("lock coupling: %llu acquire(s); per-depth hold-time p99:\n",
                static_cast<unsigned long long>(acq));
    for (unsigned d = 1; d <= kMaxTrackedDepth; ++d) {
      char name[48];
      std::snprintf(name, sizeof(name), "lock.depth%02u.hold_ns", d);
      const HistogramSnapshot* h = r.remote.FindHistogram(name);
      if (h == nullptr || h->count == 0) {
        continue;
      }
      std::printf("  depth %2u: count=%-8llu hold p99=%.1fus\n", d,
                  static_cast<unsigned long long>(h->count), us(h->Percentile(0.99)));
    }
  }
  if (const uint64_t helps = r.remote.CounterValue("crlh.help_events"); helps > 0) {
    std::printf("helpers: %llu help event(s), %llu helped op(s)\n",
                static_cast<unsigned long long>(helps),
                static_cast<unsigned long long>(r.remote.CounterValue("crlh.helped_ops")));
  }
}

// Emits count/mean/p50/p99/p999 fields from a registry histogram.
void JsonHistogram(JsonWriter& json, const HistogramSnapshot& h) {
  json.Field("count", h.count);
  json.Field("mean_ns", h.Mean());
  json.Field("p50_ns", h.Percentile(0.50));
  json.Field("p99_ns", h.Percentile(0.99));
  json.Field("p999_ns", h.Percentile(0.999));
}

// `ghost`, when non-null, is the flight-recorder overhead experiment's
// outcome (tracer-without-ring vs tracer-with-ring) riding along on the
// same profile entry.
void JsonProfile(JsonWriter& json, const ProfileResult& r, double untraced_ops_per_sec,
                 const OverheadOutcome* ghost = nullptr, uint64_t ghost_ring_events = 0,
                 uint64_t ghost_ring_appended = 0) {
  json.BeginObject();
  json.Field("name", r.name);
  json.Field("traced", r.traced);
  json.Field("wall_seconds", r.wall_seconds);
  json.Field("fs_calls", r.fs_calls);
  json.Field("filebench_ops", r.filebench_ops);
  json.Field("worker_failures", r.worker_failures);
  json.Field("ops_per_sec", r.ops_per_sec);
  if (untraced_ops_per_sec > 0) {
    json.Field("ops_per_sec_untraced", untraced_ops_per_sec);
    json.Field("tracing_overhead_pct",
               (untraced_ops_per_sec - r.ops_per_sec) / untraced_ops_per_sec * 100.0);
    // Added machine time per FileSystem call — comparable across hosts,
    // unlike the percentage, whose denominator is this machine's CPU cost
    // per op (see the RunOverheadExperiment comment).
    json.Field("tracing_overhead_ns_per_op",
               (1.0 / r.ops_per_sec - 1.0 / untraced_ops_per_sec) * 1e9);
  }
  if (ghost != nullptr) {
    // Marginal cost of the flight-recorder ring on top of an already-traced
    // server: same paired-slice methodology, both sides carrying a
    // TracingObserver, side B streaming every event into the ghost ring.
    json.Key("flight_recorder").BeginObject();
    json.Field("ring_events", ghost_ring_events);
    json.Field("ring_events_appended", ghost_ring_appended);
    json.Field("ops_per_sec_recorder_off", ghost->untraced_ops_per_sec);
    json.Field("ops_per_sec_recorder_on", ghost->traced.ops_per_sec);
    json.Field("ghost_overhead_pct", ghost->overhead_pct);
    json.Field("ghost_overhead_ns_per_op", ghost->overhead_ns_per_op);
    json.Field("pairs", static_cast<uint64_t>(ghost->pairs));
    json.EndObject();
  }
  json.Field("server_connections", r.server.connections_accepted);
  json.Field("server_protocol_errors", r.server.protocol_errors);
  json.Field("min_conn_ops", r.min_conn_ops);
  json.Field("max_conn_ops", r.max_conn_ops);
  json.Field("fairness_ratio", r.min_conn_ops > 0 ? static_cast<double>(r.max_conn_ops) /
                                                        static_cast<double>(r.min_conn_ops)
                                                  : 0.0);

  json.Key("per_op").BeginArray();
  for (int k = 0; k < kOpKindCount; ++k) {
    const HistogramSnapshot* h =
        r.client.FindHistogram(std::string("client.op.") + OpKindName(k) + ".latency_ns");
    if (h == nullptr || h->count == 0) {
      continue;
    }
    json.BeginObject();
    json.Field("op", OpKindName(k));
    JsonHistogram(json, *h);
    json.EndObject();
  }
  json.EndArray();

  // Lock-coupling profile from the server registry (over the wire). Only
  // present on traced passes against observer-capable backends.
  json.Field("lock_acquires", r.remote.CounterValue("lock.acquires"));
  json.Field("lock_releases", r.remote.CounterValue("lock.releases"));
  json.Key("lock_depths").BeginArray();
  for (unsigned d = 1; d <= kMaxTrackedDepth; ++d) {
    char hold[48];
    char step[48];
    std::snprintf(hold, sizeof(hold), "lock.depth%02u.hold_ns", d);
    std::snprintf(step, sizeof(step), "lock.depth%02u.step_ns", d);
    const HistogramSnapshot* hh = r.remote.FindHistogram(hold);
    if (hh == nullptr || hh->count == 0) {
      continue;
    }
    json.BeginObject();
    json.Field("depth", static_cast<uint64_t>(d));
    json.Field("hold_count", hh->count);
    json.Field("hold_mean_ns", hh->Mean());
    json.Field("hold_p99_ns", hh->Percentile(0.99));
    if (const HistogramSnapshot* hs = r.remote.FindHistogram(step);
        hs != nullptr && hs->count > 0) {
      json.Field("step_mean_ns", hs->Mean());
      json.Field("step_p99_ns", hs->Percentile(0.99));
    }
    json.EndObject();
  }
  json.EndArray();

  json.Key("helpers").BeginObject();
  json.Field("help_events", r.remote.CounterValue("crlh.help_events"));
  json.Field("helped_ops", r.remote.CounterValue("crlh.helped_ops"));
  json.Field("rollback_checks", r.remote.CounterValue("crlh.rollback_checks"));
  json.Field("rolled_back_ops", r.remote.CounterValue("crlh.rolled_back_ops"));
  if (const HistogramSnapshot* h = r.remote.FindHistogram("crlh.help_set_size");
      h != nullptr && h->count > 0) {
    json.Field("help_set_size_mean", h->Mean());
  }
  json.EndObject();

  json.EndObject();
}

// --- transaction mode --------------------------------------------------------

// The txn block of BENCH_server.json: commit throughput through a journaled
// TxnManager over the real wire, then recovery time as a function of journal
// length, replayed from prefixes of the very journal the load produced.
struct TxnConnStats {
  uint64_t commits = 0;
  uint64_t conflicts = 0;
  uint64_t ops = 0;  // path ops committed inside transactions
  uint64_t failures = 0;
  bool connect_failed = false;
};

TxnConnStats RunTxnConn(const std::string& endpoint, int conn_index,
                        std::chrono::steady_clock::time_point deadline) {
  TxnConnStats st;
  auto client = AtomFsClient::Connect(endpoint);
  if (!client.ok()) {
    st.connect_failed = true;
    return st;
  }
  AtomFsClient& c = **client;
  const std::string dir = "/txbench_c" + std::to_string(conn_index);
  if (!c.Mkdir(dir).ok()) {
    ++st.failures;
    return st;
  }
  uint64_t round = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!c.TxBegin().ok()) {
      ++st.failures;
      break;
    }
    // Four private writes per transaction; every eighth transaction also
    // touches a shared file so the run exercises (and prices) the
    // conflict/retry path instead of only the embarrassingly parallel one.
    bool ok = true;
    uint64_t ops = 0;
    for (int k = 0; k < 4 && ok; ++k, ++ops) {
      ok = WriteString(c, dir + "/f" + std::to_string(k), "txn payload " +
                       std::to_string(round)).ok();
    }
    if (ok && round % 8 == 0) {
      ok = WriteString(c, "/txbench_shared", "round " + std::to_string(round)).ok();
      ++ops;
    }
    if (!ok) {
      ++st.failures;
      (void)c.TxAbort();
      continue;
    }
    const Status commit = c.TxCommit();
    if (commit.ok()) {
      ++st.commits;
      st.ops += ops;
    } else if (commit.code() == Errc::kTxConflict) {
      ++st.conflicts;  // whole-transaction retry is the contract; just loop
    } else {
      ++st.failures;
    }
    ++round;
  }
  return st;
}

void RunTxnExperiment(JsonWriter& json, int connections, double seconds) {
  const std::string journal =
      "/tmp/atomfs_bench_txn_" + std::to_string(getpid()) + ".wal";
  std::remove(journal.c_str());

  AtomFs fs;
  TxnManager::Options topt;
  topt.inner = &fs;
  topt.wal_path = journal;
  topt.record_commit_log = true;  // the checkpointed recovery curve replays it
  TxnManager txn(topt);
  const std::string sock_path =
      "/tmp/atomfs_bench_txn_" + std::to_string(getpid()) + ".sock";
  ServerOptions options;
  options.unix_path = sock_path;
  options.txn = &txn;
  AtomFsServer server(&txn, options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "cannot start txn-mode server\n");
    std::exit(1);
  }
  const std::string endpoint = "unix:" + sock_path;

  std::vector<TxnConnStats> stats(static_cast<size_t>(connections));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000.0));
  WallTimer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back(
        [&, c] { stats[static_cast<size_t>(c)] = RunTxnConn(endpoint, c, deadline); });
  }
  for (auto& t : threads) {
    t.join();
  }
  const double wall_seconds = wall.ElapsedSeconds();
  server.Stop();

  TxnConnStats total;
  for (const TxnConnStats& s : stats) {
    total.commits += s.commits;
    total.conflicts += s.conflicts;
    total.ops += s.ops;
    total.failures += s.failures;
    total.connect_failed = total.connect_failed || s.connect_failed;
  }
  if (total.connect_failed || total.failures > 0 || total.commits == 0) {
    std::fprintf(stderr, "txn experiment failed (%llu failure(s), %llu commit(s))\n",
                 static_cast<unsigned long long>(total.failures),
                 static_cast<unsigned long long>(total.commits));
    std::exit(1);
  }
  const double commits_per_sec = static_cast<double>(total.commits) / wall_seconds;
  std::printf("\n=== txn: %d connection(s), %.1fs => %.0f commits/sec "
              "(%llu commits, %llu conflicts, %llu committed ops) ===\n",
              connections, wall_seconds, commits_per_sec,
              static_cast<unsigned long long>(total.commits),
              static_cast<unsigned long long>(total.conflicts),
              static_cast<unsigned long long>(total.ops));

  // Recovery cost vs journal length, from the journal this very load wrote:
  // replay the longest prefix ending at 25% / 50% / 100% of its records.
  std::string bytes;
  {
    std::ifstream in(journal, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>{});
  }
  const WalScan scan = ScanWalBytes(bytes);
  if (scan.records.empty()) {
    std::fprintf(stderr, "txn experiment produced an empty journal\n");
    std::exit(1);
  }

  json.Key("txn").BeginObject();
  json.Field("connections", static_cast<uint64_t>(connections));
  json.Field("wall_seconds", wall_seconds);
  json.Field("commits", total.commits);
  json.Field("conflicts", total.conflicts);
  json.Field("committed_ops", total.ops);
  json.Field("commits_per_sec", commits_per_sec);
  json.Field("committed_ops_per_sec", static_cast<double>(total.ops) / wall_seconds);
  json.Field("conflict_pct",
             static_cast<double>(total.conflicts) /
                 static_cast<double>(total.commits + total.conflicts) * 100.0);
  json.Field("journal_bytes", static_cast<uint64_t>(bytes.size()));
  json.Field("journal_records", static_cast<uint64_t>(scan.records.size()));
  json.Key("recovery").BeginArray();
  for (const double frac : {0.25, 0.5, 1.0}) {
    const size_t idx =
        std::min(scan.records.size() - 1,
                 static_cast<size_t>(static_cast<double>(scan.records.size()) * frac) == 0
                     ? 0
                     : static_cast<size_t>(static_cast<double>(scan.records.size()) * frac) - 1);
    const std::string_view prefix(bytes.data(), scan.records[idx].end_offset);
    AtomFs replay;
    WallTimer timer;
    const WalRecoveryStats rstats = RecoverWalBytes(prefix, replay);
    const double ms = static_cast<double>(timer.ElapsedNanos()) / 1e6;
    std::printf("recovery %3.0f%%: %8llu bytes, %6llu unit(s), %6llu op(s) in %.2f ms\n",
                frac * 100.0, static_cast<unsigned long long>(prefix.size()),
                static_cast<unsigned long long>(rstats.committed),
                static_cast<unsigned long long>(rstats.applied_ops), ms);
    json.BeginObject();
    json.Field("journal_fraction", frac);
    json.Field("bytes", static_cast<uint64_t>(prefix.size()));
    json.Field("committed_units", rstats.committed);
    json.Field("replayed_ops", rstats.applied_ops);
    json.Field("recover_ms", ms);
    json.EndObject();
  }
  json.EndArray();

  // The same curve under checkpointing + compaction: re-journal the first k
  // committed units through a fresh TxnManager that checkpoints every 64 KiB
  // of WAL, then time full journal recovery (newest checkpoint + suffix,
  // RecoverJournal). This is the compaction claim in numbers: recovery cost
  // tracks the checkpoint interval and the live state's size, not history
  // length, so the 100% point stays flat against the 25% point instead of 4x.
  const std::vector<CommitDescriptor> commit_log = txn.commit_log();
  const std::string rec_path = journal + ".rec";
  auto remove_rec_files = [&rec_path] {
    for (const std::string& p : {rec_path, PrevWalPath(rec_path), CheckpointPath(rec_path),
                                 PrevCheckpointPath(rec_path), TmpCheckpointPath(rec_path)}) {
      std::remove(p.c_str());
    }
  };
  json.Key("recovery_checkpointed").BeginArray();
  for (const double frac : {0.25, 0.5, 1.0}) {
    const size_t units = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(commit_log.size()) * frac));
    remove_rec_files();
    MetricsRegistry rec_metrics;
    uint64_t checkpoints = 0;
    {
      AtomFs rec_inner;
      TxnManager::Options ropt;
      ropt.inner = &rec_inner;
      ropt.wal_path = rec_path;
      ropt.metrics = &rec_metrics;
      ropt.checkpoint_bytes = 64 << 10;
      TxnManager rec(ropt);
      bool ok = true;
      for (size_t u = 0; u < units && ok; ++u) {
        auto id = rec.Begin();
        ok = id.ok();
        for (const OpCall& op : commit_log[u].ops) {
          if (!ok) {
            break;
          }
          ok = rec.Apply(*id, op).status.ok();
        }
        ok = ok && rec.Commit(*id).ok();
      }
      if (!ok) {
        std::fprintf(stderr, "checkpointed re-journal failed\n");
        std::exit(1);
      }
      checkpoints = rec.checkpoints_taken();
    }
    const MetricsSnapshot rsnap = rec_metrics.Snapshot();
    const HistogramSnapshot* ckpt_ms = rsnap.FindHistogram("journal.checkpoint.ms");
    const double checkpoint_ms_total =
        ckpt_ms != nullptr ? ckpt_ms->Mean() * static_cast<double>(ckpt_ms->count) : 0.0;
    uint64_t live_wal_bytes = 0;
    {
      std::ifstream in(rec_path, std::ios::binary | std::ios::ate);
      live_wal_bytes = in.good() ? static_cast<uint64_t>(in.tellg()) : 0;
    }
    AtomFs replay;
    WallTimer timer;
    auto rstats = RecoverJournal(rec_path, replay);
    const double ms = static_cast<double>(timer.ElapsedNanos()) / 1e6;
    if (!rstats.ok()) {
      std::fprintf(stderr, "checkpointed recovery failed\n");
      std::exit(1);
    }
    std::printf("recovery+ckpt %3.0f%%: %6llu unit(s), %3llu checkpoint(s) "
                "(%.2f ms writing them), %6llu ckpt op(s) + %6llu WAL op(s), "
                "%8llu live WAL byte(s), recovered in %.2f ms\n",
                frac * 100.0, static_cast<unsigned long long>(units),
                static_cast<unsigned long long>(checkpoints), checkpoint_ms_total,
                static_cast<unsigned long long>(rstats->checkpoint_ops),
                static_cast<unsigned long long>(rstats->wal.applied_ops),
                static_cast<unsigned long long>(live_wal_bytes), ms);
    json.BeginObject();
    json.Field("history_fraction", frac);
    json.Field("committed_units", static_cast<uint64_t>(units));
    json.Field("checkpoints", checkpoints);
    json.Field("checkpoint_ms_total", checkpoint_ms_total);
    json.Field("checkpoint_bytes",
               rsnap.CounterValue("journal.checkpoint.bytes"));
    json.Field("checkpoint_ops", rstats->checkpoint_ops);
    json.Field("wal_replayed_ops", rstats->wal.applied_ops);
    json.Field("live_wal_bytes", live_wal_bytes);
    json.Field("recover_ms", ms);
    json.EndObject();
  }
  json.EndArray();
  remove_rec_files();
  json.EndObject();
  std::remove(journal.c_str());
}

// --- pipeline mode -----------------------------------------------------------

struct PipeConnStats {
  uint64_t ops = 0;     // completed (replied-to) requests
  uint64_t non_ok = 0;  // replies that carried an error status
  bool connect_failed = false;
};

// One connection's closed loop: submit `depth` requests, flush, wait for all
// replies, repeat until the deadline. Each connection works its own file so
// the passes measure the serving layer, not directory contention, and the
// dir name carries the pass depth so back-to-back passes never collide.
PipeConnStats RunPipelineConn(const std::string& endpoint, int depth, int conn_index,
                              std::chrono::steady_clock::time_point deadline) {
  PipeConnStats st;
  auto client = AtomFsClient::Connect(endpoint);
  if (!client.ok()) {
    st.connect_failed = true;
    return st;
  }
  AtomFsClient& c = **client;
  const std::string dir =
      "/pipebench_d" + std::to_string(depth) + "_c" + std::to_string(conn_index);
  const std::string file = dir + "/f";
  if (!c.Mkdir(dir).ok() || !c.Mknod(file).ok() ||
      !WriteString(c, file, "pipelined payload").ok()) {
    ++st.non_ok;
    return st;
  }

  std::vector<std::byte> blob(64);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::byte>(i);
  }
  ClientSession& session = c.session();
  std::vector<ClientSession::Future> futures;
  futures.reserve(static_cast<size_t>(depth));
  uint64_t seq = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    futures.clear();
    for (int k = 0; k < depth; ++k, ++seq) {
      WireRequest req;
      req.path_a = file;
      switch (seq % 3) {
        case 0:
          req.op = WireOp::kStat;
          break;
        case 1:
          req.op = WireOp::kRead;
          req.offset = 0;
          req.count = 16;
          break;
        default:
          req.op = WireOp::kWrite;
          req.offset = 0;
          req.data = blob;
          break;
      }
      futures.push_back(session.Submit(req));
    }
    if (!session.Flush().ok()) {
      st.non_ok += static_cast<uint64_t>(depth);
      break;
    }
    for (ClientSession::Future& f : futures) {
      ++st.ops;
      if (!f.Wait().ok()) {
        ++st.non_ok;
      }
    }
  }
  return st;
}

struct PipelinePass {
  int depth = 0;
  double wall_seconds = 0;
  uint64_t total_ops = 0;
  uint64_t non_ok = 0;
  uint64_t min_conn_ops = 0;
  uint64_t max_conn_ops = 0;
  double ops_per_sec = 0;
  double fairness_ratio = 0;  // max/min; 0 when a connection finished no op
  bool connect_failures = false;
};

PipelinePass RunPipelinePass(const std::string& endpoint, int connections, int depth,
                             double seconds) {
  PipelinePass pass;
  pass.depth = depth;
  std::vector<PipeConnStats> stats(static_cast<size_t>(connections));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000.0));
  WallTimer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      stats[static_cast<size_t>(c)] = RunPipelineConn(endpoint, depth, c, deadline);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  pass.wall_seconds = wall.ElapsedSeconds();
  for (int c = 0; c < connections; ++c) {
    const PipeConnStats& s = stats[static_cast<size_t>(c)];
    pass.total_ops += s.ops;
    pass.non_ok += s.non_ok;
    pass.connect_failures = pass.connect_failures || s.connect_failed;
    pass.min_conn_ops = c == 0 ? s.ops : std::min(pass.min_conn_ops, s.ops);
    pass.max_conn_ops = std::max(pass.max_conn_ops, s.ops);
  }
  pass.ops_per_sec = static_cast<double>(pass.total_ops) / pass.wall_seconds;
  if (pass.min_conn_ops > 0) {
    pass.fairness_ratio =
        static_cast<double>(pass.max_conn_ops) / static_cast<double>(pass.min_conn_ops);
  }
  return pass;
}

void JsonPipelinePass(JsonWriter& json, const char* key, const PipelinePass& p) {
  json.Key(key).BeginObject();
  json.Field("pipeline", static_cast<uint64_t>(p.depth));
  json.Field("wall_seconds", p.wall_seconds);
  json.Field("total_ops", p.total_ops);
  json.Field("non_ok_replies", p.non_ok);
  json.Field("ops_per_sec", p.ops_per_sec);
  json.Field("min_conn_ops", p.min_conn_ops);
  json.Field("max_conn_ops", p.max_conn_ops);
  json.Field("fairness_ratio", p.fairness_ratio);
  json.EndObject();
}

int RunPipelineMode(int connections, int pipeline, double seconds, const std::string& connect,
                    const std::string& backend, bool with_monitor, const std::string& json_path,
                    bool check, double fairness_limit) {
  // Either point at a running daemon or stand a server up in-process.
  std::string endpoint = connect;
  MetricsRegistry registry;
  std::unique_ptr<TracingObserver> tracer;
  std::unique_ptr<CrlhMonitor> monitor;
  std::unique_ptr<TeeObserver> tee;
  std::unique_ptr<FileSystem> fs;
  std::unique_ptr<AtomFsServer> server;
  std::string sock_path;
  if (endpoint.empty()) {
    FsObserver* observer = nullptr;
    if (BackendObservable(backend)) {
      tracer = std::make_unique<TracingObserver>(&registry, /*ring=*/nullptr);
      observer = tracer.get();
      if (with_monitor) {
        CrlhMonitor::Options mopts;
        mopts.obs = tracer.get();
        monitor = std::make_unique<CrlhMonitor>(mopts);
        tee = std::make_unique<TeeObserver>(monitor.get(), tracer.get());
        observer = tee.get();
      }
    }
    fs = MakeBackend(backend, observer);
    sock_path = "/tmp/atomfs_pipebench_" + std::to_string(getpid()) + ".sock";
    ServerOptions options;
    options.unix_path = sock_path;
    options.metrics = &registry;
    server = std::make_unique<AtomFsServer>(fs.get(), options);
    if (!server->Start().ok()) {
      std::fprintf(stderr, "cannot start pipeline-mode server\n");
      return 1;
    }
    endpoint = "unix:" + sock_path;
  }

  std::printf("pipeline mode: %d connection(s), depth %d, %.1fs per pass, endpoint %s\n",
              connections, pipeline, seconds, endpoint.c_str());
  const PipelinePass unpipelined = RunPipelinePass(endpoint, connections, 1, seconds);
  const PipelinePass pipelined = pipeline > 1
                                     ? RunPipelinePass(endpoint, connections, pipeline, seconds)
                                     : unpipelined;
  const double speedup =
      unpipelined.ops_per_sec > 0 ? pipelined.ops_per_sec / unpipelined.ops_per_sec : 0;

  auto print_pass = [](const char* label, const PipelinePass& p) {
    std::printf("%-12s depth=%-3d %8llu ops in %.2fs => %9.0f ops/sec  per-conn min=%llu "
                "max=%llu fairness=%.2fx non_ok=%llu\n",
                label, p.depth, static_cast<unsigned long long>(p.total_ops), p.wall_seconds,
                p.ops_per_sec, static_cast<unsigned long long>(p.min_conn_ops),
                static_cast<unsigned long long>(p.max_conn_ops), p.fairness_ratio,
                static_cast<unsigned long long>(p.non_ok));
  };
  print_pass("unpipelined", unpipelined);
  print_pass("pipelined", pipelined);
  std::printf("pipelining speedup: %.2fx\n", speedup);

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", "server_pipeline");
  json.Field("endpoint", endpoint);
  json.Field("connections", static_cast<uint64_t>(connections));
  json.Field("pipeline", static_cast<uint64_t>(pipeline));
  json.Field("seconds_per_pass", seconds);
  JsonPipelinePass(json, "unpipelined", unpipelined);
  JsonPipelinePass(json, "pipelined", pipelined);
  json.Field("speedup", speedup);
  json.EndObject();
  if (!json.WriteFile(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  int rc = 0;
  if (check) {
    if (unpipelined.connect_failures || pipelined.connect_failures) {
      std::fprintf(stderr, "CHECK FAILED: connection failures\n");
      rc = 1;
    }
    if (unpipelined.non_ok + pipelined.non_ok > 0) {
      std::fprintf(stderr, "CHECK FAILED: %llu non-OK repl(y/ies)\n",
                   static_cast<unsigned long long>(unpipelined.non_ok + pipelined.non_ok));
      rc = 1;
    }
    if (pipelined.fairness_ratio > fairness_limit || pipelined.fairness_ratio == 0.0) {
      std::fprintf(stderr, "CHECK FAILED: fairness ratio %.2f (min=%llu max=%llu)\n",
                   pipelined.fairness_ratio,
                   static_cast<unsigned long long>(pipelined.min_conn_ops),
                   static_cast<unsigned long long>(pipelined.max_conn_ops));
      rc = 1;
    }
  }

  if (server) {
    server->Stop();
  }
  if (monitor) {
    if (auto* atom = dynamic_cast<AtomFs*>(fs.get()); atom != nullptr) {
      monitor->CheckQuiescent(atom->SnapshotSpec());
    }
    if (!monitor->ok()) {
      std::fprintf(stderr, "CRL-H VIOLATIONS under pipelined load:\n");
      for (const auto& v : monitor->violations()) {
        std::fprintf(stderr, "  %s\n", v.c_str());
      }
      return 1;
    }
    std::printf("monitor: every op linearizable (%llu helped)\n",
                static_cast<unsigned long long>(monitor->helped_ops()));
  }
  return rc;
}

}  // namespace
}  // namespace atomfs

int main(int argc, char** argv) {
  using namespace atomfs;

  int clients = 4;
  uint64_t ops_per_client = 800;
  std::string profile_arg = "both";
  std::string backend = "atomfs";
  std::string transport = "unix";
  std::string json_path = "BENCH_server.json";
  bool with_monitor = false;
  int connections = 0;
  int pipeline = 0;
  double seconds = 2.0;
  std::string connect;
  bool check = false;
  bool rcu_smoke = false;
  double fairness_limit = 10.0;

  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) { return std::strcmp(argv[i], name) == 0; };
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg("--clients")) {
      clients = std::atoi(next());
    } else if (arg("--connections")) {
      connections = std::atoi(next());
    } else if (arg("--pipeline")) {
      pipeline = std::atoi(next());
    } else if (arg("--seconds")) {
      seconds = std::atof(next());
    } else if (arg("--connect")) {
      connect = next();
    } else if (arg("--check")) {
      check = true;
    } else if (arg("--rcu-smoke")) {
      rcu_smoke = true;
    } else if (arg("--fairness-limit")) {
      fairness_limit = std::atof(next());
    } else if (arg("--ops")) {
      ops_per_client = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg("--profile")) {
      profile_arg = next();
    } else if (arg("--backend")) {
      backend = next();
    } else if (arg("--transport")) {
      transport = next();
    } else if (arg("--monitor")) {
      with_monitor = true;
    } else if (arg("--json")) {
      // PATH is optional: bare --json (or --json followed by another flag)
      // keeps the default output name.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        json_path = next();
      }
    } else {
      std::fprintf(stderr, "unknown option %s (see header comment for usage)\n", argv[i]);
      return 2;
    }
  }
  if (MakeBackend(backend, nullptr) == nullptr) {
    std::fprintf(stderr, "unknown backend %s\n", backend.c_str());
    return 2;
  }

  // --rcu-smoke: the tier-1 gate. A short traced run; exits nonzero unless
  // the optimistic path engaged, every optimistic read was validated and the
  // counters account for every read. No JSON output — this mode is a check,
  // not a measurement.
  if (rcu_smoke) {
    const RcuWalkOutcome rw = RunRcuWalk(transport, clients, ops_per_client);
    PrintRcuWalk(rw);
    return RcuSmokeGate(rw);
  }

  // --connections / --pipeline select the pipelined-serving mode; the
  // filebench profile machinery below is bypassed entirely.
  if (connections > 0 || pipeline > 0) {
    if (connections <= 0) {
      connections = 4;
    }
    if (pipeline <= 0) {
      pipeline = 8;
    }
    return RunPipelineMode(connections, pipeline, seconds, connect, backend, with_monitor,
                           json_path, check, fairness_limit);
  }

  std::vector<FilebenchProfile> profiles;
  if (profile_arg == "fileserver" || profile_arg == "both") {
    profiles.push_back(FilebenchProfile::Fileserver());
  }
  if (profile_arg == "webproxy" || profile_arg == "both") {
    profiles.push_back(FilebenchProfile::Webproxy());
  }
  if (profiles.empty()) {
    std::fprintf(stderr, "unknown profile %s\n", profile_arg.c_str());
    return 2;
  }

  std::printf("atomfsd throughput: backend=%s transport=%s clients=%d ops/client=%llu\n",
              backend.c_str(), transport.c_str(), clients,
              static_cast<unsigned long long>(ops_per_client));

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", "server_throughput");
  json.Field("backend", backend);
  json.Field("transport", transport);
  json.Field("clients", clients);
  json.Field("ops_per_client", ops_per_client);
  json.Key("profiles").BeginArray();

  for (const FilebenchProfile& profile : profiles) {
    // The fileserver profile doubles as the tracing-overhead experiment
    // (see RunOverheadExperiment). The comparison is only meaningful when
    // the two sides differ in nothing but the tracer, so --monitor (which
    // serializes every event on the ghost mutex and runs the invariant
    // checkers) suppresses it rather than billing verification cost to the
    // tracing layer.
    const bool measure_overhead =
        profile.name == "fileserver" && BackendObservable(backend) && !with_monitor;
    double untraced_ops_per_sec = 0;
    ProfileResult r;
    bool have_ghost = false;
    OverheadOutcome ghost;
    constexpr size_t kGhostRingEvents = 1 << 16;
    uint64_t ghost_appended = 0;
    if (measure_overhead) {
      OverheadOutcome outcome =
          RunOverheadExperiment(profile, backend, transport, clients, ops_per_client,
                                /*baseline_traced=*/false, /*ring=*/nullptr,
                                "untraced", "traced");
      r = std::move(outcome.traced);
      untraced_ops_per_sec = outcome.untraced_ops_per_sec;
      PrintProfile(r, clients);
      std::printf(
          "tracing overhead: %.2f%% of single-core throughput = %.0f ns per op "
          "(median paired-slice ratio over %d pairs; untraced %.0f ops/sec)\n",
          outcome.overhead_pct, outcome.overhead_ns_per_op, outcome.pairs, untraced_ops_per_sec);
      // Second instrument, same methodology: what does the flight-recorder
      // ring add on top of a server that is already traced? Both sides run
      // a TracingObserver; side B streams every event into the ghost ring.
      TraceRing ring(kGhostRingEvents);
      ghost = RunOverheadExperiment(profile, backend, transport, clients, ops_per_client,
                                    /*baseline_traced=*/true, &ring, "recorder-off",
                                    "recorder-on");
      have_ghost = true;
      ghost_appended = ring.total_appended();
      std::printf(
          "flight-recorder overhead: %.2f%% = %.0f ns per op on top of tracing "
          "(median over %d pairs; %llu event(s) recorded into a %zu-event ring)\n",
          ghost.overhead_pct, ghost.overhead_ns_per_op, ghost.pairs,
          static_cast<unsigned long long>(ghost_appended), kGhostRingEvents);
    } else {
      r = RunProfile(profile, backend, transport, clients, ops_per_client,
                     /*traced=*/true, with_monitor);
      PrintProfile(r, clients);
      if (profile.name == "fileserver" && with_monitor) {
        std::printf(
            "tracing overhead: not measured under --monitor (verification cost dominates)\n");
      }
    }
    JsonProfile(json, r, untraced_ops_per_sec, have_ghost ? &ghost : nullptr,
                kGhostRingEvents, ghost_appended);
  }

  json.EndArray();

  // The rcu_walk block: the optimistic read path's counters on the
  // fileserver profile (see RunRcuWalk). The monitor's event serialization
  // would change what it measures, so --monitor suppresses it; it is also
  // atomfs-specific.
  if (backend == "atomfs" && !with_monitor &&
      (profile_arg == "fileserver" || profile_arg == "both")) {
    const RcuWalkOutcome rw = RunRcuWalk(transport, clients, ops_per_client);
    PrintRcuWalk(rw);
    JsonRcuWalk(json, rw);
  }

  // The sharding block: multi-tenant fileserver scaling on ShardedFs at
  // shard counts 1/2/4 with a <5% cross-shard rename mix (see
  // RunShardingExperiment). Unmonitored by construction — the monitored
  // cross-shard protocol is covered by shard_test and tools/shard_smoke.sh.
  if (backend == "atomfs" && !with_monitor &&
      (profile_arg == "fileserver" || profile_arg == "both")) {
    const ShardingOutcome sh =
        RunShardingExperiment(transport, clients, ops_per_client, {2, 4}, /*pairs=*/5);
    JsonSharding(json, sh, clients);
  }

  // The txn block: commit throughput through a journaled TxnManager over the
  // wire, plus recovery time vs journal length (see RunTxnExperiment).
  RunTxnExperiment(json, clients, /*seconds=*/1.0);

  json.EndObject();
  if (!json.WriteFile(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
