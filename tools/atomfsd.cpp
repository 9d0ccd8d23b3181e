// atomfsd: the AtomFS network daemon.
//
//   atomfsd --unix PATH            listen on a Unix-domain socket
//           --tcp PORT             listen on 127.0.0.1:PORT (0 = ephemeral)
//           --backend atomfs|biglock|retryfs|naive   (default atomfs)
//           --fs-shards N          serve a sharded namespace: N independent
//                                  AtomFs instances behind the first-component
//                                  router (src/shard); cross-shard renames run
//                                  the helped two-shard commit. Requires
//                                  --backend atomfs; with --monitor every
//                                  shard gets its own CRL-H monitor and the
//                                  namespace-level checks gate the exit code
//           --shards N             event-loop shards (default 2); each
//                                  runs its connections' requests to
//                                  completion on its own thread
//           --max-inflight N       largest per-connection pipeline window a
//                                  HELLO may negotiate (default 128)
//           --idle-timeout MS      reap idle/half-open connections after MS
//                                  milliseconds (default 0 = never)
//           --monitor              attach the CRL-H runtime to the served
//                                  instance (atomfs/biglock only); the
//                                  daemon's exit code then reflects the
//                                  verification verdict
//           --metrics-dump        print the atomtrace metrics dump (text
//                                  form of the METRICS op) at shutdown
//           --trace-ring N         trace ring capacity in events (default
//                                  65536; 0 disables the ring)
//           --trace-out FILE       write the flight-recorder ring as Chrome
//                                  trace-event / Perfetto JSON at shutdown
//                                  (and on SIGUSR2)
//           --prom-dump            print the metrics registry in Prometheus
//                                  text format at shutdown
//           --bundle-out FILE      with --monitor: if a violation is found,
//                                  write a post-mortem bundle replayable by
//                                  `atomfs_verify --bundle FILE`
//           --journal FILE         write-ahead journal (atomfs backend only):
//                                  committed history is recovered from FILE
//                                  (newest valid checkpoint + WAL suffix, torn
//                                  tails repaired) before serving, every
//                                  mutation is logged through a TxnManager,
//                                  and the wire ops TXBEGIN/TXCOMMIT/TXABORT/
//                                  CHECKPOINT become available
//           --journal-fsync        fdatasync the journal at every commit
//                                  point: committed history survives power
//                                  loss, not just process death (slower)
//           --checkpoint-bytes N   checkpoint + rotate the journal once the
//                                  live WAL file exceeds N bytes (0 = never)
//           --checkpoint-units N   checkpoint + rotate after N committed
//                                  units (transactions + direct ops; 0 =
//                                  never). SIGHUP forces a checkpoint at any
//                                  time, as does the wire CHECKPOINT op
//
// Observability: the daemon always carries an atomtrace metrics registry —
// the wire METRICS op serves its full snapshot — and, for observer-capable
// backends (atomfs/biglock), a TracingObserver feeding per-op latency,
// lock-coupling hold/step histograms, and (with --monitor) helper/Helplist
// counters into it. SIGUSR1 prints the current dump to stdout at any time;
// SIGUSR2 prints a Prometheus scrape to stdout and refreshes --trace-out;
// --metrics-dump prints the dump once more at shutdown. The flight-recorder
// ring is also served live over the wire (TRACE and PROM admin ops).
//
// At least one of --unix/--tcp is required. SIGINT/SIGTERM trigger a
// graceful shutdown: listeners close, in-flight connections are drained,
// per-op latency stats are printed, and — with --monitor — the refinement /
// invariant verdict decides the exit code.

#include <poll.h>
#include <signal.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/biglock/big_lock_fs.h"
#include "src/core/atom_fs.h"
#include "src/crlh/bundle.h"
#include "src/crlh/monitor.h"
#include "src/obs/export.h"
#include "src/naive/naive_fs.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/tracer.h"
#include "src/retryfs/retry_fs.h"
#include "src/server/server.h"
#include "src/shard/sharded_fs.h"
#include "src/txn/txn.h"

namespace {

// Async-signal-safety: the handlers only set a sig_atomic_t flag and poke an
// eventfd (write(2) is on the async-signal-safe list); all formatting and
// I/O — in particular the SIGUSR1 metrics dump, which takes the registry
// mutex and allocates — happens on the main thread's event loop, never in
// signal context.
volatile sig_atomic_t g_stop = 0;
volatile sig_atomic_t g_dump = 0;
volatile sig_atomic_t g_dump2 = 0;  // SIGUSR2: Prometheus + trace refresh
volatile sig_atomic_t g_ckpt = 0;   // SIGHUP: checkpoint + compact the journal
int g_wake_fd = -1;  // eventfd; written by handlers, drained by the loop

void WakeLoop() {
  const uint64_t one = 1;
  // Best-effort: if the eventfd write fails the flags are still seen on the
  // loop's next wakeup.
  [[maybe_unused]] ssize_t n = write(g_wake_fd, &one, sizeof one);
}

void OnSignal(int) { g_stop = 1; WakeLoop(); }
void OnDumpSignal(int) { g_dump = 1; WakeLoop(); }
void OnDump2Signal(int) { g_dump2 = 1; WakeLoop(); }
void OnCkptSignal(int) { g_ckpt = 1; WakeLoop(); }

// Writes the flight-recorder ring to `path` as Chrome trace-event JSON.
// Main-thread only (allocates, takes no locks the ring cares about).
void WriteTraceFile(const atomfs::TraceRing& ring, const std::string& path) {
  const std::string json = atomfs::ExportChromeTrace(ring.Snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "atomfsd: cannot open %s: %s\n", path.c_str(), std::strerror(errno));
    return;
  }
  std::fputs(json.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("atomfsd: wrote %zu trace byte(s) to %s\n", json.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atomfs;

  ServerOptions options;
  std::string backend = "atomfs";
  int fs_shards = 0;
  bool monitor_requested = false;
  bool metrics_dump = false;
  size_t trace_ring_events = 1 << 16;
  std::string trace_out;
  bool prom_dump = false;
  std::string bundle_out;
  std::string journal_path;
  bool journal_fsync = false;
  uint64_t checkpoint_bytes = 0;
  uint64_t checkpoint_units = 0;

  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) { return std::strcmp(argv[i], name) == 0; };
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg("--unix")) {
      options.unix_path = next();
    } else if (arg("--tcp")) {
      options.tcp_listen = true;
      options.tcp_port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg("--backend")) {
      backend = next();
    } else if (arg("--fs-shards")) {
      fs_shards = std::atoi(next());
    } else if (arg("--shards")) {
      options.shards = std::atoi(next());
    } else if (arg("--max-inflight")) {
      options.max_inflight = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg("--idle-timeout")) {
      options.idle_timeout_ms = static_cast<uint32_t>(std::atoi(next()));
    } else if (arg("--monitor")) {
      monitor_requested = true;
    } else if (arg("--metrics-dump")) {
      metrics_dump = true;
    } else if (arg("--trace-ring")) {
      trace_ring_events = static_cast<size_t>(std::atoll(next()));
    } else if (arg("--trace-out")) {
      trace_out = next();
    } else if (arg("--prom-dump")) {
      prom_dump = true;
    } else if (arg("--bundle-out")) {
      bundle_out = next();
    } else if (arg("--journal")) {
      journal_path = next();
    } else if (arg("--journal-fsync")) {
      journal_fsync = true;
    } else if (arg("--checkpoint-bytes")) {
      checkpoint_bytes = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg("--checkpoint-units")) {
      checkpoint_units = static_cast<uint64_t>(std::atoll(next()));
    } else {
      std::fprintf(stderr, "unknown option %s (see header comment for usage)\n", argv[i]);
      return 2;
    }
  }
  if (options.unix_path.empty() && !options.tcp_listen) {
    std::fprintf(stderr, "atomfsd: need --unix PATH and/or --tcp PORT\n");
    return 2;
  }
  if (fs_shards < 0) {
    std::fprintf(stderr, "atomfsd: --fs-shards must be >= 1\n");
    return 2;
  }
  if (fs_shards > 0 && backend != "atomfs") {
    std::fprintf(stderr, "atomfsd: --fs-shards requires --backend atomfs\n");
    return 2;
  }
  if (fs_shards > 0 && !journal_path.empty()) {
    // The WAL recovers into one AtomFs inum space; the router splits the
    // namespace across several. Sharded durability is future work.
    std::fprintf(stderr, "atomfsd: --fs-shards and --journal are mutually exclusive\n");
    return 2;
  }

  // The observability spine: one registry serves the METRICS op, the server
  // stats, and (when the backend supports FsObserver) the lock-coupling
  // profiler fed by the TracingObserver.
  MetricsRegistry registry;
  std::unique_ptr<TraceRing> ring;
  if (trace_ring_events > 0) {
    ring = std::make_unique<TraceRing>(trace_ring_events);
  }
  const bool backend_observable = backend == "atomfs" || backend == "biglock";
  std::unique_ptr<TracingObserver> tracer;
  if (backend_observable) {
    tracer = std::make_unique<TracingObserver>(&registry, ring.get());
  }

  std::unique_ptr<CrlhMonitor> monitor;
  if (monitor_requested) {
    if (!backend_observable) {
      std::fprintf(stderr, "atomfsd: --monitor requires --backend atomfs or biglock\n");
      return 2;
    }
    if (fs_shards == 0) {
      // Sharded serving builds one monitor per shard inside ShardedFs instead.
      CrlhMonitor::Options mopts;
      mopts.obs = tracer.get();
      monitor = std::make_unique<CrlhMonitor>(mopts);
    }
  }

  // Observer chain: monitor first (it checks), tracer second (it measures).
  FsObserver* observer = tracer.get();
  std::unique_ptr<TeeObserver> tee;
  if (monitor && tracer) {
    tee = std::make_unique<TeeObserver>(monitor.get(), tracer.get());
    observer = tee.get();
  } else if (monitor) {
    observer = monitor.get();
  }

  std::unique_ptr<FileSystem> fs;
  AtomFs* atom_fs = nullptr;      // for the quiescent check at shutdown
  ShardedFs* sharded = nullptr;   // ditto, namespace-level checks
  if (fs_shards > 0) {
    ShardedFs::Options o;
    o.shards = static_cast<uint32_t>(fs_shards);
    o.monitored = monitor_requested;
    o.monitor.obs = tracer.get();
    o.extra_observer = tracer.get();
    o.obs = tracer.get();
    o.metrics = &registry;
    auto owned = std::make_unique<ShardedFs>(std::move(o));
    sharded = owned.get();
    fs = std::move(owned);
  } else if (backend == "atomfs") {
    AtomFs::Options o;
    o.observer = observer;
    auto owned = std::make_unique<AtomFs>(std::move(o));
    atom_fs = owned.get();
    fs = std::move(owned);
  } else if (backend == "biglock") {
    BigLockFs::Options o;
    o.observer = observer;
    fs = std::make_unique<BigLockFs>(o);
  } else if (backend == "retryfs") {
    fs = std::make_unique<RetryFs>();
  } else if (backend == "naive") {
    fs = std::make_unique<NaiveFs>();
  } else {
    std::fprintf(stderr, "atomfsd: unknown backend %s\n", backend.c_str());
    return 2;
  }

  // Transactions + durability: recover committed history from the journal
  // into the backend, then serve through a TxnManager so every mutation —
  // direct or transactional — is write-ahead logged and conflict-tracked.
  std::unique_ptr<TxnManager> txn;
  if (!journal_path.empty()) {
    if (atom_fs == nullptr) {
      std::fprintf(stderr, "atomfsd: --journal requires --backend atomfs\n");
      return 2;
    }
    // Repair mode: interrupted checkpoint rotations are completed and torn
    // WAL tails truncated, so the reopened journal appends after a clean
    // prefix instead of burying new records behind unreadable bytes.
    auto recovered = RecoverJournal(journal_path, *atom_fs, /*repair=*/true);
    if (!recovered.ok() && recovered.status().code() != Errc::kNoEnt) {
      std::fprintf(stderr, "atomfsd: journal recovery from %s failed: %s\n",
                   journal_path.c_str(), ErrcName(recovered.status().code()).data());
      return 1;
    }
    if (recovered.ok()) {
      std::printf(
          "atomfsd: recovered %llu op(s) in %llu committed unit(s) from %s%s%s%s\n",
          static_cast<unsigned long long>(recovered->wal.applied_ops + recovered->checkpoint_ops),
          static_cast<unsigned long long>(recovered->committed_units), journal_path.c_str(),
          recovered->used_checkpoint
              ? (recovered->fell_back_to_prev ? " (checkpoint base, fell back to .ckpt.prev)"
                                              : " (checkpoint base)")
              : "",
          recovered->wal.torn_tail ? " (torn tail discarded)" : "",
          recovered->wal.discarded > 0 ? " (open txns at the tail dropped)" : "");
    }
    TxnManager::Options topt;
    topt.inner = fs.get();
    topt.wal_path = journal_path;
    topt.metrics = &registry;
    topt.trace_ring = ring.get();
    topt.initial = atom_fs->SnapshotSpec();
    topt.fsync_commits = journal_fsync;
    topt.checkpoint_bytes = checkpoint_bytes;
    topt.checkpoint_units = checkpoint_units;
    if (recovered.ok()) {
      topt.recovered = &*recovered;
    }
    txn = std::make_unique<TxnManager>(std::move(topt));
  }

  options.metrics = &registry;
  options.trace_ring = ring.get();
  options.txn = txn.get();
  AtomFsServer server(txn != nullptr ? static_cast<FileSystem*>(txn.get()) : fs.get(), options);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "atomfsd: failed to start: %s\n", ErrcName(st.code()).data());
    return 1;
  }

  // The wake eventfd must exist before any handler can run.
  g_wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (g_wake_fd < 0) {
    std::fprintf(stderr, "atomfsd: eventfd: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa{};
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = OnSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sa.sa_handler = OnDumpSignal;
  sigaction(SIGUSR1, &sa, nullptr);
  sa.sa_handler = OnDump2Signal;
  sigaction(SIGUSR2, &sa, nullptr);
  sa.sa_handler = OnCkptSignal;
  sigaction(SIGHUP, &sa, nullptr);

  if (!trace_out.empty() && ring == nullptr) {
    std::fprintf(stderr, "atomfsd: --trace-out needs a trace ring (--trace-ring > 0)\n");
  }
  if (!bundle_out.empty() && monitor == nullptr && !(sharded != nullptr && monitor_requested)) {
    std::fprintf(stderr, "atomfsd: --bundle-out has no effect without --monitor\n");
  }

  std::printf("atomfsd: serving %s%s%s%s on", backend.c_str(),
              monitor != nullptr || (sharded != nullptr && monitor_requested) ? " (monitored)"
                                                                              : "",
              tracer ? " (traced)" : "", txn ? " (journaled)" : "");
  if (sharded != nullptr) {
    std::printf(" [%u namespace shard(s)]", sharded->shard_count());
  }
  if (!options.unix_path.empty()) {
    std::printf(" unix:%s", options.unix_path.c_str());
  }
  if (options.tcp_listen) {
    std::printf(" tcp:%u", server.BoundTcpPort());
  }
  std::printf(" shards=%d max_inflight=%u\n", options.shards, options.max_inflight);
  std::fflush(stdout);

  // Event loop: block on the wake eventfd (no sleep-polling), consume the
  // flags the handlers set. Dumps run here, on the main thread, with a live
  // registry — signal context never touches it.
  while (!g_stop) {
    pollfd pfd{g_wake_fd, POLLIN, 0};
    const int pn = poll(&pfd, 1, -1);
    if (pn < 0 && errno != EINTR) {
      break;
    }
    uint64_t junk = 0;
    while (read(g_wake_fd, &junk, sizeof junk) > 0) {
    }
    if (g_dump) {
      g_dump = 0;
      std::fputs(registry.Snapshot().ToText().c_str(), stdout);
      std::fflush(stdout);
    }
    if (g_ckpt) {
      g_ckpt = 0;
      if (txn != nullptr) {
        const Status st = txn->TakeCheckpoint();
        if (st.ok()) {
          std::printf("atomfsd: journal checkpointed + compacted (%llu total)\n",
                      static_cast<unsigned long long>(txn->checkpoints_taken()));
        } else {
          std::fprintf(stderr, "atomfsd: checkpoint failed: %s\n", ErrcName(st.code()).data());
        }
        std::fflush(stdout);
      } else {
        std::fprintf(stderr, "atomfsd: SIGHUP checkpoint ignored (no --journal)\n");
      }
    }
    if (g_dump2) {
      g_dump2 = 0;
      std::fputs(PrometheusText(registry.Snapshot()).c_str(), stdout);
      std::fflush(stdout);
      if (!trace_out.empty() && ring != nullptr) {
        WriteTraceFile(*ring, trace_out);
      }
    }
  }
  server.Stop();
  close(g_wake_fd);

  const WireServerStats stats = server.StatsSnapshot();
  std::printf("atomfsd: shut down; %llu connection(s), %llu protocol error(s)\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.protocol_errors));
  for (const WireOpStats& s : stats.ops) {
    std::printf("  %-10s count=%-8llu mean=%lluns p50=%lluns p99=%lluns p99.9=%lluns\n",
                WireOpName(static_cast<WireOp>(s.op)).data(),
                static_cast<unsigned long long>(s.count),
                static_cast<unsigned long long>(s.mean_ns),
                static_cast<unsigned long long>(s.p50_ns),
                static_cast<unsigned long long>(s.p99_ns),
                static_cast<unsigned long long>(s.p999_ns));
  }
  if (metrics_dump) {
    std::fputs(registry.Snapshot().ToText().c_str(), stdout);
  }
  if (prom_dump) {
    std::fputs(PrometheusText(registry.Snapshot()).c_str(), stdout);
  }
  if (ring != nullptr) {
    std::printf("atomfsd: trace ring retained %zu of %llu event(s)\n", ring->Snapshot().size(),
                static_cast<unsigned long long>(ring->total_appended()));
    if (!trace_out.empty()) {
      WriteTraceFile(*ring, trace_out);
    }
  }

  if (sharded != nullptr) {
    // Namespace-level verdict: leftover staging entries, each shard monitor's
    // quiescent check, then the cross-shard migration counters for the log.
    sharded->CheckQuiescent();
    std::printf(
        "atomfsd: sharded namespace: %llu migration(s) committed, %llu aborted, "
        "%llu cross-shard help edge(s), %llu stale-route retrie(s)\n",
        static_cast<unsigned long long>(sharded->migrations_completed()),
        static_cast<unsigned long long>(sharded->migrations_aborted()),
        static_cast<unsigned long long>(sharded->cross_shard_help_edges()),
        static_cast<unsigned long long>(sharded->stale_route_retries()));
    if (!sharded->ok()) {
      std::printf("atomfsd: CRL-H VIOLATIONS:\n");
      for (const auto& v : sharded->violations()) {
        std::printf("  %s\n", v.c_str());
      }
      if (!bundle_out.empty()) {
        if (auto pm = sharded->PostMortemState(); pm.has_value()) {
          const PostMortemBundle bundle = BuildPostMortemBundle(
              *pm, ring != nullptr ? ring->Snapshot() : std::vector<TraceEvent>{});
          const std::string text = FormatBundle(bundle);
          if (std::FILE* f = std::fopen(bundle_out.c_str(), "w"); f != nullptr) {
            std::fputs(text.c_str(), f);
            std::fclose(f);
            std::printf("atomfsd: wrote post-mortem bundle to %s "
                        "(replay: atomfs_verify --bundle %s)\n",
                        bundle_out.c_str(), bundle_out.c_str());
          } else {
            std::fprintf(stderr, "atomfsd: cannot open %s: %s\n", bundle_out.c_str(),
                         std::strerror(errno));
          }
        }
      }
      return 1;
    }
    if (monitor_requested) {
      std::printf("atomfsd: CRL-H monitors: every served operation linearizable on its shard\n");
    }
  }

  if (monitor) {
    if (atom_fs != nullptr) {
      monitor->CheckQuiescent(atom_fs->SnapshotSpec());
    }
    if (!monitor->ok()) {
      std::printf("atomfsd: CRL-H VIOLATIONS:\n");
      for (const auto& v : monitor->violations()) {
        std::printf("  %s\n", v.c_str());
      }
      if (!bundle_out.empty()) {
        if (auto pm = monitor->PostMortemState(); pm.has_value()) {
          const PostMortemBundle bundle = BuildPostMortemBundle(
              *pm, ring != nullptr ? ring->Snapshot() : std::vector<TraceEvent>{});
          const std::string text = FormatBundle(bundle);
          if (std::FILE* f = std::fopen(bundle_out.c_str(), "w"); f != nullptr) {
            std::fputs(text.c_str(), f);
            std::fclose(f);
            std::printf("atomfsd: wrote post-mortem bundle to %s "
                        "(replay: atomfs_verify --bundle %s)\n",
                        bundle_out.c_str(), bundle_out.c_str());
          } else {
            std::fprintf(stderr, "atomfsd: cannot open %s: %s\n", bundle_out.c_str(),
                         std::strerror(errno));
          }
        }
      }
      return 1;
    }
    std::printf("atomfsd: CRL-H monitor: every served operation linearizable (%llu helped)\n",
                static_cast<unsigned long long>(monitor->helped_ops()));
  }
  return 0;
}
