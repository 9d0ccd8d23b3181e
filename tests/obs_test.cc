// Tests for the atomtrace observability layer (src/obs): exact registry
// totals under concurrent hammering, shared-bucket percentile agreement with
// LatencyHistogram, trace-ring wraparound and publication, the
// TracingObserver's lock-coupling bookkeeping on a live AtomFS, the METRICS
// wire round-trip over both socket families, and docs-drift checks that
// fail whenever an opcode exists in src/net but not in
// docs/WIRE_PROTOCOL.md (or vice versa), or when docs/CONCURRENCY.md's
// rcu-walk vocabulary diverges from the source constants.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/core/atom_fs.h"
#include "src/crlh/monitor.h"
#include "src/net/wire.h"
#include "src/obs/export.h"
#include "src/obs/sink.h"
#include "src/obs/trace.h"
#include "src/obs/tracer.h"
#include "src/server/server.h"
#include "src/util/stats.h"
#include "src/util/status_table.h"

namespace atomfs {
namespace {

// --- registry ----------------------------------------------------------------

TEST(MetricsRegistryTest, CounterTotalsAreExactUnderConcurrency) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr uint64_t kIncsPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter c = reg.GetCounter("test.hits");  // registration is idempotent
      for (uint64_t i = 0; i < kIncsPerThread; ++i) {
        c.Inc();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(reg.Snapshot().CounterValue("test.hits"), kThreads * kIncsPerThread);
}

TEST(MetricsRegistryTest, HistogramCountSumAndBucketsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr uint64_t kRecordsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      Histogram h = reg.GetHistogram("test.lat");
      for (uint64_t i = 0; i < kRecordsPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + i % 7);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* h = snap.FindHistogram("test.lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * kRecordsPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : h->buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, h->count);
}

TEST(MetricsRegistryTest, GaugeGoesUpAndDown) {
  MetricsRegistry reg;
  Gauge g = reg.GetGauge("test.queue");
  g.Add(5);
  g.Sub(2);
  const MetricsSnapshot snap = reg.Snapshot();
  const GaugeSnapshot* s = snap.FindGauge("test.queue");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->value, 3);
}

TEST(MetricsRegistryTest, HandlesWithTheSameNameShareStorage) {
  MetricsRegistry reg;
  Counter a = reg.GetCounter("shared");
  Counter b = reg.GetCounter("shared");
  a.Inc(2);
  b.Inc(3);
  EXPECT_EQ(reg.Snapshot().CounterValue("shared"), 5u);
}

TEST(MetricsRegistryTest, DefaultConstructedHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  c.Inc();
  g.Add(1);
  h.Record(1);  // must not crash
}

// The shared-bucket contract of satellite (d): any value stream produces
// identical percentiles from LatencyHistogram (bench-side) and the registry
// histogram (server-side), because both ride LatencyBucketsPercentile.
TEST(MetricsRegistryTest, PercentilesAgreeWithLatencyHistogram) {
  MetricsRegistry reg;
  Histogram obs_hist = reg.GetHistogram("agree");
  LatencyHistogram bench_hist;
  uint64_t v = 1;
  for (int i = 0; i < 5000; ++i) {
    v = v * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG
    const uint64_t nanos = v % 10'000'000;
    obs_hist.Record(nanos);
    bench_hist.Add(nanos);
  }
  // The snapshot must be bound to a local: FindHistogram returns a pointer
  // into the snapshot, and calling it on the Snapshot() temporary dangled
  // (TSan heap-use-after-free). The rvalue overload is deleted now, so this
  // mistake no longer compiles.
  const MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* h = snap.FindHistogram("agree");
  ASSERT_NE(h, nullptr);
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(h->Percentile(p), bench_hist.PercentileNanos(p)) << "p=" << p;
  }
}

TEST(MetricsRegistryTest, ToTextDumpIsParseable) {
  MetricsRegistry reg;
  reg.GetCounter("c.one").Inc(7);
  reg.GetGauge("g.one").Add(-2);
  reg.GetHistogram("h.one").Record(100);
  const std::string text = reg.Snapshot().ToText();
  EXPECT_NE(text.find("# atomtrace metrics"), std::string::npos);
  EXPECT_NE(text.find("counter c.one 7"), std::string::npos);
  EXPECT_NE(text.find("gauge g.one -2"), std::string::npos);
  EXPECT_NE(text.find("hist h.one count=1"), std::string::npos);
}

// --- trace ring --------------------------------------------------------------

TEST(TraceRingTest, RetainsTheNewestEventsAcrossWraparound) {
  TraceRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    TraceEvent e;
    e.type = TraceEventType::kOpBegin;
    e.ino = i;  // payload we can assert on
    ring.Append(e);
  }
  EXPECT_EQ(ring.total_appended(), 20u);
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);  // oldest retained first
    EXPECT_EQ(events[i].ino, 12 + i);
  }
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(TraceRingTest, ConcurrentAppendsAreExactAtQuiescence) {
  TraceRing ring(1 << 12);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        TraceEvent e;
        e.type = TraceEventType::kLp;
        ring.Append(e);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(ring.total_appended(), kThreads * kPerThread);
  // When appends race across a wrap, the slower writer of an overwritten
  // slot may publish last, leaving a stale seq the snapshot rightly skips —
  // so concurrency guarantees "no torn events", not "ring exactly full".
  const std::vector<TraceEvent> events = ring.Snapshot();
  EXPECT_GT(events.size(), 0u);
  EXPECT_LE(events.size(), ring.capacity());
  const uint64_t oldest = ring.total_appended() - ring.capacity();
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].seq, oldest);
    EXPECT_LT(events[i].seq, ring.total_appended());
    if (i > 0) {
      EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
  }
}

// --- TracingObserver on a live AtomFS ---------------------------------------

TEST(TracingObserverTest, ProfilesLockCouplingOnAtomFs) {
  MetricsRegistry reg;
  TraceRing ring(1 << 10);
  TracingObserver tracer(&reg, &ring);
  AtomFs::Options o;
  o.observer = &tracer;
  AtomFs fs(std::move(o));

  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/a/b").ok());
  ASSERT_TRUE(fs.Mknod("/a/b/f").ok());
  ASSERT_TRUE(fs.Stat("/a/b/f").ok());
  ASSERT_TRUE(fs.Rename("/a/b/f", "/a/b/g").ok());
  ASSERT_FALSE(fs.Mkdir("/a").ok());  // kExist -> error counter

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("fs.ops"), 6u);
  EXPECT_EQ(snap.CounterValue("fs.op.mkdir.errors"), 1u);
  // Every hand-over-hand acquire has a matching release once quiesced.
  const uint64_t acquires = snap.CounterValue("lock.acquires");
  EXPECT_GT(acquires, 0u);
  EXPECT_EQ(acquires, snap.CounterValue("lock.releases"));
  // Every op took a first lock: the only one of an optimistic walk, the
  // root for the rename.
  const HistogramSnapshot* d1 = snap.FindHistogram("lock.depth01.hold_ns");
  ASSERT_NE(d1, nullptr);
  EXPECT_GT(d1->count, 0u);
  // The rename of /a/b/f couples three levels deep (root, a, b).
  const HistogramSnapshot* d3 = snap.FindHistogram("lock.depth03.hold_ns");
  ASSERT_NE(d3, nullptr);
  EXPECT_GT(d3->count, 0u);
  const HistogramSnapshot* mkdir_lat = snap.FindHistogram("fs.op.mkdir.latency_ns");
  ASSERT_NE(mkdir_lat, nullptr);
  EXPECT_EQ(mkdir_lat->count, 3u);

  // The ring saw the same story: begin/end pairs and lock transitions.
  uint64_t begins = 0;
  uint64_t ends = 0;
  uint64_t lock_events = 0;
  for (const TraceEvent& e : ring.Snapshot()) {
    begins += e.type == TraceEventType::kOpBegin;
    ends += e.type == TraceEventType::kOpEnd;
    lock_events +=
        e.type == TraceEventType::kLockAcquired || e.type == TraceEventType::kLockReleased;
  }
  EXPECT_EQ(begins, 6u);
  EXPECT_EQ(ends, 6u);
  EXPECT_EQ(lock_events, 2 * acquires);
}

TEST(TracingObserverTest, CountsHelperActivityViaMonitorSink) {
  MetricsRegistry reg;
  TracingObserver tracer(&reg, nullptr);
  CrlhMonitor::Options mopts;
  mopts.obs = &tracer;
  CrlhMonitor monitor(mopts);
  TeeObserver tee(&monitor, &tracer);
  AtomFs::Options o;
  o.observer = &tee;
  AtomFs fs(std::move(o));

  // Concurrent renames + lookups: some lookups get helped (linothers). We
  // only assert the plumbing stays consistent — helping is scheduling-luck.
  ASSERT_TRUE(fs.Mkdir("/d1").ok());
  ASSERT_TRUE(fs.Mkdir("/d2").ok());
  ASSERT_TRUE(fs.Mknod("/d1/f").ok());
  std::thread mover([&fs] {
    for (int i = 0; i < 200; ++i) {
      fs.Rename("/d1/f", "/d2/f");
      fs.Rename("/d2/f", "/d1/f");
    }
  });
  std::thread reader([&fs] {
    for (int i = 0; i < 400; ++i) {
      fs.Stat("/d1/f");
      fs.Stat("/d2/f");
    }
  });
  mover.join();
  reader.join();

  EXPECT_TRUE(monitor.ok());
  const MetricsSnapshot snap = reg.Snapshot();
  // The tracer's helped_ops counter mirrors the monitor's own tally, and the
  // Helplist gauge must return to empty at quiescence.
  EXPECT_EQ(snap.CounterValue("crlh.helped_ops"), monitor.helped_ops());
  EXPECT_EQ(snap.CounterValue("crlh.help_events"), monitor.help_events());
  const GaugeSnapshot* g = snap.FindGauge("crlh.helplist_len");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, 0);
}

// --- export surfaces: Perfetto JSON and Prometheus text ----------------------

// Tiny structural JSON validator: braces/brackets balance outside strings,
// string escapes honored. Not a parser — enough to catch truncation and
// unescaped quotes in the exporter's output.
bool JsonBalanced(const std::string& s) {
  std::vector<char> stack;
  bool in_str = false;
  bool esc = false;
  for (char c : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_str = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') {
          return false;
        }
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') {
          return false;
        }
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_str && stack.empty();
}

TEST(ExportTest, PrometheusTextExposesCountersGaugesAndCumulativeBuckets) {
  MetricsRegistry reg;
  reg.GetCounter("fs.ops").Inc(7);
  reg.GetGauge("crlh.helplist_len").Add(3);
  Histogram h = reg.GetHistogram("fs.op.mkdir.latency_ns");
  h.Record(1);
  h.Record(700);        // bucket bound 1024
  h.Record(1u << 20);   // bucket bound 2^20
  const std::string text = PrometheusText(reg.Snapshot());

  // Names are sanitized ('.' -> '_') and namespaced under atomfs_.
  EXPECT_NE(text.find("# TYPE atomfs_fs_ops counter\natomfs_fs_ops 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE atomfs_crlh_helplist_len gauge\natomfs_crlh_helplist_len 3\n"),
            std::string::npos);
  // Histogram buckets are cumulative over the registry's power-of-two bounds.
  EXPECT_NE(text.find("# TYPE atomfs_fs_op_mkdir_latency_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("atomfs_fs_op_mkdir_latency_ns_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("atomfs_fs_op_mkdir_latency_ns_bucket{le=\"1024\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("atomfs_fs_op_mkdir_latency_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("atomfs_fs_op_mkdir_latency_ns_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("atomfs_fs_op_mkdir_latency_ns_sum"), std::string::npos);
}

// A forced helping schedule (the monitor_test HelperLifecycleByHand shape,
// driven through a TeeObserver exactly as atomfsd wires it): thread 1's
// rename reaches its LP while thread 2's mkdir is pending under the rename
// source, so thread 1 linearizes thread 2 (linothers). The Perfetto export
// must carry the help edge as a flow-event pair (ph "s" on the helper's
// track, ph "f" binding to the helped thread) plus the helped LP instant.
TEST(ExportTest, ForcedHelpSchedulePutsFlowArrowsInThePerfettoExport) {
  MetricsRegistry reg;
  TraceRing ring(1 << 10);
  TracingObserver tracer(&reg, &ring);
  CrlhMonitor::Options mopts;
  mopts.obs = &tracer;
  CrlhMonitor monitor(mopts);
  TeeObserver tee(&monitor, &tracer);

  // Ghost setup: /a exists with inum 5.
  tee.OnOpBegin(3, OpCall::MkdirOf(*ParsePath("/a")));
  tee.OnLockAcquired(3, kRootInum, LockPathRole::kSingle);
  tee.OnLp(3, 5);
  tee.OnLockReleased(3, kRootInum);
  tee.OnOpEnd(3, OpResult{});

  // Thread 2: mkdir(/a/b) in flight, holding (root, a).
  tee.OnOpBegin(2, OpCall::MkdirOf(*ParsePath("/a/b")));
  tee.OnLockAcquired(2, kRootInum, LockPathRole::kSingle);
  tee.OnLockAcquired(2, 5, LockPathRole::kSingle);
  tee.OnLockReleased(2, kRootInum);

  // Thread 1: rename(/a, /c) reaches its LP and must help thread 2.
  tee.OnOpBegin(1, OpCall::RenameOf(*ParsePath("/a"), *ParsePath("/c")));
  tee.OnLockAcquired(1, kRootInum, LockPathRole::kRenameCommon);
  tee.OnLockAcquired(1, 5, LockPathRole::kRenameSrc);
  tee.OnLp(1, kInvalidInum);
  ASSERT_EQ(monitor.helped_ops(), 1u);
  tee.OnLockReleased(1, 5);
  tee.OnLockReleased(1, kRootInum);
  tee.OnOpEnd(1, OpResult{});

  // Thread 2 finishes: its own LP is a no-op (already linearized by helper).
  tee.OnLp(2, 9);
  tee.OnLockReleased(2, 5);
  tee.OnOpEnd(2, OpResult{});
  ASSERT_TRUE(monitor.ok()) << monitor.violations()[0];

  const std::string json = ExportChromeTrace(ring.Snapshot());
  ASSERT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Op spans for all three threads.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  // The help edge: instant with metadata + a flow arrow pair.
  EXPECT_NE(json.find("\"name\":\"help\""), std::string::npos);
  EXPECT_NE(json.find("\"target_tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"src_prefix\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // The helped thread's own LP arrives as helped_LP, and the linothers run
  // event carries the help-set size.
  EXPECT_NE(json.find("\"name\":\"helped_LP\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"linothers\""), std::string::npos);
  // Invariant outcomes ride along on their own category.
  EXPECT_NE(json.find("\"cat\":\"invariant\""), std::string::npos);
  EXPECT_NE(json.find("\"passed\":true"), std::string::npos);
}

TEST(ExportTest, TruncationDropsOldestEventsUntilTheBudgetFits) {
  std::vector<TraceEvent> events;
  for (uint64_t i = 0; i < 512; ++i) {
    TraceEvent e;
    e.seq = i;
    e.tid = 1;
    e.type = TraceEventType::kLp;
    e.ino = i;
    events.push_back(e);
  }
  const std::string full = ExportChromeTrace(events);
  const std::string capped = ExportChromeTrace(events, full.size() / 4);
  EXPECT_LE(capped.size(), full.size() / 4);
  ASSERT_TRUE(JsonBalanced(capped));
  // The newest event survives truncation; the oldest does not.
  EXPECT_NE(capped.find("\"ino\":511"), std::string::npos);
  EXPECT_EQ(capped.find("\"ino\":0,"), std::string::npos);
}

// --- METRICS over the wire ---------------------------------------------------

TEST(MetricsWireTest, SnapshotRoundTripsExactly) {
  MetricsRegistry reg;
  reg.GetCounter("a.count").Inc(42);
  reg.GetGauge("b.gauge").Add(-17);
  Histogram h = reg.GetHistogram("c.hist");
  for (uint64_t v : {1u, 100u, 10000u, 1000000u}) {
    h.Record(v);
  }
  const MetricsSnapshot snap = reg.Snapshot();

  WireWriter w;
  EncodeMetricsSnapshot(w, snap);
  WireReader r(std::span<const std::byte>(w.buf().data(), w.buf().size()));
  MetricsSnapshot parsed;
  ASSERT_TRUE(ParseMetricsSnapshot(r, &parsed));
  ASSERT_TRUE(r.AtEnd());

  ASSERT_EQ(parsed.counters.size(), snap.counters.size());
  EXPECT_EQ(parsed.CounterValue("a.count"), 42u);
  const GaugeSnapshot* g = parsed.FindGauge("b.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, -17);
  const HistogramSnapshot* hs = parsed.FindHistogram("c.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 4u);
  EXPECT_EQ(hs->buckets, snap.FindHistogram("c.hist")->buckets);
  // Identical buckets => identical percentiles: the client can never report
  // a p99 the server disagrees with.
  EXPECT_EQ(hs->Percentile(0.99), snap.FindHistogram("c.hist")->Percentile(0.99));
}

// Drives a served AtomFS and fetches METRICS, TRACE, and PROM over a real
// socket — the three admin surfaces sharing the observability spine.
void ExerciseMetricsOver(const std::string& transport) {
  MetricsRegistry reg;
  TraceRing ring(1 << 10);
  TracingObserver tracer(&reg, &ring);
  AtomFs::Options fo;
  fo.observer = &tracer;
  AtomFs fs(std::move(fo));

  ServerOptions options;
  options.metrics = &reg;
  options.trace_ring = &ring;
  std::string sock_path;
  if (transport == "tcp") {
    options.tcp_listen = true;
  } else {
    sock_path = "/tmp/atomfs_obs_test_" + std::to_string(getpid()) + ".sock";
    options.unix_path = sock_path;
  }
  AtomFsServer server(&fs, options);
  ASSERT_TRUE(server.Start().ok());

  auto client_or = transport == "tcp" ? AtomFsClient::ConnectTcp(server.BoundTcpPort())
                                      : AtomFsClient::ConnectUnix(sock_path);
  ASSERT_TRUE(client_or.ok());
  AtomFsClient& client = **client_or;

  ASSERT_TRUE(client.Mkdir("/dir").ok());
  ASSERT_TRUE(client.Mknod("/dir/file").ok());
  ASSERT_TRUE(client.Stat("/dir/file").ok());

  auto snap_or = client.FetchMetrics();
  ASSERT_TRUE(snap_or.ok());
  const MetricsSnapshot& snap = *snap_or;
  // Server-side wire-op latency and the backend's tracer both crossed.
  const HistogramSnapshot* mkdir_srv = snap.FindHistogram("server.op.mkdir.latency_ns");
  ASSERT_NE(mkdir_srv, nullptr);
  EXPECT_EQ(mkdir_srv->count, 1u);
  EXPECT_EQ(snap.CounterValue("fs.ops"), 3u);
  EXPECT_GT(snap.CounterValue("lock.acquires"), 0u);

  // Consistency across reporting paths: the percentile the client computes
  // from the fetched buckets equals the one the server's stats report.
  const WireServerStats stats = server.StatsSnapshot();
  bool found = false;
  for (const WireOpStats& s : stats.ops) {
    if (static_cast<WireOp>(s.op) == WireOp::kMkdir) {
      EXPECT_EQ(s.p99_ns, mkdir_srv->Percentile(0.99));
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // TRACE: the flight-recorder ring rendered as Chrome trace-event JSON,
  // carrying the spans the client's own ops just wrote into it.
  auto trace_or = client.FetchTraceJson();
  ASSERT_TRUE(trace_or.ok());
  EXPECT_TRUE(JsonBalanced(*trace_or));
  EXPECT_NE(trace_or->find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_or->find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(trace_or->find("\"name\":\"mkdir\""), std::string::npos);

  // PROM: the same registry the METRICS snapshot serves, in text exposition.
  auto prom_or = client.FetchPrometheus();
  ASSERT_TRUE(prom_or.ok());
  EXPECT_NE(prom_or->find("# TYPE atomfs_fs_ops counter\natomfs_fs_ops 3\n"),
            std::string::npos);
  EXPECT_NE(prom_or->find("atomfs_server_op_mkdir_latency_ns_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  server.Stop();
}

// A server with no ring attached must still answer TRACE with a valid,
// empty trace document (the option is nullable by contract).
TEST(MetricsWireTest, TraceDumpWithoutRingAnswersEmptyDocument) {
  AtomFs fs;
  ServerOptions options;
  const std::string sock_path =
      "/tmp/atomfs_obs_noring_" + std::to_string(getpid()) + ".sock";
  options.unix_path = sock_path;
  AtomFsServer server(&fs, options);
  ASSERT_TRUE(server.Start().ok());
  auto client_or = AtomFsClient::ConnectUnix(sock_path);
  ASSERT_TRUE(client_or.ok());
  auto trace_or = (*client_or)->FetchTraceJson();
  ASSERT_TRUE(trace_or.ok());
  EXPECT_TRUE(JsonBalanced(*trace_or));
  EXPECT_NE(trace_or->find("\"traceEvents\":[]"), std::string::npos);
  server.Stop();
}

TEST(MetricsWireTest, FetchMetricsOverUnixSocket) { ExerciseMetricsOver("unix"); }

TEST(MetricsWireTest, FetchMetricsOverTcpSocket) { ExerciseMetricsOver("tcp"); }

// --- docs drift --------------------------------------------------------------

// docs/WIRE_PROTOCOL.md is normative: every opcode in src/net/wire.h must
// have a table row "| <num> | `<name>` |...", and the doc must not describe
// opcodes that do not exist. Adding WireOp 25 without documenting it fails
// here, as does documenting a 25 that was never added.
TEST(DocsDriftTest, WireProtocolDocCoversExactlyTheImplementedOpcodes) {
  const std::string path = std::string(ATOMFS_SOURCE_DIR) + "/docs/WIRE_PROTOCOL.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  for (uint8_t raw = kWireOpMin; raw <= kWireOpMax; ++raw) {
    const WireOp op = static_cast<WireOp>(raw);
    const std::string row =
        "| " + std::to_string(raw) + " | `" + std::string(WireOpName(op)) + "`";
    EXPECT_NE(doc.find(row), std::string::npos)
        << "opcode " << int(raw) << " (" << WireOpName(op) << ") has no row \"" << row
        << "\" in docs/WIRE_PROTOCOL.md";
  }
  const std::string beyond = "| " + std::to_string(kWireOpMax + 1) + " | `";
  EXPECT_EQ(doc.find(beyond), std::string::npos)
      << "docs/WIRE_PROTOCOL.md documents opcode " << int(kWireOpMax) + 1
      << " which src/net/wire.h does not define";
  // The status table is normative too; spot-check the anchor rows exist.
  EXPECT_NE(doc.find("`METRICS`"), std::string::npos);
}

// The handshake and the pipelining error codes are protocol surface: the
// doc must carry the negotiated version constant, the `hello` body layout,
// and status rows matching the wire bytes the implementation emits.
TEST(DocsDriftTest, WireProtocolDocCoversHandshakeAndPipelineStatuses) {
  const std::string path = std::string(ATOMFS_SOURCE_DIR) + "/docs/WIRE_PROTOCOL.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  EXPECT_NE(doc.find("protocol version is **" + std::to_string(kWireProtoVersion) + "**"),
            std::string::npos)
      << "doc does not state kWireProtoVersion = " << kWireProtoVersion;
  EXPECT_NE(doc.find("`hello` handshake"), std::string::npos);
  EXPECT_NE(doc.find("u32 version | u32 desired_max_inflight"), std::string::npos);

  const std::string timedout_row =
      "| " + std::to_string(WireStatusOf(Errc::kTimedOut)) + " | `TIMEDOUT`";
  const std::string backpressure_row =
      "| " + std::to_string(WireStatusOf(Errc::kBackpressure)) + " | `BACKPRESSURE`";
  EXPECT_NE(doc.find(timedout_row), std::string::npos) << "missing row: " << timedout_row;
  EXPECT_NE(doc.find(backpressure_row), std::string::npos)
      << "missing row: " << backpressure_row;

  const std::string batch_cap = std::to_string(kWireMaxBatchRequests);
  EXPECT_NE(doc.find("| max `msgbatch` packed requests | " + batch_cap), std::string::npos)
      << "msgbatch cap row out of date";
}

// The transaction surface (opcodes 29-31, status TXCONFLICT) is protocol
// surface too: the doc must carry the conflict status row matching the wire
// byte the txn layer emits, and the transaction-semantics section.
TEST(DocsDriftTest, WireProtocolDocCoversTransactionSurface) {
  const std::string path = std::string(ATOMFS_SOURCE_DIR) + "/docs/WIRE_PROTOCOL.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  const std::string conflict_row =
      "| " + std::to_string(WireStatusOf(Errc::kTxConflict)) + " | `TXCONFLICT`";
  EXPECT_NE(doc.find(conflict_row), std::string::npos) << "missing row: " << conflict_row;
  EXPECT_NE(doc.find("## 4a. Transactions"), std::string::npos)
      << "doc lost the transaction-semantics section";
  // The three tx ops must document the txid-carrying bodies exactly.
  EXPECT_NE(doc.find("| 29 | `txbegin` | — | `u64 txid` |"), std::string::npos);
  EXPECT_NE(doc.find("| 30 | `txcommit` | `u64 txid` | — |"), std::string::npos);
  EXPECT_NE(doc.find("| 31 | `txabort` | `u64 txid` | — |"), std::string::npos);
}

// src/util/status_table.h is the single normative Errc <-> wire-status
// table; the doc's status table is generated prose over the same rows. Every
// X-macro row must appear as "| <byte> | `<NAME>`" (and the in-process
// mapping must agree), so declaring a new status — ESHARDMOVED being the
// newest — in the table but not the doc (or vice versa) fails here.
TEST(DocsDriftTest, WireProtocolStatusTableMatchesTheXMacroTable) {
  const std::string path = std::string(ATOMFS_SOURCE_DIR) + "/docs/WIRE_PROTOCOL.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

#define ATOMFS_CHECK_STATUS_ROW(errc, wire, errc_name, wire_name)                    \
  {                                                                                  \
    const std::string row = "| " + std::to_string(wire) + " | `" + wire_name + "`";  \
    EXPECT_NE(doc.find(row), std::string::npos)                                      \
        << "docs/WIRE_PROTOCOL.md has no status row \"" << row << "\"";              \
    EXPECT_EQ(WireStatusOf(Errc::errc), wire);                                      \
    EXPECT_EQ(ErrcOfWireStatus(wire), Errc::errc);                                  \
    EXPECT_EQ(ErrcName(Errc::errc), std::string_view(errc_name));                   \
  }
  ATOMFS_WIRE_STATUS_TABLE(ATOMFS_CHECK_STATUS_ROW)
#undef ATOMFS_CHECK_STATUS_ROW
}

// The HELLO capability bitmask (protocol v3) is surface too: the doc's bit
// table must carry exactly the bits src/vfs/filesystem.h defines.
TEST(DocsDriftTest, WireProtocolDocCoversHelloCapabilityBits) {
  const std::string path = std::string(ATOMFS_SOURCE_DIR) + "/docs/WIRE_PROTOCOL.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  static_assert(kFsCapTxn == 1u << 0);
  static_assert(kFsCapRcuWalk == 1u << 1);
  static_assert(kFsCapSharding == 1u << 2);
  EXPECT_NE(doc.find("| 1 << 0 | `txn` |"), std::string::npos);
  EXPECT_NE(doc.find("| 1 << 1 | `rcu_walk` |"), std::string::npos);
  EXPECT_NE(doc.find("| 1 << 2 | `sharding` |"), std::string::npos);
  EXPECT_NE(doc.find("u32 granted_max_inflight | u32 caps"), std::string::npos)
      << "doc lost the v3 hello response shape";
}

// The sharded-namespace observability surface: every counter the shard
// router emits must have a row in docs/OBSERVABILITY.md, and the crossshard
// help-reason flag must be documented next to the other two.
TEST(DocsDriftTest, ObservabilityDocCoversTheShardRouterMetrics) {
  const std::string path = std::string(ATOMFS_SOURCE_DIR) + "/docs/OBSERVABILITY.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  for (const char* metric :
       {"`shard.ops.s<i>`", "`shard.migrations`", "`shard.migrations_completed`",
        "`shard.migrations_aborted`", "`shard.cross_help_edges`", "`shard.stale_retries`"}) {
    EXPECT_NE(doc.find(metric), std::string::npos) << "missing metric row: " << metric;
  }
  EXPECT_NE(doc.find("(`crossshard`)"), std::string::npos)
      << "crossshard help-reason flag undocumented";
}

// The serving layer's observability surface, both ways: every metric an
// AtomFsServer registers has a "| `name` | type |" row in
// docs/OBSERVABILITY.md, and every `server.` row there names a metric the
// server still registers. The per-opcode latency histograms share the one
// `server.op.<wireop>.latency_ns` row.
TEST(DocsDriftTest, ObservabilityDocCoversExactlyTheServerMetrics) {
  const std::string path = std::string(ATOMFS_SOURCE_DIR) + "/docs/OBSERVABILITY.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  AtomFs fs;
  MetricsRegistry reg;
  ServerOptions options;
  options.metrics = &reg;
  AtomFsServer server(&fs, options);  // registers its metrics; never started
  const MetricsSnapshot snap = reg.Snapshot();
  std::vector<std::string> rows;
  auto add = [&rows](std::string name, const char* type) {
    if (name.starts_with("server.op.") && name.ends_with(".latency_ns")) {
      name = "server.op.<wireop>.latency_ns";
    }
    const std::string row = "| `" + name + "` | " + type + " |";
    if (std::find(rows.begin(), rows.end(), row) == rows.end()) {
      rows.push_back(row);
    }
  };
  for (const CounterSnapshot& c : snap.counters) {
    add(c.name, "counter");
  }
  for (const GaugeSnapshot& g : snap.gauges) {
    add(g.name, "gauge");
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    add(h.name, "histogram");
  }
  EXPECT_GE(rows.size(), 8u);
  for (const std::string& row : rows) {
    EXPECT_NE(doc.find(row), std::string::npos) << "registered metric has no row: " << row;
  }
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.starts_with("| `server.")) {
      continue;
    }
    const bool registered = std::any_of(rows.begin(), rows.end(), [&line](const std::string& row) {
      return line.starts_with(row);
    });
    EXPECT_TRUE(registered) << "documented metric is not registered: " << line;
  }
}

// docs/CONCURRENCY.md is the normative locking/validation protocol. The names
// it uses for the rcu-walk verification surface — the invariant, the ghost
// events, the four counters, the retry default, the accounting identity, and
// the memory-order table's atomics — must match the source constants. Renaming
// any of them without updating the doc fails here.
TEST(DocsDriftTest, ConcurrencyDocMatchesRcuWalkConstantsAndAtomics) {
  const std::string path = std::string(ATOMFS_SOURCE_DIR) + "/docs/CONCURRENCY.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  // The invariant the monitor checks at an optimistic op's LP.
  const std::string inv =
      "Invariant `" + std::string(InvariantKindName(InvariantKind::kOptValidation)) + "`";
  EXPECT_NE(doc.find(inv), std::string::npos) << "missing anchor: " << inv;

  // The three ghost events, by their wire/trace names.
  for (TraceEventType t : {TraceEventType::kOptWalkStart, TraceEventType::kOptWalkValidate,
                           TraceEventType::kOptWalkFallback}) {
    const std::string name = "`" + std::string(TraceEventTypeName(t)) + "`";
    EXPECT_NE(doc.find(name), std::string::npos) << "missing ghost event: " << name;
  }

  // The four counters and the accounting identity the race-stress test
  // asserts exactly.
  for (const char* counter :
       {"`core.rcuwalk.attempts`", "`core.rcuwalk.validation_failures`",
        "`core.rcuwalk.fallbacks`", "`core.rcuwalk.unvalidated_reads`"}) {
    EXPECT_NE(doc.find(counter), std::string::npos) << "missing counter: " << counter;
  }
  // Prose anchors are matched with line breaks and indentation folded.
  auto flat = [](const std::string& text) {
    std::string out;
    for (char c : text) {
      const bool space = c == ' ' || c == '\n';
      if (!space || (!out.empty() && out.back() != ' ')) {
        out.push_back(space ? ' ' : c);
      }
    }
    return out;
  };
  const std::string identity =
      "`attempts - validation_failures + fallbacks` equals the number of ops that went "
      "optimistic";
  EXPECT_NE(flat(doc).find(identity), std::string::npos)
      << "doc lost the fallback accounting identity over every optimistic op";
  // Mutators are adopted through the observer event the monitor handles.
  EXPECT_NE(doc.find("`FsObserver::OnOptWalkAdopt`"), std::string::npos)
      << "doc lost the adoption event";
  EXPECT_NE(doc.find("`CrlhMonitor::OnOptWalkAdopt`"), std::string::npos)
      << "doc lost the monitor's adoption handler";

  // docs/OBSERVABILITY.md states the same identity, over reads and mutators.
  {
    std::ifstream obs(std::string(ATOMFS_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
    ASSERT_TRUE(obs.good());
    std::stringstream obs_buf;
    obs_buf << obs.rdbuf();
    const std::string obs_doc = obs_buf.str();
    EXPECT_NE(flat(obs_doc).find(identity), std::string::npos)
        << "docs/OBSERVABILITY.md lost the accounting identity over every optimistic op";
    EXPECT_NE(obs_doc.find("mutator adoptions withdrawn by their re-check"), std::string::npos)
        << "docs/OBSERVABILITY.md does not count withdrawn adoptions as failures";
  }

  // The attempt budget must state the compiled-in constant.
  const std::string attempts = "`AtomFs::kRcuWalkAttempts` attempts (" +
                               std::to_string(AtomFs::kRcuWalkAttempts) + ")";
  EXPECT_NE(doc.find(attempts), std::string::npos) << "missing anchor: " << attempts;
  // So must the reclaimer's scan period.
  const std::string scan = "every `Reclaimer::kScanEvery` (" +
                           std::to_string(Reclaimer::kScanEvery) + ") retirements";
  EXPECT_NE(doc.find(scan), std::string::npos) << "missing anchor: " << scan;

  // Every atomic in the walk, and the reclaimer's epoch, slots and limbo
  // list, must have memory-order table rows.
  for (const char* atomic_name :
       {"| `Inode::version` |", "| `Inode::held` |", "| `DirTable::buckets_` |",
        "| retired arrays and shells |", "| bucket head `heads[i]` |", "| `Entry::next` |",
        "| `Entry::pub` |", "| epoch `g_epoch` |", "| slot `Slot::epoch` |",
        "| limbo list `Reclaimer::limbo_` |"}) {
    EXPECT_NE(doc.find(atomic_name), std::string::npos)
        << "memory-order table lost rows for " << atomic_name;
  }
  // Spot-check the two orders the protocol's correctness hinges on.
  EXPECT_NE(doc.find("store even (`VersionBumpClose`, under lock) | `release`"),
            std::string::npos)
      << "close-bump release row out of date";
  EXPECT_NE(doc.find("record + revalidate loads (`OptimisticAttempt`) | `acquire`"),
            std::string::npos)
      << "reader acquire row out of date";
  EXPECT_NE(doc.find("pin: store, then fence (`EpochPin`) | `seq_cst` fence"), std::string::npos)
      << "pin fence row out of date";
}

}  // namespace
}  // namespace atomfs
