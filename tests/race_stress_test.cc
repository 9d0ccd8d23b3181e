// Race-hunt stress harness: deterministic-seed workloads shaped to provoke
// the thread interleavings TSan/ASan need to observe (docs/SANITIZERS.md).
//
// Every case follows the same recipe: a RaceBarrier aligns the cohort so the
// contended window opens with maximal overlap, and a per-thread
// ScheduleShaker (seeded from ATOMFS_STRESS_SEED, default 1) perturbs the
// schedule between operations — yields and short sleeps on a single core are
// what force preemption *inside* critical windows. The same seed replays the
// same perturbation sequence, which is how a sanitizer report from this
// binary is reproduced deterministically.
//
// Targets, matching the repo's cross-thread handoffs:
//   * AtomFS lock coupling under a rename/lookup/unlink path-interdependency
//     mix, with the CRL-H monitor attached (ghost state is itself shared).
//   * DirTable growth under lock-free readers: the bucket-array publish and
//     the retirement of replaced arrays and shells.
//   * MetricsRegistry: snapshot readers racing sharded writers, asserting
//     the count/sum coherence the release/acquire bucket protocol promises.
//   * TraceRing: concurrent writers vs. snapshot readers, asserting events
//     are never torn (the seqlock regression).
//   * A live AtomFsServer: pipelined ClientSessions across threads, Stop()
//     with traffic inflight, and idle-reap racing a client mid-flush.
//
// The sanitizer builds define ATOMFS_SANITIZE_THREAD/ATOMFS_SANITIZE_ADDRESS
// and run 5-15x slower, so iteration counts scale down there; the assertions
// are identical in every mode.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/core/atom_fs.h"
#include "src/core/dir_table.h"
#include "src/core/inode.h"
#include "src/core/reclaimer.h"
#include "src/crlh/monitor.h"
#include "src/net/wire.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/sink.h"
#include "src/obs/trace.h"
#include "src/obs/tracer.h"
#include "src/server/server.h"
#include "src/sim/stress.h"
#include "src/util/rand.h"

namespace atomfs {
namespace {

#if defined(ATOMFS_SANITIZE_THREAD)
constexpr int kScale = 4;  // TSan: ~5-15x slowdown, keep wall time in check
#elif defined(ATOMFS_SANITIZE_ADDRESS)
constexpr int kScale = 2;
#else
constexpr int kScale = 1;
#endif

uint64_t StressSeed() {
  const char* env = std::getenv("ATOMFS_STRESS_SEED");
  return env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10) : 1;
}

// Small namespace, heavy on renames of inner directories, so LockPaths
// constantly cross and the helper machinery engages.
Path RandomPath(Rng& rng, size_t max_depth = 4) {
  static const char* kNames[] = {"a", "b", "c", "d", "e"};
  Path p;
  const size_t depth = rng.Between(1, max_depth);
  for (size_t i = 0; i < depth; ++i) {
    p.parts.emplace_back(kNames[rng.Below(5)]);
  }
  return p;
}

OpCall RandomCall(Rng& rng) {
  switch (rng.Below(10)) {
    case 0:
    case 1:
      return OpCall::MkdirOf(RandomPath(rng));
    case 2:
      return OpCall::MknodOf(RandomPath(rng));
    case 3:
      return OpCall::UnlinkOf(RandomPath(rng));
    case 4:
      return OpCall::RmdirOf(RandomPath(rng));
    case 5:
    case 6:
    case 7:
      return OpCall::RenameOf(RandomPath(rng), RandomPath(rng));
    default:
      return OpCall::StatOf(RandomPath(rng));
  }
}

// --- AtomFS + CRL-H monitor --------------------------------------------------

TEST(RaceStress, MonitoredPathInterdependencyMix) {
  const uint64_t seed = StressSeed();
  const int threads = 8;
  const int ops = 400 / kScale;

  CrlhMonitor monitor;
  AtomFs::Options opts;
  opts.observer = &monitor;
  AtomFs fs(std::move(opts));

  RaceBarrier barrier(threads);
  std::vector<std::thread> cohort;
  cohort.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    cohort.emplace_back([&, t] {
      Rng rng(seed * 1000003 + t);
      ScheduleShaker shaker(seed, static_cast<uint32_t>(t));
      barrier.Arrive();
      // Every thread runs the same op count, so the periodic re-alignment
      // arrives the same number of times on every thread — no straggler
      // bookkeeping needed.
      for (int i = 0; i < ops; ++i) {
        RunOp(fs, RandomCall(rng));
        shaker.Perturb();
        if (i % 64 == 0) {
          barrier.Arrive();  // re-align the cohort: fresh overlap window
        }
      }
    });
  }
  for (auto& th : cohort) {
    th.join();
  }
  ASSERT_TRUE(monitor.ok()) << monitor.violations()[0];
  EXPECT_TRUE(monitor.CheckQuiescent(fs.SnapshotSpec()));
}

// The optimistic (RCU) walk's hot loop: readers resolve stat/readdir/read
// lock-free while mutators rename, unlink, and recreate the very directories
// under them, their mkdir/mknod/unlink walking optimistically too. Version-
// chain validation is the only thing standing between a reader and a stale
// result, and adoption the only thing making a mutator helpable, so the
// monitored run must stay violation-free, and the core.rcuwalk.* counters
// must balance exactly: every optimistic op ends in either one passing
// validation (an adoption, for a mutator) or one fallback, with failed
// attempts as interior steps (attempts - validation_failures + fallbacks ==
// optimistic ops; renames always lock-couple).
TEST(RaceStress, RcuWalkReadersVsRenameUnlinkChurn) {
  const uint64_t seed = StressSeed();
  const int mutators = 4;
  const int readers = 4;
  const int ops = 400 / kScale;

  CrlhMonitor monitor;
  MetricsRegistry registry;
  TracingObserver tracer(&registry);
  TeeObserver tee(&monitor, &tracer);
  AtomFs::Options opts;
  opts.observer = &tee;
  AtomFs fs(std::move(opts));

  RaceBarrier barrier(mutators + readers);
  std::atomic<uint64_t> optimistic_mutations{0};  // mkdir/mknod/unlink run
  std::vector<std::thread> cohort;
  cohort.reserve(static_cast<size_t>(mutators + readers));
  for (int t = 0; t < mutators; ++t) {
    cohort.emplace_back([&, t] {
      Rng rng(seed * 1000003 + t);
      ScheduleShaker shaker(seed, static_cast<uint32_t>(t));
      barrier.Arrive();
      for (int i = 0; i < ops; ++i) {
        const uint64_t kind = rng.Below(6);
        optimistic_mutations.fetch_add(kind < 3 ? 1 : 0, std::memory_order_relaxed);
        switch (kind) {
          case 0:
            RunOp(fs, OpCall::MkdirOf(RandomPath(rng)));
            break;
          case 1:
            RunOp(fs, OpCall::MknodOf(RandomPath(rng)));
            break;
          case 2:
            RunOp(fs, OpCall::UnlinkOf(RandomPath(rng)));
            break;
          default:
            RunOp(fs, OpCall::RenameOf(RandomPath(rng), RandomPath(rng)));
            break;
        }
        shaker.Perturb();
        if (i % 64 == 0) {
          barrier.Arrive();
        }
      }
    });
  }
  for (int r = 0; r < readers; ++r) {
    cohort.emplace_back([&, r] {
      Rng rng(seed * 7777 + r);
      ScheduleShaker shaker(seed, static_cast<uint32_t>(mutators + r));
      barrier.Arrive();
      for (int i = 0; i < ops; ++i) {
        switch (rng.Below(3)) {
          case 0:
            RunOp(fs, OpCall::StatOf(RandomPath(rng)));
            break;
          case 1:
            RunOp(fs, OpCall::ReadDirOf(RandomPath(rng)));
            break;
          default:
            RunOp(fs, OpCall::ReadOf(RandomPath(rng), 0, 16));
            break;
        }
        shaker.Perturb();
        if (i % 64 == 0) {
          barrier.Arrive();
        }
      }
    });
  }
  for (auto& th : cohort) {
    th.join();
  }

  ASSERT_TRUE(monitor.ok()) << monitor.violations()[0];
  EXPECT_TRUE(monitor.CheckQuiescent(fs.SnapshotSpec()));

  const MetricsSnapshot snap = registry.Snapshot();
  const uint64_t attempts = snap.CounterValue("core.rcuwalk.attempts");
  const uint64_t failures = snap.CounterValue("core.rcuwalk.validation_failures");
  const uint64_t fallbacks = snap.CounterValue("core.rcuwalk.fallbacks");
  EXPECT_GT(attempts, 0u) << "the optimistic path never engaged";
  EXPECT_EQ(snap.CounterValue("core.rcuwalk.unvalidated_reads"), 0u);
  EXPECT_EQ(attempts - failures + fallbacks,
            static_cast<uint64_t>(readers) * static_cast<uint64_t>(ops) +
                optimistic_mutations.load())
      << "event accounting broke: attempts=" << attempts << " failures=" << failures
      << " fallbacks=" << fallbacks;
}

// The optimistic walk against a directory whose bucket array keeps doubling
// under it: readers stat names in /d lock-free while one writer creates
// enough entries to grow the table from its first array through several
// doublings, unlinking some on the way. A reader that walks a replaced array
// must stay memory-safe and fail validation, so the monitored run must stay
// violation-free and the rcu-walk counters must balance exactly, over the
// readers' stats and the writer's mknods and unlinks alike.
TEST(RaceStress, RcuWalkReadersVsDirectoryGrowth) {
  const uint64_t seed = StressSeed();
  const int readers = 3;
  // The monitor checks the whole tree at every LP, so keep /d modest: the
  // first 8 heads still double 4-6 times.
  const int files = 512 / kScale;

  CrlhMonitor monitor;
  MetricsRegistry registry;
  TracingObserver tracer(&registry);
  TeeObserver tee(&monitor, &tracer);
  AtomFs::Options opts;
  opts.observer = &tee;
  AtomFs fs(std::move(opts));
  ASSERT_TRUE(fs.Mkdir("/d").ok());

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> reader_ops{0};
  uint64_t writer_ops = 1;  // the mkdir of /d above; the writer adds its ops
  RaceBarrier barrier(1 + readers);
  std::vector<std::thread> cohort;
  cohort.reserve(1 + readers);
  cohort.emplace_back([&] {
    ScheduleShaker shaker(seed, 0);
    barrier.Arrive();
    for (int i = 0; i < files && std::chrono::steady_clock::now() < deadline; ++i) {
      RunOp(fs, OpCall::MknodOf(*ParsePath("/d/f" + std::to_string(i))));
      ++writer_ops;
      if (i % 3 == 2) {
        RunOp(fs, OpCall::UnlinkOf(*ParsePath("/d/f" + std::to_string(i - 1))));
        ++writer_ops;
      }
      if (i % 16 == 0) {
        shaker.Perturb();
      }
    }
    writer_done.store(true, std::memory_order_release);
  });
  for (int r = 0; r < readers; ++r) {
    cohort.emplace_back([&, r] {
      Rng rng(seed * 7777 + r);
      ScheduleShaker shaker(seed, static_cast<uint32_t>(1 + r));
      barrier.Arrive();
      uint64_t ops = 0;
      while (!writer_done.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < deadline) {
        RunOp(fs, OpCall::StatOf(*ParsePath("/d/f" + std::to_string(rng.Below(files)))));
        ++ops;
        if (ops % 32 == 0) {
          shaker.Perturb();
        }
      }
      reader_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  for (auto& th : cohort) {
    th.join();
  }

  ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "writer did not finish in time";
  ASSERT_TRUE(monitor.ok()) << monitor.violations()[0];
  EXPECT_TRUE(monitor.CheckQuiescent(fs.SnapshotSpec()));

  const MetricsSnapshot snap = registry.Snapshot();
  const uint64_t attempts = snap.CounterValue("core.rcuwalk.attempts");
  const uint64_t failures = snap.CounterValue("core.rcuwalk.validation_failures");
  const uint64_t fallbacks = snap.CounterValue("core.rcuwalk.fallbacks");
  EXPECT_GT(attempts, 0u) << "the optimistic path never engaged";
  EXPECT_EQ(snap.CounterValue("core.rcuwalk.unvalidated_reads"), 0u);
  EXPECT_EQ(attempts - failures + fallbacks, reader_ops.load() + writer_ops)
      << "event accounting broke: attempts=" << attempts << " failures=" << failures
      << " fallbacks=" << fallbacks;
  const auto dir = fs.Stat("/d");
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir->size, static_cast<uint64_t>(files - files / 3));
}

// The same resize, one level down and without the monitor's serialization:
// readers call DirTable::FindOptimistic on whichever table the writer is
// filling, so many stand on a bucket array at the moment it is replaced.
// Each table grows from 8 to 64 heads, so the run replaces thousands of
// small arrays whose shells are retired right after the publish. Readers pin
// around each lookup, and the reclaimer frees what they can no longer
// reach while they run. A replaced array or shell must stay readable while
// a reader that could reach it is pinned (ASan, TSan), and every hit must be
// the inode that name was inserted with, whichever array it was found
// through.
TEST(RaceStress, OptimisticLookupsVsTableGrowth) {
  const uint64_t seed = StressSeed();
  const int readers = 3;
  const int tables = 1000 / kScale;
  const int per_table = 64;
  std::vector<std::string> names;
  for (int i = 0; i < per_table; ++i) {
    names.push_back("e" + std::to_string(i));
  }
  auto ino_of = [per_table](int t, int i) { return static_cast<Inum>(t * per_table + i + 1); };
  Reclaimer reclaimer;
  std::vector<std::unique_ptr<DirTable>> dirs;
  for (int t = 0; t < tables; ++t) {
    dirs.push_back(std::make_unique<DirTable>(reclaimer));
  }
  std::vector<std::unique_ptr<Inode>> removed;  // kept alive until the readers stop

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::atomic<int> current{0};
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> wrong{0};
  RaceBarrier barrier(1 + readers);
  std::vector<std::thread> cohort;
  cohort.emplace_back([&] {
    ScheduleShaker shaker(seed, 0);
    barrier.Arrive();
    for (int t = 0; t < tables && std::chrono::steady_clock::now() < deadline; ++t) {
      current.store(t, std::memory_order_release);
      for (int i = 0; i < per_table; ++i) {
        dirs[t]->Insert(names[i],
                        std::make_unique<Inode>(ino_of(t, i), FileType::kFile,
                                                Executor::Real().CreateLock(), reclaimer));
        if (i % 3 == 2) {
          removed.push_back(dirs[t]->Remove(names[i - 1]));
        }
        reclaimer.ScanIfDue();  // as an AtomFs does at the end of every op
      }
      if (t % 16 == 0) {
        shaker.Perturb();
      }
    }
    writer_done.store(true, std::memory_order_release);
  });
  for (int r = 0; r < readers; ++r) {
    cohort.emplace_back([&, r] {
      Rng rng(seed * 7777 + r);
      barrier.Arrive();
      uint64_t local_hits = 0;
      uint64_t local_wrong = 0;
      while (!writer_done.load(std::memory_order_acquire)) {
        const int t = current.load(std::memory_order_acquire);
        const int i = static_cast<int>(rng.Below(per_table));
        const EpochPin pin;
        if (const Inode* found = dirs[t]->FindOptimistic(names[i]); found != nullptr) {
          ++local_hits;
          local_wrong += found->ino != ino_of(t, i) ? 1 : 0;
        }
      }
      hits.fetch_add(local_hits, std::memory_order_relaxed);
      wrong.fetch_add(local_wrong, std::memory_order_relaxed);
    });
  }
  for (auto& th : cohort) {
    th.join();
  }

  ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "writer did not finish in time";
  EXPECT_GT(hits.load(), 0u) << "readers never overlapped the writer";
  EXPECT_EQ(wrong.load(), 0u) << "a lookup returned another name's inode";
  for (const auto& dir : dirs) {
    EXPECT_EQ(dir->size(), static_cast<size_t>(per_table - per_table / 3));
    EXPECT_EQ(dir->bucket_count(), static_cast<size_t>(per_table));
  }
}

// The epoch reclaimer under the churn it exists for: one writer creates,
// writes and unlinks file after file in /d while readers stat and read
// names in /d, through the optimistic walk, under the CRL-H monitor. Every
// unlink retires an inode and an entry shell that a pinned reader may still
// be on. The monitor must stay clean, the limbo list must stay bounded (the
// writer retires about 2 objects per file, far more than the bound, so
// reclamation must keep up while readers pin), and ASan/LSan must find
// neither a use after free during the run nor a leak after ~AtomFs.
TEST(RaceStress, ReclaimUnderUnlinkChurn) {
  const uint64_t seed = StressSeed();
  const int readers = 3;
  const int files = 100000 / kScale;
  const int live = 16;  // files in /d at any time
  const size_t pending_bound = 64 * Reclaimer::kScanEvery;

  // The verdict is computed online at every LP and op end; a history of
  // every op (~100k here) would only grow the test's own memory.
  CrlhMonitor::Options mon_opts;
  mon_opts.record_history = false;
  CrlhMonitor monitor(mon_opts);
  AtomFs::Options opts;
  opts.observer = &monitor;
  size_t max_pending = 0;
  {
    AtomFs fs(std::move(opts));
    ASSERT_TRUE(fs.Mkdir("/d").ok());
    auto name = [](int i) { return *ParsePath("/d/f" + std::to_string(i)); };

    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
    std::atomic<int> newest{0};
    std::atomic<bool> writer_done{false};
    RaceBarrier barrier(1 + readers);
    std::vector<std::thread> cohort;
    cohort.reserve(1 + readers);
    cohort.emplace_back([&] {
      ScheduleShaker shaker(seed, 0);
      const std::vector<std::byte> payload(100, std::byte{7});
      barrier.Arrive();
      for (int i = 0; i < files && std::chrono::steady_clock::now() < deadline; ++i) {
        RunOp(fs, OpCall::MknodOf(name(i)));
        RunOp(fs, OpCall::WriteOf(name(i), 0, payload));
        newest.store(i, std::memory_order_release);
        if (i >= live) {
          RunOp(fs, OpCall::UnlinkOf(name(i - live)));
        }
        max_pending = std::max(max_pending, fs.PendingReclaim());
        if (i % 256 == 0) {
          shaker.Perturb();
        }
      }
      writer_done.store(true, std::memory_order_release);
    });
    for (int r = 0; r < readers; ++r) {
      cohort.emplace_back([&, r] {
        Rng rng(seed * 7777 + r);
        ScheduleShaker shaker(seed, static_cast<uint32_t>(1 + r));
        barrier.Arrive();
        uint64_t ops = 0;
        while (!writer_done.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
          // Mostly names that are live or were just unlinked.
          const int i = newest.load(std::memory_order_acquire) -
                        static_cast<int>(rng.Below(2 * live));
          if (rng.Below(2) == 0) {
            RunOp(fs, OpCall::StatOf(name(std::max(i, 0))));
          } else {
            RunOp(fs, OpCall::ReadOf(name(std::max(i, 0)), 0, 64));
          }
          if (++ops % 64 == 0) {
            shaker.Perturb();
          }
        }
      });
    }
    for (auto& th : cohort) {
      th.join();
    }

    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "writer did not finish in time";
    ASSERT_TRUE(monitor.ok()) << monitor.violations()[0];
    EXPECT_TRUE(monitor.CheckQuiescent(fs.SnapshotSpec()));
    const auto dir = fs.Stat("/d");
    ASSERT_TRUE(dir.ok());
    EXPECT_EQ(dir->size, static_cast<uint64_t>(live));
  }
  EXPECT_LT(max_pending, pending_bound)
      << "the limbo list grew with the churn: reclamation did not keep up";
}

// --- MetricsRegistry snapshot vs. writers ------------------------------------

TEST(RaceStress, MetricsSnapshotVsWriters) {
  const uint64_t seed = StressSeed();
  const int writers = 6;
  const int rounds = 4000 / kScale;
  constexpr uint64_t kValue = 1024;  // constant so sum/count coherence is exact

  MetricsRegistry registry;
  RaceBarrier barrier(writers + 1);
  std::atomic<bool> done{false};
  std::vector<std::thread> cohort;
  for (int t = 0; t < writers; ++t) {
    cohort.emplace_back([&, t] {
      Counter c = registry.GetCounter("stress.events");
      Gauge g = registry.GetGauge("stress.level");
      Histogram h = registry.GetHistogram("stress.latency");
      ScheduleShaker shaker(seed, static_cast<uint32_t>(t));
      barrier.Arrive();
      for (int i = 0; i < rounds; ++i) {
        c.Inc();
        g.Add(1);
        h.Record(kValue);
        g.Sub(1);
        if (i % 128 == 0) {
          shaker.Perturb();
        }
      }
    });
  }
  std::thread reader([&] {
    barrier.Arrive();
    uint64_t last_count = 0;
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = registry.Snapshot();
      const uint64_t count = snap.CounterValue("stress.events");
      EXPECT_GE(count, last_count) << "counter went backwards";
      last_count = count;
      const HistogramSnapshot* h = snap.FindHistogram("stress.latency");
      if (h != nullptr) {
        // The release/acquire bucket protocol: every counted event's sum
        // contribution is visible, so sum >= count * value always.
        EXPECT_GE(h->sum, h->count * kValue) << "histogram counted an event whose sum is missing";
        (void)snap.ToText();  // the --metrics-dump path, concurrently
      }
    }
  });
  for (auto& th : cohort) {
    th.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  const MetricsSnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.CounterValue("stress.events"),
            static_cast<uint64_t>(writers) * rounds);
  EXPECT_EQ(final_snap.GaugeValue("stress.level"), 0);
  const HistogramSnapshot* h = final_snap.FindHistogram("stress.latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<uint64_t>(writers) * rounds);
  EXPECT_EQ(h->sum, static_cast<uint64_t>(writers) * rounds * kValue);
}

// --- TraceRing concurrent writers vs. snapshot readers -----------------------

TEST(RaceStress, TraceRingNeverTearsEvents) {
  const uint64_t seed = StressSeed();
  const int writers = 4;
  const int appends = 20000 / kScale;

  // Small ring: constant wrap pressure, so slot reuse races with readers.
  TraceRing ring(256);
  RaceBarrier barrier(writers + 1);
  std::atomic<bool> done{false};

  // Every field of a writer's event is derived from one value, so a torn
  // copy (fields from two different writes) is detectable.
  auto make_event = [](uint32_t tid, uint64_t i) {
    TraceEvent e;
    e.tid = tid;
    e.type = TraceEventType::kLockAcquired;
    e.ino = i * 1000 + tid;
    e.arg = i * 1000 + tid;
    e.depth = static_cast<uint16_t>(i % 1000);
    return e;
  };

  std::vector<std::thread> cohort;
  for (int t = 0; t < writers; ++t) {
    cohort.emplace_back([&, t] {
      ScheduleShaker shaker(seed, static_cast<uint32_t>(t));
      barrier.Arrive();
      for (int i = 0; i < appends; ++i) {
        ring.Append(make_event(static_cast<uint32_t>(t), static_cast<uint64_t>(i)));
        if (i % 256 == 0) {
          shaker.Perturb();
        }
      }
    });
  }
  std::thread reader([&] {
    barrier.Arrive();
    while (!done.load(std::memory_order_acquire)) {
      for (const TraceEvent& e : ring.Snapshot()) {
        ASSERT_EQ(e.ino, e.arg) << "torn event: ino and arg written together";
        ASSERT_EQ(e.ino % 1000, e.tid) << "torn event: ino from a different writer than tid";
        ASSERT_EQ(e.depth, (e.ino / 1000) % 1000) << "torn event: depth from a different append";
      }
    }
  });
  for (auto& th : cohort) {
    th.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(ring.total_appended(), static_cast<uint64_t>(writers) * appends);
  // Quiesced: a final snapshot is consistent and near-capacity (concurrent
  // wrap losers may leave a few stale slots, never torn ones).
  const auto final_events = ring.Snapshot();
  EXPECT_LE(final_events.size(), ring.capacity());
  EXPECT_GE(final_events.size(), ring.capacity() / 2);
}

// Flight-recorder hot loop: writers hammer the ring with the ghost-event
// types the CrlhMonitor instrumentation emits (kHelp carrying flags/aux,
// kHelpedRetired, kInvariant) while readers concurrently Snapshot and render
// the slice through ExportChromeTrace — the exact reader the TRACE wire op
// and `atomfsd --trace-out` run against a live ring. Exercises the seqlock
// protocol over the full 56-byte event (the `aux` word is the newest field)
// and the exporter's tolerance for slices that start mid-operation.
TEST(RaceStress, GhostEventRingExportUnderWriteLoad) {
  const uint64_t seed = StressSeed();
  const int writers = 4;
  const int readers = 2;
  const int appends = 12000 / kScale;

  TraceRing ring(512);  // wrap pressure: exporters always see a torn window
  RaceBarrier barrier(writers + readers);
  std::atomic<bool> done{false};

  // Every field derives from (tid, i) so readers can detect torn copies.
  auto make_event = [](uint32_t tid, uint64_t i) {
    TraceEvent e;
    e.tid = tid;
    switch (i % 3) {
      case 0:
        e.type = TraceEventType::kHelp;
        e.flags = i % 2 == 0 ? kTraceHelpReasonSrcPrefix : kTraceHelpReasonLockPathPrefix;
        e.depth = static_cast<uint16_t>(i % 7 + 1);
        break;
      case 1:
        e.type = TraceEventType::kHelpedRetired;
        break;
      default:
        e.type = TraceEventType::kInvariant;
        e.op = static_cast<uint8_t>(i % kInvariantKindCount);
        break;
    }
    e.ino = i * 1000 + tid;
    e.arg = i * 1000 + tid;
    e.aux = i * 1000 + tid;
    return e;
  };

  std::vector<std::thread> cohort;
  for (int t = 0; t < writers; ++t) {
    cohort.emplace_back([&, t] {
      ScheduleShaker shaker(seed, static_cast<uint32_t>(t));
      barrier.Arrive();
      for (int i = 0; i < appends; ++i) {
        ring.Append(make_event(static_cast<uint32_t>(t), static_cast<uint64_t>(i)));
        if (i % 256 == 0) {
          shaker.Perturb();
        }
      }
    });
  }
  std::vector<std::thread> exporters;
  for (int r = 0; r < readers; ++r) {
    exporters.emplace_back([&, r] {
      ScheduleShaker shaker(seed, static_cast<uint32_t>(100 + r));
      barrier.Arrive();
      while (!done.load(std::memory_order_acquire)) {
        const auto events = ring.Snapshot();
        for (const TraceEvent& e : events) {
          ASSERT_EQ(e.ino, e.arg) << "torn event: ino and arg written together";
          ASSERT_EQ(e.ino, e.aux) << "torn event: aux from a different append";
          ASSERT_EQ(e.ino % 1000, e.tid) << "torn event: ino from a different writer than tid";
        }
        const std::string json = ExportChromeTrace(events);
        ASSERT_FALSE(json.empty());
        ASSERT_EQ(json.front(), '{');
        ASSERT_EQ(json.back(), '}');
        shaker.Perturb();
      }
    });
  }
  for (auto& th : cohort) {
    th.join();
  }
  done.store(true, std::memory_order_release);
  for (auto& th : exporters) {
    th.join();
  }
  EXPECT_EQ(ring.total_appended(), static_cast<uint64_t>(writers) * appends);
}

// --- live server: pipelining, Stop() mid-traffic, idle-reap vs. flush --------

std::string StressSocketPath(const char* tag) {
  static int counter = 0;
  return "/tmp/atomfs_race_" + std::to_string(getpid()) + "_" + tag + "_" +
         std::to_string(counter++) + ".sock";
}

TEST(RaceStress, ServerPipelinedTrafficWithConcurrentStop) {
  const uint64_t seed = StressSeed();
  const int client_threads = 4;
  const int rounds = 60 / kScale;

  AtomFs fs;
  MetricsRegistry registry;  // outlives the server (ServerOptions::metrics rule)
  ServerOptions options;
  options.unix_path = StressSocketPath("stop");
  options.shards = 3;  // up to three requests run at once when Stop() lands
  options.metrics = &registry;
  AtomFsServer server(&fs, options);
  ASSERT_TRUE(server.Start().ok());

  RaceBarrier barrier(client_threads + 1);
  std::vector<std::thread> cohort;
  std::atomic<int> io_failures{0};
  for (int t = 0; t < client_threads; ++t) {
    cohort.emplace_back([&, t] {
      Rng rng(seed * 77 + t);
      ScheduleShaker shaker(seed, static_cast<uint32_t>(t));
      barrier.Arrive();
      auto client = AtomFsClient::ConnectUnix(options.unix_path);
      if (!client.ok()) {
        io_failures.fetch_add(1, std::memory_order_relaxed);
        return;  // raced with Stop before the handshake — acceptable
      }
      for (int i = 0; i < rounds; ++i) {
        // Pipelined burst on the session, then a metrics snapshot over the
        // wire (exercises registry Snapshot vs. the server's own writers).
        ClientSession& session = (*client)->session();
        std::vector<ClientSession::Future> futures;
        for (int b = 0; b < 8; ++b) {
          WireRequest req;
          req.op = WireOp::kMkdir;
          req.path_a = "/t" + std::to_string(t) + "_" + std::to_string(rng.Below(32));
          futures.push_back(session.Submit(req));
        }
        if (!session.Flush().ok()) {
          io_failures.fetch_add(1, std::memory_order_relaxed);
          break;  // server stopped underneath us: every future must still resolve
        }
        for (auto& f : futures) {
          (void)f.Wait();  // must never hang or crash, whatever Stop did
        }
        shaker.Perturb();
      }
    });
  }
  // Let traffic build, then stop the server with requests inflight.
  barrier.Arrive();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Stop();
  for (auto& th : cohort) {
    th.join();
  }
  // The run is about surviving the race; clients may or may not have seen
  // the shutdown depending on timing.
  SUCCEED();
}

TEST(RaceStress, IdleReapRacesClientFlush) {
  const uint64_t seed = StressSeed();
  const int client_threads = 3;
  const int rounds = 20 / (kScale > 2 ? 2 : 1);

  AtomFs fs;
  MetricsRegistry registry;
  ServerOptions options;
  options.unix_path = StressSocketPath("reap");
  options.shards = 2;
  options.idle_timeout_ms = 5;  // aggressive: reap constantly
  options.metrics = &registry;
  AtomFsServer server(&fs, options);
  ASSERT_TRUE(server.Start().ok());

  RaceBarrier barrier(client_threads);
  std::vector<std::thread> cohort;
  for (int t = 0; t < client_threads; ++t) {
    cohort.emplace_back([&, t] {
      Rng rng(seed * 13 + t);
      ScheduleShaker shaker(seed, static_cast<uint32_t>(t));
      barrier.Arrive();
      for (int i = 0; i < rounds; ++i) {
        auto client = AtomFsClient::ConnectUnix(options.unix_path);
        if (!client.ok()) {
          continue;
        }
        ClientSession& session = (*client)->session();
        std::vector<ClientSession::Future> futures;
        for (int b = 0; b < 4; ++b) {
          WireRequest req;
          req.op = WireOp::kStat;
          req.path_a = "/";
          futures.push_back(session.Submit(req));
        }
        // Sometimes dawdle past the idle timeout with requests staged, so
        // the server's reaper runs while we are about to flush — the
        // ETIMEDOUT courtesy frame then races our MSGBATCH.
        if (rng.Chance(1, 2)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(8));
        }
        (void)session.Flush();
        for (auto& f : futures) {
          const auto r = f.Wait();
          if (!r.ok()) {
            // Reaped mid-conversation: kTimedOut (courtesy frame landed),
            // kIo (hard close won), or kProto are all legal; a hang or
            // crash is the bug this test exists to catch.
            EXPECT_TRUE(r.status().code() == Errc::kTimedOut ||
                        r.status().code() == Errc::kIo ||
                        r.status().code() == Errc::kProto)
                << ErrcName(r.status().code());
          }
        }
        shaker.Perturb();
      }
    });
  }
  for (auto& th : cohort) {
    th.join();
  }
  server.Stop();
}

// One session shared across threads: Submit/Flush/Wait interleave under the
// session mutex while the server pipelines — the client-side counterpart of
// the shard loop that alone runs each connection on the server.
TEST(RaceStress, SharedSessionConcurrentSubmitters) {
  const uint64_t seed = StressSeed();
  const int threads = 4;
  const int rounds = 80 / kScale;

  AtomFs fs;
  MetricsRegistry registry;
  ServerOptions options;
  options.unix_path = StressSocketPath("shared");
  options.shards = 1;
  options.metrics = &registry;
  AtomFsServer server(&fs, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = AtomFsClient::ConnectUnix(options.unix_path);
  ASSERT_TRUE(client.ok());
  ClientSession& session = (*client)->session();

  RaceBarrier barrier(threads);
  std::vector<std::thread> cohort;
  for (int t = 0; t < threads; ++t) {
    cohort.emplace_back([&, t] {
      Rng rng(seed * 31 + t);
      ScheduleShaker shaker(seed, static_cast<uint32_t>(t));
      barrier.Arrive();
      for (int i = 0; i < rounds; ++i) {
        WireRequest req;
        req.op = WireOp::kMkdir;
        req.path_a = "/s" + std::to_string(rng.Below(64));
        auto future = session.Submit(req);
        if (rng.Chance(1, 3)) {
          shaker.Perturb();  // leave it staged a while; another thread flushes
        }
        const auto r = future.Wait();
        ASSERT_TRUE(r.ok() || r.status().code() == Errc::kExist ||
                    r.status().code() == Errc::kNotDir)
            << ErrcName(r.status().code());
      }
    });
  }
  for (auto& th : cohort) {
    th.join();
  }
  server.Stop();
}

}  // namespace
}  // namespace atomfs
