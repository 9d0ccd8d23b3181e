// Deterministic reproductions of the paper's key interleavings:
//
//   * Figure 4(a): disjoint ins/del — fixed LPs suffice.
//   * Figure 1:    rename breaks mkdir's traversed path — the fixed-LP order
//                  is illegal, the helper order is legal.
//   * Figure 4(b)-style: rename helps a read-side op (stat).
//   * Figure 4(c): recursive path inter-dependency across two renames.
//   * fixed_lp_mode: the same Figure 1 schedule *fails* refinement when the
//                  helper mechanism is disabled, exactly as §3.1 predicts.
//
// Schedules are forced with GateObserver: a thread is parked at a lock
// release so it sits inside its critical section holding exactly the lock
// the scenario requires.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/afs/op.h"
#include "src/core/atom_fs.h"
#include "src/crlh/bundle.h"
#include "src/crlh/gate.h"
#include "src/crlh/lin_check.h"
#include "src/crlh/monitor.h"
#include "src/crlh/op_thread.h"
#include "src/obs/metrics.h"
#include "src/obs/tracer.h"
#include "src/txn/txn.h"

namespace atomfs {
namespace {

// Real locks, plus a Work() that can park a thread at a cost-accounting
// point that has no observer event: between an optimistic lookup and the
// lock that follows it, or inside a mutation's version window. The test
// picks the point by the cost value charged there.
class ParkingExecutor : public Executor {
 public:
  std::unique_ptr<Lockable> CreateLock() override { return Executor::Real().CreateLock(); }
  uint64_t NowNanos() override { return Executor::Real().NowNanos(); }

  // Parks `tid` at its `nth` Work(cost_ns) call from now on.
  void Arm(Tid tid, uint64_t cost_ns, int nth = 1) {
    std::lock_guard<std::mutex> lk(mu_);
    gates_[tid] = Gate{cost_ns, nth, false, false};
  }
  void WaitParked(Tid tid) {
    std::unique_lock<std::mutex> lk(mu_);
    if (!cv_.wait_for(lk, kGateWaitBound, [&] { return gates_[tid].parked; })) {
      std::fprintf(stderr, "ParkingExecutor::WaitParked: tid %u never reached its Work(%llu)\n",
                   static_cast<unsigned>(tid),
                   static_cast<unsigned long long>(gates_[tid].cost_ns));
      std::abort();
    }
  }
  void Open(Tid tid) {
    std::lock_guard<std::mutex> lk(mu_);
    gates_[tid].open = true;
    cv_.notify_all();
  }

  void Work(uint64_t cost_ns) override {
    std::unique_lock<std::mutex> lk(mu_);
    auto it = gates_.find(CurrentTid());
    if (it == gates_.end() || it->second.cost_ns != cost_ns || it->second.remaining <= 0 ||
        --it->second.remaining > 0) {
      return;
    }
    it->second.parked = true;
    cv_.notify_all();
    cv_.wait(lk, [it] { return it->second.open; });
  }

 private:
  struct Gate {
    uint64_t cost_ns = 0;
    int remaining = 0;
    bool parked = false;
    bool open = false;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<Tid, Gate> gates_;
};

// Test fixture wiring AtomFs -> (CrlhMonitor, TracingObserver, GateObserver).
// The tracer lets tests assert the core.rcuwalk.* counters and harvest a
// flight-recorder slice for a post-mortem bundle. `opts` carries what a test
// changes (the unsafe skip-validation hook, an executor, costs); the fixture
// sets the observer.
class ScenarioTest : public ::testing::Test {
 protected:
  void Build(CrlhMonitor::Options mon_opts = {}, AtomFs::Options opts = {}) {
    monitor_ = std::make_unique<CrlhMonitor>(mon_opts);
    ring_ = std::make_unique<TraceRing>(4096);
    registry_ = std::make_unique<MetricsRegistry>();
    tracer_ = std::make_unique<TracingObserver>(registry_.get(), ring_.get());
    inner_tee_ = std::make_unique<TeeObserver>(tracer_.get(), &gate_);
    tee_ = std::make_unique<TeeObserver>(monitor_.get(), inner_tee_.get());
    opts.observer = tee_.get();
    fs_ = std::make_unique<AtomFs>(std::move(opts));
  }

  // The core.rcuwalk.* counters, so a test can count what its schedule
  // added to what the setup left.
  struct RcuCounts {
    uint64_t attempts = 0;
    uint64_t failures = 0;
    uint64_t fallbacks = 0;
    uint64_t unvalidated = 0;

    RcuCounts operator-(const RcuCounts& o) const {
      return {attempts - o.attempts, failures - o.failures, fallbacks - o.fallbacks,
              unvalidated - o.unvalidated};
    }
  };
  RcuCounts Rcu() const {
    const MetricsSnapshot snap = registry_->Snapshot();
    return {snap.CounterValue("core.rcuwalk.attempts"),
            snap.CounterValue("core.rcuwalk.validation_failures"),
            snap.CounterValue("core.rcuwalk.fallbacks"),
            snap.CounterValue("core.rcuwalk.unvalidated_reads")};
  }

  // Puts `op` on the lock-coupled walk (GateObserver::StartOnLockedWalk)
  // with a stat of the root as the holder.
  void StartOnLockedWalk(OpThread& op) {
    ASSERT_TRUE(gate_.StartOnLockedWalk(op, [this] { EXPECT_TRUE(fs_->Stat("/").ok()); }));
  }

  Inum InoOf(std::string_view path) {
    auto attr = fs_->Stat(path);
    EXPECT_TRUE(attr.ok()) << path;
    return attr->ino;
  }

  // Orders of the completed records.
  std::vector<size_t> FixedLpOrder(const std::vector<CrlhMonitor::CompletedRecord>& recs) {
    std::vector<uint64_t> keys;
    for (const auto& r : recs) {
      keys.push_back(r.lp_seq);
    }
    return OrderBy(HistoryFromRecords(recs), keys);
  }

  std::vector<size_t> HelperOrder(const std::vector<CrlhMonitor::CompletedRecord>& recs) {
    std::vector<uint64_t> keys;
    for (const auto& r : recs) {
      keys.push_back(r.abs_seq);
    }
    return OrderBy(HistoryFromRecords(recs), keys);
  }

  GateObserver gate_;
  std::unique_ptr<CrlhMonitor> monitor_;
  std::unique_ptr<TraceRing> ring_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<TracingObserver> tracer_;
  std::unique_ptr<TeeObserver> inner_tee_;
  std::unique_ptr<TeeObserver> tee_;
  std::unique_ptr<AtomFs> fs_;
};

// The monitor must be clean after a purely sequential prologue: set up under
// observation, drain, and check quiescent consistency.
TEST_F(ScenarioTest, SequentialPrologueIsClean) {
  Build();
  EXPECT_TRUE(fs_->Mkdir("/a").ok());
  EXPECT_TRUE(fs_->Mkdir("/a/b").ok());
  EXPECT_TRUE(fs_->Mknod("/a/b/f").ok());
  EXPECT_TRUE(fs_->Rename("/a/b/f", "/a/g").ok());
  EXPECT_TRUE(fs_->Unlink("/a/g").ok());
  EXPECT_EQ(fs_->Rmdir("/a").code(), Errc::kNotEmpty);
  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  EXPECT_EQ(monitor_->helped_ops(), 0u);
}

// A gate armed at a point the op never reaches (a lock on an inode that does
// not exist) must fail the test within the wait bound, naming the tid and the
// point, instead of hanging until the test runner's timeout.
TEST(GateDeathTest, WaitParkedAbortsWhenTheOpNeverReachesItsGate) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto start = std::chrono::steady_clock::now();
  EXPECT_DEATH(
      {
        GateObserver gate;
        AtomFs::Options opts;
        opts.observer = &gate;
        AtomFs fs(std::move(opts));
        OpThread stat([&] { (void)fs.Stat("/"); });
        gate.Arm(stat.tid(), GateObserver::Point::kLockAcquired, /*ino=*/4242);
        stat.Go();
        gate.WaitParked(stat.tid(), std::chrono::milliseconds(200));
      },
      "tid [0-9]+ never reached its lock-acquired gate \\(ino 4242\\)");
  EXPECT_LT(std::chrono::steady_clock::now() - start, kGateWaitBound);
}

// Figure 4(a): ins(/a, c) runs concurrently with del(/, a)... here realized
// as ins completing before an overlapping del of a *disjoint* path; no path
// inter-dependency, no helping, and the fixed-LP order is already legal.
TEST_F(ScenarioTest, Fig4aFixedLpsSufficeWithoutInterdependency) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/d").ok());

  OpThread ins([&] { EXPECT_TRUE(fs_->Mkdir("/a/c").ok()); });
  OpThread del([&] { EXPECT_TRUE(fs_->Rmdir("/d").ok()); });
  // Park ins inside its critical section (holding /a), run del fully, then
  // let ins finish: overlapping, but no shared path.
  gate_.Arm(ins.tid(), GateObserver::Point::kLockReleased, kRootInum);
  StartOnLockedWalk(ins);
  gate_.WaitParked(ins.tid());
  del.Go();
  del.Join();
  gate_.Open(ins.tid());
  ins.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_EQ(monitor_->helped_ops(), 0u);
  auto recs = monitor_->Completed();
  EXPECT_EQ(ReplayOrder(HistoryFromRecords(recs), FixedLpOrder(recs)), std::nullopt);
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
}

// Figure 1: mkdir(/a/b/c) traverses through /a and halts; rename(/a, /e)
// completes first. The helper mechanism must linearize the mkdir before the
// rename; the fixed-LP temporal order is an illegal sequential history.
TEST_F(ScenarioTest, Fig1RenameHelpsMkdir) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  const Inum ino_a = InoOf("/a");

  OpThread mkdir_op([&] { EXPECT_TRUE(fs_->Mkdir("/a/b/c").ok()); });
  // Park mkdir on the lock-coupled walk right after it releases /a: it then
  // holds only /a/b, with LockPath (root, a, b).
  gate_.Arm(mkdir_op.tid(), GateObserver::Point::kLockReleased, ino_a);
  StartOnLockedWalk(mkdir_op);
  gate_.WaitParked(mkdir_op.tid());

  // rename completes while mkdir sits in its critical section.
  EXPECT_TRUE(fs_->Rename("/a", "/e").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);

  gate_.Open(mkdir_op.tid());
  mkdir_op.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  // The directory landed inside the renamed tree.
  EXPECT_TRUE(fs_->Stat("/e/b/c").ok());

  auto recs = monitor_->Completed();  // includes the observed setup ops
  size_t helped_count = 0;
  for (const auto& r : recs) {
    helped_count += r.helped ? 1 : 0;
  }
  EXPECT_EQ(helped_count, 1u);
  // The helper order replays legally...
  EXPECT_EQ(ReplayOrder(HistoryFromRecords(recs), HelperOrder(recs)), std::nullopt);
  // ...the fixed-LP order does not (the paper's Figure 1).
  EXPECT_NE(ReplayOrder(HistoryFromRecords(recs), FixedLpOrder(recs)), std::nullopt);
  // Ground truth: the concurrent history *is* linearizable.
  auto verdict = CheckLinearizable(HistoryFromRecords(recs));
  EXPECT_TRUE(verdict.linearizable);
}

// The same schedule with the helper disabled: the monitor must report a
// refinement violation at the mkdir (its abstract op, run at its concrete
// LP, fails with ENOENT while the concrete op succeeded).
TEST_F(ScenarioTest, Fig1FixedLpModeFailsRefinement) {
  CrlhMonitor::Options opts;
  opts.fixed_lp_mode = true;
  opts.check_invariants = false;  // isolate the refinement verdict
  Build(opts);
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  const Inum ino_a = InoOf("/a");

  OpThread mkdir_op([&] { EXPECT_TRUE(fs_->Mkdir("/a/b/c").ok()); });
  gate_.Arm(mkdir_op.tid(), GateObserver::Point::kLockReleased, ino_a);
  StartOnLockedWalk(mkdir_op);
  gate_.WaitParked(mkdir_op.tid());
  EXPECT_TRUE(fs_->Rename("/a", "/e").ok());
  gate_.Open(mkdir_op.tid());
  mkdir_op.Join();

  EXPECT_FALSE(monitor_->ok());
  bool found_refinement = false;
  for (const auto& v : monitor_->violations()) {
    if (v.find("REFINEMENT") != std::string::npos) {
      found_refinement = true;
    }
  }
  EXPECT_TRUE(found_refinement);
}

// Figure 4(b) flavour: a read-side operation (stat) is helped. The stat's
// result must be computed against the pre-rename tree even though it
// concretely finishes afterwards. Only a stat on the lock-coupled walk can be
// helped (an optimistic one holds no path), so the stat starts on it.
TEST_F(ScenarioTest, RenameHelpsStat) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(fs_->Mknod("/a/b/f").ok());
  ASSERT_TRUE(WriteString(*fs_, "/a/b/f", "xyz").ok());
  const Inum ino_b = InoOf("/a/b");

  OpThread stat_op([&] {
    auto attr = fs_->Stat("/a/b/f");
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 3u);
  });
  // Park after releasing b: the stat holds only f. LockPath (root,a,b,f).
  gate_.Arm(stat_op.tid(), GateObserver::Point::kLockReleased, ino_b);
  StartOnLockedWalk(stat_op);
  gate_.WaitParked(stat_op.tid());

  // This rename's SrcPath (root, a, b) is a prefix of the stat's LockPath.
  EXPECT_TRUE(fs_->Rename("/a/b", "/g").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);

  gate_.Open(stat_op.tid());
  stat_op.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  auto recs = monitor_->Completed();
  EXPECT_EQ(ReplayOrder(HistoryFromRecords(recs), HelperOrder(recs)), std::nullopt);
  EXPECT_TRUE(CheckLinearizable(HistoryFromRecords(recs)).linearizable);
}

// Figure 4(c): recursive path inter-dependency. t1's rename helps t2's
// rename, which in turn forces t3's stat to be helped and ordered before t2.
TEST_F(ScenarioTest, Fig4cRecursiveDependency) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/e").ok());
  ASSERT_TRUE(fs_->Mknod("/a/e/f").ok());
  ASSERT_TRUE(fs_->Mkdir("/b").ok());
  ASSERT_TRUE(fs_->Mkdir("/b/c").ok());
  ASSERT_TRUE(fs_->Mkdir("/b/c/d").ok());
  const Inum ino_e = InoOf("/a/e");

  // t3: stat(/a/e/f) on the lock-coupled walk, parked holding only f.
  OpThread t3([&] { EXPECT_TRUE(fs_->Stat("/a/e/f").ok()); });
  gate_.Arm(t3.tid(), GateObserver::Point::kLockReleased, ino_e);
  StartOnLockedWalk(t3);
  gate_.WaitParked(t3.tid());

  // t2: rename(/a/e, /b/c/d/e), parked right after releasing the last common
  // inode (the root): it holds sdir=a and ddir=d, with SrcPath (root,a) and
  // DestPath (root,b,c,d).
  OpThread t2([&] { EXPECT_TRUE(fs_->Rename("/a/e", "/b/c/d/e").ok()); });
  gate_.Arm(t2.tid(), GateObserver::Point::kLockReleased, kRootInum);
  t2.Go();
  gate_.WaitParked(t2.tid());

  // t1: rename(/b/c, /b/g) runs to completion. Its SrcPath (root,b,c) is a
  // strict prefix of t2's DestPath, and t3's LockPath extends t2's SrcPath:
  // both must be helped, t3 before t2.
  EXPECT_TRUE(fs_->Rename("/b/c", "/b/g").ok());
  EXPECT_EQ(monitor_->helped_ops(), 2u);

  gate_.Open(t3.tid());
  t3.Join();
  gate_.Open(t2.tid());
  t2.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  // The moved file ends up below the doubly-renamed path.
  EXPECT_TRUE(fs_->Stat("/b/g/d/e/f").ok());

  auto recs = monitor_->Completed();  // includes the observed setup ops
  EXPECT_EQ(ReplayOrder(HistoryFromRecords(recs), HelperOrder(recs)), std::nullopt);
  EXPECT_NE(ReplayOrder(HistoryFromRecords(recs), FixedLpOrder(recs)), std::nullopt);
  EXPECT_TRUE(CheckLinearizable(HistoryFromRecords(recs)).linearizable);

  // The helped stat must be ordered before the helped rename (t2), which is
  // ordered before the helper (t1).
  uint64_t stat_abs = 0;
  uint64_t t2_abs = 0;
  uint64_t t1_abs = 0;
  for (const auto& r : recs) {
    if (r.call.kind == OpKind::kStat && r.call.a.ToString() == "/a/e/f") {
      stat_abs = r.abs_seq;
      EXPECT_TRUE(r.helped);
    } else if (r.call.kind == OpKind::kRename && r.call.a.ToString() == "/a/e") {
      t2_abs = r.abs_seq;
      EXPECT_TRUE(r.helped);
    } else if (r.call.kind == OpKind::kRename && r.call.a.ToString() == "/b/c") {
      t1_abs = r.abs_seq;
      EXPECT_FALSE(r.helped);
    }
  }
  ASSERT_NE(stat_abs, 0u);
  ASSERT_NE(t2_abs, 0u);
  ASSERT_NE(t1_abs, 0u);
  EXPECT_LT(stat_abs, t2_abs);
  EXPECT_LT(t2_abs, t1_abs);
}

// A rename whose destination victim is a populated-then-emptied directory,
// overlapping with a deep read: exercises helping together with a dnode
// replacement.
TEST_F(ScenarioTest, RenameWithVictimHelpsReader) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/src").ok());
  ASSERT_TRUE(fs_->Mknod("/src/f").ok());
  ASSERT_TRUE(fs_->Mkdir("/victim").ok());
  const Inum ino_src = InoOf("/src");

  OpThread reader([&] {
    auto attr = fs_->Stat("/src/f");
    EXPECT_TRUE(attr.ok());
  });
  gate_.Arm(reader.tid(), GateObserver::Point::kLockReleased, ino_src);
  StartOnLockedWalk(reader);
  gate_.WaitParked(reader.tid());

  EXPECT_TRUE(fs_->Rename("/src", "/victim").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);

  gate_.Open(reader.tid());
  reader.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  EXPECT_TRUE(fs_->Stat("/victim/f").ok());
}

// A helped delete: its FutLockPath must predict the target lock from the
// pre-Aop abstract state (regression: computing it after the helped UNLINK
// removed the target made the concrete target lock look like a bypass).
TEST_F(ScenarioTest, RenameHelpsUnlink) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(fs_->Mknod("/a/b/x").ok());
  const Inum ino_a = InoOf("/a");

  OpThread unlink_op([&] { EXPECT_TRUE(fs_->Unlink("/a/b/x").ok()); });
  gate_.Arm(unlink_op.tid(), GateObserver::Point::kLockReleased, ino_a);
  StartOnLockedWalk(unlink_op);
  gate_.WaitParked(unlink_op.tid());

  EXPECT_TRUE(fs_->Rename("/a", "/z").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);

  gate_.Open(unlink_op.tid());
  unlink_op.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  EXPECT_EQ(fs_->Stat("/z/b/x").status().code(), Errc::kNoEnt);
}

// Same for a helped rmdir of an empty directory.
TEST_F(ScenarioTest, RenameHelpsRmdir) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b/d").ok());
  const Inum ino_a = InoOf("/a");

  OpThread rmdir_op([&] { EXPECT_TRUE(fs_->Rmdir("/a/b/d").ok()); });
  gate_.Arm(rmdir_op.tid(), GateObserver::Point::kLockReleased, ino_a);
  StartOnLockedWalk(rmdir_op);
  gate_.WaitParked(rmdir_op.tid());

  EXPECT_TRUE(fs_->Rename("/a", "/z").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);

  gate_.Open(rmdir_op.tid());
  rmdir_op.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
}

// Abstract-concrete relation mid-flight: while a helped mkdir is still
// parked, the abstract state runs ahead; the roll-back mechanism must
// reconcile it with the concrete snapshot.
TEST_F(ScenarioTest, RollbackRelationHoldsMidFlight) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  const Inum ino_a = InoOf("/a");

  OpThread mkdir_op([&] { EXPECT_TRUE(fs_->Mkdir("/a/b/c").ok()); });
  gate_.Arm(mkdir_op.tid(), GateObserver::Point::kLockReleased, ino_a);
  StartOnLockedWalk(mkdir_op);
  gate_.WaitParked(mkdir_op.tid());

  EXPECT_TRUE(fs_->Rename("/a", "/e").ok());
  ASSERT_EQ(monitor_->Helplist().size(), 1u);

  // The abstract tree already contains /e/b/c; the concrete tree does not.
  // Rolling back the helped mkdir's effect must reconcile them.
  EXPECT_TRUE(monitor_->CheckAbstractConcreteRelation(fs_->SnapshotSpec()));

  gate_.Open(mkdir_op.tid());
  mkdir_op.Join();
  EXPECT_TRUE(monitor_->Helplist().empty());
  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
}

// --- optimistic (RCU) walk under the CRL-H monitor ---------------------------
//
// The optimistic read path bypasses lock coupling, so its correctness rests
// entirely on the version-chain validation. These scenarios force the
// dangerous interleaving — a rename completing while an optimistic stat sits
// between resolution and validation — once with validation disabled (the
// monitor must flag the stale read) and once with it enabled (the walk must
// fall back and return the post-rename truth).

// A monitored stale read: the unsafe skip-validation hook lets the
// optimistic stat return the pre-rename attributes even though its LP lands
// after the rename. The monitor must report both the Opt-validation
// invariant violation (bypassing reader reached its LP unvalidated) and the
// refinement divergence (concrete success vs abstract ENOENT), and the
// post-mortem bundle must reproduce the divergence offline.
TEST_F(ScenarioTest, RcuStaleReadIsDetectedAndBundleReplays) {
  AtomFs::Options opts;
  opts.unsafe_skip_opt_validation = true;
  Build({}, std::move(opts));
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  // The setup's mkdirs skip validation too, but adopt their true path.
  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  const RcuCounts before = Rcu();

  OpThread reader([&] {
    // Resolved before the rename, validation skipped: the stat observes the
    // moved directory as if it were still at /a/b.
    EXPECT_TRUE(fs_->Stat("/a/b").ok());
  });
  // The optimistic walk's only lock acquisition is the target lock, taken
  // after lock-free resolution and right before validation would run — the
  // wildcard gate parks the reader exactly inside the validation window.
  gate_.Arm(reader.tid(), GateObserver::Point::kLockAcquired);
  reader.Go();
  gate_.WaitParked(reader.tid());

  // The rename only needs the root and /a — the reader can keep holding /a/b.
  EXPECT_TRUE(fs_->Rename("/a", "/z").ok());

  gate_.Open(reader.tid());
  reader.Join();

  EXPECT_FALSE(monitor_->ok());
  bool opt_violation = false;
  bool refinement = false;
  for (const auto& v : monitor_->violations()) {
    opt_violation = opt_violation || v.find("Opt-validation") != std::string::npos;
    refinement = refinement || v.find("REFINEMENT") != std::string::npos;
  }
  EXPECT_TRUE(opt_violation);
  EXPECT_TRUE(refinement);
  const RcuCounts added = Rcu() - before;
  EXPECT_EQ(added.unvalidated, 1u);
  EXPECT_EQ(added.attempts, 1u);

  // The divergence is replayable away from the schedule: bundle the
  // post-mortem state, round-trip it through the text form, and replay the
  // recorded abstract order — the stale stat's concrete result must diverge
  // from the oracle.
  auto pm = monitor_->PostMortemState();
  ASSERT_TRUE(pm.has_value());
  const PostMortemBundle bundle = BuildPostMortemBundle(*pm, ring_->Snapshot());
  std::istringstream in(FormatBundle(bundle));
  auto parsed = ParseBundle(in);
  ASSERT_TRUE(parsed.ok());
  const BundleReplay replay = ReplayBundle(*parsed);
  EXPECT_TRUE(replay.reproduced) << replay.verdict;
}

// The same interleaving with validation on: the reader's recorded version
// chain is invalidated by the rename, so its first attempt fails; the retry
// misses the renamed /a in the root, and that miss validates under the
// root's lock, deciding the correct post-rename ENOENT without the locked
// walk. The monitor must stay clean.
TEST_F(ScenarioTest, RcuValidationFailureRetriesIntoAValidatedMiss) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  const RcuCounts before = Rcu();

  OpThread reader([&] { EXPECT_EQ(fs_->Stat("/a/b").status().code(), Errc::kNoEnt); });
  gate_.Arm(reader.tid(), GateObserver::Point::kLockAcquired);
  reader.Go();
  gate_.WaitParked(reader.tid());
  EXPECT_TRUE(fs_->Rename("/a", "/z").ok());
  gate_.Open(reader.tid());
  reader.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  // Attempt 0 fails validation (the root's version moved); attempt 1 is a
  // validated miss, counted as a pass. No fallback, nothing unvalidated.
  const RcuCounts added = Rcu() - before;
  EXPECT_EQ(added.attempts, 2u);
  EXPECT_EQ(added.failures, 1u);
  EXPECT_EQ(added.fallbacks, 0u);
  EXPECT_EQ(added.unvalidated, 0u);
}

// A stat miss must not validate while an insert of the missing name is in
// flight. The reader misses x in /d and parks before locking /d; a Mknod of
// /d/x then parks inside its version window on /d (version odd, /d locked).
// Once both resume, the reader's lock of /d waits for the insert, its
// recorded version of /d no longer matches, and the attempt fails; the
// retry finds x. Deciding ENOENT here would put the stat's LP after the
// mknod's with a result only a stat before it could return.
TEST_F(ScenarioTest, RcuMissDoesNotValidateAcrossAnInsertWindow) {
  ParkingExecutor executor;
  AtomFs::Options opts;
  opts.executor = &executor;
  opts.costs.lookup_ns = 1;       // charged after every lookup (no other cost is 1 or 2)
  opts.costs.lookup_probe_ns = 0;
  opts.costs.dir_insert_ns = 2;   // charged inside Insert's version window
  Build({}, std::move(opts));
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  const RcuCounts before = Rcu();

  OpThread reader([&] {
    auto attr = fs_->Stat("/d/x");
    EXPECT_TRUE(attr.ok()) << ErrcName(attr.status().code());
  });
  executor.Arm(reader.tid(), /*cost_ns=*/1, /*nth=*/2);  // after the lookup of x in /d
  reader.Go();
  executor.WaitParked(reader.tid());

  OpThread writer([&] { EXPECT_TRUE(fs_->Mknod("/d/x").ok()); });
  executor.Arm(writer.tid(), /*cost_ns=*/2);
  writer.Go();
  executor.WaitParked(writer.tid());

  executor.Open(reader.tid());
  executor.Open(writer.tid());
  writer.Join();
  reader.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  // The stat's two attempts (one failed) and the mknod's one, adopted.
  const RcuCounts added = Rcu() - before;
  EXPECT_EQ(added.attempts, 3u);
  EXPECT_EQ(added.failures, 1u);
  EXPECT_EQ(added.fallbacks, 0u);
  EXPECT_EQ(added.unvalidated, 0u);
}

// A lock-coupled op parked holding /a may be a helped op whose abstract
// effect already happened while its concrete one is still to come, and the
// version chain cannot show that. So an optimistic stat of /a/b must not
// validate through the held /a: every attempt fails and the locked fallback
// waits behind the holder.
TEST_F(ScenarioTest, RcuValidationRefusesAHeldAncestor) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());

  // The holder lock-couples through the root and parks holding /a.
  OpThread holder([&] { EXPECT_TRUE(fs_->Mkdir("/a/c").ok()); });
  gate_.Arm(holder.tid(), GateObserver::Point::kLockReleased, kRootInum);
  StartOnLockedWalk(holder);
  gate_.WaitParked(holder.tid());
  const RcuCounts before = Rcu();

  OpThread reader([&] { EXPECT_TRUE(fs_->Stat("/a/b").ok()); });
  reader.Go();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Rcu().fallbacks == before.fallbacks && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate_.Open(holder.tid());
  holder.Join();
  reader.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  const RcuCounts added = Rcu() - before;
  EXPECT_EQ(added.attempts, 3u);
  EXPECT_EQ(added.failures, 3u);
  EXPECT_EQ(added.fallbacks, 1u);
  EXPECT_EQ(added.unvalidated, 0u);
}

// --- optimistic mutators: adoption ----------------------------------------------
//
// A mutator whose optimistic walk validates is adopted as a lock-coupled
// arrival at the node it holds (docs/CONCURRENCY.md §5): from then on a
// rename that breaks its chain must help it, and a rename whose LP came
// before the adoption must make the adoption's re-check withdraw it.

// Figure 1 on the optimistic walk: mknod(/a/b/f) validates and is adopted
// holding only /a/b, then parks before its insert; rename(/a, /c) completes
// and must help it, exactly as it helps a lock-coupled mknod.
TEST_F(ScenarioTest, RenameHelpsAdoptedMknod) {
  ParkingExecutor executor;
  AtomFs::Options opts;
  opts.executor = &executor;
  opts.costs.lookup_ns = 1;  // charged after every lookup (no other cost is 1)
  opts.costs.lookup_probe_ns = 0;
  Build({}, std::move(opts));
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  const std::vector<Inum> chain{kRootInum, InoOf("/a"), InoOf("/a/b")};
  const RcuCounts before = Rcu();

  OpThread mknod_op([&] { EXPECT_TRUE(fs_->Mknod("/a/b/f").ok()); });
  // Lookups of a and b on the walk, then of f under b's lock, adopted.
  executor.Arm(mknod_op.tid(), /*cost_ns=*/1, /*nth=*/3);
  mknod_op.Go();
  executor.WaitParked(mknod_op.tid());
  {
    auto d = monitor_->GetDescriptor(mknod_op.tid());
    ASSERT_TRUE(d.has_value());
    EXPECT_FALSE(d->optimistic);
    EXPECT_EQ(d->path.inos, chain);
  }

  EXPECT_TRUE(fs_->Rename("/a", "/c").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);

  executor.Open(mknod_op.tid());
  mknod_op.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  const RcuCounts added = Rcu() - before;
  EXPECT_EQ(added.attempts, 1u);
  EXPECT_EQ(added.fallbacks, 0u);
  EXPECT_EQ(added.unvalidated, 0u);
  EXPECT_TRUE(fs_->Stat("/c/b/f").ok());
  auto recs = monitor_->Completed();
  EXPECT_EQ(ReplayOrder(HistoryFromRecords(recs), HelperOrder(recs)), std::nullopt);
  EXPECT_NE(ReplayOrder(HistoryFromRecords(recs), FixedLpOrder(recs)), std::nullopt);
  EXPECT_TRUE(CheckLinearizable(HistoryFromRecords(recs)).linearizable);
}

// A rename whose LP falls between a mutator's validation and its adoption
// moved the chain while the mutator was not yet helpable. The re-check
// inside the adoption sees the moved chain and withdraws it; the retry
// misses /a and decides ENOENT after the rename, which is linearizable.
TEST_F(ScenarioTest, AdoptionIsWithdrawnWhenTheChainMoved) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  const RcuCounts before = Rcu();

  OpThread mknod_op(
      [&] { EXPECT_EQ(fs_->Mknod("/a/b/f").code(), Errc::kNoEnt); });
  gate_.Arm(mknod_op.tid(), GateObserver::Point::kOptValidated);
  mknod_op.Go();
  gate_.WaitParked(mknod_op.tid());  // validated, holding /a/b, not adopted

  // The rename needs only the root and /a.
  EXPECT_TRUE(fs_->Rename("/a", "/c").ok());
  EXPECT_EQ(monitor_->helped_ops(), 0u);

  gate_.Open(mknod_op.tid());
  mknod_op.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  // The withdrawn adoption is the one failed attempt; the retry's validated
  // miss (adopted at the root) decides.
  const RcuCounts added = Rcu() - before;
  EXPECT_EQ(added.attempts, 2u);
  EXPECT_EQ(added.failures, 1u);
  EXPECT_EQ(added.fallbacks, 0u);
  EXPECT_EQ(added.unvalidated, 0u);
  EXPECT_EQ(fs_->Stat("/c/b/f").status().code(), Errc::kNoEnt);
}

// The held rule protects adoptions as it protects reads. rmdir(/p/x/y)
// lock-couples, parks holding /p/x and is helped by rename(/p, /q): its
// removal of y already happened abstractly, not yet concretely. A
// mknod(/q/x/y/f) must not be adopted through the held /p/x, where its
// path leads to a directory the abstract tree no longer has; it falls
// back, waits behind the rmdir and misses y.
TEST_F(ScenarioTest, AdoptionRefusesAHeldAncestor) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/p").ok());
  ASSERT_TRUE(fs_->Mkdir("/p/x").ok());
  ASSERT_TRUE(fs_->Mkdir("/p/x/y").ok());
  const Inum p = InoOf("/p");

  OpThread rmdir_op([&] { EXPECT_TRUE(fs_->Rmdir("/p/x/y").ok()); });
  gate_.Arm(rmdir_op.tid(), GateObserver::Point::kLockReleased, p);
  StartOnLockedWalk(rmdir_op);
  gate_.WaitParked(rmdir_op.tid());  // holds only /p/x
  EXPECT_TRUE(fs_->Rename("/p", "/q").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);
  const RcuCounts before = Rcu();

  OpThread mknod_op([&] { EXPECT_EQ(fs_->Mknod("/q/x/y/f").code(), Errc::kNoEnt); });
  mknod_op.Go();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Rcu().fallbacks == before.fallbacks && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate_.Open(rmdir_op.tid());
  rmdir_op.Join();
  mknod_op.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  const RcuCounts added = Rcu() - before;
  EXPECT_EQ(added.attempts, 3u);
  EXPECT_EQ(added.failures, 3u);
  EXPECT_EQ(added.fallbacks, 1u);
}

// With validation skipped, an optimistic mknod(/a/f) that looked /a up
// before rmdir(/a) removed it still locks the detached /a and is adopted
// there: the create lands in a directory nobody can reach. The monitor
// catches the adoption (not the abstract path) and the lost create
// (concrete success, abstract ENOENT).
TEST_F(ScenarioTest, SkippedValidationLosesACreateAndIsCaught) {
  ParkingExecutor executor;
  AtomFs::Options opts;
  opts.executor = &executor;
  opts.costs.lookup_ns = 1;
  opts.costs.lookup_probe_ns = 0;
  opts.unsafe_skip_opt_validation = true;
  Build({}, std::move(opts));
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  const RcuCounts before = Rcu();

  OpThread mknod_op([&] { EXPECT_TRUE(fs_->Mknod("/a/f").ok()); });
  executor.Arm(mknod_op.tid(), /*cost_ns=*/1);  // after the lookup of a, no lock held
  mknod_op.Go();
  executor.WaitParked(mknod_op.tid());

  EXPECT_TRUE(fs_->Rmdir("/a").ok());

  executor.Open(mknod_op.tid());
  mknod_op.Join();

  EXPECT_FALSE(monitor_->ok());
  bool bad_adoption = false;
  bool refinement = false;
  for (const auto& v : monitor_->violations()) {
    bad_adoption = bad_adoption || v.find("Opt-validation") != std::string::npos;
    refinement = refinement || v.find("REFINEMENT") != std::string::npos;
  }
  EXPECT_TRUE(bad_adoption);
  EXPECT_TRUE(refinement);
  EXPECT_EQ((Rcu() - before).unvalidated, 2u);  // the rmdir's walk and the mknod's
  EXPECT_FALSE(CheckLinearizable(HistoryFromRecords(monitor_->Completed())).linearizable);
  EXPECT_EQ(fs_->Stat("/a").status().code(), Errc::kNoEnt);
}

// --- transaction isolation under the CRL-H monitor ---------------------------
//
// A TxnManager over the monitored AtomFs: only committed effects ever touch
// the inner FS, so the monitor must see a linearizable single-op history and
// its quiescent state must equal the concrete snapshot — i.e. conflicted and
// aborted transactions leave no trace at either the concrete or the abstract
// level.

TEST_F(ScenarioTest, TxnWriteWriteConflictRollsBackInvisibly) {
  Build();
  TxnManager::Options topt;
  topt.inner = fs_.get();
  TxnManager txn(topt);
  ASSERT_TRUE(txn.Mkdir("/d").ok());
  ASSERT_TRUE(txn.Mknod("/d/f").ok());

  const TxnId winner = *txn.Begin();
  const TxnId loser = *txn.Begin();
  std::vector<std::byte> wa{std::byte{'A'}};
  std::vector<std::byte> wb{std::byte{'B'}};
  EXPECT_TRUE(txn.Apply(winner, OpCall::WriteOf(*ParsePath("/d/f"), 0, wa)).status.ok());
  EXPECT_TRUE(txn.Apply(loser, OpCall::WriteOf(*ParsePath("/d/f"), 0, wb)).status.ok());
  ASSERT_TRUE(txn.Commit(winner).ok());
  EXPECT_EQ(txn.Commit(loser).code(), Errc::kTxConflict);

  EXPECT_EQ(ReadString(*fs_, "/d/f").value(), "A");  // loser's write never landed
  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
}

TEST_F(ScenarioTest, TxnWritesInvisibleUntilCommitButReadYourWrites) {
  Build();
  TxnManager::Options topt;
  topt.inner = fs_.get();
  TxnManager txn(topt);
  ASSERT_TRUE(txn.Mkdir("/d").ok());

  const TxnId id = *txn.Begin();
  EXPECT_TRUE(txn.Apply(id, OpCall::MknodOf(*ParsePath("/d/f"))).status.ok());
  std::vector<std::byte> payload{std::byte{'t'}, std::byte{'x'}};
  EXPECT_TRUE(txn.Apply(id, OpCall::WriteOf(*ParsePath("/d/f"), 0, payload)).status.ok());
  // The transaction reads its own write...
  const OpResult own = txn.Apply(id, OpCall::ReadOf(*ParsePath("/d/f"), 0, 8));
  ASSERT_TRUE(own.status.ok());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(own.data.data()), own.data.size()), "tx");
  // ...while the committed state has no such file yet.
  EXPECT_EQ(fs_->Stat("/d/f").status().code(), Errc::kNoEnt);

  ASSERT_TRUE(txn.Commit(id).ok());
  EXPECT_EQ(ReadString(*fs_, "/d/f").value(), "tx");
  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
}

TEST_F(ScenarioTest, TxnAbortLeavesNoTraceUnderMonitor) {
  Build();
  TxnManager::Options topt;
  topt.inner = fs_.get();
  TxnManager txn(topt);
  ASSERT_TRUE(txn.Mkdir("/d").ok());
  ASSERT_TRUE(txn.Mknod("/d/keep").ok());

  const TxnId id = *txn.Begin();
  EXPECT_TRUE(txn.Apply(id, OpCall::MknodOf(*ParsePath("/d/tmp"))).status.ok());
  EXPECT_TRUE(
      txn.Apply(id, OpCall::RenameOf(*ParsePath("/d/keep"), *ParsePath("/d/moved"))).status.ok());
  EXPECT_TRUE(txn.Apply(id, OpCall::UnlinkOf(*ParsePath("/d/tmp"))).status.ok());
  ASSERT_TRUE(txn.Abort(id).ok());

  // The concrete tree is exactly the pre-transaction state.
  EXPECT_TRUE(fs_->Stat("/d/keep").ok());
  EXPECT_EQ(fs_->Stat("/d/moved").status().code(), Errc::kNoEnt);
  EXPECT_EQ(fs_->Stat("/d/tmp").status().code(), Errc::kNoEnt);
  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
}

}  // namespace
}  // namespace atomfs
