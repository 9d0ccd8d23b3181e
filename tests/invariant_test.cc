// Tests for the Table-1 invariant checkers.
//
// Positive direction: under lock coupling the invariants hold on adversarial
// schedules (covered throughout scenario_test and stress_test). This file
// exercises the *negative* direction: with `unsafe_release_before_lock`
// (traversal releases the parent before locking the child, violating the
// non-bypassable criterion) the checkers must detect the paper's Figure 8
// failure — an unhelped del bypassing a helped ins, yielding a
// non-linearizable execution.

#include <gtest/gtest.h>

#include "src/core/atom_fs.h"
#include "src/crlh/gate.h"
#include "src/crlh/lin_check.h"
#include "src/crlh/monitor.h"
#include "src/crlh/op_thread.h"

namespace atomfs {
namespace {

bool AnyViolationContains(const CrlhMonitor& monitor, std::string_view needle) {
  for (const auto& v : monitor.violations()) {
    if (v.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

class UnsafeModeTest : public ::testing::Test {
 protected:
  void Build() {
    monitor_ = std::make_unique<CrlhMonitor>();
    tee_ = std::make_unique<TeeObserver>(monitor_.get(), &gate_);
    AtomFs::Options opts;
    opts.observer = tee_.get();
    opts.unsafe_release_before_lock = true;
    fs_ = std::make_unique<AtomFs>(std::move(opts));
  }

  Inum InoOf(std::string_view path) {
    auto attr = fs_->Stat(path);
    EXPECT_TRUE(attr.ok()) << path;
    return attr->ino;
  }

  GateObserver gate_;
  std::unique_ptr<CrlhMonitor> monitor_;
  std::unique_ptr<TeeObserver> tee_;
  std::unique_ptr<AtomFs> fs_;
};

// Sanity: sequential execution is clean even in unsafe mode (bypasses need
// concurrency).
TEST_F(UnsafeModeTest, SequentialExecutionStillClean) {
  Build();
  EXPECT_TRUE(fs_->Mkdir("/a").ok());
  EXPECT_TRUE(fs_->Mknod("/a/f").ok());
  EXPECT_TRUE(fs_->Unlink("/a/f").ok());
  EXPECT_TRUE(fs_->Rmdir("/a").ok());
  // Pre-LP, unsafe traversal releases the LockPath tip (the parent) before
  // locking the child: the Last-locked-lockpath invariant flags exactly
  // that, even without any concurrent interference.
  EXPECT_TRUE(AnyViolationContains(*monitor_, "Last-locked-lockpath"));
  // But refinement is still fine sequentially.
  EXPECT_FALSE(AnyViolationContains(*monitor_, "REFINEMENT"));
}

// Figure 8: ins(/a/b/c, d) is helped by rename(/a, /i); del(/i/b, c) then
// bypasses the parked ins (impossible under lock coupling) and succeeds
// concretely although its abstract operation must fail — the checkers flag
// both the bypass and the refinement break.
TEST_F(UnsafeModeTest, Fig8BypassIsDetected) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b/c").ok());
  const Inum ino_b = InoOf("/a/b");
  const Inum ino_c = InoOf("/a/b/c");

  // ins parks after releasing b, before locking c: it holds no lock at all
  // (only possible because coupling is off).
  OpThread ins([&] { EXPECT_TRUE(fs_->Mkdir("/a/b/c/d").ok()); });
  gate_.Arm(ins.tid(), GateObserver::Point::kLockReleased, ino_b);
  ins.Go();
  gate_.WaitParked(ins.tid());

  // rename completes; it must help the parked ins (LockPath (root,a,b)
  // contains its SrcPath (root,a)), predicting ins will lock c next.
  EXPECT_TRUE(fs_->Rename("/a", "/i").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);
  {
    auto d = monitor_->GetDescriptor(ins.tid());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->state, AopState::kHelped);
    ASSERT_TRUE(d->fut_tracked);
    ASSERT_EQ(d->fut_lock_path.size(), 1u);
    EXPECT_EQ(d->fut_lock_path.front(), ino_c);
  }

  // del bypasses the helped ins: it locks c (in ins's FutLockPath) and
  // concretely succeeds because d is not yet inserted.
  EXPECT_TRUE(fs_->Rmdir("/i/b/c").ok());
  EXPECT_TRUE(AnyViolationContains(*monitor_, "Unhelped-non-bypassable"));
  // Abstractly the del must fail (the helped ins already put d inside c):
  // refinement is broken on the del.
  EXPECT_TRUE(AnyViolationContains(*monitor_, "REFINEMENT"));

  gate_.Open(ins.tid());
  ins.Join();

  EXPECT_FALSE(monitor_->ok());
  // Ground truth: the recorded concurrent history is NOT linearizable.
  auto recs = monitor_->Completed();
  EXPECT_FALSE(CheckLinearizable(HistoryFromRecords(recs)).linearizable);
}

// The quiescent abstract-concrete check also exposes the divergence left
// behind by the Figure 8 execution.
TEST_F(UnsafeModeTest, Fig8LeavesDivergedTrees) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b/c").ok());
  const Inum ino_b = InoOf("/a/b");

  OpThread ins([&] { EXPECT_TRUE(fs_->Mkdir("/a/b/c/d").ok()); });
  gate_.Arm(ins.tid(), GateObserver::Point::kLockReleased, ino_b);
  ins.Go();
  gate_.WaitParked(ins.tid());
  EXPECT_TRUE(fs_->Rename("/a", "/i").ok());
  EXPECT_TRUE(fs_->Rmdir("/i/b/c").ok());
  gate_.Open(ins.tid());
  ins.Join();

  // Abstract tree: /i/b/c/d exists. Concrete tree: /i/b is empty (c was
  // removed; d went into the zombie c).
  EXPECT_FALSE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
}

// Under SAFE lock coupling the same schedule cannot even be forced: the del
// blocks until the ins finishes, and everything stays clean. This is the
// positive direction of the non-bypassable criterion on real code.
TEST(LockCouplingTest, Fig8ScheduleImpossibleUnderCoupling) {
  CrlhMonitor monitor;
  GateObserver gate;
  TeeObserver tee(&monitor, &gate);
  AtomFs::Options opts;
  opts.observer = &tee;
  AtomFs fs(std::move(opts));
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/a/b").ok());
  ASSERT_TRUE(fs.Mkdir("/a/b/c").ok());
  const Inum ino_b = fs.Stat("/a/b")->ino;

  // Park ins on the lock-coupled walk while it holds c's parent-to-be
  // (LockPath root,a,b,c... here it holds c after releasing b).
  OpThread ins([&] { EXPECT_TRUE(fs.Mkdir("/a/b/c/d").ok()); });
  gate.Arm(ins.tid(), GateObserver::Point::kLockReleased, ino_b);
  ASSERT_TRUE(gate.StartOnLockedWalk(ins, [&] { EXPECT_TRUE(fs.Stat("/").ok()); }));
  gate.WaitParked(ins.tid());

  EXPECT_TRUE(fs.Rename("/a", "/i").ok());

  // The del must block on c's lock until ins completes; run it on a thread
  // and release ins shortly after.
  OpThread del([&] { EXPECT_EQ(fs.Rmdir("/i/b/c").code(), Errc::kNotEmpty); });
  del.Go();
  // Give the del a moment to reach c's lock, then release the ins.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open(ins.tid());
  ins.Join();
  del.Join();

  EXPECT_TRUE(monitor.ok()) << monitor.violations()[0];
  EXPECT_TRUE(monitor.CheckQuiescent(fs.SnapshotSpec()));
  EXPECT_TRUE(fs.Stat("/i/b/c/d").ok());
}

}  // namespace
}  // namespace atomfs
