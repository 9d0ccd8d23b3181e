// Figure 9: FD-based interfaces vs. helped operations.
//
// The paper shows that an FD-based readdir that resolves straight to an
// inode can bypass a helped ins and observe a stale (empty) directory — a
// non-linearizable outcome. AtomFS therefore resolves a full path for every
// FD-based interface (§5.4, via the Vfs layer). These tests drive exactly
// the Figure 9 schedule and check that the outcome stays linearizable.

#include <gtest/gtest.h>

#include "src/core/atom_fs.h"
#include "src/crlh/gate.h"
#include "src/crlh/lin_check.h"
#include "src/crlh/monitor.h"
#include "src/vfs/vfs.h"
#include "src/crlh/op_thread.h"

namespace atomfs {
namespace {

class Fig9Test : public ::testing::Test {
 protected:
  void Build() {
    monitor_ = std::make_unique<CrlhMonitor>();
    tee_ = std::make_unique<TeeObserver>(monitor_.get(), &gate_);
    AtomFs::Options opts;
    opts.observer = tee_.get();
    fs_ = std::make_unique<AtomFs>(std::move(opts));
    vfs_ = std::make_unique<Vfs>(fs_.get());
  }

  GateObserver gate_;
  std::unique_ptr<CrlhMonitor> monitor_;
  std::unique_ptr<TeeObserver> tee_;
  std::unique_ptr<AtomFs> fs_;
  std::unique_ptr<Vfs> vfs_;
};

// The paper's Figure 9 schedule: ins(/a/b/c, d) is parked in its critical
// section, rename(/a, /i) completes (helping the ins), then a readdir runs
// through an fd that was opened on /a/b/c. Because the Vfs re-traverses the
// stored *path*, the readdir observes the post-rename world (ENOENT on the
// old path) instead of bypassing the helped ins into the stale directory —
// a perfectly linearizable outcome.
TEST_F(Fig9Test, FdReaddirDoesNotBypassHelpedIns) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b/c").ok());
  const Inum ino_b = fs_->Stat("/a/b")->ino;

  auto fd = vfs_->Open("/a/b/c", OpenFlags::kRead);
  ASSERT_TRUE(fd.ok());

  // The ins takes the lock-coupled walk and parks holding only c.
  OpThread ins([&] { EXPECT_TRUE(fs_->Mkdir("/a/b/c/d").ok()); });
  gate_.Arm(ins.tid(), GateObserver::Point::kLockReleased, ino_b);
  ASSERT_TRUE(gate_.StartOnLockedWalk(ins, [&] { EXPECT_TRUE(fs_->Stat("/").ok()); }));
  gate_.WaitParked(ins.tid());  // ins holds c, about to insert d

  ASSERT_TRUE(fs_->Rename("/a", "/i").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);

  // The FD readdir re-resolves "/a/b/c": gone after the rename.
  auto entries = vfs_->ReadDirFd(*fd);
  EXPECT_EQ(entries.status().code(), Errc::kNoEnt);

  gate_.Open(ins.tid());
  ins.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  EXPECT_TRUE(CheckLinearizable(HistoryFromRecords(monitor_->Completed())).linearizable);
  // The helped insert really landed.
  EXPECT_TRUE(fs_->Stat("/i/b/c/d").ok());
}

// Same schedule, but the fd readdir happens through the *new* path: it must
// wait for the parked ins (lock coupling) and then see d.
TEST_F(Fig9Test, FdReaddirThroughNewPathSeesHelpedInsert) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b/c").ok());
  const Inum ino_b = fs_->Stat("/a/b")->ino;

  OpThread ins([&] { EXPECT_TRUE(fs_->Mkdir("/a/b/c/d").ok()); });
  gate_.Arm(ins.tid(), GateObserver::Point::kLockReleased, ino_b);
  ASSERT_TRUE(gate_.StartOnLockedWalk(ins, [&] { EXPECT_TRUE(fs_->Stat("/").ok()); }));
  gate_.WaitParked(ins.tid());

  ASSERT_TRUE(fs_->Rename("/a", "/i").ok());
  auto fd = vfs_->Open("/i/b", OpenFlags::kRead);
  ASSERT_TRUE(fd.ok());

  // readdir of /i/b only needs b's lock, which is free: it may run now and
  // still sees c (the rename moved the whole subtree).
  auto entries = vfs_->ReadDirFd(*fd);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "c");

  // A readdir of /i/b/c would block on the parked ins; release it first and
  // verify the helped insert is observed afterwards.
  gate_.Open(ins.tid());
  ins.Join();
  auto fd_c = vfs_->Open("/i/b/c", OpenFlags::kRead);
  ASSERT_TRUE(fd_c.ok());
  auto entries_c = vfs_->ReadDirFd(*fd_c);
  ASSERT_TRUE(entries_c.ok());
  ASSERT_EQ(entries_c->size(), 1u);
  EXPECT_EQ((*entries_c)[0].name, "d");

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
}

// Reads and writes through fds during a rename of an ancestor stay
// linearizable (they are path-based underneath and participate in helping
// like any other op).
TEST_F(Fig9Test, FdReadHelpedAcrossRename) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(WriteString(*fs_, "/a/b/f", "payload").ok());
  const Inum ino_b = fs_->Stat("/a/b")->ino;

  auto fd = vfs_->Open("/a/b/f", OpenFlags::kRead);
  ASSERT_TRUE(fd.ok());

  // Put the read on the lock-coupled walk (an optimistic read holds no path
  // a rename could help), park it mid-flight holding only f, then rename /a
  // away.
  OpThread reader([&] {
    std::byte buf[16];
    auto n = vfs_->Pread(*fd, 0, buf);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 7u);
  });
  gate_.Arm(reader.tid(), GateObserver::Point::kLockReleased, ino_b);
  ASSERT_TRUE(gate_.StartOnLockedWalk(reader, [&] { EXPECT_TRUE(fs_->Stat("/").ok()); }));
  gate_.WaitParked(reader.tid());

  ASSERT_TRUE(fs_->Rename("/a", "/z").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);

  gate_.Open(reader.tid());
  reader.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(CheckLinearizable(HistoryFromRecords(monitor_->Completed())).linearizable);
}

}  // namespace
}  // namespace atomfs
