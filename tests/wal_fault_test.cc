// Fault-injection tests for the journal's failure semantics: a WAL write
// that fails (ENOSPC, EIO, torn short write) must surface kIo to the caller
// whose mutation was not made durable, fail-stop the journal (every later
// mutating call answers kIo), and leave on disk a log whose recovery matches
// a prefix of the commit-descriptor oracle — the "commit that can't fail
// silently" contract in src/journal/wal.h.

#include <gtest/gtest.h>

#include <cerrno>
#include <string>

#include "src/core/atom_fs.h"
#include "src/journal/checkpoint.h"
#include "src/journal/wal.h"
#include "src/txn/crash.h"
#include "src/txn/txn.h"
#include "tests/temp_journal.h"

namespace atomfs {
namespace {

// Arms the fault after `healthy_writes` successful writes, then fails every
// write with `err`. Returned by reference so tests can re-arm / disarm.
struct FaultPlan {
  int healthy_writes = 0;
  int err = 0;
  int writes_seen = 0;
};

WalWriterOptions FaultAfter(FaultPlan* plan, size_t short_bytes = 0) {
  WalWriterOptions opts;
  opts.fault_short_bytes = short_bytes;
  opts.write_fault = [plan](std::string_view) {
    ++plan->writes_seen;
    return plan->writes_seen > plan->healthy_writes ? plan->err : 0;
  };
  return opts;
}

TEST(WalFault, FlushFailurePoisonsTheWriter) {
  TempJournal log("atomfs_fault_poison.wal");
  FaultPlan plan{/*healthy_writes=*/0, /*err=*/ENOSPC};
  WalWriter w(log.path(), FaultAfter(&plan));
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.Append(WalRecordType::kOp, 0, "mkdir /a").ok());
  EXPECT_EQ(w.Flush().code(), Errc::kIo);
  EXPECT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), Errc::kIo);
  // Sticky: the first failure's verdict answers every later call, even
  // though the fault plan would now allow writes through.
  plan.err = 0;
  EXPECT_EQ(w.Append(WalRecordType::kOp, 0, "mkdir /b").code(), Errc::kIo);
  EXPECT_EQ(w.Flush().code(), Errc::kIo);
  EXPECT_EQ(w.Fsync().code(), Errc::kIo);
  EXPECT_EQ(w.Rotate(1).code(), Errc::kIo);
}

TEST(WalFault, TornShortWriteLeavesRecoverablePrefix) {
  TempJournal log("atomfs_fault_torn.wal");
  {
    FaultPlan plan{/*healthy_writes=*/1, /*err=*/EIO};
    // The failing write lands 7 bytes of the record before dying — a torn
    // write, mid-header.
    WalWriter w(log.path(), FaultAfter(&plan, /*short_bytes=*/7));
    ASSERT_TRUE(w.Append(WalRecordType::kOp, 0, "mkdir /kept").ok());
    ASSERT_TRUE(w.Flush().ok());
    ASSERT_TRUE(w.Append(WalRecordType::kOp, 0, "mkdir /lost").ok());
    EXPECT_EQ(w.Flush().code(), Errc::kIo);
  }
  // Recovery reads the clean prefix and rejects the torn bytes.
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->wal.applied_ops, 1u);
  EXPECT_TRUE(stats->wal.torn_tail);
  EXPECT_TRUE(recovered.Stat("/kept").ok());
  EXPECT_EQ(recovered.Stat("/lost").status().code(), Errc::kNoEnt);
}

TEST(WalFault, FailedCommitAppliesNothingAndFailStops) {
  TempJournal log("atomfs_fault_commit.wal");
  AtomFs inner;
  // One write(2) per committed unit (the commit-point flush): the first
  // unit lands, the second dies.
  FaultPlan plan{/*healthy_writes=*/1, /*err=*/EIO};
  TxnManager::Options topt;
  topt.inner = &inner;
  topt.wal_path = log.path();
  topt.record_commit_log = true;
  topt.wal = FaultAfter(&plan);
  TxnManager txn(topt);

  ASSERT_TRUE(txn.Mkdir("/base").ok());  // unit 1: flush succeeds

  auto id = txn.Begin();
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(txn.Apply(*id, OpCall::MkdirOf(*ParsePath("/t"))).status.ok());
  EXPECT_TRUE(txn.Apply(*id, OpCall::MknodOf(*ParsePath("/t/f"))).status.ok());
  // The commit point's flush fails: the client hears kIo and NOTHING from
  // the transaction is applied to the inner FS or the mirror.
  EXPECT_EQ(txn.Commit(*id).code(), Errc::kIo);
  EXPECT_TRUE(txn.journal_failed());
  EXPECT_EQ(inner.Stat("/t").status().code(), Errc::kNoEnt);
  EXPECT_TRUE(inner.Stat("/base").ok());

  // Fail-stopped: later mutating calls answer kIo without touching anything.
  EXPECT_EQ(txn.Begin().status().code(), Errc::kIo);
  EXPECT_EQ(txn.Mkdir("/later").code(), Errc::kIo);
  EXPECT_EQ(inner.Stat("/later").status().code(), Errc::kNoEnt);
  EXPECT_EQ(txn.TakeCheckpoint().code(), Errc::kIo);

  // The on-disk log replays to exactly the acknowledged commit log — the
  // durability oracle (crash.h PrefixState) agrees with recovery.
  const std::vector<CommitDescriptor> commit_log = txn.commit_log();
  ASSERT_EQ(commit_log.size(), 1u);
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->committed_units, commit_log.size());
  EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(),
                                PrefixState(commit_log, commit_log.size())));
}

TEST(WalFault, DirectOpLogFailureSurfacesEio) {
  TempJournal log("atomfs_fault_direct.wal");
  AtomFs inner;
  FaultPlan plan{/*healthy_writes=*/1, /*err=*/ENOSPC};
  TxnManager::Options topt;
  topt.inner = &inner;
  topt.wal_path = log.path();
  topt.wal = FaultAfter(&plan);
  TxnManager txn(topt);
  ASSERT_TRUE(txn.Mkdir("/ok").ok());
  ASSERT_EQ(WriteString(txn, "/ok/f", "data").code(), Errc::kIo);
  EXPECT_TRUE(txn.journal_failed());
  // The mknod ran on the inner FS but its record never reached the log: the
  // caller heard kIo, and the one-op divergence stays in memory only.
  EXPECT_TRUE(inner.Stat("/ok/f").ok());
  // Fail-stopped: nothing further mutates, not even ops that would succeed.
  EXPECT_EQ(txn.Mkdir("/doomed").code(), Errc::kIo);
  EXPECT_EQ(txn.Unlink("/ok/f").code(), Errc::kIo);
  std::vector<std::byte> data{std::byte{'x'}};
  EXPECT_EQ(txn.Write("/ok/f", 0, std::span<const std::byte>(data)).status().code(), Errc::kIo);
  EXPECT_EQ(txn.Truncate("/ok/f", 0).code(), Errc::kIo);
  EXPECT_EQ(inner.Stat("/doomed").status().code(), Errc::kNoEnt);
  // Reads still pass through — the backend state is intact, only durability
  // is gone.
  EXPECT_TRUE(txn.Stat("/ok").ok());
  EXPECT_TRUE(txn.ReadDir("/ok").ok());
  std::byte buf[4];
  EXPECT_TRUE(txn.Read("/ok/f", 0, std::span<std::byte>(buf)).ok());
  // Recovery of what did reach the disk yields exactly the acknowledged op.
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->committed_units, 1u);
  EXPECT_TRUE(recovered.Stat("/ok").ok());
  EXPECT_EQ(recovered.Stat("/ok/f").status().code(), Errc::kNoEnt);
}

TEST(WalFault, FsyncCommitsCountsFsyncsAndPropagatesFailure) {
  TempJournal log("atomfs_fault_fsync.wal");
  AtomFs inner;
  TxnManager::Options topt;
  topt.inner = &inner;
  topt.wal_path = log.path();
  topt.fsync_commits = true;
  TxnManager txn(topt);
  ASSERT_TRUE(txn.Mkdir("/durable").ok());
  EXPECT_FALSE(txn.journal_failed());
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->committed_units, 1u);
  EXPECT_TRUE(recovered.Stat("/durable").ok());
}

}  // namespace
}  // namespace atomfs
