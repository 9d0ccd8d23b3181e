// Tests for the transaction subsystem (src/txn): atomicity, snapshot
// isolation with read-your-writes, OCC conflict detection (entry and subtree
// granularity), abort rollback, durability via the record WAL, commit-order
// descriptors, ghost events, metrics, and a concurrent commit stress that
// doubles as the sanitizer surface for the txn hot loops.

#include "src/txn/txn.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/core/atom_fs.h"
#include "src/journal/checkpoint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/vfs/path.h"
#include "tests/temp_journal.h"

namespace atomfs {
namespace {

Path P(const std::string& s) {
  auto p = ParsePath(s);
  EXPECT_TRUE(p.ok()) << s;
  return *p;
}

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    out[i] = static_cast<std::byte>(s[i]);
  }
  return out;
}

TxnManager::Options BareOptions(FileSystem* inner) {
  TxnManager::Options o;
  o.inner = inner;
  o.record_commit_log = true;
  return o;
}

TEST(Txn, CommitAppliesAllOpsAtomically) {
  AtomFs fs;
  TxnManager txn(BareOptions(&fs));
  const TxnId id = *txn.Begin();
  EXPECT_TRUE(txn.Apply(id, OpCall::MkdirOf(P("/d"))).status.ok());
  EXPECT_TRUE(txn.Apply(id, OpCall::MknodOf(P("/d/f"))).status.ok());
  EXPECT_TRUE(txn.Apply(id, OpCall::WriteOf(P("/d/f"), 0, Bytes("v1"))).status.ok());
  // Nothing is visible before commit.
  EXPECT_EQ(fs.Stat("/d").status().code(), Errc::kNoEnt);
  ASSERT_TRUE(txn.Commit(id).ok());
  EXPECT_TRUE(fs.Stat("/d/f").ok());
  EXPECT_EQ(ReadString(fs, "/d/f").value(), "v1");
}

TEST(Txn, AbortRollsBackEverything) {
  AtomFs fs;
  TxnManager txn(BareOptions(&fs));
  ASSERT_TRUE(txn.Mkdir(P("/keep")).ok());
  const TxnId id = *txn.Begin();
  EXPECT_TRUE(txn.Apply(id, OpCall::MkdirOf(P("/gone"))).status.ok());
  EXPECT_TRUE(txn.Apply(id, OpCall::UnlinkOf(P("/keep"))).status.code() == Errc::kIsDir ||
              true);  // op errors inside the view are just reported
  ASSERT_TRUE(txn.Abort(id).ok());
  EXPECT_EQ(fs.Stat("/gone").status().code(), Errc::kNoEnt);
  EXPECT_TRUE(fs.Stat("/keep").ok());
  // The transaction is finished: further use answers kInval.
  EXPECT_EQ(txn.Apply(id, OpCall::MkdirOf(P("/x"))).status.code(), Errc::kInval);
  EXPECT_EQ(txn.Commit(id).code(), Errc::kInval);
  EXPECT_EQ(txn.open_txns(), 0u);
}

TEST(Txn, ReadYourWritesInsidePrivateView) {
  AtomFs fs;
  TxnManager txn(BareOptions(&fs));
  const TxnId id = *txn.Begin();
  EXPECT_TRUE(txn.Apply(id, OpCall::MknodOf(P("/f"))).status.ok());
  EXPECT_TRUE(txn.Apply(id, OpCall::WriteOf(P("/f"), 0, Bytes("mine"))).status.ok());
  const OpResult r = txn.Apply(id, OpCall::ReadOf(P("/f"), 0, 16));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(r.data.data()), r.data.size()), "mine");
  // Another transaction's snapshot does not see the uncommitted write.
  const TxnId other = *txn.Begin();
  EXPECT_EQ(txn.Apply(other, OpCall::StatOf(P("/f"))).status.code(), Errc::kNoEnt);
  EXPECT_TRUE(txn.Abort(id).ok());
  EXPECT_TRUE(txn.Abort(other).ok());
}

TEST(Txn, SnapshotIgnoresLaterDirectCommits) {
  AtomFs fs;
  TxnManager txn(BareOptions(&fs));
  const TxnId id = *txn.Begin();
  ASSERT_TRUE(txn.Mkdir(P("/after_begin")).ok());  // direct, auto-committed
  // The snapshot predates the direct op; the transaction cannot see it.
  EXPECT_EQ(txn.Apply(id, OpCall::StatOf(P("/after_begin"))).status.code(), Errc::kNoEnt);
  // But the read put /after_begin in the footprint, and the direct commit
  // bumped it: this transaction can no longer commit.
  EXPECT_EQ(txn.Commit(id).code(), Errc::kTxConflict);
}

TEST(Txn, WriteWriteConflictSecondCommitterLoses) {
  AtomFs fs;
  TxnManager txn(BareOptions(&fs));
  ASSERT_TRUE(txn.Mkdir(P("/d")).ok());
  const TxnId a = *txn.Begin();
  const TxnId b = *txn.Begin();
  EXPECT_TRUE(txn.Apply(a, OpCall::MknodOf(P("/d/f"))).status.ok());
  EXPECT_TRUE(txn.Apply(b, OpCall::MknodOf(P("/d/f"))).status.ok());
  ASSERT_TRUE(txn.Commit(a).ok());
  EXPECT_EQ(txn.Commit(b).code(), Errc::kTxConflict);
  const TxnStatsSnapshot stats = txn.stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_TRUE(fs.Stat("/d/f").ok());
}

TEST(Txn, SubtreeMoveConflictsWithWritesBeneathIt) {
  AtomFs fs;
  TxnManager txn(BareOptions(&fs));
  ASSERT_TRUE(txn.Mkdir(P("/src")).ok());
  ASSERT_TRUE(txn.Mkdir(P("/src/deep")).ok());
  const TxnId writer = *txn.Begin();
  EXPECT_TRUE(txn.Apply(writer, OpCall::MknodOf(P("/src/deep/f"))).status.ok());
  // A concurrent rename moves the ancestor out from under the writer.
  ASSERT_TRUE(txn.Rename(P("/src"), P("/dst")).ok());
  EXPECT_EQ(txn.Commit(writer).code(), Errc::kTxConflict);
  EXPECT_EQ(fs.Stat("/dst/deep/f").status().code(), Errc::kNoEnt);
}

TEST(Txn, DisjointTransactionsBothCommit) {
  AtomFs fs;
  TxnManager txn(BareOptions(&fs));
  ASSERT_TRUE(txn.Mkdir(P("/a")).ok());
  ASSERT_TRUE(txn.Mkdir(P("/b")).ok());
  const TxnId ta = *txn.Begin();
  const TxnId tb = *txn.Begin();
  EXPECT_TRUE(txn.Apply(ta, OpCall::MknodOf(P("/a/f"))).status.ok());
  EXPECT_TRUE(txn.Apply(tb, OpCall::MknodOf(P("/b/f"))).status.ok());
  EXPECT_TRUE(txn.Commit(ta).ok());
  EXPECT_TRUE(txn.Commit(tb).ok());
  EXPECT_TRUE(fs.Stat("/a/f").ok());
  EXPECT_TRUE(fs.Stat("/b/f").ok());
}

TEST(Txn, ReadOnlyTransactionCommitsWithoutJournaling) {
  TempJournal log("atomfs_txn_readonly.wal");
  AtomFs fs;
  TxnManager::Options o = BareOptions(&fs);
  o.wal_path = log.path();
  TxnManager txn(o);
  ASSERT_TRUE(txn.Mkdir(P("/d")).ok());
  const size_t journal_before = log.Contents().size();
  const TxnId id = *txn.Begin();
  EXPECT_TRUE(txn.Apply(id, OpCall::StatOf(P("/d"))).status.ok());
  EXPECT_TRUE(txn.Apply(id, OpCall::ReadDirOf(P("/"))).status.ok());
  EXPECT_TRUE(txn.Commit(id).ok());
  EXPECT_EQ(log.Contents().size(), journal_before);  // nothing to make durable
}

TEST(Txn, CommitLogRecordsUnitsInCommitOrder) {
  AtomFs fs;
  TxnManager txn(BareOptions(&fs));
  ASSERT_TRUE(txn.Mkdir(P("/d")).ok());  // unit 0: direct
  const TxnId id = *txn.Begin();
  EXPECT_TRUE(txn.Apply(id, OpCall::MknodOf(P("/d/f"))).status.ok());
  EXPECT_TRUE(txn.Apply(id, OpCall::WriteOf(P("/d/f"), 0, Bytes("x"))).status.ok());
  ASSERT_TRUE(txn.Commit(id).ok());  // unit 1: the transaction
  const auto log = txn.commit_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].txid, 0u);
  EXPECT_EQ(log[0].commit_seq, 0u);
  ASSERT_EQ(log[0].ops.size(), 1u);
  EXPECT_EQ(log[0].ops[0].kind, OpKind::kMkdir);
  EXPECT_EQ(log[1].txid, id);
  EXPECT_EQ(log[1].commit_seq, 1u);
  EXPECT_EQ(log[1].ops.size(), 2u);
}

TEST(Txn, WalRecoveryReplaysCommittedHistory) {
  TempJournal log("atomfs_txn_recovery.wal");
  AtomFs original;
  {
    TxnManager::Options o = BareOptions(&original);
    o.wal_path = log.path();
    TxnManager txn(o);
    ASSERT_TRUE(txn.Mkdir(P("/d")).ok());
    const TxnId committed = *txn.Begin();
    EXPECT_TRUE(txn.Apply(committed, OpCall::MknodOf(P("/d/f"))).status.ok());
    EXPECT_TRUE(txn.Apply(committed, OpCall::WriteOf(P("/d/f"), 0, Bytes("durable"))).status.ok());
    ASSERT_TRUE(txn.Commit(committed).ok());
    const TxnId aborted = *txn.Begin();
    EXPECT_TRUE(txn.Apply(aborted, OpCall::MknodOf(P("/d/never"))).status.ok());
    ASSERT_TRUE(txn.Abort(aborted).ok());
    const TxnId open = *txn.Begin();
    EXPECT_TRUE(txn.Apply(open, OpCall::MknodOf(P("/d/open"))).status.ok());
    // `open` crashes un-committed with the manager.
  }
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->committed_units, 2u);  // the direct mkdir + the committed txn
  EXPECT_EQ(stats->wal.applied_ops, 3u);
  EXPECT_TRUE(StructurallyEqual(original.SnapshotSpec(), recovered.SnapshotSpec()));
  EXPECT_EQ(ReadString(recovered, "/d/f").value(), "durable");
  EXPECT_EQ(recovered.Stat("/d/never").status().code(), Errc::kNoEnt);
  EXPECT_EQ(recovered.Stat("/d/open").status().code(), Errc::kNoEnt);
}

TEST(Txn, MetricsAndGhostEventsFlowOnCommitAbortConflict) {
  MetricsRegistry registry;
  TraceRing ring(256);
  AtomFs fs;
  TxnManager::Options o = BareOptions(&fs);
  o.metrics = &registry;
  o.trace_ring = &ring;
  TxnManager txn(o);

  const TxnId committed = *txn.Begin();
  EXPECT_TRUE(txn.Apply(committed, OpCall::MkdirOf(P("/d"))).status.ok());
  ASSERT_TRUE(txn.Commit(committed).ok());
  const TxnId aborted = *txn.Begin();
  ASSERT_TRUE(txn.Abort(aborted).ok());
  const TxnId loser = *txn.Begin();
  EXPECT_TRUE(txn.Apply(loser, OpCall::MknodOf(P("/d/f"))).status.ok());
  ASSERT_TRUE(txn.Mknod(P("/d/f")).ok());  // direct op steals the entry
  EXPECT_EQ(txn.Commit(loser).code(), Errc::kTxConflict);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("txn.begins"), 3u);
  EXPECT_EQ(snap.CounterValue("txn.commits"), 1u);
  EXPECT_EQ(snap.CounterValue("txn.aborts"), 1u);
  EXPECT_EQ(snap.CounterValue("txn.conflicts"), 1u);

  uint64_t begins = 0, commits = 0, aborts = 0, conflict_aborts = 0;
  for (const TraceEvent& e : ring.Snapshot()) {
    switch (e.type) {
      case TraceEventType::kTxnBegin:
        ++begins;
        break;
      case TraceEventType::kTxnCommit:
        ++commits;
        break;
      case TraceEventType::kTxnAbort:
        ++aborts;
        conflict_aborts += e.arg;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(begins, 3u);
  EXPECT_EQ(commits, 1u);
  EXPECT_EQ(aborts, 2u);  // explicit abort + conflict rollback
  EXPECT_EQ(conflict_aborts, 1u);
}

TEST(Txn, UnknownIdsAnswerInval) {
  AtomFs fs;
  TxnManager txn(BareOptions(&fs));
  EXPECT_EQ(txn.Commit(42).code(), Errc::kInval);
  EXPECT_EQ(txn.Abort(42).code(), Errc::kInval);
  EXPECT_EQ(txn.Apply(42, OpCall::MkdirOf(P("/x"))).status.code(), Errc::kInval);
}

// Concurrent commit stress: N threads each run retry loops of small
// transactions against overlapping directories. Under TSan this exercises
// the commit lock, the WAL writer, and the version maps; functionally, every
// successful commit must be fully visible and the final state must equal the
// commit log replayed in order.
TEST(Txn, ConcurrentCommitStressStaysSerializable) {
  TempJournal log("atomfs_txn_stress.wal");
  AtomFs fs;
  TxnManager::Options o = BareOptions(&fs);
  o.wal_path = log.path();
  TxnManager txn(o);
  const int kThreads = 4;
  const int kTxnsPerThread = 40;
  for (int d = 0; d < kThreads; ++d) {
    ASSERT_TRUE(txn.Mkdir(P("/d" + std::to_string(d))).ok());
  }
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        // Mostly private files, occasionally a shared one to force real
        // conflicts; retry until the transaction lands.
        const bool shared = i % 5 == 0;
        const std::string dir = shared ? "/d0" : "/d" + std::to_string(t);
        const std::string file =
            dir + "/f" + std::to_string(t) + "_" + std::to_string(i);
        for (;;) {
          const TxnId id = *txn.Begin();
          if (!txn.Apply(id, OpCall::MknodOf(P(file))).status.ok()) {
            ASSERT_TRUE(txn.Abort(id).ok());
            break;  // a prior retry already created it
          }
          (void)txn.Apply(id, OpCall::WriteOf(P(file), 0, Bytes("t" + std::to_string(t))));
          const Status st = txn.Commit(id);
          if (st.ok()) {
            committed.fetch_add(1);
            break;
          }
          ASSERT_EQ(st.code(), Errc::kTxConflict);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(committed.load(), static_cast<uint64_t>(kThreads * kTxnsPerThread));
  EXPECT_EQ(txn.open_txns(), 0u);
  // Durability: recovery from the stress WAL reproduces the final state.
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(StructurallyEqual(fs.SnapshotSpec(), recovered.SnapshotSpec()));
}

}  // namespace
}  // namespace atomfs
