// Tests for the journal (src/journal) as TxnManager's direct ops write it:
// every successful mutation is one auto-committed (txid 0) WAL record, and
// RecoverJournal replays the log. Covers logging, recovery, reopening, and
// crash simulation — the log is cut at every byte offset and recovery must
// always yield the state of replaying exactly the records wholly before the
// cut (prefix consistency). The Wal.* cases exercise the byte-level scan and
// replay primitives on hand-built logs.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/core/atom_fs.h"
#include "src/journal/checkpoint.h"
#include "src/journal/wal.h"
#include "src/txn/crash.h"
#include "src/txn/txn.h"
#include "tests/temp_journal.h"

namespace atomfs {
namespace {

TxnManager::Options JournalOptions(FileSystem* inner, const std::string& wal_path) {
  TxnManager::Options o;
  o.inner = inner;
  o.wal_path = wal_path;
  o.record_commit_log = true;
  return o;
}

TEST(DirectJournal, LogsMutationsNotReads) {
  TempJournal log("atomfs_journal_basic.wal");
  AtomFs inner;
  TxnManager fs(JournalOptions(&inner, log.path()));
  EXPECT_TRUE(fs.Mkdir("/d").ok());
  EXPECT_TRUE(WriteString(fs, "/d/f", "x").ok());
  EXPECT_TRUE(fs.Stat("/d/f").ok());
  EXPECT_TRUE(fs.ReadDir("/d").ok());
  EXPECT_EQ(fs.Unlink("/d/missing").code(), Errc::kNoEnt);  // failed op: unlogged
  // mkdir + (mknod + write from WriteString) logged; reads and the failed
  // unlink are not.
  EXPECT_EQ(ScanWalBytes(log.Contents()).records.size(), 3u);
  EXPECT_EQ(fs.commit_log().size(), 3u);
}

TEST(DirectJournal, RecoverRebuildsFullState) {
  TempJournal log("atomfs_journal_recover.wal");
  AtomFs inner;
  {
    TxnManager fs(JournalOptions(&inner, log.path()));
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(WriteString(fs, "/a/f", "hello journal").ok());
    ASSERT_TRUE(fs.Rename("/a/f", "/a/g").ok());
    ASSERT_TRUE(fs.Mkdir("/b").ok());
    ASSERT_TRUE(fs.Exchange("/a", "/b").ok());
  }
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->wal.applied_ops, 6u);
  EXPECT_EQ(stats->committed_units, 6u);
  EXPECT_TRUE(StructurallyEqual(inner.SnapshotSpec(), recovered.SnapshotSpec()));
  EXPECT_EQ(ReadString(recovered, "/b/g").value(), "hello journal");
}

TEST(DirectJournal, RecoverMissingLog) {
  TempJournal log("atomfs_journal_missing.wal");  // never written
  AtomFs fs;
  EXPECT_EQ(RecoverJournal(log.path(), fs).status().code(), Errc::kNoEnt);
}

TEST(DirectJournal, TornTailRecordIsDropped) {
  TempJournal log("atomfs_journal_torn.wal");
  {
    AtomFs inner;
    TxnManager fs(JournalOptions(&inner, log.path()));
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/a/b").ok());
  }
  // Simulate a crash mid-append: cut the last record short.
  log.Truncate(log.Contents().size() - 4);
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->wal.torn_tail);
  EXPECT_EQ(stats->committed_units, 1u);  // only the first mkdir survived
  EXPECT_TRUE(recovered.Stat("/a").ok());
  EXPECT_EQ(recovered.Stat("/a/b").status().code(), Errc::kNoEnt);
}

// Prefix consistency under arbitrary crash points: cut the log at every
// byte offset and check the recovered state is the commit log's prefix of
// exactly the records that ended at or before the cut.
TEST(DirectJournal, CrashAtEveryOffsetIsPrefixConsistent) {
  TempJournal log("atomfs_journal_crashsweep.wal");
  std::vector<CommitDescriptor> mutations;
  {
    AtomFs inner;
    TxnManager fs(JournalOptions(&inner, log.path()));
    ASSERT_TRUE(fs.Mkdir("/d").ok());
    ASSERT_TRUE(fs.Mknod("/d/f").ok());
    std::vector<std::byte> payload{std::byte{'h'}, std::byte{'i'}};
    ASSERT_TRUE(fs.Write("/d/f", 0, std::span<const std::byte>(payload)).ok());
    ASSERT_TRUE(fs.Rename("/d/f", "/d/g").ok());
    ASSERT_EQ(fs.Rmdir("/x").code(), Errc::kNoEnt);  // unlogged failure
    mutations = fs.commit_log();
  }
  ASSERT_EQ(mutations.size(), 4u);
  const std::string full = log.Contents();
  const WalScan scan = ScanWalBytes(full);
  ASSERT_EQ(scan.records.size(), mutations.size());

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    TempJournal::WriteFile(log.path(), full.substr(0, cut));
    uint64_t whole_records = 0;
    while (whole_records < scan.records.size() && scan.records[whole_records].end_offset <= cut) {
      ++whole_records;
    }
    AtomFs recovered;
    auto stats = RecoverJournal(log.path(), recovered);
    ASSERT_TRUE(stats.ok()) << "cut at " << cut;
    ASSERT_EQ(stats->committed_units, whole_records) << "cut at " << cut;
    EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), PrefixState(mutations, whole_records)))
        << "cut at " << cut << " recovered " << whole_records;
  }
}

TEST(DirectJournal, ConcurrentMutationsAllRecovered) {
  TempJournal log("atomfs_journal_concurrent.wal");
  AtomFs inner;
  {
    TxnManager fs(JournalOptions(&inner, log.path()));
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&fs, t] {
        for (int i = 0; i < 50; ++i) {
          EXPECT_TRUE(fs.Mkdir("/t" + std::to_string(t) + "_" + std::to_string(i)).ok());
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_EQ(fs.commit_log().size(), 200u);
  }
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->committed_units, 200u);
  EXPECT_TRUE(StructurallyEqual(inner.SnapshotSpec(), recovered.SnapshotSpec()));
}

TEST(DirectJournal, EmptyJournalRecoversEmptyState) {
  TempJournal log("atomfs_journal_empty.wal");
  TempJournal::WriteFile(log.path(), "");  // zero-byte file
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->committed_units, 0u);
  EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), SpecFs{}));
}

// Two committed mkdirs, then the second record cut `extra` bytes past the
// first record's end; recovery must keep exactly the first.
void ExpectSecondRecordDropped(const TempJournal& log, size_t extra) {
  {
    AtomFs inner;
    TxnManager fs(JournalOptions(&inner, log.path()));
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/b").ok());
  }
  const WalScan scan = ScanWalBytes(log.Contents());
  ASSERT_EQ(scan.records.size(), 2u);
  log.Truncate(scan.records[0].end_offset + extra);
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->committed_units, 1u);
  EXPECT_TRUE(recovered.Stat("/a").ok());
  EXPECT_EQ(recovered.Stat("/b").status().code(), Errc::kNoEnt);
}

TEST(DirectJournal, TornRecordHeaderIsDropped) {
  TempJournal log("atomfs_journal_torn_header.wal");
  // Crash mid-append of the second record's fixed header.
  ExpectSecondRecordDropped(log, kWalHeaderBytes / 2);
}

TEST(DirectJournal, TornRecordPayloadIsDropped) {
  TempJournal log("atomfs_journal_torn_payload.wal");
  // Header intact, payload cut short: the length check must reject it.
  ExpectSecondRecordDropped(log, kWalHeaderBytes + 2);
}

TEST(Wal, ChecksumRejectsBitFlip) {
  std::string log = EncodeWalRecord(WalRecordType::kOp, 0, "mkdir /a");
  log += EncodeWalRecord(WalRecordType::kOp, 0, "mkdir /b");
  log[log.size() - 3] = static_cast<char>(~log[log.size() - 3]);  // rot in /b's payload
  const WalScan scan = ScanWalBytes(log);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.torn_tail);
  AtomFs recovered;
  const WalRecoveryStats stats = RecoverWalBytes(log, recovered);
  EXPECT_EQ(stats.applied_ops, 1u);
  EXPECT_TRUE(recovered.Stat("/a").ok());
  EXPECT_EQ(recovered.Stat("/b").status().code(), Errc::kNoEnt);
}

TEST(Wal, CommittedTxnReplaysAtomicallyAtCommitRecord) {
  std::string log;
  log += EncodeWalRecord(WalRecordType::kBegin, 7, "");
  log += EncodeWalRecord(WalRecordType::kOp, 7, "mkdir /t");
  log += EncodeWalRecord(WalRecordType::kOp, 7, "mknod /t/f");
  log += EncodeWalRecord(WalRecordType::kCommit, 7, "");
  AtomFs fs;
  const WalRecoveryStats stats = RecoverWalBytes(log, fs);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.applied_ops, 2u);
  EXPECT_TRUE(fs.Stat("/t/f").ok());
}

TEST(Wal, UncommittedTxnIsNeverVisible) {
  std::string log;
  log += EncodeWalRecord(WalRecordType::kOp, 0, "mkdir /keep");
  log += EncodeWalRecord(WalRecordType::kBegin, 9, "");
  log += EncodeWalRecord(WalRecordType::kOp, 9, "mkdir /lost");
  // Crash before the commit record: the whole transaction is discarded.
  AtomFs fs;
  const WalRecoveryStats stats = RecoverWalBytes(log, fs);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.discarded, 1u);
  EXPECT_TRUE(fs.Stat("/keep").ok());
  EXPECT_EQ(fs.Stat("/lost").status().code(), Errc::kNoEnt);
  // The dangling begin's id is reported so a reopening writer can allocate
  // above it — reusing txid 9 would read as a duplicate bracket next time.
  EXPECT_EQ(stats.max_txid, 9u);
}

TEST(Wal, AbortedTxnIsNeverVisible) {
  std::string log;
  log += EncodeWalRecord(WalRecordType::kBegin, 3, "");
  log += EncodeWalRecord(WalRecordType::kOp, 3, "mkdir /rolled_back");
  log += EncodeWalRecord(WalRecordType::kAbort, 3, "");
  log += EncodeWalRecord(WalRecordType::kOp, 0, "mkdir /after");
  AtomFs fs;
  const WalRecoveryStats stats = RecoverWalBytes(log, fs);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(fs.Stat("/rolled_back").status().code(), Errc::kNoEnt);
  EXPECT_TRUE(fs.Stat("/after").ok());
}

TEST(DirectJournal, ReopenAppendsToExistingLog) {
  TempJournal log("atomfs_journal_reopen.wal");
  {
    AtomFs inner1;
    TxnManager fs(JournalOptions(&inner1, log.path()));
    ASSERT_TRUE(fs.Mkdir("/first").ok());
  }
  // "Remount": recover into a fresh FS, keep journaling to the same log.
  AtomFs inner2;
  auto reopened = RecoverJournal(log.path(), inner2, /*repair=*/true);
  ASSERT_TRUE(reopened.ok());
  {
    TxnManager::Options o = JournalOptions(&inner2, log.path());
    o.initial = inner2.SnapshotSpec();
    o.recovered = &*reopened;
    TxnManager fs(o);
    ASSERT_TRUE(fs.Mkdir("/second").ok());
  }
  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->committed_units, 2u);
  EXPECT_TRUE(recovered.Stat("/first").ok());
  EXPECT_TRUE(recovered.Stat("/second").ok());
}

}  // namespace
}  // namespace atomfs
