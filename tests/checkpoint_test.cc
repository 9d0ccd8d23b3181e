// Tests for WAL checkpointing + compaction (src/journal/checkpoint.h): the
// checkpoint file format, the write-temp / fdatasync / atomic-rename publish
// protocol, and RecoverJournal across every intermediate crash state the
// protocol can leave behind — plus fallback to the previous checkpoint when
// the newest is corrupt, and repair-mode normalization.

#include "src/journal/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "src/core/atom_fs.h"
#include "src/txn/txn.h"
#include "tests/temp_journal.h"

namespace atomfs {
namespace {

// Flips the byte `offset_from_end` bytes before the end of file `p`.
void FlipByte(const std::string& p, size_t offset_from_end) {
  std::string bytes = TempJournal::ReadFile(p);
  ASSERT_GT(bytes.size(), offset_from_end);
  const size_t i = bytes.size() - 1 - offset_from_end;
  bytes[i] = static_cast<char>(~bytes[i]);
  TempJournal::WriteFile(p, bytes);
}

Checkpoint SampleCheckpoint() {
  SpecFs state;
  EXPECT_TRUE(RunOp(state, OpCall::MkdirOf(*ParsePath("/d"))).status.ok());
  EXPECT_TRUE(RunOp(state, OpCall::MknodOf(*ParsePath("/d/f"))).status.ok());
  std::vector<std::byte> payload{std::byte{'h'}, std::byte{'i'}};
  EXPECT_TRUE(RunOp(state, OpCall::WriteOf(*ParsePath("/d/f"), 0, payload)).status.ok());
  return BuildCheckpoint(state, /*ckpt_id=*/3, /*max_txid=*/17, /*committed_units=*/9);
}

TEST(CheckpointFormat, RoundTrips) {
  const Checkpoint c = SampleCheckpoint();
  const std::string bytes = FormatCheckpoint(c);
  auto parsed = ParseCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ckpt_id, 3u);
  EXPECT_EQ(parsed->max_txid, 17u);
  EXPECT_EQ(parsed->committed_units, 9u);
  ASSERT_EQ(parsed->ops.size(), c.ops.size());
  // Replaying the parsed ops recreates the state bit-for-bit.
  SpecFs replayed;
  for (const OpCall& op : parsed->ops) {
    ASSERT_TRUE(RunOp(replayed, op).status.ok());
  }
  SpecFs original;
  for (const OpCall& op : c.ops) {
    ASSERT_TRUE(RunOp(original, op).status.ok());
  }
  EXPECT_TRUE(StructurallyEqual(replayed, original));
}

TEST(CheckpointFormat, RejectsCorruption) {
  const std::string good = FormatCheckpoint(SampleCheckpoint());
  // Bit rot anywhere in the body breaks the checksum.
  for (size_t i : {size_t{0}, good.size() / 2, good.size() - 2}) {
    std::string bad = good;
    bad[i] = static_cast<char>(~bad[i]);
    EXPECT_EQ(ParseCheckpoint(bad).status().code(), Errc::kInval) << "flip at " << i;
  }
  // A truncated file (torn checkpoint write) is rejected at every cut.
  for (size_t cut = 0; cut < good.size(); cut += 7) {
    EXPECT_EQ(ParseCheckpoint(good.substr(0, cut)).status().code(), Errc::kInval)
        << "cut at " << cut;
  }
  EXPECT_EQ(ParseCheckpoint("").status().code(), Errc::kInval);
  EXPECT_EQ(ParseCheckpoint("# not-a-checkpoint\n").status().code(), Errc::kInval);
}

// Drives `n` direct mkdirs through a journaled TxnManager rooted at /u<i>.
void RunUnits(TxnManager& txn, int from, int n) {
  for (int i = from; i < from + n; ++i) {
    ASSERT_TRUE(txn.Mkdir("/u" + std::to_string(i)).ok()) << i;
  }
}

TEST(CheckpointRecovery, CheckpointPlusWalSuffix) {
  TempJournal j("atomfs_ckpt_suffix.wal");
  AtomFs inner;
  {
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = j.path();
    TxnManager txn(topt);
    RunUnits(txn, 0, 4);
    ASSERT_TRUE(txn.TakeCheckpoint().ok());
    EXPECT_EQ(txn.checkpoints_taken(), 1u);
    RunUnits(txn, 4, 3);  // the post-checkpoint WAL suffix
  }
  AtomFs recovered;
  auto stats = RecoverJournal(j.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->used_checkpoint);
  EXPECT_FALSE(stats->fell_back_to_prev);
  EXPECT_GT(stats->checkpoint_ops, 0u);
  EXPECT_EQ(stats->wal.committed, 3u);  // only the suffix came from the WAL
  EXPECT_EQ(stats->committed_units, 7u);
  EXPECT_EQ(stats->generation, 1u);
  EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), inner.SnapshotSpec()));
}

TEST(CheckpointRecovery, CompactionBoundsTheReplay) {
  TempJournal j("atomfs_ckpt_compact.wal");
  AtomFs inner;
  {
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = j.path();
    TxnManager txn(topt);
    RunUnits(txn, 0, 50);
    ASSERT_TRUE(txn.TakeCheckpoint().ok());
    RunUnits(txn, 50, 2);
  }
  AtomFs recovered;
  auto stats = RecoverJournal(j.path(), recovered);
  ASSERT_TRUE(stats.ok());
  // 50 units of history replay as 50 checkpoint ops (state-sized), and the
  // WAL replay is just the 2-unit suffix — recovery cost is bounded by the
  // checkpoint interval, not total history.
  EXPECT_EQ(stats->wal.committed, 2u);
  EXPECT_EQ(stats->wal.applied_ops, 2u);
  EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), inner.SnapshotSpec()));
}

TEST(CheckpointRecovery, ThresholdsTriggerAutomaticCheckpoints) {
  TempJournal j("atomfs_ckpt_auto.wal");
  AtomFs inner;
  TxnManager::Options topt;
  topt.inner = &inner;
  topt.wal_path = j.path();
  topt.checkpoint_units = 4;
  TxnManager txn(topt);
  RunUnits(txn, 0, 4);
  EXPECT_EQ(txn.checkpoints_taken(), 1u);
  RunUnits(txn, 4, 3);
  EXPECT_EQ(txn.checkpoints_taken(), 1u);
  RunUnits(txn, 7, 1);
  EXPECT_EQ(txn.checkpoints_taken(), 2u);
  AtomFs recovered;
  auto stats = RecoverJournal(j.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->generation, 2u);
  EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), inner.SnapshotSpec()));
}

TEST(CheckpointRecovery, ByteThresholdTriggers) {
  TempJournal j("atomfs_ckpt_bytes.wal");
  AtomFs inner;
  TxnManager::Options topt;
  topt.inner = &inner;
  topt.wal_path = j.path();
  topt.checkpoint_bytes = 1;  // every committed unit trips the trigger
  TxnManager txn(topt);
  RunUnits(txn, 0, 3);
  EXPECT_EQ(txn.checkpoints_taken(), 3u);
  AtomFs recovered;
  ASSERT_TRUE(RecoverJournal(j.path(), recovered).ok());
  EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), inner.SnapshotSpec()));
}

// --- intermediate crash states of the write protocol ------------------------

// Crash mid-step-1: a partial (or even complete) P.ckpt.tmp is never read;
// recovery uses the WAL alone, and repair deletes the stale tmp.
TEST(CheckpointRecovery, TmpCheckpointIsIgnoredAndRepairedAway) {
  TempJournal j("atomfs_ckpt_tmp.wal");
  AtomFs inner;
  {
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = j.path();
    TxnManager txn(topt);
    RunUnits(txn, 0, 3);
  }
  const std::string tmp_bytes = FormatCheckpoint(SampleCheckpoint());
  for (const std::string& variant :
       {tmp_bytes.substr(0, tmp_bytes.size() / 2), tmp_bytes}) {
    TempJournal::WriteFile(TmpCheckpointPath(j.path()), variant);
    AtomFs recovered;
    auto stats = RecoverJournal(j.path(), recovered, /*repair=*/true);
    ASSERT_TRUE(stats.ok());
    EXPECT_FALSE(stats->used_checkpoint);
    EXPECT_EQ(stats->wal.committed, 3u);
    EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), inner.SnapshotSpec()));
    EXPECT_FALSE(std::filesystem::exists(TmpCheckpointPath(j.path())));
  }
}

// Crash between publishing P.ckpt and rotating the WAL: the live WAL's
// generation predates the checkpoint, so it is fully covered and skipped.
TEST(CheckpointRecovery, PublishedCheckpointUnrotatedWalIsSkipped) {
  TempJournal j("atomfs_ckpt_unrotated.wal");
  AtomFs inner;
  {
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = j.path();
    TxnManager txn(topt);
    RunUnits(txn, 0, 3);
  }
  // Publish a checkpoint of the full state by hand; the WAL (generation 0,
  // no head marker) now predates checkpoint id 1.
  const Checkpoint c =
      BuildCheckpoint(inner.SnapshotSpec(), /*ckpt_id=*/1, /*max_txid=*/0, /*units=*/3);
  ASSERT_TRUE(WriteCheckpointFile(j.path(), c).ok());
  AtomFs recovered;
  auto stats = RecoverJournal(j.path(), recovered, /*repair=*/true);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->used_checkpoint);
  EXPECT_EQ(stats->wal.applied_ops, 0u);  // nothing replayed twice
  EXPECT_EQ(stats->committed_units, 3u);
  EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), inner.SnapshotSpec()));
}

// Crash inside Rotate, after renaming P aside but before creating the fresh
// P: recovery still answers from the checkpoint, and repair completes the
// rotation so an appending writer reopens a well-formed generation.
TEST(CheckpointRecovery, InterruptedRotationIsCompleted) {
  TempJournal j("atomfs_ckpt_midrotate.wal");
  AtomFs inner;
  {
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = j.path();
    TxnManager txn(topt);
    RunUnits(txn, 0, 3);
  }
  const Checkpoint c =
      BuildCheckpoint(inner.SnapshotSpec(), /*ckpt_id=*/1, /*max_txid=*/0, /*units=*/3);
  ASSERT_TRUE(WriteCheckpointFile(j.path(), c).ok());
  std::filesystem::rename(j.path(), PrevWalPath(j.path()));
  AtomFs recovered;
  auto stats = RecoverJournal(j.path(), recovered, /*repair=*/true);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->used_checkpoint);
  EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), inner.SnapshotSpec()));
  // Repair created the fresh generation-1 live WAL; appending to it and
  // recovering again extends the same state.
  ASSERT_TRUE(std::filesystem::exists(j.path()));
  {
    AtomFs inner2;
    ASSERT_TRUE(RecoverJournal(j.path(), inner2).ok());
    TxnManager::Options topt;
    topt.inner = &inner2;
    topt.wal_path = j.path();
    topt.recovered = &*stats;
    TxnManager txn(topt);
    ASSERT_TRUE(txn.Mkdir("/after_repair").ok());
  }
  AtomFs again;
  auto stats2 = RecoverJournal(j.path(), again);
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->committed_units, 4u);
  EXPECT_TRUE(again.Stat("/after_repair").ok());
  EXPECT_TRUE(again.Stat("/u0").ok());
}

TEST(CheckpointRecovery, CorruptNewestFallsBackToPrev) {
  TempJournal j("atomfs_ckpt_fallback.wal");
  AtomFs inner;
  {
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = j.path();
    TxnManager txn(topt);
    RunUnits(txn, 0, 2);
    ASSERT_TRUE(txn.TakeCheckpoint().ok());  // ckpt 1
    RunUnits(txn, 2, 2);
    ASSERT_TRUE(txn.TakeCheckpoint().ok());  // ckpt 2 (ckpt 1 -> .prev)
    RunUnits(txn, 4, 2);
  }
  // Rot the newest checkpoint: recovery must fall back to .prev and replay
  // BOTH WAL generations (prevwal carries ckpt-1..ckpt-2 history, live the
  // rest) to reach the same state.
  FlipByte(CheckpointPath(j.path()), 2);
  AtomFs recovered;
  auto stats = RecoverJournal(j.path(), recovered);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->used_checkpoint);
  EXPECT_TRUE(stats->fell_back_to_prev);
  EXPECT_EQ(stats->wal.committed, 4u);  // 2 units per surviving generation
  EXPECT_EQ(stats->committed_units, 6u);
  EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(), inner.SnapshotSpec()));
}

TEST(CheckpointRecovery, BothCheckpointsCorruptIsLoud) {
  TempJournal j("atomfs_ckpt_bothbad.wal");
  AtomFs inner;
  {
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = j.path();
    TxnManager txn(topt);
    RunUnits(txn, 0, 2);
    ASSERT_TRUE(txn.TakeCheckpoint().ok());
    RunUnits(txn, 2, 2);
    ASSERT_TRUE(txn.TakeCheckpoint().ok());
  }
  FlipByte(CheckpointPath(j.path()), 2);
  FlipByte(PrevCheckpointPath(j.path()), 2);
  // The live WAL demands generation 2, no readable checkpoint provides it:
  // better a loud kIo than a silently partial recovery.
  AtomFs recovered;
  EXPECT_EQ(RecoverJournal(j.path(), recovered).status().code(), Errc::kIo);
}

TEST(CheckpointRecovery, MissingCheckpointWithRotatedWalIsLoud) {
  TempJournal j("atomfs_ckpt_missing.wal");
  AtomFs inner;
  {
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = j.path();
    TxnManager txn(topt);
    RunUnits(txn, 0, 2);
    ASSERT_TRUE(txn.TakeCheckpoint().ok());
  }
  std::remove(CheckpointPath(j.path()).c_str());
  std::remove(PrevCheckpointPath(j.path()).c_str());
  AtomFs recovered;
  EXPECT_EQ(RecoverJournal(j.path(), recovered).status().code(), Errc::kIo);
}

TEST(CheckpointRecovery, RepairTruncatesTornLiveTail) {
  TempJournal j("atomfs_ckpt_torn.wal");
  AtomFs inner;
  {
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = j.path();
    TxnManager txn(topt);
    RunUnits(txn, 0, 2);
    ASSERT_TRUE(txn.TakeCheckpoint().ok());
    RunUnits(txn, 2, 2);
  }
  // Tear the live WAL mid-record.
  std::string live = TempJournal::ReadFile(j.path());
  TempJournal::WriteFile(j.path(), live.substr(0, live.size() - 3));
  AtomFs recovered;
  auto stats = RecoverJournal(j.path(), recovered, /*repair=*/true);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->wal.torn_tail);
  EXPECT_EQ(stats->wal.committed, 1u);  // /u3's record was torn off
  // The torn bytes are gone from disk: an O_APPEND writer reopening the log
  // appends readable records, and a second recovery sees a clean log.
  {
    AtomFs inner2;
    ASSERT_TRUE(RecoverJournal(j.path(), inner2).ok());
    TxnManager::Options topt;
    topt.inner = &inner2;
    topt.wal_path = j.path();
    topt.recovered = &*stats;
    TxnManager txn(topt);
    ASSERT_TRUE(txn.Mkdir("/post_tear").ok());
  }
  AtomFs again;
  auto stats2 = RecoverJournal(j.path(), again);
  ASSERT_TRUE(stats2.ok());
  EXPECT_FALSE(stats2->wal.torn_tail);
  EXPECT_TRUE(again.Stat("/u2").ok());
  EXPECT_TRUE(again.Stat("/post_tear").ok());
  EXPECT_EQ(again.Stat("/u3").status().code(), Errc::kNoEnt);
}

// Checkpointing composes with transactions and the reopen cycle: txid and
// checkpoint-id floors carry across restarts.
TEST(CheckpointRecovery, ReopenCycleKeepsIdsMonotonic) {
  TempJournal j("atomfs_ckpt_reopen.wal");
  uint64_t units = 0;
  for (int round = 0; round < 3; ++round) {
    AtomFs inner;
    auto stats = RecoverJournal(j.path(), inner, /*repair=*/true);
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = j.path();
    if (stats.ok()) {
      topt.initial = inner.SnapshotSpec();
      topt.recovered = &*stats;
    } else {
      ASSERT_EQ(stats.status().code(), Errc::kNoEnt);
    }
    TxnManager txn(topt);
    auto id = txn.Begin();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(
        txn.Apply(*id, OpCall::MkdirOf(*ParsePath("/r" + std::to_string(round)))).status.ok());
    ASSERT_TRUE(txn.Commit(*id).ok());
    ASSERT_TRUE(txn.TakeCheckpoint().ok());
    ++units;
  }
  AtomFs fin;
  auto stats = RecoverJournal(j.path(), fin);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->generation, 3u);
  EXPECT_EQ(stats->committed_units, units);
  EXPECT_EQ(stats->wal.applied_ops, 0u);  // every round ended checkpointed
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(fin.Stat("/r" + std::to_string(round)).ok()) << round;
  }
}

}  // namespace
}  // namespace atomfs
