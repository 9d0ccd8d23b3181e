// The durability refinement check (src/txn/crash.h): build a seeded mix of
// committed transactions, aborted transactions, and auto-committed direct
// ops through a real journaling TxnManager, then crash the WAL at every
// record boundary, inside every record (torn write), and with a flipped byte
// per record (bit rot). Every crash point must recover to a state
// structurally equal to a prefix of the golden commit-descriptor sequence —
// zero divergences, incomplete transactions never partially visible.
//
// Environment knobs for smoke runs (tools/crash_smoke.sh):
//   ATOMFS_CRASH_TXNS        transactions in the mix (default 24)
//   ATOMFS_CRASH_MAX_POINTS  cap on crash points per sweep (default 0 = all)

#include "src/txn/crash.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "src/core/atom_fs.h"
#include "src/crlh/bundle.h"
#include "src/journal/checkpoint.h"
#include "src/journal/wal.h"
#include "src/vfs/path.h"
#include "tests/temp_journal.h"

namespace atomfs {
namespace {

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

CrashMixOptions MixFromEnv(uint64_t seed) {
  CrashMixOptions o;
  o.seed = seed;
  o.txns = EnvInt("ATOMFS_CRASH_TXNS", o.txns);
  return o;
}

CrashSweepOptions SweepFromEnv() {
  CrashSweepOptions o;
  o.max_points = static_cast<uint64_t>(EnvInt("ATOMFS_CRASH_MAX_POINTS", 0));
  return o;
}

void ExpectNoDivergence(const CrashVerdict& verdict) {
  EXPECT_GT(verdict.crash_points, 0u);
  EXPECT_EQ(verdict.divergences, 0u);
  for (const std::string& f : verdict.failures) {
    ADD_FAILURE() << f;
  }
}

TEST(CrashInjection, EveryCrashPointRecoversPrefixConsistent) {
  TempJournal log("atomfs_crash_sweep.wal");
  auto mix = BuildCrashMix(log.path(), MixFromEnv(/*seed=*/1));
  ASSERT_TRUE(mix.ok());
  ASSERT_FALSE(mix->commit_log.empty());
  ASSERT_FALSE(mix->wal_bytes.empty());
  const CrashVerdict verdict = VerifyCrashConsistency(mix->wal_bytes, mix->commit_log,
                                                      SweepFromEnv());
  ExpectNoDivergence(verdict);
  // The uncut log must recover the full commit sequence.
  EXPECT_EQ(verdict.max_committed, mix->commit_log.size());
}

TEST(CrashInjection, SweepHoldsAcrossSeeds) {
  for (uint64_t seed = 2; seed <= 4; ++seed) {
    TempJournal log("atomfs_crash_seed" + std::to_string(seed) + ".wal");
    CrashMixOptions mopts = MixFromEnv(seed);
    mopts.txns = std::max(1, mopts.txns / 2);
    auto mix = BuildCrashMix(log.path(), mopts);
    ASSERT_TRUE(mix.ok()) << "seed " << seed;
    const CrashVerdict verdict = VerifyCrashConsistency(mix->wal_bytes, mix->commit_log,
                                                        SweepFromEnv());
    ExpectNoDivergence(verdict);
  }
}

TEST(CrashInjection, AbortHeavyMixNeverLeaksAbortedOps) {
  TempJournal log("atomfs_crash_aborts.wal");
  CrashMixOptions mopts = MixFromEnv(/*seed=*/7);
  mopts.abort_percent = 80;  // most transactions roll back
  auto mix = BuildCrashMix(log.path(), mopts);
  ASSERT_TRUE(mix.ok());
  const CrashVerdict verdict = VerifyCrashConsistency(mix->wal_bytes, mix->commit_log,
                                                      SweepFromEnv());
  ExpectNoDivergence(verdict);
}

TEST(CrashInjection, RecoverThenContinueJournalingStaysConsistent) {
  // Crash mid-log, recover, keep journaling into the same (truncated) file:
  // the second generation's commits must land after the survived prefix.
  TempJournal log("atomfs_crash_reopen.wal");
  CrashMixOptions mopts = MixFromEnv(/*seed=*/5);
  mopts.txns = std::max(1, mopts.txns / 4);
  auto mix = BuildCrashMix(log.path(), mopts);
  ASSERT_TRUE(mix.ok());

  // Cut at a record boundary roughly mid-log and persist the truncation.
  const WalScan scan = ScanWalBytes(mix->wal_bytes);
  ASSERT_GT(scan.records.size(), 2u);
  const uint64_t cut = scan.records[scan.records.size() / 2].end_offset;
  TempJournal::WriteFile(log.path(), mix->wal_bytes.substr(0, cut));

  AtomFs recovered;
  auto stats = RecoverJournal(log.path(), recovered, /*repair=*/true);
  ASSERT_TRUE(stats.ok());
  ASSERT_LT(stats->committed_units, mix->commit_log.size() + 1);
  ASSERT_TRUE(StructurallyEqual(recovered.SnapshotSpec(),
                                PrefixState(mix->commit_log, stats->committed_units)));

  // Second generation: journal a few more committed units into the same log.
  {
    TxnManager::Options topt;
    topt.inner = &recovered;
    topt.wal_path = log.path();
    topt.initial = recovered.SnapshotSpec();
    // The cut can strand a begin record in the surviving prefix; ids must
    // continue above it or the dangling bracket swallows the new commits.
    topt.recovered = &*stats;
    TxnManager txn(topt);
    ASSERT_TRUE(txn.Mkdir(*ParsePath("/gen2")).ok());
    const TxnId id = *txn.Begin();
    ASSERT_TRUE(txn.Apply(id, OpCall::MknodOf(*ParsePath("/gen2/f"))).status.ok());
    ASSERT_TRUE(txn.Commit(id).ok());
  }
  AtomFs final_state;
  auto final_stats = RecoverJournal(log.path(), final_state);
  ASSERT_TRUE(final_stats.ok());
  EXPECT_EQ(final_stats->committed_units, stats->committed_units + 2);
  EXPECT_TRUE(final_state.Stat("/gen2/f").ok());
  EXPECT_TRUE(StructurallyEqual(final_state.SnapshotSpec(), recovered.SnapshotSpec()));
}

// Crash sweep across a checkpoint boundary: after a checkpoint + rotation,
// cut the LIVE WAL generation at every byte (including inside its kCkpt head
// marker) and recover the full journal. Every cut must yield the checkpoint
// state plus a prefix of the post-checkpoint suffix — the compaction
// machinery must not open any new crash window.
TEST(CrashInjection, CheckpointBoundarySweepIsPrefixConsistent) {
  TempJournal log("atomfs_crash_ckpt_sweep.wal");
  std::vector<CommitDescriptor> commit_log;
  uint64_t pre_ckpt_units = 0;
  {
    AtomFs inner;
    TxnManager::Options topt;
    topt.inner = &inner;
    topt.wal_path = log.path();
    topt.record_commit_log = true;
    TxnManager txn(topt);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(txn.Mkdir(*ParsePath("/pre" + std::to_string(i))).ok());
    }
    pre_ckpt_units = 5;
    ASSERT_TRUE(txn.TakeCheckpoint().ok());
    for (int i = 0; i < 4; ++i) {
      const TxnId id = *txn.Begin();
      ASSERT_TRUE(txn.Apply(id, OpCall::MkdirOf(*ParsePath("/post" + std::to_string(i))))
                      .status.ok());
      ASSERT_TRUE(
          txn.Apply(id, OpCall::MknodOf(*ParsePath("/post" + std::to_string(i) + "/f")))
              .status.ok());
      ASSERT_TRUE(txn.Commit(id).ok());
    }
    commit_log = txn.commit_log();
  }
  ASSERT_EQ(commit_log.size(), pre_ckpt_units + 4);
  const std::string live = log.Contents();
  ASSERT_FALSE(live.empty());
  for (size_t cut = 0; cut <= live.size(); ++cut) {
    TempJournal::WriteFile(log.path(), live.substr(0, cut));
    AtomFs recovered;
    auto stats = RecoverJournal(log.path(), recovered);
    ASSERT_TRUE(stats.ok()) << "cut at " << cut;
    ASSERT_GE(stats->committed_units, pre_ckpt_units) << "cut at " << cut;
    ASSERT_LE(stats->committed_units, commit_log.size()) << "cut at " << cut;
    EXPECT_TRUE(StructurallyEqual(recovered.SnapshotSpec(),
                                  PrefixState(commit_log, stats->committed_units)))
        << "cut at " << cut << " recovered " << stats->committed_units;
  }
}

// A divergence must come out as a replayable post-mortem bundle: doctor the
// golden oracle so recovery genuinely mismatches it, then check the sweep
// emits a bundle that ReplayBundle reproduces offline — the same artifact
// pipeline monitor violations use (atomfs_verify --bundle).
TEST(CrashInjection, InjectedDivergenceProducesReplayableBundle) {
  TempJournal log("atomfs_crash_bundle.wal");
  CrashMixOptions mopts = MixFromEnv(/*seed=*/11);
  mopts.txns = std::max(1, mopts.txns / 4);
  auto mix = BuildCrashMix(log.path(), mopts);
  ASSERT_TRUE(mix.ok());
  ASSERT_FALSE(mix->commit_log.empty());
  // Lie about the last committed unit (nothing later depends on it, so the
  // oracle still replays cleanly): the oracle now expects a directory the
  // journal never created, so every crash point whose prefix includes that
  // unit diverges.
  std::vector<CommitDescriptor> doctored = mix->commit_log;
  doctored.back().ops = {OpCall::MkdirOf(*ParsePath("/never_journaled"))};
  CrashSweepOptions sweep = SweepFromEnv();
  sweep.bundle_on_divergence = true;
  const CrashVerdict verdict = VerifyCrashConsistency(mix->wal_bytes, doctored, sweep);
  EXPECT_GT(verdict.divergences, 0u);
  ASSERT_FALSE(verdict.bundles.empty());

  std::istringstream in(verdict.bundles.front());
  auto bundle = ParseBundle(in);
  ASSERT_TRUE(bundle.ok());
  ASSERT_FALSE(bundle->history.empty());
  const BundleReplay replay = ReplayBundle(*bundle);
  EXPECT_TRUE(replay.reproduced) << replay.verdict;
  // The sane oracle, for contrast, produces no divergences and no bundles.
  const CrashVerdict clean = VerifyCrashConsistency(mix->wal_bytes, mix->commit_log, sweep);
  EXPECT_EQ(clean.divergences, 0u);
  EXPECT_TRUE(clean.bundles.empty());
}

}  // namespace
}  // namespace atomfs
