// Exhaustive schedule exploration tests: for small concurrent programs,
// *every* interleaving of the real AtomFS code must pass the full CRL-H
// verification (refinement, invariants, quiescent consistency). This is the
// closest a runtime checker gets to the paper's all-executions guarantee.

#include "src/crlh/explore.h"

#include "src/biglock/big_lock_fs.h"
#include "src/retryfs/retry_fs.h"

#include <gtest/gtest.h>

namespace atomfs {
namespace {

OpCall Mkdir(std::string_view p) { return OpCall::MkdirOf(*ParsePath(p)); }
OpCall Mknod(std::string_view p) { return OpCall::MknodOf(*ParsePath(p)); }
OpCall Rmdir(std::string_view p) { return OpCall::RmdirOf(*ParsePath(p)); }
OpCall Unlink(std::string_view p) { return OpCall::UnlinkOf(*ParsePath(p)); }
OpCall Stat(std::string_view p) { return OpCall::StatOf(*ParsePath(p)); }
OpCall Rename(std::string_view s, std::string_view d) {
  return OpCall::RenameOf(*ParsePath(s), *ParsePath(d));
}
OpCall Exchange(std::string_view a, std::string_view b) {
  return OpCall::ExchangeOf(*ParsePath(a), *ParsePath(b));
}

// Figure 1 as a program: every interleaving of mkdir(/a/b/c) and
// rename(/a, /e) must verify, and some schedules must require helping.
TEST(ExploreExhaustive, Fig1AllInterleavings) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/a/b").ok());
  };
  program.threads = {{Mkdir("/a/b/c")}, {Rename("/a", "/e")}};

  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
  EXPECT_GT(stats.executions, 1u);
  EXPECT_GT(stats.schedules_with_helping, 0u);
}

// Figure 4(a): disjoint ins/del — no schedule needs helping.
TEST(ExploreExhaustive, DisjointOpsNeverHelp) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/d").ok());
  };
  program.threads = {{Mkdir("/a/c")}, {Rmdir("/d")}};
  auto stats = ExploreSchedules(program);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok);
  EXPECT_EQ(stats.schedules_with_helping, 0u);
}

// Two concurrent renames with crossing paths.
TEST(ExploreExhaustive, ConcurrentRenames) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/a/b").ok());
    ASSERT_TRUE(fs.Mkdir("/c").ok());
  };
  program.threads = {{Rename("/a/b", "/c/b2")}, {Rename("/a", "/z")}};
  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
}

// rename + del + ins (the Figure 8 triple under SAFE lock coupling): every
// interleaving is linearizable.
TEST(ExploreExhaustive, Fig8TripleUnderCoupling) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/a/b").ok());
    ASSERT_TRUE(fs.Mkdir("/a/b/c").ok());
  };
  program.threads = {{Mkdir("/a/b/c/d")}, {Rename("/a", "/i"), Rmdir("/i/b/c")}};
  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
}

// Exchange against operations in both of its subtrees.
TEST(ExploreExhaustive, ExchangeBothSides) {
  // The racing creations must sit one level below the exchanged entries:
  // with lock coupling, an op whose parent *is* the exchanged node
  // serializes against the exchange instead of being helped.
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/l").ok());
    ASSERT_TRUE(fs.Mkdir("/l/s").ok());
    ASSERT_TRUE(fs.Mkdir("/r").ok());
    ASSERT_TRUE(fs.Mkdir("/r/s").ok());
  };
  program.threads = {{Mknod("/l/s/x")}, {Mknod("/r/s/y")}, {Exchange("/l", "/r")}};
  ExploreOptions options;
  options.max_executions = 60000;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
  EXPECT_GT(stats.schedules_with_helping, 0u);
}

// Writer vs. reader vs. rename: read results must always be justified.
TEST(ExploreExhaustive, ReadWriteRenameTriangle) {
  std::vector<std::byte> payload{std::byte{'x'}, std::byte{'y'}};
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/d").ok());
    ASSERT_TRUE(fs.Mknod("/d/f").ok());
  };
  program.threads = {
      {OpCall::WriteOf(*ParsePath("/d/f"), 0, payload)},
      {OpCall::ReadOf(*ParsePath("/d/f"), 0, 4)},
      {Rename("/d", "/e")},
  };
  ExploreOptions options;
  options.max_executions = 60000;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
}

// Deletion racing a stat through the same directory.
TEST(ExploreExhaustive, DeleteVsStat) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/d").ok());
    ASSERT_TRUE(fs.Mknod("/d/f").ok());
  };
  program.threads = {{Unlink("/d/f")}, {Stat("/d/f")}};
  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok);
}

// A stat that misses decides ENOENT under the lock of the directory that
// missed, after its version chain validates. Racing an insert of the very
// name, every schedule must linearize: a miss whose lookup preceded the
// insert but whose validation follows it must retry, not decide.
TEST(ExploreExhaustive, MknodVsStatValidatedMiss) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) { ASSERT_TRUE(fs.Mkdir("/d").ok()); };
  program.threads = {{Mknod("/d/x")}, {Stat("/d/x")}};
  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
}

// The same against a removal: the stat may hit the name or miss it, and a
// miss must linearize after the unlink.
TEST(ExploreExhaustive, UnlinkVsStatValidatedMiss) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/d").ok());
    ASSERT_TRUE(fs.Mknod("/d/x").ok());
  };
  program.threads = {{Unlink("/d/x")}, {Stat("/d/x")}};
  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
}

// --- optimistic mutators ------------------------------------------------------
//
// ins/del resolve their parent, and write/truncate their target, on the
// optimistic walk; a validated walk is adopted as a lock-coupled arrival
// (docs/CONCURRENCY.md §5). The simulator offers a scheduling point right
// after each adoption, so these programs reach every window in which a
// helper can meet an adopted op.

// Figure 1 with an adopted mknod: some schedules adopt the mknod holding
// /a/b and then let the rename run, which must help it.
TEST(ExploreExhaustive, AdoptedMknodVsRenameOfAncestor) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/a/b").ok());
  };
  program.threads = {{Mknod("/a/b/f")}, {Rename("/a", "/c")}};
  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
  EXPECT_GT(stats.schedules_with_helping, 0u);
}

// A create racing the removal of its parent: the mknod either lands first
// (the rmdir then fails ENOTEMPTY) or misses /a; it must never link into
// the removed directory.
TEST(ExploreExhaustive, AdoptedMknodVsRmdirOfParent) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) { ASSERT_TRUE(fs.Mkdir("/a").ok()); };
  program.threads = {{Mknod("/a/f")}, {Rmdir("/a")}};
  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
}

// An adopted unlink holds /d and then locks its victim; a stat of the
// victim runs its optimistic walk, its validated miss or its fallback in
// every window between.
TEST(ExploreExhaustive, AdoptedUnlinkVsStat) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/d").ok());
    ASSERT_TRUE(fs.Mkdir("/d/e").ok());
    ASSERT_TRUE(fs.Mknod("/d/e/f").ok());
  };
  program.threads = {{Unlink("/d/e/f")}, {Stat("/d/e/f"), Stat("/d/e")}};
  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
}

// A write adopted at its target and a rename of the target's parent: the
// write lands in the moved file, helped when the rename comes after its
// adoption.
TEST(ExploreExhaustive, AdoptedWriteVsRenameOfParent) {
  std::vector<std::byte> payload{std::byte{'x'}, std::byte{'y'}};
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mknod("/a/f").ok());
  };
  program.threads = {{OpCall::WriteOf(*ParsePath("/a/f"), 0, payload)}, {Rename("/a", "/c")}};
  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
  EXPECT_GT(stats.schedules_with_helping, 0u);
}

// The negative direction: with lock coupling disabled, exploration must
// AUTOMATICALLY find the paper's Figure 8 violation — no hand-crafted
// schedule required. This is the model-checking payoff: the same program
// that is clean under coupling (Fig8TripleUnderCoupling) has a discoverable
// non-linearizable schedule without it.
TEST(ExploreExhaustive, FindsFig8BugWithoutCoupling) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/a/b").ok());
    ASSERT_TRUE(fs.Mkdir("/a/b/c").ok());
  };
  program.threads = {{Mkdir("/a/b/c/d")}, {Rename("/a", "/i"), Rmdir("/i/b/c")}};
  program.unsafe_no_coupling = true;
  ExploreOptions options;
  // Last-locked-lockpath fires on every uncoupled schedule by construction;
  // disable invariants so the first recorded failure is the interesting
  // (non-linearizable) schedule.
  options.check_invariants = false;
  auto stats = ExploreSchedules(program, options);
  EXPECT_FALSE(stats.all_ok);
  ASSERT_FALSE(stats.failure_messages.empty());
  // The discovered failure is the one the paper predicts.
  bool found_expected = false;
  for (const auto& msg : stats.failure_messages) {
    if (msg.find("REFINEMENT") != std::string::npos ||
        msg.find("quiescent") != std::string::npos) {
      found_expected = true;
    }
  }
  EXPECT_TRUE(found_expected) << stats.failure_messages[0];
  EXPECT_FALSE(stats.failing_script.empty());
}

// Generic (Wing&Gong-based) exploration: RetryFs has no CRL-H events, so
// its schedules are verified purely from invoke/response histories. A clean
// exhaustive run doubles as a deadlock-freedom certificate (the simulator
// aborts on deadlock).
TEST(ExploreGenericWingGong, RetryFsRenameVsMkdirAllSchedules) {
  GenericFs factory;
  factory.make = [](Executor* ex) {
    RetryFs::Options o;
    o.executor = ex;
    return std::make_unique<RetryFs>(o);
  };
  ConcurrentProgram program;
  program.setup_ops = {Mkdir("/a"), Mkdir("/a/b")};
  program.threads = {{Mkdir("/a/b/c")}, {Rename("/a", "/e")}};
  auto stats = ExploreSchedulesWingGong(factory, program);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
  EXPECT_GT(stats.executions, 1u);
}

TEST(ExploreGenericWingGong, BigLockFsIsTriviallyLinearizable) {
  GenericFs factory;
  factory.make = [](Executor* ex) {
    BigLockFs::Options o;
    o.executor = ex;
    return std::make_unique<BigLockFs>(o);
  };
  ConcurrentProgram program;
  program.setup_ops = {Mkdir("/a"), Mkdir("/a/b")};
  program.threads = {{Mkdir("/a/b/c"), Unlink("/a/b/c")}, {Rename("/a", "/e")}};
  auto stats = ExploreSchedulesWingGong(factory, program);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
}

// Deadlock-freedom of the rename locking protocol: two renames whose source
// and destination subtrees CROSS (the classic two-lock inversion pattern) —
// every schedule must complete (no simulator deadlock abort) and be
// linearizable. AtomFS avoids the inversion by holding the last common
// inode while acquiring both parents (Sec. 5.2).
TEST(ExploreExhaustive, CrossingRenamesAreDeadlockFree) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/a/x").ok());
    ASSERT_TRUE(fs.Mkdir("/b").ok());
    ASSERT_TRUE(fs.Mkdir("/b/y").ok());
  };
  program.threads = {{Rename("/a/x", "/b/x2")}, {Rename("/b/y", "/a/y2")}};
  ExploreOptions options;
  options.wing_gong = true;
  auto stats = ExploreSchedules(program, options);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
}

// Larger program: random schedule fuzzing (the tree is too big to exhaust).
TEST(ExploreRandomized, ThreeThreadChurn) {
  ConcurrentProgram program;
  program.setup = [](FileSystem& fs) {
    ASSERT_TRUE(fs.Mkdir("/a").ok());
    ASSERT_TRUE(fs.Mkdir("/a/b").ok());
    ASSERT_TRUE(fs.Mkdir("/c").ok());
  };
  program.threads = {
      {Mkdir("/a/b/x"), Stat("/a/b"), Unlink("/a/b/x")},
      {Rename("/a", "/t"), Rename("/t", "/a")},
      {Exchange("/a", "/c"), Stat("/c/b")},
  };
  auto stats = ExploreRandom(program, /*runs=*/300, /*base_seed=*/7, /*wing_gong=*/true);
  EXPECT_EQ(stats.executions, 300u);
  EXPECT_TRUE(stats.all_ok) << (stats.failure_messages.empty()
                                    ? "?"
                                    : stats.failure_messages[0]);
  EXPECT_GT(stats.schedules_with_helping, 0u);
}

}  // namespace
}  // namespace atomfs
