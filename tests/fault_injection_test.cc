// Failure-injection tests: inode-allocation failures at random and
// adversarial points must leave the tree well formed, leak no inodes, and
// keep subsequent operations working — including under concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/core/atom_fs.h"
#include "src/util/rand.h"

namespace atomfs {
namespace {

TEST(FaultInjection, SingleFailureReturnsEnospcAndRecovers) {
  std::atomic<bool> fail_next{false};
  AtomFs::Options opts;
  opts.inject_alloc_failure = [&fail_next] { return fail_next.exchange(false); };
  AtomFs fs(std::move(opts));

  ASSERT_TRUE(fs.Mkdir("/d").ok());
  fail_next = true;
  EXPECT_EQ(fs.Mknod("/d/f").code(), Errc::kNoSpace);
  // The failure left nothing behind and nothing locked.
  EXPECT_EQ(fs.Stat("/d/f").status().code(), Errc::kNoEnt);
  EXPECT_EQ(fs.Stat("/d")->size, 0u);
  EXPECT_EQ(fs.InodeCount(), 2u);  // root + /d
  // The very next attempt succeeds.
  EXPECT_TRUE(fs.Mknod("/d/f").ok());
  EXPECT_TRUE(fs.SnapshotSpec().WellFormed());
}

TEST(FaultInjection, FailureDoesNotDisturbExistingEntries) {
  std::atomic<bool> fail_next{false};
  AtomFs::Options opts;
  opts.inject_alloc_failure = [&fail_next] { return fail_next.exchange(false); };
  AtomFs fs(std::move(opts));
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(WriteString(fs, "/d/keep", "data").ok());
  fail_next = true;
  EXPECT_EQ(fs.Mkdir("/d/new").code(), Errc::kNoSpace);
  EXPECT_EQ(ReadString(fs, "/d/keep").value(), "data");
  EXPECT_EQ(fs.Stat("/d")->size, 1u);
}

// A create allocates its inode and entry shell before it locks the parent,
// so every failure after that must free both and give back the inode.
TEST(FaultInjection, FailedCreatesLeakNothing) {
  std::atomic<bool> fail_next{false};
  AtomFs::Options opts;
  opts.inject_alloc_failure = [&fail_next] { return fail_next.exchange(false); };
  AtomFs fs(std::move(opts));
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Mknod("/d/f").ok());
  const uint64_t baseline = fs.InodeCount();
  const size_t pending_baseline = fs.PendingReclaim();

  constexpr int kRounds = 1000;
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(fs.Mknod("/d/f").code(), Errc::kExist);
    EXPECT_EQ(fs.Mkdir("/d").code(), Errc::kExist);
    EXPECT_EQ(fs.Mknod("/missing/f").code(), Errc::kNoEnt);
    EXPECT_EQ(fs.Mkdir("/d/missing/g").code(), Errc::kNoEnt);
    EXPECT_EQ(fs.Mknod("/d/f/g").code(), Errc::kNotDir);
    EXPECT_EQ(fs.Mkdir("/d/f/g/h").code(), Errc::kNotDir);
    fail_next = true;
    EXPECT_EQ(fs.Mknod("/d/g").code(), Errc::kNoSpace);
    fail_next = true;
    EXPECT_EQ(fs.Mkdir("/d/g").code(), Errc::kNoSpace);
    ASSERT_EQ(fs.InodeCount(), baseline) << "round " << i;
  }
  // Nothing unlinked, so nothing went to the reclaimer either.
  EXPECT_EQ(fs.PendingReclaim(), pending_baseline);
  // A failed create hands its inode number back: the next one is dense.
  const Inum before = fs.Stat("/d/f")->ino;
  ASSERT_TRUE(fs.Mknod("/d/g").ok());
  EXPECT_EQ(fs.Stat("/d/g")->ino, before + 1);
  EXPECT_EQ(fs.InodeCount(), baseline + 1);
  EXPECT_TRUE(fs.SnapshotSpec().WellFormed());
}

class RandomFaultTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomFaultTest, RandomFailuresKeepTreeConsistent) {
  auto rng = std::make_shared<Rng>(GetParam());
  auto mu = std::make_shared<std::mutex>();
  AtomFs::Options opts;
  // ~20% of allocations fail.
  opts.inject_alloc_failure = [rng, mu] {
    std::lock_guard<std::mutex> lk(*mu);
    return rng->Chance(1, 5);
  };
  AtomFs fs(std::move(opts));

  Rng op_rng(GetParam() * 31 + 7);
  static const char* kNames[] = {"a", "b", "c"};
  auto random_path = [&op_rng]() {
    Path p;
    const size_t depth = op_rng.Between(1, 3);
    for (size_t i = 0; i < depth; ++i) {
      p.parts.emplace_back(kNames[op_rng.Below(3)]);
    }
    return p;
  };
  uint64_t enospc_count = 0;
  for (int i = 0; i < 600; ++i) {
    OpCall call;
    switch (op_rng.Below(5)) {
      case 0:
        call = OpCall::MkdirOf(random_path());
        break;
      case 1:
        call = OpCall::MknodOf(random_path());
        break;
      case 2:
        call = OpCall::UnlinkOf(random_path());
        break;
      case 3:
        call = OpCall::RenameOf(random_path(), random_path());
        break;
      default:
        call = OpCall::StatOf(random_path());
        break;
    }
    OpResult result = RunOp(fs, call);
    if (result.status.code() == Errc::kNoSpace) {
      ++enospc_count;
    }
  }
  EXPECT_GT(enospc_count, 0u);
  EXPECT_TRUE(fs.SnapshotSpec().WellFormed());
  // Inode accounting is exact: count the snapshot's inodes.
  EXPECT_EQ(fs.InodeCount(), fs.SnapshotSpec().imap().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFaultTest, ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST(FaultInjection, ConcurrentFailuresStayConsistent) {
  std::atomic<uint32_t> tick{0};
  AtomFs::Options opts;
  opts.inject_alloc_failure = [&tick] {
    return tick.fetch_add(1, std::memory_order_relaxed) % 7 == 3;
  };
  AtomFs fs(std::move(opts));

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&fs, t] {
      Rng rng(90001 + t);
      static const char* kNames[] = {"a", "b", "c", "d"};
      for (int i = 0; i < 400; ++i) {
        Path p;
        const size_t depth = rng.Between(1, 3);
        for (size_t j = 0; j < depth; ++j) {
          p.parts.emplace_back(kNames[rng.Below(4)]);
        }
        switch (rng.Below(4)) {
          case 0:
            fs.Mkdir(p);
            break;
          case 1:
            fs.Mknod(p);
            break;
          case 2:
            fs.Unlink(p);
            break;
          default:
            fs.Rmdir(p);
            break;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  auto snapshot = fs.SnapshotSpec();
  EXPECT_TRUE(snapshot.WellFormed());
  EXPECT_EQ(fs.InodeCount(), snapshot.imap().size());
}

}  // namespace
}  // namespace atomfs
