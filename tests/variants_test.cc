// Differential and linearizability tests for the baseline file systems:
// BigLockFs (the paper's §7.3 baseline), NaiveFs (spec-behind-a-mutex), and
// RetryFs (the Linux-VFS-style traversal-retry design of §5.1/§5.4).
//
// Sequential: every variant must agree with SpecFs on random op sequences.
// Concurrent: small random histories must pass the Wing&Gong checker.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/afs/op.h"
#include "src/biglock/big_lock_fs.h"
#include "src/crlh/lin_check.h"
#include "src/naive/naive_fs.h"
#include "src/retryfs/retry_fs.h"
#include "src/util/rand.h"

namespace atomfs {
namespace {

Path RandomPath(Rng& rng, size_t max_depth = 3) {
  static const char* kNames[] = {"a", "b", "c", "d"};
  Path p;
  const size_t depth = rng.Between(1, max_depth);
  for (size_t i = 0; i < depth; ++i) {
    p.parts.emplace_back(kNames[rng.Below(4)]);
  }
  return p;
}

OpCall RandomCall(Rng& rng) {
  switch (rng.Below(12)) {
    case 0:
    case 1:
      return OpCall::MkdirOf(RandomPath(rng));
    case 2:
      return OpCall::MknodOf(RandomPath(rng));
    case 3:
      return OpCall::RmdirOf(RandomPath(rng));
    case 4:
      return OpCall::UnlinkOf(RandomPath(rng));
    case 5:
    case 6:
      return OpCall::RenameOf(RandomPath(rng), RandomPath(rng));
    case 7:
      return OpCall::StatOf(RandomPath(rng));
    case 8:
      return OpCall::ReadDirOf(RandomPath(rng));
    case 9:
      return OpCall::ReadOf(RandomPath(rng), rng.Below(16), rng.Between(1, 32));
    default: {
      std::vector<std::byte> payload(rng.Between(1, 32));
      for (auto& b : payload) {
        b = static_cast<std::byte>(rng.Below(256));
      }
      return OpCall::WriteOf(RandomPath(rng), rng.Below(16), std::move(payload));
    }
  }
}

template <typename Fs>
class VariantSequentialTest : public ::testing::Test {};

using Variants = ::testing::Types<BigLockFs, NaiveFs, RetryFs>;
TYPED_TEST_SUITE(VariantSequentialTest, Variants);

TYPED_TEST(VariantSequentialTest, RefinesSpecSequentially) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    TypeParam fs;
    SpecFs spec;
    for (int i = 0; i < 300; ++i) {
      OpCall call = RandomCall(rng);
      OpResult concrete = RunOp(fs, call);
      OpResult abstract = RunOp(spec, call);
      ASSERT_TRUE(ResultsEquivalent(call.kind, concrete, abstract))
          << "seed " << seed << " step " << i << " " << call.ToString() << ": concrete="
          << concrete.ToString(call.kind) << " abstract=" << abstract.ToString(call.kind);
    }
    EXPECT_TRUE(StructurallyEqual(fs.SnapshotSpec(), spec)) << "seed " << seed;
  }
}

// Records (invoke, response) stamped histories for Wing&Gong checking.
class HistoryRecorder {
 public:
  void Run(FileSystem& fs, Tid tid, const OpCall& call) {
    const uint64_t invoke = clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
    OpResult result = RunOp(fs, call);
    const uint64_t response = clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
    std::lock_guard<std::mutex> lk(mu_);
    HistoryOp op;
    op.tid = tid;
    op.call = call;
    op.result = std::move(result);
    op.invoke_seq = invoke;
    op.response_seq = response;
    ops_.push_back(std::move(op));
  }

  std::vector<HistoryOp> Take() {
    std::lock_guard<std::mutex> lk(mu_);
    return ops_;
  }

 private:
  std::atomic<uint64_t> clock_{0};
  std::mutex mu_;
  std::vector<HistoryOp> ops_;
};

template <typename Fs>
class VariantConcurrentTest : public ::testing::Test {};

TYPED_TEST_SUITE(VariantConcurrentTest, Variants);

TYPED_TEST(VariantConcurrentTest, SmallHistoriesAreLinearizable) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    TypeParam fs;
    HistoryRecorder recorder;
    std::vector<std::thread> threads;
    for (Tid t = 1; t <= 3; ++t) {
      threads.emplace_back([&fs, &recorder, seed, t] {
        Rng rng(seed * 131 + t);
        for (int i = 0; i < 4; ++i) {
          recorder.Run(fs, t, RandomCall(rng));
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    auto verdict = CheckLinearizable(recorder.Take());
    EXPECT_FALSE(verdict.aborted) << "seed " << seed;
    EXPECT_TRUE(verdict.linearizable) << "seed " << seed;
  }
}

TEST(RetryFsTest, RetryCounterAdvancesUnderRenameChurn) {
  RetryFs fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/b").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fs.Mknod("/a/f" + std::to_string(i)).ok());
  }
  std::thread churn([&fs] {
    for (int i = 0; i < 200; ++i) {
      fs.Rename("/a", "/c");
      fs.Rename("/c", "/a");
    }
  });
  std::thread walker([&fs] {
    for (int i = 0; i < 400; ++i) {
      fs.Stat("/a/f" + std::to_string(i % 50));
    }
  });
  churn.join();
  walker.join();
  EXPECT_TRUE(fs.SnapshotSpec().WellFormed());
}

TEST(BigLockFsTest, ConcurrentStressKeepsTreeWellFormed) {
  BigLockFs fs;
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&fs, t] {
      Rng rng(7 + t);
      for (int i = 0; i < 300; ++i) {
        RunOp(fs, RandomCall(rng));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_TRUE(fs.SnapshotSpec().WellFormed());
}

TEST(RetryFsTest, ConcurrentStressKeepsTreeWellFormed) {
  RetryFs fs;
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&fs, t] {
      Rng rng(17 + t);
      for (int i = 0; i < 300; ++i) {
        RunOp(fs, RandomCall(rng));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_TRUE(fs.SnapshotSpec().WellFormed());
}

}  // namespace
}  // namespace atomfs
