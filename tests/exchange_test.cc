// Tests for the Exchange extension (RENAME_EXCHANGE-style atomic swap).
//
// Sequential semantics on every variant, plus the concurrency showcase: an
// exchange breaks the path integrity of *two* subtrees at once, so at its LP
// the CRL-H helper must linearize in-flight operations from both sides —
// something a rename (which only breaks its source path) never needs.

#include <gtest/gtest.h>

#include "src/afs/op.h"
#include "src/biglock/big_lock_fs.h"
#include "src/core/atom_fs.h"
#include "src/crlh/gate.h"
#include "src/crlh/lin_check.h"
#include "src/crlh/monitor.h"
#include "src/crlh/op_thread.h"
#include "src/naive/naive_fs.h"
#include "src/retryfs/retry_fs.h"
#include "src/util/rand.h"

namespace atomfs {
namespace {

template <typename Fs>
class ExchangeSemanticsTest : public ::testing::Test {
 protected:
  Fs fs_;
};

using AllFileSystems = ::testing::Types<AtomFs, BigLockFs, NaiveFs, RetryFs, SpecFs>;
TYPED_TEST_SUITE(ExchangeSemanticsTest, AllFileSystems);

TYPED_TEST(ExchangeSemanticsTest, SwapsTwoFiles) {
  ASSERT_TRUE(WriteString(this->fs_, "/a", "AAA").ok());
  ASSERT_TRUE(WriteString(this->fs_, "/b", "BB").ok());
  ASSERT_TRUE(this->fs_.Exchange("/a", "/b").ok());
  EXPECT_EQ(ReadString(this->fs_, "/a").value(), "BB");
  EXPECT_EQ(ReadString(this->fs_, "/b").value(), "AAA");
}

TYPED_TEST(ExchangeSemanticsTest, SwapsFileWithDirectory) {
  ASSERT_TRUE(WriteString(this->fs_, "/f", "data").ok());
  ASSERT_TRUE(this->fs_.Mkdir("/d").ok());
  ASSERT_TRUE(this->fs_.Mknod("/d/inner").ok());
  ASSERT_TRUE(this->fs_.Exchange("/f", "/d").ok());
  EXPECT_EQ(this->fs_.Stat("/f")->type, FileType::kDir);
  EXPECT_TRUE(this->fs_.Stat("/f/inner").ok());
  EXPECT_EQ(ReadString(this->fs_, "/d").value(), "data");
}

TYPED_TEST(ExchangeSemanticsTest, SwapsAcrossDirectories) {
  ASSERT_TRUE(this->fs_.Mkdir("/x").ok());
  ASSERT_TRUE(this->fs_.Mkdir("/y").ok());
  ASSERT_TRUE(this->fs_.Mkdir("/y/deep").ok());
  ASSERT_TRUE(WriteString(this->fs_, "/x/one", "1").ok());
  ASSERT_TRUE(WriteString(this->fs_, "/y/deep/two", "2").ok());
  ASSERT_TRUE(this->fs_.Exchange("/x/one", "/y/deep/two").ok());
  EXPECT_EQ(ReadString(this->fs_, "/x/one").value(), "2");
  EXPECT_EQ(ReadString(this->fs_, "/y/deep/two").value(), "1");
}

TYPED_TEST(ExchangeSemanticsTest, ErrorCases) {
  ASSERT_TRUE(this->fs_.Mkdir("/d").ok());
  ASSERT_TRUE(this->fs_.Mkdir("/d/sub").ok());
  ASSERT_TRUE(this->fs_.Mknod("/f").ok());
  // Roots.
  EXPECT_EQ(this->fs_.Exchange("/", "/f").code(), Errc::kBusy);
  EXPECT_EQ(this->fs_.Exchange("/f", "/").code(), Errc::kBusy);
  // Ancestor/descendant in either direction.
  EXPECT_EQ(this->fs_.Exchange("/d", "/d/sub").code(), Errc::kInval);
  EXPECT_EQ(this->fs_.Exchange("/d/sub", "/d").code(), Errc::kInval);
  // Missing endpoints (first path's resolution errors take precedence).
  EXPECT_EQ(this->fs_.Exchange("/missing", "/f").code(), Errc::kNoEnt);
  EXPECT_EQ(this->fs_.Exchange("/f", "/missing").code(), Errc::kNoEnt);
  EXPECT_EQ(this->fs_.Exchange("/no/parent", "/f").code(), Errc::kNoEnt);
  // A file used as a directory component.
  EXPECT_EQ(this->fs_.Exchange("/f/x", "/d/sub").code(), Errc::kNotDir);
  // Lexical ancestor check fires before resolution, like rename's EINVAL.
  EXPECT_EQ(this->fs_.Exchange("/f/x", "/f").code(), Errc::kInval);
}

TYPED_TEST(ExchangeSemanticsTest, SelfExchangeIsNoOp) {
  ASSERT_TRUE(WriteString(this->fs_, "/f", "same").ok());
  EXPECT_TRUE(this->fs_.Exchange("/f", "/f").ok());
  EXPECT_EQ(ReadString(this->fs_, "/f").value(), "same");
  EXPECT_EQ(this->fs_.Exchange("/nope", "/nope").code(), Errc::kNoEnt);
}

TYPED_TEST(ExchangeSemanticsTest, SameParentSwap) {
  ASSERT_TRUE(this->fs_.Mkdir("/d").ok());
  ASSERT_TRUE(WriteString(this->fs_, "/d/a", "A").ok());
  ASSERT_TRUE(WriteString(this->fs_, "/d/b", "B").ok());
  ASSERT_TRUE(this->fs_.Exchange("/d/a", "/d/b").ok());
  EXPECT_EQ(ReadString(this->fs_, "/d/a").value(), "B");
  EXPECT_EQ(ReadString(this->fs_, "/d/b").value(), "A");
}

// Differential: random exchanges mixed with the other ops agree with SpecFs.
TEST(ExchangeDifferential, MatchesSpecAcrossRandomSequences) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 10007);
    AtomFs fs;
    SpecFs spec;
    static const char* kNames[] = {"a", "b", "c"};
    auto random_path = [&rng]() {
      Path p;
      const size_t depth = rng.Between(1, 3);
      for (size_t i = 0; i < depth; ++i) {
        p.parts.emplace_back(kNames[rng.Below(3)]);
      }
      return p;
    };
    for (int i = 0; i < 400; ++i) {
      OpCall call;
      switch (rng.Below(5)) {
        case 0:
          call = OpCall::MkdirOf(random_path());
          break;
        case 1:
          call = OpCall::MknodOf(random_path());
          break;
        case 2:
          call = OpCall::ExchangeOf(random_path(), random_path());
          break;
        case 3:
          call = OpCall::UnlinkOf(random_path());
          break;
        default:
          call = OpCall::StatOf(random_path());
          break;
      }
      OpResult concrete = RunOp(fs, call);
      OpResult abstract = RunOp(spec, call);
      ASSERT_TRUE(ResultsEquivalent(call.kind, concrete, abstract))
          << call.ToString() << " concrete=" << concrete.ToString(call.kind)
          << " abstract=" << abstract.ToString(call.kind);
    }
    EXPECT_TRUE(StructurallyEqual(fs.SnapshotSpec(), spec));
    EXPECT_TRUE(spec.WellFormed());
  }
}

// --- concurrency: exchange as a helper op -----------------------------------

class ExchangeScenarioTest : public ::testing::Test {
 protected:
  void Build() {
    monitor_ = std::make_unique<CrlhMonitor>();
    tee_ = std::make_unique<TeeObserver>(monitor_.get(), &gate_);
    AtomFs::Options opts;
    opts.observer = tee_.get();
    fs_ = std::make_unique<AtomFs>(std::move(opts));
  }

  Inum InoOf(std::string_view path) { return fs_->Stat(path)->ino; }

  GateObserver gate_;
  std::unique_ptr<CrlhMonitor> monitor_;
  std::unique_ptr<TeeObserver> tee_;
  std::unique_ptr<AtomFs> fs_;
};

// The showcase: ops parked inside BOTH subtrees of an exchange must both be
// helped — a rename would only have to help its source side.
TEST_F(ExchangeScenarioTest, ExchangeHelpsBothSides) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/left").ok());
  ASSERT_TRUE(fs_->Mkdir("/left/sub").ok());
  ASSERT_TRUE(fs_->Mkdir("/right").ok());
  ASSERT_TRUE(fs_->Mkdir("/right/sub").ok());
  const Inum ino_left = InoOf("/left");
  const Inum ino_right = InoOf("/right");

  // One mkdir parked inside each subtree on the lock-coupled walk, each
  // holding only its own sub dir.
  auto hold_root = [&] { EXPECT_TRUE(fs_->Stat("/").ok()); };
  OpThread in_left([&] { EXPECT_TRUE(fs_->Mkdir("/left/sub/x").ok()); });
  gate_.Arm(in_left.tid(), GateObserver::Point::kLockReleased, ino_left);
  ASSERT_TRUE(gate_.StartOnLockedWalk(in_left, hold_root));
  gate_.WaitParked(in_left.tid());

  OpThread in_right([&] { EXPECT_TRUE(fs_->Mkdir("/right/sub/y").ok()); });
  gate_.Arm(in_right.tid(), GateObserver::Point::kLockReleased, ino_right);
  ASSERT_TRUE(gate_.StartOnLockedWalk(in_right, hold_root));
  gate_.WaitParked(in_right.tid());

  // The exchange swaps the two trees and must help BOTH parked mkdirs.
  EXPECT_TRUE(fs_->Exchange("/left", "/right").ok());
  EXPECT_EQ(monitor_->helped_ops(), 2u);

  gate_.Open(in_left.tid());
  in_left.Join();
  gate_.Open(in_right.tid());
  in_right.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  // The inserts landed in their (now swapped) subtrees.
  EXPECT_TRUE(fs_->Stat("/right/sub/x").ok());
  EXPECT_TRUE(fs_->Stat("/left/sub/y").ok());

  auto history = HistoryFromRecords(monitor_->Completed());
  EXPECT_TRUE(CheckLinearizable(history).linearizable);
}

// A rename in flight against an exchange of an ancestor: recursive
// dependency through the exchange's breaking paths.
TEST_F(ExchangeScenarioTest, ExchangeHelpsStatDeepInside) {
  Build();
  ASSERT_TRUE(fs_->Mkdir("/p").ok());
  ASSERT_TRUE(fs_->Mkdir("/p/q").ok());
  ASSERT_TRUE(WriteString(*fs_, "/p/q/f", "1234").ok());
  ASSERT_TRUE(fs_->Mkdir("/other").ok());
  const Inum ino_q = InoOf("/p/q");

  OpThread reader([&] {
    auto attr = fs_->Stat("/p/q/f");
    ASSERT_TRUE(attr.ok());
    EXPECT_EQ(attr->size, 4u);
  });
  // The stat runs the lock-coupled walk (an optimistic one holds no path an
  // exchange could help) and parks holding only f.
  gate_.Arm(reader.tid(), GateObserver::Point::kLockReleased, ino_q);
  ASSERT_TRUE(gate_.StartOnLockedWalk(reader, [&] { EXPECT_TRUE(fs_->Stat("/").ok()); }));
  gate_.WaitParked(reader.tid());

  EXPECT_TRUE(fs_->Exchange("/p", "/other").ok());
  EXPECT_EQ(monitor_->helped_ops(), 1u);

  gate_.Open(reader.tid());
  reader.Join();

  ASSERT_TRUE(monitor_->ok()) << monitor_->violations()[0];
  EXPECT_TRUE(monitor_->CheckQuiescent(fs_->SnapshotSpec()));
  EXPECT_TRUE(CheckLinearizable(HistoryFromRecords(monitor_->Completed())).linearizable);
}

// Monitored concurrent stress including exchanges.
TEST(ExchangeStress, RefinementHoldsUnderChurn) {
  CrlhMonitor monitor;
  AtomFs::Options opts;
  opts.observer = &monitor;
  AtomFs fs(std::move(opts));

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&fs, t] {
      Rng rng(40001 + t);
      static const char* kNames[] = {"a", "b", "c", "d"};
      auto random_path = [&rng]() {
        Path p;
        const size_t depth = rng.Between(1, 3);
        for (size_t i = 0; i < depth; ++i) {
          p.parts.emplace_back(kNames[rng.Below(4)]);
        }
        return p;
      };
      for (int i = 0; i < 250; ++i) {
        OpCall call;
        switch (rng.Below(6)) {
          case 0:
            call = OpCall::MkdirOf(random_path());
            break;
          case 1:
            call = OpCall::ExchangeOf(random_path(), random_path());
            break;
          case 2:
            call = OpCall::RenameOf(random_path(), random_path());
            break;
          case 3:
            call = OpCall::StatOf(random_path());
            break;
          case 4:
            call = OpCall::MknodOf(random_path());
            break;
          default:
            call = OpCall::UnlinkOf(random_path());
            break;
        }
        RunOp(fs, call);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(monitor.ok()) << monitor.violations()[0];
  EXPECT_TRUE(monitor.CheckQuiescent(fs.SnapshotSpec()));
}

}  // namespace
}  // namespace atomfs
