// Unit tests for the epoch-based reclaimer (src/core/reclaimer.h): pins
// hold back exactly what they must, slots are recycled across threads, and
// an AtomFs frees what it unlinks as it goes instead of keeping it until it
// is destroyed.

#include "src/core/reclaimer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <future>
#include <thread>

#include "src/core/atom_fs.h"

namespace atomfs {
namespace {

// Counts its own destruction.
struct Tracked {
  explicit Tracked(std::atomic<int>* freed_arg) : freed(freed_arg) {}
  ~Tracked() { freed->fetch_add(1, std::memory_order_relaxed); }
  std::atomic<int>* freed;
};

TEST(Reclaimer, NothingPinnedFreesAtTheNextScan) {
  std::atomic<int> freed{0};
  Reclaimer reclaimer;
  for (int i = 0; i < 10; ++i) {
    reclaimer.Retire(new Tracked(&freed));
  }
  EXPECT_EQ(reclaimer.pending(), 10u);
  EXPECT_EQ(reclaimer.Scan(), 10u);
  EXPECT_EQ(freed.load(), 10);
  EXPECT_EQ(reclaimer.pending(), 0u);
}

// Retire never frees (it may run under a directory lock); every kScanEvery
// retirements it makes the next ScanIfDue scan.
TEST(Reclaimer, ScanIsDueEveryKScanEveryRetirements) {
  std::atomic<int> freed{0};
  Reclaimer reclaimer;
  for (uint32_t i = 0; i < Reclaimer::kScanEvery - 1; ++i) {
    reclaimer.Retire(new Tracked(&freed));
    reclaimer.ScanIfDue();
  }
  EXPECT_EQ(freed.load(), 0);
  reclaimer.Retire(new Tracked(&freed));
  EXPECT_EQ(freed.load(), 0);
  reclaimer.ScanIfDue();
  EXPECT_EQ(freed.load(), static_cast<int>(Reclaimer::kScanEvery));
  reclaimer.Retire(new Tracked(&freed));
  reclaimer.ScanIfDue();
  EXPECT_EQ(reclaimer.pending(), 1u) << "one due scan per kScanEvery retirements";
}

TEST(Reclaimer, DestructorFreesWhatIsStillInLimbo) {
  std::atomic<int> freed{0};
  {
    Reclaimer reclaimer;
    const EpochPin pin;  // keeps everything in limbo until the end
    for (int i = 0; i < 3; ++i) {
      reclaimer.Retire(new Tracked(&freed));
    }
    reclaimer.Scan();
    EXPECT_EQ(freed.load(), 0);
  }
  EXPECT_EQ(freed.load(), 3);
}

// A reader that pinned before an object was retired keeps it allocated
// however often the owner scans; the epoch moves at most one step past the
// reader's. Once the reader unpins, one scan (two advances) frees it.
TEST(Reclaimer, PinnedReaderKeepsARetiredObjectUntilItUnpins) {
  std::atomic<int> freed{0};
  Reclaimer reclaimer;
  std::promise<uint64_t> pinned;
  std::promise<void> unpin;
  std::promise<void> unpinned;
  std::thread reader([&] {
    {
      const EpochPin pin;
      pinned.set_value(Reclaimer::Epoch());
      unpin.get_future().wait();
    }
    unpinned.set_value();
  });
  const uint64_t reader_epoch = pinned.get_future().get();
  reclaimer.Retire(new Tracked(&freed));
  for (int i = 0; i < 10; ++i) {
    reclaimer.Scan();
  }
  EXPECT_EQ(freed.load(), 0) << "freed under a pinned reader";
  EXPECT_EQ(reclaimer.pending(), 1u);
  EXPECT_LE(Reclaimer::Epoch(), reader_epoch + 1);

  unpin.set_value();
  unpinned.get_future().wait();
  const uint64_t before = Reclaimer::Epoch();
  EXPECT_EQ(reclaimer.Scan(), 1u);
  EXPECT_EQ(freed.load(), 1);
  EXPECT_LE(Reclaimer::Epoch() - before, 2u);
  reader.join();
}

// Slots are claimed per thread and handed back at thread exit: 10,000
// threads, started and joined one after another with never more than 4
// alive, each pinning once, leave at most 4 new slots behind and none in
// use.
TEST(Reclaimer, SlotsAreRecycledAcrossTenThousandThreads) {
  constexpr int kThreads = 10000;
  constexpr size_t kMaxAlive = 4;
  const size_t slots_before = Reclaimer::SlotCount();
  const size_t in_use_before = Reclaimer::SlotsInUse();
  std::deque<std::thread> alive;
  for (int i = 0; i < kThreads; ++i) {
    if (alive.size() == kMaxAlive) {
      alive.front().join();
      alive.pop_front();
    }
    alive.emplace_back([] { const EpochPin pin; });
  }
  for (auto& t : alive) {
    t.join();
  }
  EXPECT_LE(Reclaimer::SlotCount(), slots_before + kMaxAlive);
  EXPECT_EQ(Reclaimer::SlotsInUse(), in_use_before);
}

// An AtomFs frees what it unlinks while it runs: after 10,000 create/unlink
// pairs the limbo list holds less than one scan's worth, with and without
// inode locks (BigLockFs mode never pins, so nothing waits at all).
TEST(Reclaimer, AtomFsFreesUnlinkedInodesAsItGoes) {
  for (bool locks : {true, false}) {
    AtomFs::Options opts;
    opts.disable_inode_locks = !locks;
    AtomFs fs(std::move(opts));
    ASSERT_TRUE(fs.Mkdir("/d").ok());
    for (int i = 0; i < 10000; ++i) {
      const std::string path = "/d/f" + std::to_string(i % 100);
      ASSERT_TRUE(fs.Mknod(path).ok());
      ASSERT_TRUE(fs.Stat(path).ok());
      ASSERT_TRUE(fs.Unlink(path).ok());
    }
    EXPECT_EQ(fs.InodeCount(), 2u);
    EXPECT_LT(fs.PendingReclaim(), size_t{Reclaimer::kScanEvery}) << "locks=" << locks;
  }
}

}  // namespace
}  // namespace atomfs
