// Unit tests for the directory hash table (src/core/dir_table.h).

#include "src/core/dir_table.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/inode.h"
#include "src/core/reclaimer.h"
#include "src/sim/executor.h"

namespace atomfs {
namespace {

// The children's own tables never insert, so they never retire anything.
Reclaimer g_children;

std::unique_ptr<Inode> MakeInode(Inum ino, FileType type = FileType::kFile) {
  return std::make_unique<Inode>(ino, type, Executor::Real().CreateLock(), g_children);
}

// `count` names that share one bucket in every table of up to 1024 heads,
// so they form a single chain however far the table has grown.
std::vector<std::string> CollidingNames(size_t count) {
  std::vector<std::string> names;
  for (uint64_t i = 0; names.size() < count; ++i) {
    std::string name = "n" + std::to_string(i);
    if ((DirTable::Hash(name) & 1023) == 0) {
      names.push_back(std::move(name));
    }
  }
  return names;
}

TEST(DirTable, InsertFindRemove) {
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find("a"), nullptr);

  EXPECT_TRUE(table.Insert("a", MakeInode(10)));
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.Find("a"), nullptr);
  EXPECT_EQ(table.Find("a")->ino, 10u);

  auto removed = table.Remove("a");
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed->ino, 10u);
  EXPECT_EQ(table.Find("a"), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

TEST(DirTable, DuplicateInsertRejected) {
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  EXPECT_TRUE(table.Insert("a", MakeInode(1)));
  EXPECT_FALSE(table.Insert("a", MakeInode(2)));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Find("a")->ino, 1u);
}

TEST(DirTable, RemoveMissingReturnsNull) {
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  EXPECT_EQ(table.Remove("nope"), nullptr);
}

// The split form AtomFs uses to keep allocation and retirement out of the
// directory lock: the shell is built before Link and retired after Unlink,
// only when the caller asks.
TEST(DirTable, ShellsAreBuiltBeforeLinkAndRetiredAfterUnlink) {
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  DirTable::Shell shell = DirTable::NewShell("a", MakeInode(7));
  ASSERT_TRUE(table.Link(shell));
  EXPECT_FALSE(shell);  // the table owns the entry now
  EXPECT_EQ(table.FindOptimistic("a")->ino, 7u);

  DirTable::Shell dup = DirTable::NewShell("a", MakeInode(8));
  EXPECT_FALSE(table.Link(dup));
  ASSERT_TRUE(dup);  // untouched: dropping it frees the never-linked inode

  DirTable::Shell unlinked = table.Unlink("a");
  ASSERT_TRUE(unlinked);
  EXPECT_EQ(table.FindOptimistic("a"), nullptr);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(reclaimer.pending(), 0u);  // nothing retired under the "lock"
  EXPECT_EQ(unlinked.TakeChild()->ino, 7u);
  std::move(unlinked).Retire(reclaimer);
  EXPECT_EQ(reclaimer.pending(), 1u);
  EXPECT_FALSE(table.Unlink("a"));
}

TEST(DirTable, SingleBucketChainsCorrectly) {
  // Every entry collides: exercises the linked-list path, across the
  // doublings that rehash the chain into each new array.
  const std::vector<std::string> names = CollidingNames(100);
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(table.Insert(names[i], MakeInode(100 + i)));
  }
  EXPECT_EQ(table.size(), 100u);
  ASSERT_LE(table.bucket_count(), 1024u);
  // One chain of 100 links: the probe counts are exactly 1..100.
  size_t probe_sum = 0;
  for (int i = 0; i < 100; ++i) {
    size_t probes = 0;
    ASSERT_NE(table.Find(names[i], &probes), nullptr);
    EXPECT_EQ(table.Find(names[i])->ino, static_cast<Inum>(100 + i));
    probe_sum += probes;
  }
  EXPECT_EQ(probe_sum, 100u * 101u / 2);
  // Remove from the middle of chains.
  for (int i = 0; i < 100; i += 2) {
    EXPECT_NE(table.Remove(names[i]), nullptr);
  }
  EXPECT_EQ(table.size(), 50u);
  for (int i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(table.Find(names[i]), nullptr);
    } else {
      EXPECT_NE(table.Find(names[i]), nullptr);
    }
  }
}

TEST(DirTable, GrowsToKeepLoadFactorAtMostOne) {
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  size_t last = 0;
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(table.Insert("g" + std::to_string(i), MakeInode(i + 1)));
    const size_t buckets = table.bucket_count();
    ASSERT_EQ(buckets & (buckets - 1), 0u) << "not a power of two: " << buckets;
    ASSERT_GE(buckets, table.size());
    ASSERT_GE(buckets, last) << "shrank";
    ASSERT_LE(buckets, 2 * table.size() + 8) << "grew more than it had to";
    last = buckets;
  }
  for (int i = 0; i < 3000; ++i) {
    ASSERT_NE(table.Remove("g" + std::to_string(i)), nullptr);
  }
  EXPECT_EQ(table.bucket_count(), last) << "never shrinks";
}

TEST(DirTable, TenThousandInsertsThenRemoveEveryOther) {
  constexpr int kNames = 10000;
  // Once with nothing pinned, so a scan frees every retired shell and array,
  // and once pinned throughout, so every one of them waits.
  for (bool pinned : {false, true}) {
    Reclaimer reclaimer;
    const EpochPin pin(pinned);
    DirTable table(reclaimer);
    for (int i = 0; i < kNames; ++i) {
      ASSERT_TRUE(table.Insert("e" + std::to_string(i), MakeInode(i + 1)));
    }
    for (int i = 0; i < kNames; i += 2) {
      ASSERT_NE(table.Remove("e" + std::to_string(i)), nullptr);
    }
    ASSERT_EQ(table.size(), static_cast<size_t>(kNames / 2));
    reclaimer.Scan();
    if (pinned) {
      EXPECT_GE(reclaimer.pending(), static_cast<size_t>(kNames / 2));
    } else {
      EXPECT_EQ(reclaimer.pending(), 0u);
    }
    for (int i = 0; i < kNames; ++i) {
      const std::string name = "e" + std::to_string(i);
      if (i % 2 == 0) {
        EXPECT_EQ(table.Find(name), nullptr) << name;
        EXPECT_EQ(table.FindOptimistic(name), nullptr) << name;
      } else {
        ASSERT_NE(table.Find(name), nullptr) << name;
        EXPECT_EQ(table.Find(name)->ino, static_cast<Inum>(i + 1));
        EXPECT_EQ(table.FindOptimistic(name), table.Find(name));
      }
    }
    std::map<std::string, int> visits;
    table.ForEach([&visits](const std::string& name, const Inode* child) {
      EXPECT_NE(child, nullptr);
      ++visits[name];
    });
    ASSERT_EQ(visits.size(), static_cast<size_t>(kNames / 2));
    for (const auto& [name, count] : visits) {
      EXPECT_EQ(count, 1) << name;
    }
    std::set<Inum> taken;
    for (const auto& child : table.TakeAll()) {
      ASSERT_NE(child, nullptr);
      EXPECT_EQ(child->ino % 2, 0u);  // odd i survived, so ino = i + 1 is even
      EXPECT_TRUE(taken.insert(child->ino).second) << "taken twice: " << child->ino;
    }
    EXPECT_EQ(taken.size(), static_cast<size_t>(kNames / 2));
    EXPECT_EQ(table.size(), 0u);
  }
}

TEST(DirTable, ForEachVisitsAll) {
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  for (int i = 0; i < 37; ++i) {
    EXPECT_TRUE(table.Insert("k" + std::to_string(i), MakeInode(i + 1)));
  }
  std::set<std::string> seen;
  table.ForEach([&seen](const std::string& name, const Inode* child) {
    EXPECT_NE(child, nullptr);
    seen.insert(name);
  });
  EXPECT_EQ(seen.size(), 37u);
}

TEST(DirTable, TakeAllDrainsOwnership) {
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(table.Insert("k" + std::to_string(i), MakeInode(i + 1)));
  }
  auto all = table.TakeAll();
  EXPECT_EQ(all.size(), 10u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find("k0"), nullptr);
}

TEST(DirTable, EmptyTableHasNoBucketArray) {
  // A file inode's table is never inserted into, so it never allocates.
  auto file = MakeInode(1);
  EXPECT_EQ(file->dir.bucket_count(), 0u);
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  EXPECT_EQ(table.bucket_count(), 0u);
  EXPECT_EQ(table.Find("a"), nullptr);
  EXPECT_EQ(table.FindOptimistic("a"), nullptr);
  EXPECT_EQ(table.Remove("a"), nullptr);
  table.ForEach([](const std::string&, const Inode*) { ADD_FAILURE() << "visited an entry"; });
  EXPECT_TRUE(table.TakeAll().empty());
  EXPECT_EQ(table.bucket_count(), 0u);
  EXPECT_TRUE(table.Insert("a", MakeInode(2)));
  EXPECT_GT(table.bucket_count(), 0u);
  EXPECT_NE(table.Find("a"), nullptr);
}

// --- optimistic (lock-free reader) lookups -----------------------------------

TEST(DirTable, FindOptimisticSeesPublishedEntries) {
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  EXPECT_EQ(table.FindOptimistic("a"), nullptr);
  EXPECT_TRUE(table.Insert("a", MakeInode(10)));
  ASSERT_NE(table.FindOptimistic("a"), nullptr);
  EXPECT_EQ(table.FindOptimistic("a")->ino, 10u);
  // Remove unpublishes before unlinking: an optimistic reader can never see
  // an entry whose inode ownership has already been moved out.
  auto removed = table.Remove("a");
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(table.FindOptimistic("a"), nullptr);
}

TEST(DirTable, FindOptimisticWalksCollisionChains) {
  const std::vector<std::string> names = CollidingNames(50);  // one chain
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(table.Insert(names[i], MakeInode(100 + i)));
  }
  // Unlink every other entry mid-chain, then check both halves: removed
  // names invisible, survivors still reachable through the spliced chain.
  for (int i = 0; i < 50; i += 2) {
    EXPECT_NE(table.Remove(names[i]), nullptr);
  }
  for (int i = 0; i < 50; ++i) {
    const Inode* found = table.FindOptimistic(names[i]);
    if (i % 2 == 0) {
      EXPECT_EQ(found, nullptr) << i;
    } else {
      ASSERT_NE(found, nullptr) << i;
      EXPECT_EQ(found->ino, static_cast<Inum>(100 + i));
    }
  }
}

TEST(DirTable, RetiredShellsWaitForPinnedReaders) {
  // While a reader is pinned the removed entries' shells stay allocated, so
  // a racing optimistic reader can keep walking a chain through an unlinked
  // entry; once it unpins, the next scan frees them. Single-threaded here:
  // the point is that reuse of a name after removal works and nothing leaks
  // (ASan covers the leak half when the reclaimer dies).
  Reclaimer reclaimer;
  DirTable table(reclaimer);
  auto pin = std::make_unique<EpochPin>();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(table.Insert("k" + std::to_string(i), MakeInode(round * 100 + i + 1)));
    }
    EXPECT_EQ(table.size(), 20u);
    for (int i = 0; i < 20; ++i) {
      EXPECT_NE(table.Remove("k" + std::to_string(i)), nullptr);
    }
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.Find("k0"), nullptr);
    EXPECT_EQ(table.FindOptimistic("k0"), nullptr);
  }
  // 60 removed shells, plus the shells and arrays the first round's growth
  // replaced.
  EXPECT_GE(reclaimer.pending(), 60u);
  pin.reset();
  reclaimer.Scan();
  EXPECT_EQ(reclaimer.pending(), 0u);
}

}  // namespace
}  // namespace atomfs
