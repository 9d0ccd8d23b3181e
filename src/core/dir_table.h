// DirTable: directory contents as a hash table of separately chained
// buckets, matching the paper's prototype ("a hash table followed by linked
// lists for directory lookups").
//
// The table grows with the directory. It holds no bucket array until the
// first Insert (a file inode's table never allocates one). The array has a
// power-of-two number of heads indexed by Hash(name) & mask. When an Insert
// would put more entries than heads in it (load factor 1), the array
// doubles, so a lookup inspects about one entry however large the directory
// is. It never shrinks.
//
// All mutation happens under the owning inode's lock. Lookups come in two
// flavors: Find() is the classic locked lookup, and FindOptimistic() is the
// RCU-walk read path (docs/CONCURRENCY.md §4) that runs with NO locks held.
// To make the latter sound every pointer a reader follows is published with
// release/acquire atomics:
//
//  - the bucket array sits behind std::atomic<Buckets*>. A reader
//    acquire-loads it once and walks only that array.
//  - bucket heads and Entry::next are std::atomic<Entry*>; Link
//    release-stores a fully built entry (NewShell) as the new head, so an
//    acquire load of the pointer sees the entry's name and child.
//  - each Entry carries a separate published child pointer
//    (std::atomic<Inode*> pub) alongside the owning unique_ptr. Unlink
//    release-stores nullptr into `pub` *before* the unique_ptr moves out,
//    so a lock-free reader either sees the live inode or nullptr — never a
//    torn unique_ptr.
//  - Unlink splices the entry out but leaves its `next` pointer intact, so a
//    reader standing on the removed entry still reaches the rest of the
//    chain (the Linux dcache RCU-unlink rule).
//  - Growth never edits a published chain. It builds a new array from fresh
//    entry shells, moves each child into its new shell, release-publishes
//    the new array, and only then retires the old array and its shells,
//    untouched. A reader still walking the old array finds the names it
//    would have found before the resize. The caller's version check rejects
//    whatever it read, since every Link runs inside a version bump.
//
// Removed shells and replaced arrays go to the owner's Reclaimer
// (src/core/reclaimer.h), which frees them once no pinned reader can still
// be on them. (The owner retires removed child inodes the same way — see
// AtomFs::DisposeInode.) So that a hot directory lock covers only the link
// change, a caller may also build an entry's shell before it locks
// (NewShell, then Link) and retire an unlinked one after it unlocks
// (Unlink, then Shell::Retire); Insert and Remove do both under the lock.
//
// Entries own their child inodes: the directory tree is the ownership tree,
// and rename moves ownership between tables.

#ifndef ATOMFS_SRC_CORE_DIR_TABLE_H_
#define ATOMFS_SRC_CORE_DIR_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace atomfs {

struct Inode;
class Reclaimer;

class DirTable {
 private:
  struct Entry;

 public:
  // An entry shell outside every table. It owns its child until Link takes
  // both or TakeChild takes the child; dropping it frees what it still
  // owns, so only a shell no lock-free reader has seen may be dropped.
  class Shell {
   public:
    Shell() = default;
    Shell(Shell&&) noexcept;
    Shell& operator=(Shell&&) noexcept;
    ~Shell();

    explicit operator bool() const { return entry_ != nullptr; }
    std::unique_ptr<Inode> TakeChild();
    // Hands an unlinked shell, its child already taken, to `reclaimer`: a
    // pinned reader may still stand on it. Retiring later than the unlink
    // is safe, it only tags the shell with a later epoch
    // (docs/CONCURRENCY.md §4).
    void Retire(Reclaimer& reclaimer) &&;

   private:
    friend class DirTable;
    explicit Shell(Entry* entry) : entry_(entry) {}
    std::unique_ptr<Entry> entry_;
  };

  // Removed shells and replaced arrays are retired through `reclaimer`, so
  // a pinned lock-free reader (FindOptimistic) never chases a freed
  // pointer.
  explicit DirTable(Reclaimer& reclaimer) : reclaimer_(&reclaimer) {}
  ~DirTable();

  DirTable(const DirTable&) = delete;
  DirTable& operator=(const DirTable&) = delete;

  // The bucket of `name` is Hash(name) & (bucket_count() - 1).
  static uint64_t Hash(std::string_view name);

  // Returns the child inode or nullptr. The returned pointer stays valid
  // while the owning directory's lock is held (or while the lock-coupling
  // protocol otherwise pins the entry). If `probes` is non-null it receives
  // the number of chain links inspected (for chain-length-aware cost
  // accounting).
  Inode* Find(std::string_view name, size_t* probes = nullptr) const;

  // Lock-free lookup for the optimistic walk: acquire-loads the bucket
  // array, the chain and the published child pointer. The caller must be
  // pinned (EpochPin) for as long as it uses the result. May return a child
  // that is concurrently being removed — the caller MUST validate version
  // counters before trusting anything it read (docs/CONCURRENCY.md §5).
  // Returns nullptr on a miss or when racing a removal.
  Inode* FindOptimistic(std::string_view name) const;

  // Inserts; returns false (and drops `child`) if `name` exists.
  bool Insert(std::string_view name, std::unique_ptr<Inode> child);

  // Removes and returns the child, or nullptr if absent.
  std::unique_ptr<Inode> Remove(std::string_view name);

  // A detached shell for `name` owning `child`. Needs no lock.
  static Shell NewShell(std::string_view name, std::unique_ptr<Inode> child);
  // Links `shell` (from NewShell) into the table and empties it; returns
  // false, leaving it untouched, if its name exists.
  bool Link(Shell& shell);
  // Unlinks `name` like Remove but hands back its shell, child inside, for
  // the caller to retire once it has unlocked; an empty shell if absent.
  Shell Unlink(std::string_view name);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Heads in the current bucket array; 0 before the first Insert.
  size_t bucket_count() const;

  // Calls fn(name, child) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (const Buckets* b = LockedBuckets(); b != nullptr) {
      ForEachEntry(*b, [&fn](const Entry* e) {
        const Inode* child = e->child.get();
        fn(e->name, child);
      });
    }
  }

  // Releases ownership of every entry and frees the bucket array (used when
  // tearing down a whole tree iteratively to avoid deep recursive destructor
  // chains; never concurrent with FindOptimistic).
  std::vector<std::unique_ptr<Inode>> TakeAll();

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<Inode> child;      // ownership; moved out once unlinked
    std::atomic<Inode*> pub{nullptr};  // what lock-free readers may see
    std::atomic<Entry*> next{nullptr};
  };

  // A power-of-two array of chain heads. Its size is fixed once published.
  // It owns the shells linked from its heads and frees them with itself.
  struct Buckets {
    explicit Buckets(size_t count);
    ~Buckets();
    std::atomic<Entry*>& HeadOf(std::string_view name) { return heads[Hash(name) & mask]; }

    const size_t mask;
    const std::unique_ptr<std::atomic<Entry*>[]> heads;
  };

  Buckets* LockedBuckets() const { return buckets_.load(std::memory_order_relaxed); }
  // Calls fn(e) for every entry linked from `b`, reading e->next first so
  // fn may free e. Under the owning lock, or on an array no reader can reach.
  template <typename Fn>
  static void ForEachEntry(const Buckets& b, Fn fn) {
    for (size_t i = 0; i <= b.mask; ++i) {
      Entry* e = b.heads[i].load(std::memory_order_relaxed);
      while (e != nullptr) {
        Entry* next = e->next.load(std::memory_order_relaxed);
        fn(e);
        e = next;
      }
    }
  }
  Buckets* Grow(Buckets* old);

  std::atomic<Buckets*> buckets_{nullptr};
  Reclaimer* const reclaimer_;
  size_t size_ = 0;
};

}  // namespace atomfs

#endif  // ATOMFS_SRC_CORE_DIR_TABLE_H_
