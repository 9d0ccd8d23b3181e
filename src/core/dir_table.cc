#include "src/core/dir_table.h"

#include <utility>

#include "src/core/inode.h"
#include "src/core/reclaimer.h"
#include "src/util/check.h"

namespace atomfs {
namespace {

// Heads in a directory's first bucket array.
constexpr size_t kInitialBuckets = 8;

}  // namespace

// FNV-1a over the name bytes.
uint64_t DirTable::Hash(std::string_view name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

DirTable::Buckets::Buckets(size_t count)
    : mask(count - 1), heads(new std::atomic<Entry*>[count]) {
  for (size_t i = 0; i < count; ++i) {
    heads[i].store(nullptr, std::memory_order_relaxed);
  }
}

DirTable::Buckets::~Buckets() {
  ForEachEntry(*this, [](Entry* e) { delete e; });
}

DirTable::~DirTable() { delete LockedBuckets(); }

size_t DirTable::bucket_count() const {
  const Buckets* b = LockedBuckets();
  return b == nullptr ? 0 : b->mask + 1;
}

DirTable::Buckets* DirTable::Grow(Buckets* old) {
  auto* grown = new Buckets(old == nullptr ? kInitialBuckets : 2 * (old->mask + 1));
  if (old == nullptr) {
    buckets_.store(grown, std::memory_order_release);
    return grown;
  }
  // Copy every entry into a fresh shell in the new array. The old shells
  // keep their names, `pub` and links, so a lock-free reader still walking
  // the old array sees exactly the chains it saw before; nothing here is
  // reachable by it until the release store below.
  ForEachEntry(*old, [grown](Entry* e) {
    auto* moved = new Entry;
    moved->name = e->name;
    moved->pub.store(e->pub.load(std::memory_order_relaxed), std::memory_order_relaxed);
    moved->child = std::move(e->child);
    auto& head = grown->HeadOf(moved->name);
    moved->next.store(head.load(std::memory_order_relaxed), std::memory_order_relaxed);
    head.store(moved, std::memory_order_relaxed);
  });
  // Publish: an acquire reader of buckets_ sees every head and shell above.
  buckets_.store(grown, std::memory_order_release);
  // Retire the old array whole: its shells keep their links, so a reader
  // parked on one still reaches the rest of the chain it was walking, and
  // they are freed with the array.
  reclaimer_->Retire(old);
  return grown;
}

Inode* DirTable::Find(std::string_view name, size_t* probes) const {
  size_t walked = 0;
  Inode* found = nullptr;
  // Under the owning inode's lock there is no concurrent writer, so relaxed
  // loads suffice.
  if (Buckets* b = LockedBuckets(); b != nullptr) {
    for (Entry* e = b->HeadOf(name).load(std::memory_order_relaxed); e != nullptr;
         e = e->next.load(std::memory_order_relaxed)) {
      ++walked;
      if (e->name == name) {
        found = e->child.get();
        break;
      }
    }
  }
  if (probes != nullptr) {
    *probes = walked;
  }
  return found;
}

Inode* DirTable::FindOptimistic(std::string_view name) const {
  // Acquire on the array pointer pairs with Grow's release store, so the
  // array's heads and shells are visible. Acquire on the chain pointers
  // pairs with Insert's release head-store, so the entry's immutable fields
  // (name) are visible. Acquire on `pub` pairs with Remove's release
  // nullptr-store: a reader either gets the live inode or a miss. Either way
  // the caller revalidates versions before believing anything
  // (docs/CONCURRENCY.md §5).
  Buckets* b = buckets_.load(std::memory_order_acquire);
  if (b == nullptr) {
    return nullptr;
  }
  for (const Entry* e = b->HeadOf(name).load(std::memory_order_acquire); e != nullptr;
       e = e->next.load(std::memory_order_acquire)) {
    if (e->name == name) {
      return e->pub.load(std::memory_order_acquire);
    }
  }
  return nullptr;
}

DirTable::Shell::Shell(Shell&&) noexcept = default;
DirTable::Shell& DirTable::Shell::operator=(Shell&&) noexcept = default;
DirTable::Shell::~Shell() = default;

std::unique_ptr<Inode> DirTable::Shell::TakeChild() { return std::move(entry_->child); }

void DirTable::Shell::Retire(Reclaimer& reclaimer) && {
  ATOMFS_CHECK(entry_->child == nullptr);
  reclaimer.Retire(entry_.release());
}

DirTable::Shell DirTable::NewShell(std::string_view name, std::unique_ptr<Inode> child) {
  auto* entry = new Entry;
  entry->name = std::string(name);
  entry->pub.store(child.get(), std::memory_order_relaxed);
  entry->child = std::move(child);
  return Shell(entry);
}

bool DirTable::Insert(std::string_view name, std::unique_ptr<Inode> child) {
  Shell shell = NewShell(name, std::move(child));
  return Link(shell);
}

bool DirTable::Link(Shell& shell) {
  Entry* entry = shell.entry_.get();
  if (Find(entry->name) != nullptr) {
    return false;
  }
  Buckets* b = LockedBuckets();
  if (b == nullptr || size_ > b->mask) {
    b = Grow(b);  // keep the load factor at most 1
  }
  auto& head = b->HeadOf(entry->name);
  entry->next.store(head.load(std::memory_order_relaxed), std::memory_order_relaxed);
  // Publish: the shell's construction and everything above are sequenced
  // before this release store, so an acquire reader that sees the new head
  // sees a fully built entry.
  head.store(shell.entry_.release(), std::memory_order_release);
  ++size_;
  return true;
}

std::unique_ptr<Inode> DirTable::Remove(std::string_view name) {
  Shell shell = Unlink(name);
  if (!shell) {
    return nullptr;
  }
  std::unique_ptr<Inode> child = shell.TakeChild();
  std::move(shell).Retire(*reclaimer_);
  return child;
}

DirTable::Shell DirTable::Unlink(std::string_view name) {
  Buckets* b = LockedBuckets();
  if (b == nullptr) {
    return Shell();
  }
  std::atomic<Entry*>* link = &b->HeadOf(name);
  while (true) {
    Entry* e = link->load(std::memory_order_relaxed);
    if (e == nullptr) {
      return Shell();
    }
    if (e->name == name) {
      // Unpublish: after this store a lock-free reader can no longer
      // observe the child through this entry, so the caller may move the
      // owning unique_ptr out without racing FindOptimistic.
      e->pub.store(nullptr, std::memory_order_release);
      // RCU-unlink: splice e out but keep e->next so in-flight readers on e
      // still reach the chain's tail.
      link->store(e->next.load(std::memory_order_relaxed), std::memory_order_release);
      ATOMFS_CHECK(size_ > 0);
      --size_;
      return Shell(e);
    }
    link = &e->next;
  }
}

std::vector<std::unique_ptr<Inode>> DirTable::TakeAll() {
  std::vector<std::unique_ptr<Inode>> out;
  out.reserve(size_);
  if (Buckets* b = LockedBuckets(); b != nullptr) {
    ForEachEntry(*b, [&out](Entry* e) { out.push_back(std::move(e->child)); });
    buckets_.store(nullptr, std::memory_order_relaxed);
    delete b;
  }
  size_ = 0;
  return out;
}

}  // namespace atomfs
