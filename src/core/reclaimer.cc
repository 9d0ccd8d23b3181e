#include "src/core/reclaimer.h"

#include <algorithm>

namespace atomfs {
namespace {

// One per thread that has ever pinned, recycled after the thread exits.
// Slots are never freed: the list only grows to the peak number of threads
// pinning at once.
struct alignas(64) Slot {
  std::atomic<uint64_t> epoch{0};  // 0: not pinned
  std::atomic<bool> claimed{true};
  Slot* next = nullptr;  // immutable once the slot is published
};

// Starts at 1 so that 0 can mean "not pinned".
std::atomic<uint64_t> g_epoch{1};
std::atomic<Slot*> g_slots{nullptr};

Slot* ClaimSlot() {
  for (Slot* s = g_slots.load(std::memory_order_acquire); s != nullptr; s = s->next) {
    bool expected = false;
    if (!s->claimed.load(std::memory_order_relaxed) &&
        s->claimed.compare_exchange_strong(expected, true, std::memory_order_acquire)) {
      return s;
    }
  }
  auto* fresh = new Slot;
  Slot* head = g_slots.load(std::memory_order_relaxed);
  do {
    fresh->next = head;
  } while (!g_slots.compare_exchange_weak(head, fresh, std::memory_order_release,
                                          std::memory_order_relaxed));
  return fresh;
}

// The calling thread's slot, claimed on its first pin and handed back when
// the thread exits.
struct ThreadSlot {
  Slot* slot = nullptr;
  uint32_t depth = 0;

  ~ThreadSlot() {
    if (slot != nullptr) {
      slot->epoch.store(0, std::memory_order_release);
      slot->claimed.store(false, std::memory_order_release);
    }
  }
};

thread_local ThreadSlot t_slot;

}  // namespace

EpochPin::EpochPin(bool engage) : engaged_(engage) {
  if (!engaged_ || t_slot.depth++ != 0) {
    return;
  }
  if (t_slot.slot == nullptr) {
    t_slot.slot = ClaimSlot();
  }
  // The fence orders the slot store before every pointer this thread reads
  // while pinned: an advancer that misses the store runs its scan before
  // the fence in the seq_cst order, so this thread sees every unlink that
  // object's retirement tag accounts for (docs/CONCURRENCY.md §4).
  t_slot.slot->epoch.store(g_epoch.load(std::memory_order_seq_cst), std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

EpochPin::~EpochPin() {
  if (engaged_ && --t_slot.depth == 0) {
    // Release: every read made while pinned happens before an advancer's
    // acquire load that sees the slot empty, hence before any free.
    t_slot.slot->epoch.store(0, std::memory_order_release);
  }
}

uint64_t Reclaimer::Epoch() { return g_epoch.load(std::memory_order_acquire); }

bool Reclaimer::TryAdvance() {
  uint64_t e = g_epoch.load(std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (const Slot* s = g_slots.load(std::memory_order_acquire); s != nullptr; s = s->next) {
    const uint64_t pinned = s->epoch.load(std::memory_order_acquire);
    if (pinned != 0 && pinned != e) {
      return false;  // a reader pinned in an older epoch is still inside
    }
  }
  // A failed CAS means another thread advanced past e: as good.
  g_epoch.compare_exchange_strong(e, e + 1, std::memory_order_seq_cst);
  return true;
}

size_t Reclaimer::SlotsInUse() {
  size_t n = 0;
  for (const Slot* s = g_slots.load(std::memory_order_acquire); s != nullptr; s = s->next) {
    n += s->claimed.load(std::memory_order_relaxed) ? 1 : 0;
  }
  return n;
}

size_t Reclaimer::SlotCount() {
  size_t n = 0;
  for (const Slot* s = g_slots.load(std::memory_order_acquire); s != nullptr; s = s->next) {
    ++n;
  }
  return n;
}

Reclaimer::~Reclaimer() {
  for (const Retired& r : limbo_) {
    r.destroy(r.obj);
  }
}

void Reclaimer::Retire(void* obj, void (*destroy)(void*)) {
  // The fence orders the unlink that made `obj` unreachable before the
  // epoch load that tags it.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const uint64_t tag = g_epoch.load(std::memory_order_seq_cst);
  std::lock_guard<std::mutex> lk(mu_);
  limbo_.push_back(Retired{obj, destroy, tag});
  pending_.store(limbo_.size(), std::memory_order_relaxed);
  if (++since_scan_ >= kScanEvery) {
    since_scan_ = 0;
    scan_due_.store(true, std::memory_order_relaxed);
  }
}

size_t Reclaimer::Scan() {
  std::vector<Retired> due;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (int i = 0; i < 2 && TryAdvance(); ++i) {
    }
    const uint64_t e = g_epoch.load(std::memory_order_acquire);
    auto keep = std::partition(limbo_.begin(), limbo_.end(),
                               [e](const Retired& r) { return r.epoch + 2 > e; });
    due.assign(keep, limbo_.end());
    limbo_.erase(keep, limbo_.end());
    pending_.store(limbo_.size(), std::memory_order_relaxed);
  }
  for (const Retired& r : due) {
    r.destroy(r.obj);
  }
  return due.size();
}

}  // namespace atomfs
