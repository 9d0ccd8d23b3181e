#include "src/sim/executor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/util/check.h"
#include "src/util/clock.h"

namespace atomfs {
namespace {

// Virtual cost of a lock acquire / release, nanoseconds. Small relative to
// the Work() costs the file systems charge, but non-zero so that pure lock
// traffic still consumes simulated CPU.
constexpr uint64_t kLockCostNanos = 25;
constexpr uint64_t kUnlockCostNanos = 15;

// Identifies the SimExecutor thread hosting the calling host thread.
thread_local void* g_current_sim_thread = nullptr;

class RealMutex : public Lockable {
 public:
  void Lock() override { mu_.lock(); }
  void Unlock() override { mu_.unlock(); }

 private:
  std::mutex mu_;
};

class RealExecutor : public Executor {
 public:
  std::unique_ptr<Lockable> CreateLock() override { return std::make_unique<RealMutex>(); }

  void Work(uint64_t cost_ns) override {
    // Real work takes real time; modeled cost is not replayed.
    (void)cost_ns;
  }

  uint64_t NowNanos() override { return NowNs(); }
};

}  // namespace

Executor& Executor::Real() {
  static RealExecutor* executor = new RealExecutor();
  return *executor;
}

// --- SimExecutor -----------------------------------------------------------

// A simulated mutex. Ownership hand-off happens inside the scheduler lock:
// the releasing thread transfers the lock directly to the first waiter and
// carries virtual time across (the waiter cannot resume earlier than the
// release).
class SimMutex : public Lockable {
 public:
  explicit SimMutex(SimExecutor* ex) : ex_(ex) {}

  void Lock() override {
    std::unique_lock<std::mutex> lk(ex_->mu_);
    auto* self = ex_->CurrentThread();
    ATOMFS_CHECK(self != nullptr && "SimExecutor locks must be used from spawned sim threads");
    ex_->ChargeLocked(self, kLockCostNanos);
    if (held_) {
      waiters_.push_back(self);
      ex_->BlockLocked(lk, self);
      // Ownership was transferred to us by the unlocker; vtime updated there.
    } else {
      held_ = true;
      self->vtime = std::max(self->vtime, free_at_);
      ex_->YieldToSchedulerLocked(lk, self);
    }
  }

  void Unlock() override {
    std::unique_lock<std::mutex> lk(ex_->mu_);
    auto* self = ex_->CurrentThread();
    ATOMFS_CHECK(self != nullptr);
    ATOMFS_CHECK(held_);
    ex_->ChargeLocked(self, kUnlockCostNanos);
    if (!waiters_.empty()) {
      SimExecutor::SimThread* next = waiters_.front();
      waiters_.pop_front();
      next->vtime = std::max(next->vtime, self->vtime);
      next->state = SimExecutor::ThreadState::kReady;
    } else {
      held_ = false;
      free_at_ = self->vtime;
    }
    ex_->YieldToSchedulerLocked(lk, self);
  }

 private:
  SimExecutor* ex_;
  bool held_ = false;
  uint64_t free_at_ = 0;
  std::deque<SimExecutor::SimThread*> waiters_;
};

SimExecutor::SimExecutor(uint32_t cores) : SimExecutor(cores, ScheduleOptions{}) {}

SimExecutor::SimExecutor(uint32_t cores, ScheduleOptions schedule)
    : schedule_(std::move(schedule)), schedule_rng_(schedule_.seed) {
  ATOMFS_CHECK(cores > 0);
  core_avail_.assign(cores, 0);
}

SimExecutor::~SimExecutor() {
  for (auto& t : threads_) {
    if (t->host.joinable()) {
      t->host.join();
    }
  }
}

std::unique_ptr<Lockable> SimExecutor::CreateLock() { return std::make_unique<SimMutex>(this); }

SimExecutor::SimThread* SimExecutor::CurrentThread() {
  return static_cast<SimThread*>(g_current_sim_thread);
}

void SimExecutor::ChargeLocked(SimThread* t, uint64_t cost) {
  auto it = std::min_element(core_avail_.begin(), core_avail_.end());
  const uint64_t start = std::max(*it, t->vtime);
  t->vtime = start + cost;
  *it = t->vtime;
  max_vtime_ = std::max(max_vtime_, t->vtime);
  total_work_ += cost;
}

void SimExecutor::YieldToSchedulerLocked(std::unique_lock<std::mutex>& lk, SimThread* self) {
  self->state = ThreadState::kReady;
  scheduler_waiting_ = false;
  scheduler_cv_.notify_one();
  while (!self->resume) {
    self->cv.wait(lk);
  }
  self->resume = false;
  self->state = ThreadState::kRunning;
}

void SimExecutor::BlockLocked(std::unique_lock<std::mutex>& lk, SimThread* self) {
  self->state = ThreadState::kBlocked;
  scheduler_waiting_ = false;
  scheduler_cv_.notify_one();
  while (!self->resume) {
    self->cv.wait(lk);
  }
  self->resume = false;
  self->state = ThreadState::kRunning;
}

SimExecutor::SimThread* SimExecutor::PickNextLocked() {
  std::vector<SimThread*> ready;
  for (auto& t : threads_) {
    if (t->state == ThreadState::kReady) {
      ready.push_back(t.get());
    }
  }
  if (ready.empty()) {
    return nullptr;
  }
  if (ready.size() == 1) {
    return ready.front();
  }
  switch (schedule_.policy) {
    case SchedulePolicy::kMinVtime: {
      SimThread* best = ready.front();
      for (SimThread* t : ready) {
        if (t->vtime < best->vtime) {
          best = t;
        }
      }
      return best;
    }
    case SchedulePolicy::kRandom: {
      const uint32_t choice = static_cast<uint32_t>(schedule_rng_.Below(ready.size()));
      trace_.push_back(choice);
      fanouts_.push_back(static_cast<uint32_t>(ready.size()));
      return ready[choice];
    }
    case SchedulePolicy::kScripted: {
      uint32_t choice = 0;
      if (script_pos_ < schedule_.script.size()) {
        choice = schedule_.script[script_pos_];
        if (choice >= ready.size()) {
          choice = static_cast<uint32_t>(ready.size()) - 1;
        }
      }
      ++script_pos_;
      trace_.push_back(choice);
      fanouts_.push_back(static_cast<uint32_t>(ready.size()));
      return ready[choice];
    }
  }
  return ready.front();
}

void SimExecutor::Spawn(std::function<void()> fn) {
  std::unique_lock<std::mutex> lk(mu_);
  auto t = std::make_unique<SimThread>();
  t->fn = std::move(fn);
  // New threads join the simulation at the current makespan so a second
  // Spawn/Run round (e.g. a measured phase after setup) starts "now".
  t->vtime = max_vtime_;
  SimThread* raw = t.get();
  ++live_threads_;
  threads_.push_back(std::move(t));
  raw->host = std::thread([this, raw] {
    g_current_sim_thread = raw;
    {
      std::unique_lock<std::mutex> inner(mu_);
      while (!raw->resume) {
        raw->cv.wait(inner);
      }
      raw->resume = false;
      raw->state = ThreadState::kRunning;
    }
    raw->fn();
    {
      std::unique_lock<std::mutex> inner(mu_);
      raw->state = ThreadState::kDone;
      --live_threads_;
      scheduler_waiting_ = false;
      scheduler_cv_.notify_one();
    }
  });
}

void SimExecutor::Run() {
  std::unique_lock<std::mutex> lk(mu_);
  while (live_threads_ > 0) {
    SimThread* next = PickNextLocked();
    if (next == nullptr) {
      std::fprintf(stderr, "SimExecutor: deadlock, %llu live threads all blocked\n",
                   static_cast<unsigned long long>(live_threads_));
      std::abort();
    }
    next->resume = true;
    next->cv.notify_one();
    scheduler_waiting_ = true;
    while (scheduler_waiting_) {
      scheduler_cv_.wait(lk);
    }
  }
}

void SimExecutor::Work(uint64_t cost_ns) {
  std::unique_lock<std::mutex> lk(mu_);
  SimThread* self = CurrentThread();
  ATOMFS_CHECK(self != nullptr && "SimExecutor::Work must be called from a spawned sim thread");
  ChargeLocked(self, cost_ns);
  if (schedule_.yield_on_work) {
    YieldToSchedulerLocked(lk, self);
  }
}

void SimExecutor::Preempt() {
  std::unique_lock<std::mutex> lk(mu_);
  SimThread* self = CurrentThread();
  ATOMFS_CHECK(self != nullptr && "SimExecutor::Preempt must be called from a spawned sim thread");
  YieldToSchedulerLocked(lk, self);
}

uint64_t SimExecutor::NowNanos() {
  std::unique_lock<std::mutex> lk(mu_);
  SimThread* self = CurrentThread();
  return self != nullptr ? self->vtime : max_vtime_;
}

void RunInSim(SimExecutor& sim, std::function<void()> fn) {
  sim.Spawn(std::move(fn));
  sim.Run();
}

}  // namespace atomfs
