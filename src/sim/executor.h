// Execution abstraction: real threads/mutexes vs. a deterministic
// virtual-time multicore simulator.
//
// The paper evaluates AtomFS scalability on a 16-core Xeon. This repository
// runs on arbitrary hosts (including single-core CI machines), so the file
// systems acquire their locks and account their CPU work through an Executor
// rather than using std::mutex directly:
//
//   * RealExecutor  - std::mutex, wall-clock time. Used for functional tests
//     and single-threaded benchmarks.
//   * SimExecutor   - cooperative scheduler with virtual time and a
//     configurable core count. The *same* file-system code runs under it,
//     so lock-contention structure (who waits for whom, and for how long) is
//     measured exactly; host parallelism becomes irrelevant. Deterministic.
//
// The simulator's machine model: a thread alternates between CPU segments
// (Work(cost)) and synchronization points (Lock/Unlock). CPU segments are
// greedily assigned to the earliest-available core, so with T runnable
// threads and C cores the aggregate rate is min(T, C) - exactly the quantity
// a speedup curve measures. Lock waits pass virtual time through to the
// waiter. Only one host thread executes at any instant, so SimExecutor runs
// correctly (and deterministically) on a single-core host.

#ifndef ATOMFS_SRC_SIM_EXECUTOR_H_
#define ATOMFS_SRC_SIM_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/rand.h"

namespace atomfs {

// A mutual-exclusion lock created by an Executor.
class Lockable {
 public:
  virtual ~Lockable() = default;
  virtual void Lock() = 0;
  virtual void Unlock() = 0;
};

// RAII guard over Lockable.
class LockGuard {
 public:
  explicit LockGuard(Lockable& lock) : lock_(&lock) { lock_->Lock(); }
  ~LockGuard() { Release(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

  void Release() {
    if (lock_ != nullptr) {
      lock_->Unlock();
      lock_ = nullptr;
    }
  }

 private:
  Lockable* lock_;
};

class Executor {
 public:
  virtual ~Executor() = default;

  virtual std::unique_ptr<Lockable> CreateLock() = 0;

  // Models `cost_ns` nanoseconds of CPU work by the calling thread. Under
  // RealExecutor this is a no-op (real work takes real time); under
  // SimExecutor it advances virtual time subject to core availability.
  virtual void Work(uint64_t cost_ns) = 0;

  // A point where the calling thread may lose the CPU although it takes no
  // lock. A no-op for real threads; under SimExecutor a scheduling point
  // even when Work does not yield, so schedule exploration branches here.
  virtual void Preempt() {}

  // Current time in nanoseconds (virtual under simulation).
  virtual uint64_t NowNanos() = 0;

  // Process-wide real executor.
  static Executor& Real();
};

// Deterministic virtual-time simulator. Usage:
//
//   SimExecutor sim(/*cores=*/16);
//   AtomFs fs(AtomFs::Options{.executor = &sim});
//   for (int t = 0; t < kThreads; ++t) sim.Spawn([&] { ...fs ops... });
//   sim.Run();
//   double seconds = sim.GlobalVirtualNanos() * 1e-9;
//
// Spawn/Run may be repeated (e.g. a setup phase followed by a measured
// phase). Work/Lock/Unlock must only be called from spawned threads.
// How the simulator chooses among runnable threads.
//
//   kMinVtime  - earliest-virtual-time first: the causality-preserving
//                default used for performance measurements.
//   kRandom    - uniform seeded choice at every scheduling point: a schedule
//                fuzzer (far more adversarial interleavings than OS timing).
//   kScripted  - follows an explicit decision sequence and records every
//                decision taken; the basis of exhaustive schedule
//                exploration (src/crlh/explore.h).
enum class SchedulePolicy : uint8_t {
  kMinVtime,
  kRandom,
  kScripted,
};

struct ScheduleOptions {
  SchedulePolicy policy = SchedulePolicy::kMinVtime;
  uint64_t seed = 1;                  // kRandom
  std::vector<uint32_t> script;       // kScripted: decision indices to replay
  // If false, Work() charges virtual time without yielding to the
  // scheduler, so only lock operations are scheduling points. Exploration
  // uses this to keep the decision tree tractable.
  bool yield_on_work = true;
};

class SimExecutor : public Executor {
 public:
  explicit SimExecutor(uint32_t cores);
  SimExecutor(uint32_t cores, ScheduleOptions schedule);
  ~SimExecutor() override;

  SimExecutor(const SimExecutor&) = delete;
  SimExecutor& operator=(const SimExecutor&) = delete;

  std::unique_ptr<Lockable> CreateLock() override;
  void Work(uint64_t cost_ns) override;
  void Preempt() override;
  uint64_t NowNanos() override;

  void Spawn(std::function<void()> fn);
  void Run();

  // Virtual makespan: the largest virtual time reached by any thread.
  uint64_t GlobalVirtualNanos() const { return max_vtime_; }

  // Total CPU work charged (sum of Work costs); useful for utilization.
  uint64_t TotalWorkNanos() const { return total_work_; }

  uint32_t cores() const { return static_cast<uint32_t>(core_avail_.size()); }

  // Scripted/random runs: the decision index taken at each scheduling point
  // that had more than one runnable thread, and the number of runnable
  // threads ("fanout") at that point. A script shorter than the trace is
  // padded with decision 0; exploration uses the fanouts to enumerate the
  // untaken branches.
  const std::vector<uint32_t>& ScheduleTrace() const { return trace_; }
  const std::vector<uint32_t>& ScheduleFanouts() const { return fanouts_; }

 private:
  friend class SimMutex;

  enum class ThreadState : uint8_t { kReady, kRunning, kBlocked, kDone };

  struct SimThread {
    std::thread host;
    std::condition_variable cv;
    ThreadState state = ThreadState::kReady;
    bool resume = false;  // handshake flag: scheduler granted the CPU
    uint64_t vtime = 0;
    std::function<void()> fn;
  };

  // All private methods require mu_ held.
  void ChargeLocked(SimThread* t, uint64_t cost);
  void YieldToSchedulerLocked(std::unique_lock<std::mutex>& lk, SimThread* self);
  void BlockLocked(std::unique_lock<std::mutex>& lk, SimThread* self);
  SimThread* PickNextLocked();
  SimThread* CurrentThread();

  ScheduleOptions schedule_;
  Rng schedule_rng_{1};
  std::vector<uint32_t> trace_;
  std::vector<uint32_t> fanouts_;
  size_t script_pos_ = 0;

  std::mutex mu_;
  std::condition_variable scheduler_cv_;
  bool scheduler_waiting_ = false;
  std::vector<std::unique_ptr<SimThread>> threads_;
  std::vector<uint64_t> core_avail_;
  uint64_t max_vtime_ = 0;
  uint64_t total_work_ = 0;
  uint64_t live_threads_ = 0;
};

// Runs a single function to completion on the simulator (setup phases).
void RunInSim(SimExecutor& sim, std::function<void()> fn);

}  // namespace atomfs

#endif  // ATOMFS_SRC_SIM_EXECUTOR_H_
