#include "src/sim/stress.h"

#include <chrono>
#include <thread>

namespace atomfs {

void RaceBarrier::Arrive() {
  const uint32_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Last arrival: reset the count for the next round *before* releasing
    // the cohort — a released thread may re-enter Arrive immediately.
    arrived_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    return;
  }
  // Spin with yields: on an undersubscribed host the yield lets the missing
  // parties run; the generation counter makes the barrier reusable and
  // immune to a fast thread lapping a slow one.
  int spins = 0;
  while (generation_.load(std::memory_order_acquire) == gen) {
    if (++spins % 64 == 0) {
      std::this_thread::yield();
    }
  }
}

void ScheduleShaker::Perturb() {
  switch (rng_.Below(16)) {
    case 0:
    case 1:
    case 2: {
      // Short spin: shifts phase without a scheduling point.
      volatile uint64_t sink = 0;
      const uint64_t n = rng_.Between(16, 512);
      for (uint64_t i = 0; i < n; ++i) {
        sink = sink + i;  // C++20 deprecates compound assignment to a volatile
      }
      break;
    }
    case 3:
    case 4:
    case 5:
      // Yield: on a single core this is the preemption that lets another
      // thread land inside the current thread's critical window.
      std::this_thread::yield();
      break;
    case 6:
      // Rare sleep: long enough for timer-driven paths (idle sweeps, reap
      // timers) to fire mid-operation.
      std::this_thread::sleep_for(std::chrono::microseconds(rng_.Between(50, 300)));
      break;
    default:
      break;  // run hot: bursts of unperturbed operations keep throughput up
  }
}

}  // namespace atomfs
