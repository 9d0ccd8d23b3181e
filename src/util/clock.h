// The process's one monotonic clock in nanoseconds, for durations and
// budgets (the tracer keeps its own cheaper TSC clock for timestamps taken
// inside critical sections).

#ifndef ATOMFS_SRC_UTIL_CLOCK_H_
#define ATOMFS_SRC_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace atomfs {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace atomfs

#endif  // ATOMFS_SRC_UTIL_CLOCK_H_
