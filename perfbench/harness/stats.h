// Exact sample statistics and outcome accounting for the benchmark.
//
// Latencies are kept as raw nanosecond samples in buffers reserved before
// the timed window, and quantiles are computed exactly over them (nearest
// rank), never from bucketed histograms: two operations whose medians differ
// by 5% report medians that differ by 5%.

#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace perfbench {

// Nearest-rank quantile: the smallest sample v such that at least
// ceil(q * n) samples are <= v, for q in [0, 1] (q = 0 gives the minimum).
// Reorders `samples` (partial selection). An empty input gives T{}.
template <typename T>
T ExactQuantile(std::vector<T>& samples, double q) {
  if (samples.empty()) {
    return T{};
  }
  const double n = static_cast<double>(samples.size());
  const size_t rank =
      std::clamp<size_t>(static_cast<size_t>(std::ceil(q * n)), 1, samples.size());
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

// Median of a small set (set-up repetitions, recovery timings); the mean of
// the two middle values for an even count, 0 for none.
double Median(std::vector<double> values);

struct Quantiles {
  uint64_t count = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

Quantiles Summarize(std::vector<uint64_t> samples_ns);

// One thread's samples in completion order, with the sample count reached at
// each slice boundary of the timed window.
struct SlicedSeries {
  const std::vector<uint64_t>* samples = nullptr;
  const std::vector<size_t>* marks = nullptr;
};

struct SliceSummary {
  uint64_t count = 0;  // samples inside the window
  double rate = 0;     // median over slices of samples completed per second
  uint64_t p50_ns = 0;  // median over slices of the slice's exact p50
  uint64_t p99_ns = 0;  // median over slices of the slice's exact p99
  std::vector<double> rates;  // per slice, in window order
};

// A slice's p99 is used only when slices average at least this many
// samples, so that ten or more lie beyond it.
inline constexpr uint64_t kMinSliceSamplesForP99 = 1000;

// Cuts the window into `slices` slices of `slice_s` seconds, computes each
// slice's completion rate and exact quantiles over all series, and reports
// the median of each across slices, so a disturbance confined to a minority
// of slices does not move the result. With fewer than
// kMinSliceSamplesForP99 samples per slice on average, p99 is taken over the
// whole window instead. Samples past the last boundary (calls still in
// flight at the deadline) are left out.
SliceSummary SummarizeSlices(const std::vector<SlicedSeries>& series, int slices, double slice_s);

// How one call ended, as the benchmark accounts it:
//   kOk         success
//   kMiss       ENOENT / EEXIST: the workload raced itself on a name (deleting
//               a file another client already deleted). Part of the
//               workload's shape, never a failure.
//   kConflict   ETXCONFLICT: an optimistic commit lost its race; the
//               transaction contract is whole-transaction retry.
//   kTransport  EIO / EPROTO / ETIMEDOUT / EBACKPRESSURE: the serving path
//               failed the call.
//   kUnexpected any other status.
// Only kTransport and kUnexpected count as failed.
enum class Outcome : uint8_t { kOk, kMiss, kConflict, kTransport, kUnexpected };
inline constexpr size_t kOutcomeCount = 5;

Outcome Classify(atomfs::Errc code);
std::string_view OutcomeName(Outcome o);

struct OutcomeCounts {
  std::array<uint64_t, kOutcomeCount> n{};

  void Add(Outcome o) { ++n[static_cast<size_t>(o)]; }
  uint64_t Of(Outcome o) const { return n[static_cast<size_t>(o)]; }
  uint64_t Attempted() const;
  uint64_t Failed() const { return Of(Outcome::kTransport) + Of(Outcome::kUnexpected); }
  OutcomeCounts& operator+=(const OutcomeCounts& other);
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
