#include "perfbench/harness/stats.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

Quantiles Summarize(std::vector<uint64_t> samples_ns) {
  Quantiles q;
  q.count = samples_ns.size();
  q.p50_ns = ExactQuantile(samples_ns, 0.50);
  q.p99_ns = ExactQuantile(samples_ns, 0.99);
  return q;
}

SliceSummary SummarizeSlices(const std::vector<SlicedSeries>& series, int slices, double slice_s) {
  SliceSummary out;
  std::vector<double> rates, p50s, p99s;
  std::vector<uint64_t> v;
  for (int i = 0; i < slices; ++i) {
    v.clear();
    for (const SlicedSeries& s : series) {
      const std::vector<size_t>& marks = *s.marks;
      const size_t n = s.samples->size();
      const size_t idx = static_cast<size_t>(i);
      const size_t begin = idx == 0 ? 0 : (idx - 1 < marks.size() ? marks[idx - 1] : n);
      const size_t end = idx < marks.size() ? marks[idx] : n;
      v.insert(v.end(), s.samples->begin() + static_cast<std::ptrdiff_t>(begin),
               s.samples->begin() + static_cast<std::ptrdiff_t>(end));
    }
    out.count += v.size();
    rates.push_back(static_cast<double>(v.size()) / slice_s);
    if (!v.empty()) {
      p50s.push_back(static_cast<double>(ExactQuantile(v, 0.50)));
      p99s.push_back(static_cast<double>(ExactQuantile(v, 0.99)));
    }
  }
  out.rate = Median(rates);
  out.rates = std::move(rates);
  out.p50_ns = static_cast<uint64_t>(Median(p50s));
  out.p99_ns = static_cast<uint64_t>(Median(p99s));
  if (out.count < static_cast<uint64_t>(slices) * kMinSliceSamplesForP99) {
    // Too few samples per slice for a p99 with ten samples beyond it: take
    // the p99 of the whole window instead.
    v.clear();
    for (const SlicedSeries& s : series) {
      const size_t n = s.marks->size() >= static_cast<size_t>(slices)
                           ? (*s.marks)[static_cast<size_t>(slices) - 1]
                           : s.samples->size();
      v.insert(v.end(), s.samples->begin(), s.samples->begin() + static_cast<std::ptrdiff_t>(n));
    }
    out.p99_ns = ExactQuantile(v, 0.99);
  }
  return out;
}

Outcome Classify(atomfs::Errc code) {
  using atomfs::Errc;
  switch (code) {
    case Errc::kOk:
      return Outcome::kOk;
    case Errc::kNoEnt:
    case Errc::kExist:
      return Outcome::kMiss;
    case Errc::kTxConflict:
      return Outcome::kConflict;
    case Errc::kIo:
    case Errc::kProto:
    case Errc::kTimedOut:
    case Errc::kBackpressure:
      return Outcome::kTransport;
    default:
      return Outcome::kUnexpected;
  }
}

std::string_view OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kMiss:
      return "miss";
    case Outcome::kConflict:
      return "conflict";
    case Outcome::kTransport:
      return "transport";
    case Outcome::kUnexpected:
      return "unexpected";
  }
  return "?";
}

uint64_t OutcomeCounts::Attempted() const {
  uint64_t total = 0;
  for (uint64_t v : n) {
    total += v;
  }
  return total;
}

OutcomeCounts& OutcomeCounts::operator+=(const OutcomeCounts& other) {
  for (size_t i = 0; i < kOutcomeCount; ++i) {
    n[i] += other.n[i];
  }
  return *this;
}

}  // namespace perfbench
