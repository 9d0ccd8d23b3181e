// The benchmark's four workloads and the run that measures one of them.
//
// A run builds the stack from the seed, checks the workload op by op against
// the SpecFs oracle, measures a closed-loop timed window, and checks the
// outputs afterwards. An untraced run reports the end-to-end metrics; a
// traced run measures an untraced half and a traced half and reports the
// per-layer ledger (see README.md for every metric).

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/harness/stats.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;     // socket and journal files; removed by the caller
  std::string trace_path;  // Chrome trace written by a traced run
};

struct Report {
  bool correct = true;
  std::vector<std::string> problems;
  OutcomeCounts outcomes;
  std::vector<std::pair<std::string, double>> metrics;
  // Extra facts about the run; each value is already a JSON literal.
  std::vector<std::pair<std::string, std::string>> meta;

  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void Metric(std::string name, double value) { metrics.emplace_back(std::move(name), value); }
  void Meta(std::string key, std::string json) { meta.emplace_back(std::move(key), std::move(json)); }
  void MetaNumber(std::string key, double value);
  void MetaString(std::string key, std::string_view value);
};

const std::vector<std::string>& WorkloadNames();
Report RunWorkload(const Config& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
