// atomfs_perfbench: runs one workload of the AtomFS benchmark and prints its
// result as the last line of standard output.
//
//   atomfs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger
// (and writes a Chrome trace). The line before the result carries the run's
// metadata. Both also go to DIR/results/. Exit status 0 only when every
// output check passed. perfbench/run.py builds and runs this binary.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/harness/workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets of the two modes, in output order; BENCHMARK.json lists
// the same names.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},  {"lat_p50_us", "us"},  {"lat_p99_us", "us"},
    {"units_per_s", "1/s"}, {"unit_p50_us", "us"}, {"unit_p99_us", "us"},
    {"setup_s", "s"},      {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"client.send_us", "us"},
    {"client.wait_us", "us"},
    {"client.calls_per_frame", "count"},
    {"net.codec_ns", "ns"},
    {"net.req_bytes", "B"},
    {"floor.rtt_us", "us"},
    {"server.self_us", "us"},
    {"server.wakeups_per_call", "count"},
    {"server.batch_mean", "count"},
    {"server.backpressure_stalls", "count"},
    {"core.op_p50_us", "us"},
    {"core.op_p99_us", "us"},
    {"core.stat_us", "us"},
    {"core.read_us", "us"},
    {"core.write_us", "us"},
    {"core.create_us", "us"},
    {"core.unlink_us", "us"},
    {"core.locks_per_op", "count"},
    {"core.lock_step_us", "us"},
    {"core.miss_ratio", "ratio"},
    {"txn.begin_us", "us"},
    {"txn.apply_us", "us"},
    {"txn.commit_us", "us"},
    {"txn.direct_self_us", "us"},
    {"txn.conflict_ratio", "ratio"},
    {"journal.bytes_per_commit", "B"},
    {"journal.write_amp", "ratio"},
    {"journal.checkpoints", "count"},
    {"journal.checkpoint_ms", "ms"},
    {"journal.recover_ops", "count"},
    {"journal.recover_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "atomfs_perfbench: %s\n"
               "usage: atomfs_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string out_dir = ".bench_build/perfbench";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const std::string val = argv[++i];
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = val == "1";
    } else if (arg == "--out-dir") {
      out_dir = val;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : WorkloadNames()) {
    known = known || w == cfg.workload;
  }
  if (!have_workload || !known) {
    return Usage("--workload must be one of fileserver-wire, pipeline-wire, webproxy-lib, "
                 "txn-journal");
  }
  if (!(cfg.seconds > 0 && cfg.seconds <= 120)) {
    return Usage("--seconds must be in (0, 120]");
  }
  std::signal(SIGPIPE, SIG_IGN);

  namespace fs = std::filesystem;
  const std::string tag =
      cfg.workload + "-seed" + std::to_string(cfg.seed) + "-trace" + (cfg.trace ? "1" : "0");
  cfg.run_dir = out_dir + "/run-" + std::to_string(getpid());
  cfg.trace_path = out_dir + "/trace/" + tag + ".json";
  std::error_code ec;
  for (const std::string& d : {cfg.run_dir, out_dir + "/trace", out_dir + "/results"}) {
    fs::create_directories(d, ec);
    if (ec) {
      return Usage(("cannot create " + d).c_str());
    }
  }

  Report report = RunWorkload(cfg);
  fs::remove_all(cfg.run_dir, ec);
  if (report.correct && report.outcomes.Attempted() == 0) {
    report.Fail("the timed window completed no call");
  }
  if (!cfg.trace) {
    report.Metric("peak_rss_mb", PeakRssMb());
  }

  // Exactly the mode's metric set, in table order; a missing one is a
  // harness bug and fails the run.
  std::string metrics;
  const auto emit = [&](const MetricDef& def) {
    const std::pair<std::string, double>* found = nullptr;
    for (const auto& m : report.metrics) {
      if (m.first == def.name) {
        found = &m;
      }
    }
    if (found == nullptr) {
      report.Fail(std::string("metric ") + def.name + " was not measured");
      return;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + def.name + "\": {\"value\": " +
               Number(found->second) + ", \"unit\": \"" + def.unit + "\"}";
  };
  if (cfg.trace) {
    for (const MetricDef& d : kPerLayer) {
      emit(d);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      emit(d);
    }
  }

  report.MetaString("workload", cfg.workload);
  report.MetaNumber("seed", static_cast<double>(cfg.seed));
  report.MetaNumber("seconds", cfg.seconds);
  report.MetaNumber("trace", cfg.trace ? 1 : 0);
  report.MetaNumber("host_cores", static_cast<double>(std::thread::hardware_concurrency()));
  report.MetaString("build_type", PERFBENCH_BUILD_TYPE);
  report.MetaNumber("client_connections", 4);
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }
  std::string meta = "{\"meta\": {";
  for (size_t i = 0; i < report.meta.size(); ++i) {
    meta += (i ? ", \"" : "\"") + report.meta[i].first + "\": " + report.meta[i].second;
  }
  meta += "}}";
  const std::string result = std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, report.outcomes.Attempted())) +
                             ", \"failed\": " + std::to_string(report.outcomes.Failed()) +
                             ", \"metrics\": {" + metrics + "}}";
  if (std::FILE* f = std::fopen((out_dir + "/results/" + tag + ".json").c_str(), "w")) {
    std::fprintf(f, "%s\n%s\n", meta.c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n%s\n", meta.c_str(), result.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
