// bench_server_throughput: pipelined load generator for a running atomfsd.
//
// `--connections M --pipeline N` runs M concurrent connections for a fixed
// wall-time window, each in a closed submit-N / flush / wait-all loop over
// its own files (stat/read/write through ClientSession). The run always
// takes two passes — depth 1 (one request per round trip, protocol v2's
// lower bound) and depth N — so the report carries a pipelined-vs-unpipelined
// throughput pair plus per-connection fairness (min/max completed ops across
// connections). `--check` turns the report into a gate: any non-OK reply or a
// fairness ratio above the limit exits nonzero. tools/pipeline_smoke.sh
// drives it this way against a monitored atomfsd.
//
// End-to-end throughput and latency of the serving stack are measured by
// perfbench (perfbench/run.py: the fileserver-wire and pipeline-wire
// workloads); this binary is the serving-layer smoke, not a measurement.
//
//   bench_server_throughput --connect unix:PATH|tcp:PORT   the daemon to load
//                           [--connections M] concurrent connections (default 4)
//                           [--pipeline N]    requests in flight per connection
//                                             (default 8)
//                           [--seconds S]     wall time per pass (default 2)
//                           [--check]         exit nonzero on non-OK / unfairness
//                           [--fairness-limit X]  max per-conn max/min ratio the
//                                             check allows (default 10; raise under
//                                             sanitizer instrumentation, where
//                                             scheduling skew is not meaningful)
//                           [--json [PATH]]   output file (default BENCH_server.json)
//
// An unknown option exits 2.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "src/util/json.h"
#include "src/util/stats.h"

namespace atomfs {
namespace {

struct PipeConnStats {
  uint64_t ops = 0;     // completed (replied-to) requests
  uint64_t non_ok = 0;  // replies that carried an error status
  bool connect_failed = false;
};

// One connection's closed loop: submit `depth` requests, flush, wait for all
// replies, repeat until the deadline. Each connection works its own file so
// the passes measure the serving layer, not directory contention, and the
// dir name carries the pass depth so back-to-back passes never collide.
PipeConnStats RunPipelineConn(const std::string& endpoint, int depth, int conn_index,
                              std::chrono::steady_clock::time_point deadline) {
  PipeConnStats st;
  auto client = AtomFsClient::Connect(endpoint);
  if (!client.ok()) {
    st.connect_failed = true;
    return st;
  }
  AtomFsClient& c = **client;
  const std::string dir =
      "/pipebench_d" + std::to_string(depth) + "_c" + std::to_string(conn_index);
  const std::string file = dir + "/f";
  if (!c.Mkdir(dir).ok() || !c.Mknod(file).ok() ||
      !WriteString(c, file, "pipelined payload").ok()) {
    ++st.non_ok;
    return st;
  }

  std::vector<std::byte> blob(64);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::byte>(i);
  }
  ClientSession& session = c.session();
  std::vector<ClientSession::Future> futures;
  futures.reserve(static_cast<size_t>(depth));
  uint64_t seq = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    futures.clear();
    for (int k = 0; k < depth; ++k, ++seq) {
      WireRequest req;
      req.path_a = file;
      switch (seq % 3) {
        case 0:
          req.op = WireOp::kStat;
          break;
        case 1:
          req.op = WireOp::kRead;
          req.offset = 0;
          req.count = 16;
          break;
        default:
          req.op = WireOp::kWrite;
          req.offset = 0;
          req.data = blob;
          break;
      }
      futures.push_back(session.Submit(req));
    }
    if (!session.Flush().ok()) {
      st.non_ok += static_cast<uint64_t>(depth);
      break;
    }
    for (ClientSession::Future& f : futures) {
      ++st.ops;
      if (!f.Wait().ok()) {
        ++st.non_ok;
      }
    }
  }
  return st;
}

struct PipelinePass {
  int depth = 0;
  double wall_seconds = 0;
  uint64_t total_ops = 0;
  uint64_t non_ok = 0;
  uint64_t min_conn_ops = 0;
  uint64_t max_conn_ops = 0;
  double ops_per_sec = 0;
  double fairness_ratio = 0;  // max/min; 0 when a connection finished no op
  bool connect_failures = false;
};

PipelinePass RunPipelinePass(const std::string& endpoint, int connections, int depth,
                             double seconds) {
  PipelinePass pass;
  pass.depth = depth;
  std::vector<PipeConnStats> stats(static_cast<size_t>(connections));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000.0));
  WallTimer wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      stats[static_cast<size_t>(c)] = RunPipelineConn(endpoint, depth, c, deadline);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  pass.wall_seconds = wall.ElapsedSeconds();
  for (int c = 0; c < connections; ++c) {
    const PipeConnStats& s = stats[static_cast<size_t>(c)];
    pass.total_ops += s.ops;
    pass.non_ok += s.non_ok;
    pass.connect_failures = pass.connect_failures || s.connect_failed;
    pass.min_conn_ops = c == 0 ? s.ops : std::min(pass.min_conn_ops, s.ops);
    pass.max_conn_ops = std::max(pass.max_conn_ops, s.ops);
  }
  pass.ops_per_sec = static_cast<double>(pass.total_ops) / pass.wall_seconds;
  if (pass.min_conn_ops > 0) {
    pass.fairness_ratio =
        static_cast<double>(pass.max_conn_ops) / static_cast<double>(pass.min_conn_ops);
  }
  return pass;
}

void JsonPipelinePass(JsonWriter& json, const char* key, const PipelinePass& p) {
  json.Key(key).BeginObject();
  json.Field("pipeline", static_cast<uint64_t>(p.depth));
  json.Field("wall_seconds", p.wall_seconds);
  json.Field("total_ops", p.total_ops);
  json.Field("non_ok_replies", p.non_ok);
  json.Field("ops_per_sec", p.ops_per_sec);
  json.Field("min_conn_ops", p.min_conn_ops);
  json.Field("max_conn_ops", p.max_conn_ops);
  json.Field("fairness_ratio", p.fairness_ratio);
  json.EndObject();
}

int RunPipelineMode(int connections, int pipeline, double seconds, const std::string& endpoint,
                    const std::string& json_path, bool check, double fairness_limit) {
  std::printf("pipeline mode: %d connection(s), depth %d, %.1fs per pass, endpoint %s\n",
              connections, pipeline, seconds, endpoint.c_str());
  const PipelinePass unpipelined = RunPipelinePass(endpoint, connections, 1, seconds);
  const PipelinePass pipelined = pipeline > 1
                                     ? RunPipelinePass(endpoint, connections, pipeline, seconds)
                                     : unpipelined;
  const double speedup =
      unpipelined.ops_per_sec > 0 ? pipelined.ops_per_sec / unpipelined.ops_per_sec : 0;

  auto print_pass = [](const char* label, const PipelinePass& p) {
    std::printf("%-12s depth=%-3d %8llu ops in %.2fs => %9.0f ops/sec  per-conn min=%llu "
                "max=%llu fairness=%.2fx non_ok=%llu\n",
                label, p.depth, static_cast<unsigned long long>(p.total_ops), p.wall_seconds,
                p.ops_per_sec, static_cast<unsigned long long>(p.min_conn_ops),
                static_cast<unsigned long long>(p.max_conn_ops), p.fairness_ratio,
                static_cast<unsigned long long>(p.non_ok));
  };
  print_pass("unpipelined", unpipelined);
  print_pass("pipelined", pipelined);
  std::printf("pipelining speedup: %.2fx\n", speedup);

  JsonWriter json;
  json.BeginObject();
  json.Field("benchmark", "server_pipeline");
  json.Field("endpoint", endpoint);
  json.Field("connections", static_cast<uint64_t>(connections));
  json.Field("pipeline", static_cast<uint64_t>(pipeline));
  json.Field("seconds_per_pass", seconds);
  JsonPipelinePass(json, "unpipelined", unpipelined);
  JsonPipelinePass(json, "pipelined", pipelined);
  json.Field("speedup", speedup);
  json.EndObject();
  if (!json.WriteFile(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  int rc = 0;
  if (check) {
    if (unpipelined.connect_failures || pipelined.connect_failures) {
      std::fprintf(stderr, "CHECK FAILED: connection failures\n");
      rc = 1;
    }
    if (unpipelined.non_ok + pipelined.non_ok > 0) {
      std::fprintf(stderr, "CHECK FAILED: %llu non-OK repl(y/ies)\n",
                   static_cast<unsigned long long>(unpipelined.non_ok + pipelined.non_ok));
      rc = 1;
    }
    if (pipelined.fairness_ratio > fairness_limit || pipelined.fairness_ratio == 0.0) {
      std::fprintf(stderr, "CHECK FAILED: fairness ratio %.2f (min=%llu max=%llu)\n",
                   pipelined.fairness_ratio,
                   static_cast<unsigned long long>(pipelined.min_conn_ops),
                   static_cast<unsigned long long>(pipelined.max_conn_ops));
      rc = 1;
    }
  }
  return rc;
}

}  // namespace
}  // namespace atomfs

int main(int argc, char** argv) {
  using namespace atomfs;

  std::string json_path = "BENCH_server.json";
  int connections = 4;
  int pipeline = 8;
  double seconds = 2.0;
  std::string connect;
  bool check = false;
  double fairness_limit = 10.0;

  for (int i = 1; i < argc; ++i) {
    auto arg = [&](const char* name) { return std::strcmp(argv[i], name) == 0; };
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg("--connections")) {
      connections = std::atoi(next());
    } else if (arg("--pipeline")) {
      pipeline = std::atoi(next());
    } else if (arg("--seconds")) {
      seconds = std::atof(next());
    } else if (arg("--connect")) {
      connect = next();
    } else if (arg("--check")) {
      check = true;
    } else if (arg("--fairness-limit")) {
      fairness_limit = std::atof(next());
    } else if (arg("--json")) {
      // PATH is optional: bare --json (or --json followed by another flag)
      // keeps the default output name.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        json_path = next();
      }
    } else {
      std::fprintf(stderr, "unknown option %s (see header comment for usage)\n", argv[i]);
      return 2;
    }
  }
  if (connect.empty()) {
    std::fprintf(stderr, "--connect unix:PATH|tcp:PORT is required (see header comment)\n");
    return 2;
  }
  return RunPipelineMode(connections, pipeline, seconds, connect, json_path, check,
                         fairness_limit);
}
