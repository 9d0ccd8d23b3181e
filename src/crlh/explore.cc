#include "src/crlh/explore.h"

#include <deque>

#include "src/core/atom_fs.h"
#include "src/crlh/lin_check.h"
#include "src/crlh/monitor.h"
#include "src/sim/executor.h"
#include "src/util/check.h"

namespace atomfs {
namespace {

struct RunOutcome {
  bool ok = true;
  std::vector<std::string> messages;
  std::vector<uint32_t> trace;
  std::vector<uint32_t> fanouts;
  uint64_t helped_ops = 0;
};

// Executes the program once under the given schedule options and verifies it
// with a fresh CRL-H monitor.
RunOutcome RunOnce(const ConcurrentProgram& program, ScheduleOptions schedule, bool wing_gong,
                   bool check_invariants) {
  RunOutcome outcome;
  SimExecutor sim(/*cores=*/1, std::move(schedule));
  CrlhMonitor::Options mon_opts;
  mon_opts.check_invariants = check_invariants;
  CrlhMonitor monitor(mon_opts);
  AtomFs::Options fs_opts;
  fs_opts.executor = &sim;
  fs_opts.observer = &monitor;
  fs_opts.unsafe_release_before_lock = program.unsafe_no_coupling;
  AtomFs fs(std::move(fs_opts));

  if (program.setup) {
    // Single sim thread: no scheduling decisions are consumed by setup.
    RunInSim(sim, [&] { program.setup(fs); });
  }
  for (const auto& ops : program.threads) {
    sim.Spawn([&fs, &ops] {
      for (const auto& call : ops) {
        RunOp(fs, call);
      }
    });
  }
  sim.Run();

  outcome.trace = sim.ScheduleTrace();
  outcome.fanouts = sim.ScheduleFanouts();
  outcome.helped_ops = monitor.helped_ops();

  if (!monitor.ok()) {
    outcome.ok = false;
    outcome.messages = monitor.violations();
  }
  if (!monitor.CheckQuiescent(fs.SnapshotSpec())) {
    outcome.ok = false;
    outcome.messages.push_back("quiescent abstract-concrete mismatch");
  }
  if (wing_gong) {
    auto verdict = CheckLinearizable(HistoryFromRecords(monitor.Completed()));
    if (!verdict.aborted && !verdict.linearizable) {
      outcome.ok = false;
      outcome.messages.push_back("Wing&Gong: history not linearizable");
    }
  }
  return outcome;
}

void Accumulate(ExploreStats& stats, const RunOutcome& outcome,
                const std::vector<uint32_t>& script) {
  ++stats.executions;
  stats.max_decision_points =
      std::max<uint64_t>(stats.max_decision_points, outcome.trace.size());
  if (outcome.helped_ops > 0) {
    ++stats.schedules_with_helping;
    stats.total_helped_ops += outcome.helped_ops;
  }
  if (!outcome.ok && stats.all_ok) {
    stats.all_ok = false;
    stats.failing_script = script;
    stats.failure_messages = outcome.messages;
  }
}

// The one schedule enumerator behind both exhaustive explorers. A work list
// of script prefixes still to run; each run extends its script with default
// decisions (0) and reports the fanouts, from which the untaken siblings are
// enqueued. Every enumerated script is a unique schedule, so the tree is
// covered exactly once. `run` executes one schedule and verifies it.
template <typename RunFn>
ExploreStats ExploreScripted(uint64_t max_executions, RunFn&& run) {
  ExploreStats stats;
  std::deque<std::vector<uint32_t>> pending;
  pending.push_back({});
  while (!pending.empty()) {
    if (stats.executions >= max_executions) {
      return stats;  // budget exhausted; stats.exhausted stays false
    }
    std::vector<uint32_t> script = std::move(pending.front());
    pending.pop_front();

    ScheduleOptions schedule;
    schedule.policy = SchedulePolicy::kScripted;
    schedule.script = script;
    schedule.yield_on_work = false;  // branch only at lock operations
    RunOutcome outcome = run(std::move(schedule));
    Accumulate(stats, outcome, script);

    // Enqueue the untaken branches below this run's frontier.
    for (size_t pos = script.size(); pos < outcome.trace.size(); ++pos) {
      ATOMFS_CHECK(outcome.fanouts[pos] >= 1);
      for (uint32_t choice = 1; choice < outcome.fanouts[pos]; ++choice) {
        std::vector<uint32_t> child(outcome.trace.begin(),
                                    outcome.trace.begin() + static_cast<ptrdiff_t>(pos));
        child.push_back(choice);
        pending.push_back(std::move(child));
      }
    }
  }
  stats.exhausted = true;
  return stats;
}

// One schedule of an uninstrumented fs: record (invoke, response)-stamped
// history (setup ops as an already-completed sequential prefix), then check
// it with the Wing&Gong checker.
RunOutcome RunOnceGeneric(const GenericFs& fs_factory, const ConcurrentProgram& program,
                          ScheduleOptions schedule) {
  RunOutcome outcome;
  SimExecutor sim(/*cores=*/1, std::move(schedule));
  std::unique_ptr<FileSystem> fs = fs_factory.make(&sim);

  std::mutex history_mu;
  std::vector<HistoryOp> history;
  uint64_t clock = 0;

  RunInSim(sim, [&] {
    if (program.setup) {
      program.setup(*fs);
    }
    for (const auto& call : program.setup_ops) {
      HistoryOp op;
      op.tid = 0;
      op.call = call;
      op.result = RunOp(*fs, call);
      op.invoke_seq = ++clock;
      op.response_seq = ++clock;
      history.push_back(std::move(op));
    }
  });

  Tid next_tid = 1;
  for (const auto& ops : program.threads) {
    const Tid tid = next_tid++;
    const auto* ops_ptr = &ops;
    sim.Spawn([&, tid, ops_ptr] {
      for (const auto& call : *ops_ptr) {
        uint64_t invoke;
        {
          std::lock_guard<std::mutex> lk(history_mu);
          invoke = ++clock;
        }
        OpResult result = RunOp(*fs, call);
        std::lock_guard<std::mutex> lk(history_mu);
        HistoryOp op;
        op.tid = tid;
        op.call = call;
        op.result = std::move(result);
        op.invoke_seq = invoke;
        op.response_seq = ++clock;
        history.push_back(std::move(op));
      }
    });
  }
  sim.Run();

  outcome.trace = sim.ScheduleTrace();
  outcome.fanouts = sim.ScheduleFanouts();

  auto verdict = CheckLinearizable(history);
  if (verdict.aborted) {
    outcome.messages.push_back("Wing&Gong aborted (state budget)");
  } else if (!verdict.linearizable) {
    outcome.ok = false;
    outcome.messages.push_back("Wing&Gong: history not linearizable");
  }
  return outcome;
}

}  // namespace

ExploreStats ExploreSchedules(const ConcurrentProgram& program, const ExploreOptions& options) {
  return ExploreScripted(options.max_executions, [&](ScheduleOptions schedule) {
    return RunOnce(program, std::move(schedule), options.wing_gong, options.check_invariants);
  });
}

ExploreStats ExploreSchedulesWingGong(const GenericFs& fs_factory,
                                      const ConcurrentProgram& program,
                                      const ExploreOptions& options) {
  return ExploreScripted(options.max_executions, [&](ScheduleOptions schedule) {
    return RunOnceGeneric(fs_factory, program, std::move(schedule));
  });
}

ExploreStats ExploreRandom(const ConcurrentProgram& program, uint64_t runs, uint64_t base_seed,
                           bool wing_gong) {
  ExploreStats stats;
  for (uint64_t i = 0; i < runs; ++i) {
    ScheduleOptions schedule;
    schedule.policy = SchedulePolicy::kRandom;
    schedule.seed = base_seed + i;
    schedule.yield_on_work = false;
    RunOutcome outcome =
        RunOnce(program, std::move(schedule), wing_gong, /*check_invariants=*/true);
    Accumulate(stats, outcome, {static_cast<uint32_t>(base_seed + i)});
  }
  stats.exhausted = false;
  return stats;
}

}  // namespace atomfs
