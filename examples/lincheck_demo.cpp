// Linearizability-checking demo: reproduces the paper's Figure 1 on live
// code and shows why the helper mechanism is necessary.
//
// A mkdir(/a/b/c) is parked mid-traversal while a rename(/a, /e) completes.
// (A briefly held root sends the mkdir from its optimistic walk to the
// lock-coupled one, the walk of the paper's figure.)
// The CRL-H monitor, attached as an observer, helps the mkdir at the
// rename's linearization point. The demo then replays three sequential
// orders against the abstract specification:
//   1. the helper-derived order        -> legal
//   2. the fixed-LP (temporal) order   -> ILLEGAL (Figure 1)
//   3. the Wing&Gong search            -> confirms the history is linearizable
//
//   $ ./lincheck_demo

#include <cstdio>

#include "src/core/atom_fs.h"
#include "src/crlh/gate.h"
#include "src/crlh/lin_check.h"
#include "src/crlh/monitor.h"
#include "src/crlh/op_thread.h"

using namespace atomfs;

int main() {
  CrlhMonitor monitor;
  GateObserver gate;
  TeeObserver tee(&monitor, &gate);
  AtomFs::Options opts;
  opts.observer = &tee;
  AtomFs fs(std::move(opts));

  fs.Mkdir("/a");
  fs.Mkdir("/a/b");
  const Inum ino_a = fs.Stat("/a")->ino;

  std::printf("T1: mkdir(/a/b/c) starts, traverses through /a, and halts...\n");
  OpThread mkdir_op([&] {
    Status st = fs.Mkdir("/a/b/c");
    std::printf("T1: mkdir(/a/b/c) -> %s\n", ErrcName(st.code()).data());
  });
  gate.Arm(mkdir_op.tid(), GateObserver::Point::kLockReleased, ino_a);
  if (!gate.StartOnLockedWalk(mkdir_op, [&] { fs.Stat("/"); })) {
    std::printf("T1: mkdir never left its optimistic walk\n");
    return 1;
  }
  gate.WaitParked(mkdir_op.tid());

  std::printf("T2: rename(/a, /e) runs to completion...\n");
  Status st = fs.Rename("/a", "/e");
  std::printf("T2: rename(/a, /e) -> %s\n", ErrcName(st.code()).data());
  std::printf("    CRL-H helper linearized %llu operation(s) at the rename LP\n",
              static_cast<unsigned long long>(monitor.helped_ops()));

  gate.Open(mkdir_op.tid());
  mkdir_op.Join();

  std::printf("\nFinal tree: /e/b/c exists? %s\n", fs.Stat("/e/b/c").ok() ? "yes" : "no");
  std::printf("Monitor verdict: %s\n", monitor.ok() ? "linearizable (refinement holds)"
                                                    : "VIOLATION");

  // Offline replays.
  auto recs = monitor.Completed();
  auto history = HistoryFromRecords(recs);
  std::vector<uint64_t> helper_keys;
  std::vector<uint64_t> fixed_keys;
  for (const auto& r : recs) {
    helper_keys.push_back(r.abs_seq);
    fixed_keys.push_back(r.lp_seq);
  }
  auto helper_mismatch = ReplayOrder(history, OrderBy(history, helper_keys));
  auto fixed_mismatch = ReplayOrder(history, OrderBy(history, fixed_keys));
  std::printf("\nReplay of the helper order:   %s\n",
              helper_mismatch.has_value() ? "ILLEGAL" : "legal");
  std::printf("Replay of the fixed-LP order: %s  <- Figure 1: rename before mkdir is "
              "illegal\n",
              fixed_mismatch.has_value() ? "ILLEGAL" : "legal");

  auto verdict = CheckLinearizable(history);
  std::printf("Wing&Gong exhaustive search:  %s (%llu states)\n",
              verdict.linearizable ? "linearizable" : "NOT linearizable",
              static_cast<unsigned long long>(verdict.states_explored));
  return monitor.ok() && !helper_mismatch.has_value() && fixed_mismatch.has_value() &&
                 verdict.linearizable
             ? 0
             : 1;
}
