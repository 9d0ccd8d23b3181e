#!/usr/bin/env bash
# Tier-1 verification, as pinned in ROADMAP.md: configure, build, and run the
# full ctest suite — which includes the atomfsd end-to-end smoke test
# (tools/atomfsd_smoke.sh), so the serving layer is covered by default.
#
# After the full suite, a flake stage reruns the `sanitize`-labelled tests up
# to three times each, and a focused observability stage re-runs the atomtrace
# tests (obs_test: registry/trace-ring/METRICS/docs-drift) and the atomfsd
# smoke (which asserts a parseable --metrics-dump with nonzero op counters)
# by name, so a regression there is called out explicitly even when someone
# trims the main suite.
#
# Usage: tools/run_tier1.sh [BUILD_DIR]   (default: build)
set -euo pipefail

REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}

# Reuse an existing build tree: re-running cmake on a populated cache is
# cheap but not free (generator re-runs touch every subdirectory), and the
# incremental build below picks up source changes either way.
if [[ ! -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
fi
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "--- flake stage (label 'sanitize', each test up to 3 runs) ---"
# The concurrency-heavy core again, at full parallelism, rerun until a test
# fails or has passed three times: a race that one pass happens to miss gets
# two more chances to show. Every test has a TIMEOUT (CMakeLists.txt), so a
# hang fails here instead of stalling the run.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -L sanitize \
  --repeat until-fail:3

echo "--- observability stage (obs_test + atomfsd smoke) ---"
ctest --test-dir "$BUILD_DIR" --output-on-failure -R '^(obs_test|atomfsd_smoke)$'

echo "--- pipelined serving stage (64 connections x 8 in flight, monitored) ---"
# tools/pipeline_smoke.sh: bench_server_throughput --connections 64
# --pipeline 8 --check against a monitored atomfsd on a Unix socket; fails
# on any non-OK reply or a per-connection fairness ratio above 10x.
ctest --test-dir "$BUILD_DIR" --output-on-failure -R '^pipeline_smoke$'

echo "--- rcu-walk smoke stage (optimistic read path, validation gate) ---"
# server_test's RcuWalkCountersAccountForEveryOptimisticOp: a short traced
# fileserver run of the default atomfs stack (RCU-walk always on) over the
# real wire, counters fetched with METRICS. Fails unless the optimistic path
# actually engaged (attempts > 0), every optimistic walk was
# version-validated (core.rcuwalk.unvalidated_reads == 0 — the unsafe
# skip-validation hook must never be live outside tests) and the counters
# account for every optimistic op, reads and adopted mutators alike
# (attempts - validation_failures + fallbacks == optimistic ops).
"$BUILD_DIR/tests/server_test" \
  --gtest_filter='ServerTest.RcuWalkCountersAccountForEveryOptimisticOp'

echo "--- sharded-namespace stage (4 shards, cross-shard migrations, monitored) ---"
# tools/shard_smoke.sh: a monitored atomfsd --fs-shards 4 driven with
# cross-shard renames/exchange and a concurrent reader; requires the
# sharding HELLO capability, 5 committed migrations, and a clean CRL-H exit.
ctest --test-dir "$BUILD_DIR" --output-on-failure -R '^shard_smoke$'

echo "--- crash-consistency stage (bounded sweep + kill -9 recovery) ---"
# tools/crash_smoke.sh: the durability refinement check at a small record
# bound (6 txns, <=64 sampled crash points per sweep), then a journaled
# atomfsd killed with SIGKILL mid-serving and restarted on the same journal —
# committed transactions must survive, open ones must vanish.
ctest --test-dir "$BUILD_DIR" --output-on-failure -R '^crash_smoke$'

echo "--- sanitizer stage (TSan + ASan/UBSan, label 'sanitize') ---"
# Builds build-tsan/ and build-asan/ and runs the concurrency-heavy test core
# under each (tools/run_sanitizers.sh --quick). Any unsuppressed report fails
# the stage. Set ATOMFS_SKIP_SANITIZERS=1 to skip on hosts where the double
# build is too slow; CI must not skip it.
if [[ "${ATOMFS_SKIP_SANITIZERS:-0}" == 1 ]]; then
  echo "skipped (ATOMFS_SKIP_SANITIZERS=1)"
else
  "$REPO_ROOT/tools/run_sanitizers.sh" --quick
fi
