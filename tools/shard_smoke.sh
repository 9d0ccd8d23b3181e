#!/usr/bin/env bash
# Sharded-namespace smoke (wired into ctest and tools/run_tier1.sh): start a
# monitored atomfsd with --fs-shards 4, drive mixed traffic from two
# concurrent remote fsshells — four tenant trees homed on all four shards
# (ta/tb/tc/td hash to shards 0/1/2/3 under the router's FNV-1a), a file
# chained through every shard by cross-shard renames plus one cross-shard
# exchange, reads/stats/writes riding alongside — then shut down gracefully
# and require: the sharding capability bit visible in the client's HELLO
# banner, every migration committed (none aborted), and a zero-violation
# CRL-H verdict deciding the daemon's exit code.
#
# Usage: shard_smoke.sh /path/to/atomfsd /path/to/fsshell
set -euo pipefail

ATOMFSD=${1:?usage: shard_smoke.sh ATOMFSD FSSHELL}
FSSHELL=${2:?usage: shard_smoke.sh ATOMFSD FSSHELL}

WORK=$(mktemp -d)
SOCK="$WORK/atomfsd.sock"
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$ATOMFSD" --unix "$SOCK" --fs-shards 4 --monitor --shards 4 \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: daemon never created $SOCK"; cat "$WORK/daemon.log"; exit 1; }

# Tenant setup: one root per shard, plus payload files.
printf 'mkdir /ta\nmkdir /tb\nmkdir /tc\nmkdir /td\nwrite /ta/f migrating payload\nwrite /tb/keep resident payload\nwrite /tc/sw1 swap one\nwrite /td/sw2 swap two\n' \
  | "$FSSHELL" --connect "unix:$SOCK" > "$WORK/setup.out" 2> "$WORK/setup.err"

grep -q 'caps=.*sharding' "$WORK/setup.err" || {
  echo "FAIL: HELLO banner does not advertise the sharding capability"
  cat "$WORK/setup.err"; exit 1; }

# Concurrent reader: root merges, stats, and reads on a resident file while
# the migrations below run. Its output must show the payload every time.
( for _ in $(seq 1 8); do printf 'ls /\nstat /ta\ncat /tb/keep\n'; done ) \
  | "$FSSHELL" --connect "unix:$SOCK" > "$WORK/reader.out" 2>/dev/null &
READER_PID=$!

# Cross-shard chain: /ta/f visits every shard and returns home; then one
# cross-shard exchange (shard 2 <-> shard 3). Each mv/xchg is a two-shard
# commit through the published-descriptor protocol.
printf 'mv /ta/f /tb/m\nmv /tb/m /tc/m\nmv /tc/m /td/m\nmv /td/m /ta/f\nxchg /tc/sw1 /td/sw2\ncat /ta/f\ncat /tc/sw1\nls /\n' \
  | "$FSSHELL" --connect "unix:$SOCK" > "$WORK/shell.out" 2>/dev/null

wait "$READER_PID" || { echo "FAIL: concurrent reader shell failed"; exit 1; }

grep -q 'migrating payload' "$WORK/shell.out" || {
  echo "FAIL: payload lost across the migration chain"; cat "$WORK/shell.out"; exit 1; }
grep -q 'swap two' "$WORK/shell.out" || {
  echo "FAIL: cross-shard exchange did not swap contents"; cat "$WORK/shell.out"; exit 1; }
[ "$(grep -c 'resident payload' "$WORK/reader.out")" -eq 8 ] || {
  echo "FAIL: concurrent reader missed the resident payload"; cat "$WORK/reader.out"; exit 1; }
grep -q '\.m' "$WORK/shell.out" && {
  echo "FAIL: migration staging entry leaked into ls /"; cat "$WORK/shell.out"; exit 1; }

kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
  echo "FAIL: daemon exited non-zero (CRL-H violation or crash)"
  cat "$WORK/daemon.log"
  exit 1
fi

grep -q '\[4 namespace shard(s)\]' "$WORK/daemon.log" || {
  echo "FAIL: daemon did not serve 4 namespace shards"; cat "$WORK/daemon.log"; exit 1; }
# 4 renames + 1 exchange = 5 committed migrations, 0 aborted.
grep -Eq 'sharded namespace: 5 migration\(s\) committed, 0 aborted' "$WORK/daemon.log" || {
  echo "FAIL: migration counters wrong (want 5 committed, 0 aborted)"
  cat "$WORK/daemon.log"; exit 1; }
grep -q 'VIOLATIONS' "$WORK/daemon.log" && {
  echo "FAIL: CRL-H violations reported"; cat "$WORK/daemon.log"; exit 1; }

echo "PASS: shard smoke (4 shards, 5 cross-shard migrations, monitor clean)"
