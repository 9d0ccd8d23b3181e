#!/usr/bin/env bash
# End-to-end atomfsd smoke test (wired into ctest; see tools/CMakeLists.txt):
# start the daemon on a Unix socket with the CRL-H monitor attached and
# --metrics-dump, drive a handful of operations through a remote fsshell
# (including a METRICS fetch), then shut down gracefully and require a clean
# (verified) exit plus a parseable metrics dump with nonzero op counters.
#
# Usage: atomfsd_smoke.sh /path/to/atomfsd /path/to/fsshell
set -euo pipefail

ATOMFSD=${1:?usage: atomfsd_smoke.sh ATOMFSD FSSHELL}
FSSHELL=${2:?usage: atomfsd_smoke.sh ATOMFSD FSSHELL}

WORK=$(mktemp -d)
SOCK="$WORK/atomfsd.sock"
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

"$ATOMFSD" --unix "$SOCK" --monitor --metrics-dump --shards 4 \
  > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: daemon never created $SOCK"; cat "$WORK/daemon.log"; exit 1; }

printf 'mkdir /a\nwrite /a/f hello from the wire\ncat /a/f\nmv /a/f /a/g\nls /a\nstat /a/g\nmetrics\n' \
  | "$FSSHELL" --connect "unix:$SOCK" > "$WORK/shell.out"

grep -q 'hello from the wire' "$WORK/shell.out" || {
  echo "FAIL: remote cat did not round-trip"; cat "$WORK/shell.out"; exit 1; }
grep -q '^g$' "$WORK/shell.out" || {
  echo "FAIL: remote rename not visible in ls"; cat "$WORK/shell.out"; exit 1; }

# The fsshell `metrics` command fetched the METRICS op: the dump must carry
# nonzero backend op/lock counters and a server-side per-op histogram.
grep -q '# atomtrace metrics' "$WORK/shell.out" || {
  echo "FAIL: METRICS fetch missing from shell output"; cat "$WORK/shell.out"; exit 1; }
grep -Eq '^counter fs\.ops [1-9][0-9]*$' "$WORK/shell.out" || {
  echo "FAIL: fs.ops counter missing or zero"; cat "$WORK/shell.out"; exit 1; }
grep -Eq '^counter lock\.acquires [1-9][0-9]*$' "$WORK/shell.out" || {
  echo "FAIL: lock.acquires counter missing or zero"; cat "$WORK/shell.out"; exit 1; }
grep -Eq '^hist server\.op\.mkdir\.latency_ns count=[1-9]' "$WORK/shell.out" || {
  echo "FAIL: server per-op histogram missing"; cat "$WORK/shell.out"; exit 1; }

kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
  echo "FAIL: daemon exited non-zero (monitor violation or crash)"
  cat "$WORK/daemon.log"
  exit 1
fi
grep -q 'shut down' "$WORK/daemon.log" || {
  echo "FAIL: no graceful shutdown message"; cat "$WORK/daemon.log"; exit 1; }
grep -q 'every served operation linearizable' "$WORK/daemon.log" || {
  echo "FAIL: monitor verdict missing"; cat "$WORK/daemon.log"; exit 1; }

# --metrics-dump printed the registry again at shutdown, in the daemon log.
grep -q '# atomtrace metrics' "$WORK/daemon.log" || {
  echo "FAIL: --metrics-dump produced no dump at shutdown"; cat "$WORK/daemon.log"; exit 1; }
grep -Eq '^counter fs\.ops [1-9][0-9]*$' "$WORK/daemon.log" || {
  echo "FAIL: shutdown dump has no nonzero fs.ops"; cat "$WORK/daemon.log"; exit 1; }

echo "PASS: atomfsd smoke ($(grep -c . "$WORK/shell.out") shell lines, monitor clean, metrics dumped)"
