#!/usr/bin/env bash
# Crash-injection smoke (wired into ctest; see tools/CMakeLists.txt) in three
# stages:
#
#   1. A bounded run of the durability refinement sweep: crash_injection_test
#      with a small transaction mix (ATOMFS_CRASH_TXNS) and a sampled crash
#      surface (ATOMFS_CRASH_MAX_POINTS), so every record-boundary, torn-write,
#      and bit-flip crash point it does visit must recover to an exact prefix
#      of the committed history — fast enough for tier-1, same zero-divergence
#      bar as the full sweep.
#
#   2. An end-to-end kill -9 of a journaled atomfsd: commit a transaction over
#      the wire, leave a second transaction open, SIGKILL the daemon, restart
#      it on the same journal, and require the committed data back and the
#      uncommitted transaction invisible.
#
#   3. The same kill -9 across a checkpoint boundary: a checkpointing daemon
#      (--checkpoint-units plus a SIGHUP-forced checkpoint) is SIGKILLed after
#      committing data both before and after the rotation; restart must
#      recover from the checkpoint + WAL suffix and see all of it.
#
# Usage: crash_smoke.sh /path/to/crash_injection_test /path/to/atomfsd /path/to/fsshell
set -euo pipefail

CRASH_TEST=${1:?usage: crash_smoke.sh CRASH_INJECTION_TEST ATOMFSD FSSHELL}
ATOMFSD=${2:?usage: crash_smoke.sh CRASH_INJECTION_TEST ATOMFSD FSSHELL}
FSSHELL=${3:?usage: crash_smoke.sh CRASH_INJECTION_TEST ATOMFSD FSSHELL}

WORK=$(mktemp -d)
DAEMON_PID=
trap 'kill -9 "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "--- stage 1: bounded durability refinement sweep ---"
ATOMFS_CRASH_TXNS=6 ATOMFS_CRASH_MAX_POINTS=64 \
  "$CRASH_TEST" --gtest_brief=1 || {
    echo "FAIL: bounded crash-injection sweep found a divergence"; exit 1; }

echo "--- stage 2: kill -9 a journaled atomfsd, recover, verify ---"
JOURNAL="$WORK/atomfs.wal"
SOCK1="$WORK/gen1.sock"

"$ATOMFSD" --unix "$SOCK1" --journal "$JOURNAL" \
  > "$WORK/gen1.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK1" ] && break; sleep 0.1; done
[ -S "$SOCK1" ] || { echo "FAIL: gen1 daemon never created $SOCK1"; cat "$WORK/gen1.log"; exit 1; }

# One committed transaction: both ops must survive the crash together.
printf 'txbegin\nmkdir /cfg\nwrite /cfg/a committed-v1\ntxcommit\ncat /cfg/a\n' \
  | "$FSSHELL" --connect "unix:$SOCK1" > "$WORK/commit.out"
grep -q 'committed-v1' "$WORK/commit.out" || {
  echo "FAIL: committed transaction not readable pre-crash"; cat "$WORK/commit.out"; exit 1; }

# One transaction left open when its connection drops: nothing may survive.
printf 'txbegin\nmkdir /lost\nwrite /lost/f never\n' \
  | "$FSSHELL" --connect "unix:$SOCK1" > "$WORK/open.out"

kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true

SOCK2="$WORK/gen2.sock"
"$ATOMFSD" --unix "$SOCK2" --journal "$JOURNAL" \
  > "$WORK/gen2.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK2" ] && break; sleep 0.1; done
[ -S "$SOCK2" ] || { echo "FAIL: gen2 daemon never created $SOCK2"; cat "$WORK/gen2.log"; exit 1; }

grep -q 'recovered' "$WORK/gen2.log" || {
  echo "FAIL: restart printed no recovery banner"; cat "$WORK/gen2.log"; exit 1; }

printf 'cat /cfg/a\nstat /lost\nls /\n' \
  | "$FSSHELL" --connect "unix:$SOCK2" > "$WORK/recovered.out"
grep -q 'committed-v1' "$WORK/recovered.out" || {
  echo "FAIL: committed transaction lost across kill -9"
  cat "$WORK/recovered.out"; cat "$WORK/gen2.log"; exit 1; }
grep -q 'stat: ENOENT' "$WORK/recovered.out" || {
  echo "FAIL: uncommitted transaction leaked across kill -9"
  cat "$WORK/recovered.out"; exit 1; }

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || {
  echo "FAIL: gen2 daemon exited non-zero"; cat "$WORK/gen2.log"; exit 1; }

echo "--- stage 3: kill -9 across a forced checkpoint, recover, verify ---"
CKJOURNAL="$WORK/ckpt.wal"
SOCK3="$WORK/gen3.sock"
"$ATOMFSD" --unix "$SOCK3" --journal "$CKJOURNAL" --checkpoint-units 64 \
  > "$WORK/gen3.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK3" ] && break; sleep 0.1; done
[ -S "$SOCK3" ] || { echo "FAIL: gen3 daemon never created $SOCK3"; cat "$WORK/gen3.log"; exit 1; }

printf 'mkdir /pre\nwrite /pre/f before-checkpoint\n' \
  | "$FSSHELL" --connect "unix:$SOCK3" > /dev/null
kill -HUP "$DAEMON_PID"   # force the checkpoint + WAL rotation now
for _ in $(seq 1 100); do
  grep -q 'checkpointed' "$WORK/gen3.log" && break; sleep 0.1
done
grep -q 'checkpointed' "$WORK/gen3.log" || {
  echo "FAIL: SIGHUP produced no checkpoint"; cat "$WORK/gen3.log"; exit 1; }
[ -f "$CKJOURNAL.ckpt" ] || {
  echo "FAIL: no checkpoint file next to the journal"; ls "$WORK"; exit 1; }

# Post-checkpoint suffix — committed, then checkpointed again through the
# wire op this time — then die without warning.
printf 'txbegin\nmkdir /post\nwrite /post/f after-checkpoint\ntxcommit\ncheckpoint\n' \
  | "$FSSHELL" --connect "unix:$SOCK3" > "$WORK/wire_ckpt.out"
# fsshell prints a bare "ok" per successful op and "<cmd>: E..." on failure:
# all four commands must have succeeded, the checkpoint included.
if grep -q ': E' "$WORK/wire_ckpt.out" || \
   [ "$(grep -cx 'ok' "$WORK/wire_ckpt.out")" -ne 4 ]; then
  echo "FAIL: wire CHECKPOINT op did not succeed"; cat "$WORK/wire_ckpt.out"; exit 1
fi
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true

SOCK4="$WORK/gen4.sock"
"$ATOMFSD" --unix "$SOCK4" --journal "$CKJOURNAL" \
  > "$WORK/gen4.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK4" ] && break; sleep 0.1; done
[ -S "$SOCK4" ] || { echo "FAIL: gen4 daemon never created $SOCK4"; cat "$WORK/gen4.log"; exit 1; }

grep -q 'checkpoint base' "$WORK/gen4.log" || {
  echo "FAIL: restart did not recover from the checkpoint"; cat "$WORK/gen4.log"; exit 1; }
printf 'cat /pre/f\ncat /post/f\n' \
  | "$FSSHELL" --connect "unix:$SOCK4" > "$WORK/ckpt.out"
grep -q 'before-checkpoint' "$WORK/ckpt.out" || {
  echo "FAIL: pre-checkpoint data lost across kill -9"
  cat "$WORK/ckpt.out"; cat "$WORK/gen4.log"; exit 1; }
grep -q 'after-checkpoint' "$WORK/ckpt.out" || {
  echo "FAIL: post-checkpoint suffix lost across kill -9"
  cat "$WORK/ckpt.out"; cat "$WORK/gen4.log"; exit 1; }

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || {
  echo "FAIL: gen4 daemon exited non-zero"; cat "$WORK/gen4.log"; exit 1; }

echo "PASS: crash smoke (bounded sweep clean; committed txn survived kill -9, open txn invisible; checkpoint boundary survived kill -9)"
