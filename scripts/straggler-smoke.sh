#!/usr/bin/env bash
# straggler-smoke.sh — prove the fleet scheduler rescues a wedged
# daemon and re-admits a recovered one, end to end over real HTTP.
#
# Two passes over the same grid, each checked byte-for-byte against a
# single-process reference run:
#
#   1. straggler: three daemons serve a -fleet sweep; once one of them
#      holds a shard in flight it is SIGSTOPped — still listening,
#      never answering, the worst kind of failure. The sweep must
#      finish anyway (the lost shard is speculatively re-executed on a
#      live daemon), the output must match the reference exactly, and
#      the health monitor must have marked the straggler down.
#
#   2. recovery: one daemon is SIGSTOPped before the sweep starts, so
#      the first probe marks it down. Mid-sweep it gets SIGCONT; the
#      monitor's mark-up hysteresis must re-admit it ("marked up" on
#      stderr) and the output must again match the reference.
#
# Usage: [EXPLORE=path] [ACTUARYD=path] scripts/straggler-smoke.sh [WORKDIR]
set -euo pipefail

explore=${EXPLORE:-./explore}
actuaryd=${ACTUARYD:-./actuaryd}
keep_dir=no
if [ -n "${1:-}" ]; then
  dir=$1
  keep_dir=yes
  mkdir -p "$dir"
else
  dir=$(mktemp -d)
fi

pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill -CONT "$pid" 2>/dev/null || true
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  if [ "$keep_dir" = no ]; then rm -rf "$dir"; fi
}
trap cleanup EXIT

# The probe loop (100ms cadence, 250ms per-probe timeout, three
# strikes to mark down) must catch the straggler before the sweep
# drains, and how long a grid takes depends on the machine. So the grid
# is sized from the single-process reference run: while the reference
# finishes in under min_ref_ms — an order of magnitude above the time
# to mark a daemon down — the area step is halved (1, 0.5, 0.25, ...)
# and the reference rerun, for at most max_rounds runs. Both passes use
# the grid the last reference ran.
min_ref_ms=4000
max_rounds=6
fleetflags=(-fleet-probe-every 100ms -fleet-probe-timeout 250ms)

start_daemon() { # start_daemon NAME -> sets url_NAME, pid_NAME
  local name=$1
  "$actuaryd" -addr 127.0.0.1:0 > "$dir/$name.log" 2>&1 &
  printf -v "pid_$name" '%s' "$!"
  pids+=("$!")
  local url
  url=$(scripts/wait-daemon.sh "$dir/$name.log")
  printf -v "url_$name" '%s' "$url"
}

wait_for_line() { # wait_for_line FILE PATTERN WHAT [TIMEOUT_SECONDS]
  local deadline=$(( $(date +%s) + ${4:-30} ))
  until grep -q "$2" "$1" 2>/dev/null; do
    if [ "$(date +%s)" -ge "$deadline" ]; then
      echo "straggler-smoke: timed out waiting for $3" >&2
      sed "s/^/straggler-smoke: $1: /" "$1" >&2 || true
      exit 1
    fi
    sleep 0.1
  done
}

wait_in_flight() { # wait_in_flight URL — until the daemon is evaluating
  local deadline=$(( $(date +%s) + 30 ))
  until curl -sf "$1/v1/metricz" 2>/dev/null | grep -qE '"in_flight":[1-9]'; do
    if [ "$(date +%s)" -ge "$deadline" ]; then
      echo "straggler-smoke: $1 never picked up a shard" >&2
      exit 1
    fi
    sleep 0.05
  done
}

step=1
for round in $(seq "$max_rounds"); do
  flags=(-mode sweep -nodes 5nm,7nm,12nm -schemes MCM,2.5D,InFO
         -area-range "100:1000:$step" -count-range 1:16 -top 8)
  start=$(date +%s%N)
  "$explore" "${flags[@]}" > "$dir/reference.txt"
  ref_ms=$(( ($(date +%s%N) - start) / 1000000 ))
  echo "straggler-smoke: single-process reference on -area-range 100:1000:$step took ${ref_ms}ms"
  if [ "$ref_ms" -ge "$min_ref_ms" ] || [ "$round" -eq "$max_rounds" ]; then
    break
  fi
  step=$(awk -v s="$step" 'BEGIN { print s / 2 }')
done
echo "straggler-smoke: both passes sweep ${flags[*]}"

echo "straggler-smoke: pass 1 — SIGSTOP a daemon mid-sweep"
start_daemon a1; start_daemon b1; start_daemon c1
"$explore" "${flags[@]}" "${fleetflags[@]}" -fleet "$url_a1,$url_b1,$url_c1" \
  > "$dir/straggler.txt" 2> "$dir/straggler.err" &
sweep=$!
wait_in_flight "$url_c1"
kill -STOP "$pid_c1"
echo "straggler-smoke: stopped daemon $url_c1 holding a shard in flight"
if ! wait "$sweep"; then
  echo "straggler-smoke: fleet sweep failed with a wedged daemon:" >&2
  cat "$dir/straggler.err" >&2
  exit 1
fi
if ! grep -q 'marked down' "$dir/straggler.err"; then
  echo "straggler-smoke: monitor never marked the wedged daemon down:" >&2
  cat "$dir/straggler.err" >&2
  exit 1
fi
if ! grep -qE 'speculate|steal' "$dir/straggler.err"; then
  echo "straggler-smoke: sweep finished without stealing the lost shard:" >&2
  cat "$dir/straggler.err" >&2
  exit 1
fi
diff "$dir/reference.txt" "$dir/straggler.txt"
echo "straggler-smoke: straggler output is byte-identical to the reference"
kill -CONT "$pid_c1" 2>/dev/null || true
kill "$pid_a1" "$pid_b1" "$pid_c1" 2>/dev/null || true

echo "straggler-smoke: pass 2 — SIGCONT a marked-down daemon mid-sweep"
start_daemon a2; start_daemon b2; start_daemon c2
kill -STOP "$pid_c2"
"$explore" "${flags[@]}" "${fleetflags[@]}" -fleet "$url_a2,$url_b2,$url_c2" \
  > "$dir/recovery.txt" 2> "$dir/recovery.err" &
sweep=$!
wait_for_line "$dir/recovery.err" 'marked down' "the stopped daemon to be marked down"
kill -CONT "$pid_c2"
wait_for_line "$dir/recovery.err" 'marked up' "the revived daemon to be marked up"
echo "straggler-smoke: revived daemon re-admitted mid-sweep"
if ! wait "$sweep"; then
  echo "straggler-smoke: fleet sweep failed across the mark-down/mark-up cycle:" >&2
  cat "$dir/recovery.err" >&2
  exit 1
fi
diff "$dir/reference.txt" "$dir/recovery.txt"
echo "straggler-smoke: recovery output is byte-identical to the reference"
