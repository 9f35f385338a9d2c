#!/usr/bin/env bash
# bench-baseline.sh — record the hot-path benchmark baseline as JSON.
#
# Runs the three benchmarks the perf work must not regress —
# BenchmarkSessionStreamSweep (the single-process streaming pipeline),
# BenchmarkDistributedSweep (the sharded fan-out on the fleet
# scheduler) and BenchmarkSearchBest (the adaptive search on the
# 112008-candidate grid) — and distills ns/op, B/op, allocs/op,
# points/sec, the partials-cache hit rate and the adaptive search's
# evaluated-ratio into one JSON document. Points/sec is taken from the
# benchmark's own b.ReportMetric wall-clock figure when the line
# carries one, and derived from ns/op and the known grid size
# (568/4488-point stream grids, 50736-point distributed grid)
# otherwise.
#
# When an earlier BENCH_*.json is checked in, the document also embeds
# a "delta_vs" block: per-benchmark new/old ratios of points_per_sec,
# allocs_per_op and allocs_per_point against the most recent previous
# baseline, so the trajectory is readable straight from the file
# (allocs_per_point is derived for older baselines that predate the
# field).
#
# The checked-in snapshot is a reviewed baseline, not a CI gate:
# absolute numbers move with hardware, so regressions are judged by
# re-running this script on the same machine and comparing (CI runs a
# coarse 25% gate against a cache-kept baseline; see bench-smoke).
#
# Usage: scripts/bench-baseline.sh OUTPUT.json
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 OUTPUT.json" >&2
  exit 2
fi
out=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "bench-baseline: running BenchmarkSessionStreamSweep" >&2
# 20 iterations, not 2: the partials cache warms over the first few
# iterations (hit rate 0.85 cold vs 0.96 warm), and a 2x run reports
# the warm-up transient as steady-state throughput — that is what made
# BENCH_PR8 read ~10% below BENCH_PR7 on identical code.
go test -run '^$' -bench '^BenchmarkSessionStreamSweep$' -benchmem -benchtime 20x . \
  > "$tmp/stream.txt"
echo "bench-baseline: running BenchmarkDistributedSweep" >&2
go test -run '^$' -bench '^BenchmarkDistributedSweep$' -benchmem -benchtime 2x ./distribute \
  > "$tmp/distribute.txt"
echo "bench-baseline: running BenchmarkSearchBest" >&2
go test -run '^$' -bench '^BenchmarkSearchBest$' -benchmem -benchtime 2x . \
  > "$tmp/search.txt"

# Benchmark output lines look like
#   BenchmarkName/sub-8  2  123456 ns/op  0.75 partials-hit-rate  29347 points/sec  456 B/op  7 allocs/op
# awk turns each into a JSON entry. Reported points/sec (wall clock)
# wins over the ns/op derivation; the points-per-op count comes from
# the sub-benchmark name (568pt/4488pt) or the per-file default (the
# stream benchmark's sweep-best-question arm runs the 568-point grid;
# the distributed benchmark always runs the fixed 50736-point grid).
parse() {
  awk -v points_default="$2" '
    /ns\/op/ {
      name = $1
      sub(/-[0-9]+$/, "", name)                 # strip GOMAXPROCS suffix
      ns = ""; bytes = ""; allocs = ""; rpps = ""; hit = ""; ratio = ""
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")             ns = $(i - 1)
        if ($i == "B/op")              bytes = $(i - 1)
        if ($i == "allocs/op")         allocs = $(i - 1)
        if ($i == "points/sec")        rpps = $(i - 1)
        if ($i == "partials-hit-rate") hit = $(i - 1)
        if ($i == "evaluated-ratio")   ratio = $(i - 1)
      }
      points = points_default
      if (match(name, /[0-9]+pt/)) points = substr(name, RSTART, RLENGTH - 2)
      pps = (rpps != "") ? rpps : ((ns > 0) ? points * 1e9 / ns : 0)
      extra = (hit != "") ? sprintf(", \"partials_hit_rate\": %s", hit) : ""
      if (ratio != "") extra = extra sprintf(", \"evaluated_ratio\": %s", ratio)
      app = (points > 0 && allocs != "") ? allocs / points : 0
      printf "    {\"name\": \"%s\", \"ns_per_op\": %.0f, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"allocs_per_point\": %.3f, \"points_per_op\": %s, \"points_per_sec\": %.0f%s},\n", \
        name, ns, bytes, allocs, app, points, pps, extra
    }
  ' "$1"
}

{ parse "$tmp/stream.txt" 568; parse "$tmp/distribute.txt" 50736; parse "$tmp/search.txt" 112008; } | sed '$ s/,$//' > "$tmp/bench.jsonl"

# delta_vs: ratios against the newest previous checked-in baseline
# (any BENCH_*.json other than the file being written).
prev=$(ls BENCH_*.json 2>/dev/null | grep -vx "$out" | sort -V | tail -1 || true)
lookup() { # lookup FILE NAME FIELD -> value or empty
  # "|| true" keeps an absent entry or field (older baselines lack
  # allocs_per_point) from tripping set -e/pipefail mid-document.
  grep -o "{\"name\": \"$2\"[^}]*}" "$1" 2>/dev/null \
    | grep -o "\"$3\": [0-9.]*" | head -1 | awk '{print $2}' || true
}

{
  echo '{'
  echo '  "benchmarks": ['
  cat "$tmp/bench.jsonl"
  echo '  ],'
  if [[ -n "$prev" ]]; then
    echo '  "delta_vs": {'
    echo "    \"baseline\": \"$prev\","
    echo '    "ratios": ['
    while IFS= read -r line; do
      name=$(printf '%s' "$line" | grep -o '"name": "[^"]*"' | sed 's/"name": "//;s/"$//')
      new_pps=$(printf '%s' "$line" | grep -o '"points_per_sec": [0-9.]*' | awk '{print $2}')
      new_allocs=$(printf '%s' "$line" | grep -o '"allocs_per_op": [0-9.]*' | awk '{print $2}')
      new_app=$(printf '%s' "$line" | grep -o '"allocs_per_point": [0-9.]*' | awk '{print $2}')
      old_pps=$(lookup "$prev" "$name" points_per_sec)
      old_allocs=$(lookup "$prev" "$name" allocs_per_op)
      # Older baselines predate allocs_per_point; derive it from the
      # fields they do carry so the ratio is still comparable.
      old_app=$(lookup "$prev" "$name" allocs_per_point)
      if [[ -z "$old_app" && -n "$old_allocs" ]]; then
        old_points=$(lookup "$prev" "$name" points_per_op)
        if [[ -n "$old_points" ]]; then
          old_app=$(awk -v a="$old_allocs" -v p="$old_points" 'BEGIN { if (p > 0) printf "%.3f", a / p }')
        fi
      fi
      if [[ -n "$old_pps" && -n "$old_allocs" ]]; then
        awk -v n="$name" -v np="$new_pps" -v op="$old_pps" -v na="$new_allocs" -v oa="$old_allocs" \
            -v npp="${new_app:-0}" -v opp="${old_app:-0}" \
          'BEGIN { printf "      {\"name\": \"%s\", \"points_per_sec\": %.2f, \"allocs_per_op\": %.2f, \"allocs_per_point\": %.2f},\n", \
                   n, (op > 0) ? np / op : 0, (oa > 0) ? na / oa : 0, (opp > 0) ? npp / opp : 0 }'
      fi
    done < "$tmp/bench.jsonl" | sed '$ s/,$//'
    echo '    ]'
    echo '  },'
  fi
  echo "  \"go\": \"$(go env GOVERSION)\","
  echo "  \"goos\": \"$(go env GOOS)\","
  echo "  \"goarch\": \"$(go env GOARCH)\","
  echo "  \"note\": \"regenerate with scripts/bench-baseline.sh $out and compare on the same machine; delta_vs ratios are new/old\""
  echo '}'
} > "$out"

echo "bench-baseline: wrote $out" >&2
