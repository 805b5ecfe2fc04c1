#!/usr/bin/env bash
# Runs every bench_* binary in build/bench/ and aggregates their
# machine-readable output into one JSON-lines file (default
# build/bench_results.json, so a run never overwrites a committed
# BENCH_PR*.json record): each bench prints human tables plus
# `{"bench":...}` lines; only the JSON lines are collected. A bench exiting
# non-zero (a failed acceptance threshold) fails the script; pipefail keeps
# its exit code through the `| tee`.
#
# Usage: scripts/run_benches.sh [output-file]
#        (default: build/bench_results.json; pass BENCH_PR<n>.json to record)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${1:-$ROOT/build/bench_results.json}"
BENCH_DIR="$ROOT/build/bench"

if [[ ! -d "$BENCH_DIR" ]]; then
  echo "run_benches: $BENCH_DIR missing — build first (scripts/check.sh plain)" >&2
  exit 1
fi

: > "$OUT"
failed=0
for bin in "$BENCH_DIR"/bench_*; do
  [[ -x "$bin" && -f "$bin" ]] || continue
  name="$(basename "$bin")"
  echo "=== $name ==="
  log="$(mktemp)"
  if ! "$bin" | tee "$log"; then
    echo "FAILED: $name" >&2
    failed=1
  fi
  # Collect only the single-line JSON result records.
  grep -E '^\{"bench":' "$log" >> "$OUT" || true
  rm -f "$log"
done

echo
echo "aggregated $(wc -l < "$OUT") result lines into $OUT"
exit "$failed"
