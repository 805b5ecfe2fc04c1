#!/usr/bin/env bash
# Full local CI: plain build + tests, then ASan(+UBSan) and TSan builds of
# the same suite, then the seeded chaos sweep (plain + TSan) and the docs checks.
# Each sanitizer uses its own build dir so the plain `build/` cache (and its
# generator choice) is never disturbed.
#
# Usage: scripts/check.sh [plain|novec|asan|tsan|chaos|resultcache|txn|sched|zerocopy|bench|docs|loc]...
# (default: all)
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

run_suite() {  # run_suite <build-dir> <extra-cmake-args...>
  local dir="$1"; shift
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  cmake --build "$ROOT/$dir" -j "$JOBS"
  ctest --test-dir "$ROOT/$dir" --output-on-failure
}

do_plain() { run_suite build; }
do_asan()  { run_suite build-asan -DBL_SANITIZE=address; }
do_tsan()  { run_suite build-tsan -DBL_SANITIZE=thread; }
do_docs()  { "$ROOT/scripts/check_metrics_doc.sh"; }

# Size of the library: lines of .cc and .h under src/, the net figure a
# change that deletes code should lower.
do_loc() {
  local lines
  lines=$(find "$ROOT/src" -type f \( -name '*.cc' -o -name '*.h' \) \
    -exec cat {} + | wc -l)
  echo "src/ .cc/.h lines: $lines"
}

# Expression-kernel correctness must never depend on the compiler actually
# vectorizing the flat loops: rebuild with auto-vectorization disabled and
# re-run the columnar/engine/kernel suites (join kernel, the kernels-vs-
# reference differential test, the group-by kernel's differential test and
# the optimizer's differential test included) against the same assertions.
do_novec() {
  local tests="columnar_test engine_test expr_kernels_test \
    expr_differential_test join_kernel_test aggregate_kernel_test \
    optimizer_test"
  cmake -B "$ROOT/build-novec" -S "$ROOT" \
    -DCMAKE_CXX_FLAGS=-fno-tree-vectorize
  # shellcheck disable=SC2086
  cmake --build "$ROOT/build-novec" -j "$JOBS" --target $tests
  for t in $tests; do
    "$ROOT/build-novec/tests/$t"
  done
}

# Zero-copy buffer suite (`ctest -L zerocopy`) plus the columnar/engine/
# cache suites and the chunked data flow, under ASan and TSan: shared-buffer
# views (and the engine's scan chunks) alias cached block storage across
# threads and must outlive eviction, so lifetime bugs show up as ASan
# use-after-free and unsynchronized refcount/counter traffic as TSan
# reports. Both caches keep their entries in the one shared core
# (cache/lru_shards.h) and hand batches out as shared views, so the result
# cache suite runs here too.
do_zerocopy() {
  for dir in build-asan build-tsan; do
    if [[ ! -d "$ROOT/$dir" ]]; then
      echo "zerocopy: $dir/ missing — run the asan/tsan stage first" >&2
      exit 1
    fi
    cmake --build "$ROOT/$dir" -j "$JOBS" \
      --target buffer_test string_column_test ipc_robustness_test \
      batch_transport_test columnar_test engine_test block_cache_test \
      cache_determinism_test result_cache_test chunked_flow_test
    ctest --test-dir "$ROOT/$dir" -L zerocopy --output-on-failure
    for t in columnar_test engine_test block_cache_test \
             cache_determinism_test result_cache_test chunked_flow_test; do
      "$ROOT/$dir/tests/$t"
    done
  done
}

# Bench smoke: every bench binary runs to completion and its acceptance
# thresholds hold; results aggregate into build/bench_results.json (the
# committed BENCH_PR*.json records are left untouched).
do_bench() {
  if [[ ! -d "$ROOT/build" ]]; then
    echo "bench: build/ missing — run the plain stage first" >&2
    exit 1
  fi
  "$ROOT/scripts/run_benches.sh"
}

# Seeded chaos sweep (`ctest -L chaos`), plain and under TSan: the sweep
# asserts seed-reproducible outcomes at every worker count, so racy retry
# or fault-accounting code shows up as a determinism diff here.
do_chaos() {
  for dir in build build-tsan; do
    if [[ ! -d "$ROOT/$dir" ]]; then
      echo "chaos: $dir/ missing — run the plain/tsan stage first" >&2
      exit 1
    fi
    ctest --test-dir "$ROOT/$dir" -L chaos --output-on-failure
  done
}

# Result-cache suite (`ctest -L resultcache`), plain and under TSan: key
# canonicality, every-commit-path invalidation, and worker-count-independent
# hit accounting (a racy hit path shows up as a determinism diff here).
do_resultcache() {
  for dir in build build-tsan; do
    if [[ ! -d "$ROOT/$dir" ]]; then
      echo "resultcache: $dir/ missing — run the plain/tsan stage first" >&2
      exit 1
    fi
    ctest --test-dir "$ROOT/$dir" -L resultcache --output-on-failure
  done
}

# Multi-table transaction suite (`ctest -L txn`), plain and under TSan:
# coordinator unit/integration tests plus the log-replay property suite.
# The concurrent-writer sweep lives under the chaos label; this stage covers
# the commit protocol itself (CAS conflicts, crash points, ordered apply).
do_txn() {
  for dir in build build-tsan; do
    if [[ ! -d "$ROOT/$dir" ]]; then
      echo "txn: $dir/ missing — run the plain/tsan stage first" >&2
      exit 1
    fi
    ctest --test-dir "$ROOT/$dir" -L txn --output-on-failure
  done
}

# Scheduler suite (`ctest -L sched`), plain and under TSan: admission/WFQ
# unit coverage, the 5k-query multi-tenant replay (bit-identical across runs
# and worker counts), and mid-scan cancellation races — cooperative-cancel
# checkpoints that read shared state racily show up as diffs or TSan reports.
do_sched() {
  for dir in build build-tsan; do
    if [[ ! -d "$ROOT/$dir" ]]; then
      echo "sched: $dir/ missing — run the plain/tsan stage first" >&2
      exit 1
    fi
    ctest --test-dir "$ROOT/$dir" -L sched --output-on-failure
  done
}

stages=("$@")
if [[ ${#stages[@]} -eq 0 ]]; then
  stages=(plain novec asan tsan chaos resultcache txn sched zerocopy bench docs loc)
fi

for stage in "${stages[@]}"; do
  echo "=== check: $stage ==="
  "do_$stage"
done
echo "=== all checks passed ==="
