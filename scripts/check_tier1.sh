#!/usr/bin/env bash
# Tier-1 verification: the exact verify line from ROADMAP.md, with an
# optional sanitizer toggle, followed by a sanitized pass over the
# fault-injection/durability suite (`ctest -L fault`) and the blockmodel
# kernel suites.
#
# Usage: scripts/check_tier1.sh [BUILD_DIR]
#   HSBP_SANITIZE=address,undefined scripts/check_tier1.sh build-asan
#
# Environment:
#   HSBP_SANITIZE     comma-separated sanitizer list forwarded as
#                     -DHSBP_SANITIZE=... (empty = plain build)
#   HSBP_SKIP_FAULT   set to 1 to skip the extra sanitized stage over
#                     the fault-test and kernel suites (it is also
#                     skipped when HSBP_SANITIZE is set, since the whole
#                     suite is sanitized then)
#   HSBP_SKIP_TSAN    set to 1 to skip the thread-sanitized pass over
#                     the async/hybrid- and serve-labelled parallel
#                     suites (also skipped when HSBP_SANITIZE is set —
#                     TSan cannot combine with the address/leak
#                     runtimes)
#   HSBP_SKIP_SERVE   set to 1 to skip the serve smoke stage (daemon on
#                     an ephemeral socket + concurrent-load bench)
#   HSBP_TSAN_THREADS OpenMP thread count for the TSan stage (default
#                     4: races need real concurrency even on single-CPU
#                     machines, where OpenMP would otherwise run one
#                     thread and TSan would have nothing to observe)
#   HSBP_JOBS         build/test parallelism (default: nproc; a bare
#                     `-j` spawns every job at once and thrashes small
#                     machines)
#   HSBP_SKIP_SIMD    set to 1 to skip the forced-dispatch stage that
#                     reruns the kernel bit-identity tests under
#                     HSBP_SIMD=scalar and under the best vector path
#                     the host supports (the env override is the same
#                     knob users have, so this also audits the
#                     dispatch plumbing itself)
#   HSBP_SKIP_OOC     set to 1 to skip the out-of-core smoke stage
#                     (generate → convert → mmap fit in separate
#                     processes with a peak-RSS budget assertion, plus
#                     an ASan pass over the convert/fit pipeline and
#                     the ooc-labelled tests)
#   HSBP_BENCH_SMOKE  set to 1 to also run the bm_kernels suite briefly
#                     (--benchmark_min_time=0.05) after the tests, plus
#                     a fig7 strong-scaling smoke at 1 and 2 threads —
#                     a smoke check that the bench harness still builds
#                     and runs, not a measurement (use
#                     scripts/bench_kernels.sh for real numbers)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="${HSBP_JOBS:-$(nproc)}"
CMAKE_FLAGS=()
if [[ -n "${HSBP_SANITIZE:-}" ]]; then
  CMAKE_FLAGS+=("-DHSBP_SANITIZE=${HSBP_SANITIZE}")
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_FLAGS[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

# Stage 2: rebuild the fault-labelled tests under ASan/UBSan — the
# checkpoint/durability suite plus the ServeFault* torture tests
# (torn/oversized frames, injected disconnects, shed/reap paths).
# Checkpoint and frame-I/O bugs are exactly the kind that only a
# sanitizer catches (use-after-close, torn buffers). The same build
# then runs the matrix, kernel-equivalence, delta-apply, build-order
# and scratch-reuse suites: the blockmodel's dense cell mirror (DESIGN
# §10) is raw strided indexing into a C×C array, read by every ΔMDL,
# Hastings and merge kernel, and the gather's and the build's per-block
# tallies are raw int32 arrays indexed by block id without bounds
# checks, sized from the block count.
if [[ -z "${HSBP_SANITIZE:-}" && "${HSBP_SKIP_FAULT:-0}" != "1" ]]; then
  FAULT_DIR="${BUILD_DIR}-fault-asan"
  cmake -B "$FAULT_DIR" -S . -DHSBP_SANITIZE=address,undefined
  cmake --build "$FAULT_DIR" -j "$JOBS"
  (cd "$FAULT_DIR" && ctest --output-on-failure -j "$JOBS" -L fault)
  "$FAULT_DIR/tests/test_blockmodel" \
    --gtest_filter='DictTransposeMatrix*:*KernelEquivalence*:*BuildSliceOrder*:*MoveScratchReuse*'
  "$FAULT_DIR/tests/test_sbp" --gtest_filter='*DeltaApplyBitIdentity*'
fi

# Stage 3: rebuild the async/hybrid- and serve-labelled parallel
# suites under TSan — the single-writer-per-vertex/move-log protocol
# (DESIGN §11) and the serve snapshot-swap contract (DESIGN §12) are
# exactly the kind of claims only a thread sanitizer can audit. Runs
# with a fixed OpenMP thread count so single-CPU machines still get
# real interleavings.
if [[ -z "${HSBP_SANITIZE:-}" && "${HSBP_SKIP_TSAN:-0}" != "1" ]]; then
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . -DHSBP_SANITIZE=thread
  cmake --build "$TSAN_DIR" -j "$JOBS"
  (cd "$TSAN_DIR" &&
   OMP_NUM_THREADS="${HSBP_TSAN_THREADS:-4}" \
     ctest --output-on-failure -j "$JOBS" -L 'async|serve')
fi

# Stage 3a: forced-dispatch bit-identity — rerun the kernel equivalence
# and SIMD suites with HSBP_SIMD pinned to scalar, then to the best
# vector level the host supports (DESIGN §13). The suites also force
# levels internally via set_level(); running them under both env
# overrides additionally proves the HSBP_SIMD startup plumbing resolves
# and clamps correctly on this host. The whole-chain equivalence and
# Hastings-bound suites run under both levels too: early rejection
# (DESIGN §10) compares its bound against the SIMD-reduced correction.
if [[ "${HSBP_SKIP_SIMD:-0}" != "1" ]]; then
  # "avx2" is a request for the highest level; on hosts without AVX2 the
  # dispatcher clamps it down to the best supported vector path (with a
  # warning), which is exactly the level we want audited.
  for simd_level in scalar avx2; do
    echo "== kernel bit-identity under HSBP_SIMD=$simd_level =="
    HSBP_SIMD="$simd_level" "$BUILD_DIR/tests/test_blockmodel" \
      --gtest_filter='XlogxTable.*:*KernelEquivalence*:Simd*:*SimdKernel*'
    HSBP_SIMD="$simd_level" "$BUILD_DIR/tests/test_sbp" \
      --gtest_filter='*ChainEquivalence*:*HastingsBound*'
  done
fi

# Stage 3b: serve smoke — start the real daemon on an ephemeral Unix
# socket, run the concurrent-load bench against it in smoke mode (>= 4
# client threads querying while edge batches refit), and require a
# clean SIGTERM drain (exit 0). This is the end-to-end path no unit
# test covers: real binary, real signals, real sockets.
#
# The daemon runs with --max-sessions 5 (the bench's 4 clients + its
# control connection fill the cap exactly) so the bench's overload
# probes (--overload 2) are shed deterministically with `ERR busy
# retry-after`, and its retrying client must ride the busy period out —
# the load-shedding and client-retry paths covered end to end, with the
# shed rate and healthy-client p99 in the bench's JSON.
if [[ "${HSBP_SKIP_SERVE:-0}" != "1" ]]; then
  cmake --build "$BUILD_DIR" -j "$JOBS" --target hsbp_cli ext_serving
  SERVE_SOCK="$(mktemp -u /tmp/hsbp_smoke_XXXXXX.sock)"
  SERVE_GRAPH_DIR="$(mktemp -d /tmp/hsbp_smoke_graph_XXXXXX)"
  trap 'rm -rf "$SERVE_SOCK" "$SERVE_GRAPH_DIR"' EXIT
  "$BUILD_DIR/tools/hsbp" generate --suite synthetic --scale 0.0005 \
      --only S2 --outdir "$SERVE_GRAPH_DIR"
  "$BUILD_DIR/tools/hsbp" serve "$SERVE_GRAPH_DIR/S2.mtx" \
      --socket "$SERVE_SOCK" --seed 3 --max-sessions 5 &
  SERVE_PID=$!
  for _ in $(seq 1 300); do [[ -S "$SERVE_SOCK" ]] && break; sleep 0.1; done
  [[ -S "$SERVE_SOCK" ]] || { kill "$SERVE_PID" 2>/dev/null; \
      echo "serve smoke: daemon never bound its socket" >&2; exit 1; }
  HSBP_BENCH_SMOKE=1 "$BUILD_DIR/bench/ext_serving" \
      --socket "$SERVE_SOCK" --graph S2 --clients 4 --batches 2 \
      --overload 2
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"  # set -e: a non-zero drain fails the stage
  echo "serve smoke: clean drain (overload probes shed and retried)"
fi

# Stage 3c: out-of-core smoke — generate → convert → mmap fit, each in
# its own process (ru_maxrss is a per-process high-water mark, so the
# fit's number is clean of the generator's footprint). Asserts the
# budget actually split the graph (pieces >= 2) and that peak RSS
# stayed within budget × 4 plus a fixed process allowance (binary +
# OpenMP runtime + O(V) bookkeeping — the budget bounds the graph
# working set, not the process baseline). Then repeats convert + fit
# and the ooc-labelled tests under the stage-2 ASan build: mmap'd
# reads, the chunked model build, and the stitch paths are exactly
# where an out-of-bounds read would hide.
if [[ "${HSBP_SKIP_OOC:-0}" != "1" ]]; then
  cmake --build "$BUILD_DIR" -j "$JOBS" --target hsbp_cli
  OOC_SMOKE_DIR="$(mktemp -d /tmp/hsbp_ooc_smoke_XXXXXX)"
  OOC_BUDGET_MB=1
  "$BUILD_DIR/tools/hsbp" generate --suite synthetic --scale 0.03 \
      --only S13 --outdir "$OOC_SMOKE_DIR"
  "$BUILD_DIR/tools/hsbp" convert "$OOC_SMOKE_DIR/S13.mtx" \
      "$OOC_SMOKE_DIR/S13.csr"
  "$BUILD_DIR/tools/hsbp" fit "$OOC_SMOKE_DIR/S13.csr" \
      --memory-budget-mb "$OOC_BUDGET_MB" --seed 3 --json \
      > "$OOC_SMOKE_DIR/fit.json"
  python3 - "$OOC_SMOKE_DIR/fit.json" "$OOC_BUDGET_MB" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
budget_mb = int(sys.argv[2])
assert doc["pieces"] >= 2, f"budget did not split the graph: {doc}"
limit_kb = budget_mb * 1024 * 4 + 32768
assert doc["peak_rss_kb"] <= limit_kb, \
    f"peak RSS {doc['peak_rss_kb']} KiB over limit {limit_kb} KiB: {doc}"
print(f"ooc smoke: {doc['pieces']} pieces, {doc['blocks']} blocks, "
      f"peak RSS {doc['peak_rss_kb']} KiB <= {limit_kb} KiB")
EOF
  if [[ -z "${HSBP_SANITIZE:-}" && "${HSBP_SKIP_FAULT:-0}" != "1" ]]; then
    FAULT_DIR="${BUILD_DIR}-fault-asan"
    cmake --build "$FAULT_DIR" -j "$JOBS" --target hsbp_cli
    "$FAULT_DIR/tools/hsbp" convert "$OOC_SMOKE_DIR/S13.mtx" \
        "$OOC_SMOKE_DIR/S13_asan.csr"
    "$FAULT_DIR/tools/hsbp" fit "$OOC_SMOKE_DIR/S13_asan.csr" \
        --memory-budget-mb "$OOC_BUDGET_MB" --seed 3 --json > /dev/null
    (cd "$FAULT_DIR" && ctest --output-on-failure -j "$JOBS" -L ooc)
    echo "ooc smoke: ASan convert/fit and ooc-labelled tests clean"
  fi
  rm -rf "$OOC_SMOKE_DIR"
fi

# Stage 4 (opt-in): bench smoke — every kernel bench must still build
# and complete. Short min_time on purpose: this guards against bit-rot
# in the bench harness, not performance (see scripts/bench_kernels.sh).
# Note the bare-number min_time: older google-benchmark releases reject
# the "0.05s" suffix spelling.
if [[ "${HSBP_BENCH_SMOKE:-0}" == "1" ]]; then
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bm_kernels \
    fig7_strong_scaling
  "$BUILD_DIR/bench/bm_kernels" --benchmark_min_time=0.05
  # fig7 smoke at 1 and 2 threads, one degree-aware schedule: the
  # tracked-benchmark path (--json + --schedule) must stay runnable.
  FIG7_SMOKE_JSON="$(mktemp)"
  "$BUILD_DIR/bench/fig7_strong_scaling" --scale 0.001 --runs 1 \
      --max-threads 2 --schedule degree-sorted --json "$FIG7_SMOKE_JSON"
  python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert [e['threads'] for e in d['entries']] == [1, 2], d" "$FIG7_SMOKE_JSON"
  rm -f "$FIG7_SMOKE_JSON"
  echo "fig7 smoke: 1- and 2-thread entries OK"
fi
