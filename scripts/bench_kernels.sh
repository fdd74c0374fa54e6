#!/usr/bin/env bash
# Kernel perf-regression harness: runs the bm_kernels google-benchmark
# suite with repetitions, aggregates min-of-N per kernel (minimum is the
# right statistic on a noisy shared host: it approaches the true cost
# from above and is immune to load spikes), records each kernel's noise
# floor, reruns kernels whose noise floor exceeds the threshold with
# doubled repetitions, folds in the fig7 strong-scaling per-thread
# entries and the out-of-core RSS/quality bench, and writes
# BENCH_kernels.json. Speedups that sit inside a kernel's own noise
# floor are stamped "inconclusive": they are not results.
#
# Usage: scripts/bench_kernels.sh [BUILD_DIR]
#
# Environment:
#   HSBP_BENCH_BEFORE   optional path to a google-benchmark JSON file
#                       from a baseline build (e.g. produced by running
#                       bm_kernels --benchmark_format=json in a worktree
#                       at the pre-optimization commit). When set, the
#                       output records before/after/speedup per kernel;
#                       otherwise the previous BENCH_kernels.json's
#                       "after" numbers are reused as the baseline so
#                       successive runs catch regressions.
#   HSBP_BENCH_REPS     benchmark repetitions per kernel (default 5);
#                       after_ns is the minimum across repetitions and
#                       noise_pct = (max-min)/min*100 is the recorded
#                       per-kernel noise floor for that run.
#   HSBP_BENCH_NOISE_PCT  noise threshold in percent (default 40):
#                       kernels noisier than this after the first pass
#                       are rerun with 2x repetitions and the pooled
#                       timings replace the first pass's.
#   HSBP_BENCH_MIN_TIME benchmark --benchmark_min_time value per
#                       repetition. Plain seconds as a bare number
#                       (older google-benchmark releases reject the
#                       "0.2s" suffix form).
#   HSBP_BENCH_OUT      output path (default: BENCH_kernels.json)
#   HSBP_BENCH_SKIP_FIG7  set to 1 to skip the fig7 strong-scaling
#                       sweep (kernel-only refresh; the previous fig7
#                       block is carried forward unchanged).
#   HSBP_FIG7_SCALE     fig7 dataset scale (default 0.005)
#   HSBP_FIG7_RUNS      fig7 best-of runs per thread count (default 2)
#   HSBP_FIG7_MAX_THREADS  fig7 sweep upper bound (default 8: records
#                       entries at 1/2/4/8 threads)
#   HSBP_BENCH_SKIP_OOC set to 1 to skip the ext_outofcore stage (the
#                       previous "ooc" block is carried forward).
#   HSBP_OOC_SCALE      out-of-core dataset scale (default 0.05)
#   HSBP_OOC_BUDGET_MB  out-of-core memory budget in MiB (default 1)
#   HSBP_OOC_SEED       out-of-core bench seed (default 3)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
MIN_TIME="${HSBP_BENCH_MIN_TIME:-0.2}"
REPS="${HSBP_BENCH_REPS:-5}"
NOISE_PCT="${HSBP_BENCH_NOISE_PCT:-40}"
OUT="${HSBP_BENCH_OUT:-BENCH_kernels.json}"
RAW="$(mktemp)"
RERUN="$(mktemp)"
FIG7_JSON="$(mktemp)"
OOC_JSON="$(mktemp)"
trap 'rm -f "$RAW" "$RERUN" "$FIG7_JSON" "$OOC_JSON"' EXIT

cmake --build "$BUILD_DIR" -j "$(nproc)" --target bm_kernels \
  fig7_strong_scaling ext_outofcore >&2

"$BUILD_DIR/bench/bm_kernels" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions="$REPS" \
  --benchmark_format=json > "$RAW"

# Second pass for kernels whose first-pass spread exceeds the noise
# threshold: doubled repetitions, pooled with the first pass (the min
# only improves; the recorded noise floor is the pooled spread).
NOISY_FILTER="$(python3 - "$RAW" "$NOISE_PCT" <<'EOF'
import json, re, sys
raw_path, threshold = sys.argv[1], float(sys.argv[2])
runs = {}
for b in json.load(open(raw_path))["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue
    runs.setdefault(b["name"], []).append(b["real_time"])
noisy = [n for n, t in runs.items()
         if (max(t) - min(t)) / min(t) * 100.0 > threshold]
if noisy:
    print("^(" + "|".join(re.escape(n) for n in noisy) + ")$")
EOF
)"
if [[ -n "$NOISY_FILTER" ]]; then
  echo "rerunning noisy kernels (noise > ${NOISE_PCT}%): $NOISY_FILTER" >&2
  "$BUILD_DIR/bench/bm_kernels" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions="$((REPS * 2))" \
    --benchmark_filter="$NOISY_FILTER" \
    --benchmark_format=json > "$RERUN"
else
  : > "$RERUN"
fi

# Fig. 7 strong scaling (async-pass thread sweep on the skewed-degree
# soc-Slashdot0902 surrogate).
if [[ "${HSBP_BENCH_SKIP_FIG7:-0}" != "1" ]]; then
  "$BUILD_DIR/bench/fig7_strong_scaling" \
    --scale "${HSBP_FIG7_SCALE:-0.005}" \
    --runs "${HSBP_FIG7_RUNS:-2}" \
    --max-threads "${HSBP_FIG7_MAX_THREADS:-8}" \
    --json "$FIG7_JSON" >&2
else
  : > "$FIG7_JSON"
fi

# Out-of-core fit vs in-memory baseline: peak RSS, stage timings, NMI.
# ext_outofcore re-execs itself per fit, so its children's ru_maxrss is
# clean of this harness's footprint by construction.
if [[ "${HSBP_BENCH_SKIP_OOC:-0}" != "1" ]]; then
  "$BUILD_DIR/bench/ext_outofcore" \
    --scale "${HSBP_OOC_SCALE:-0.05}" \
    --seed "${HSBP_OOC_SEED:-3}" \
    --budget-mb "${HSBP_OOC_BUDGET_MB:-1}" \
    --json "$OOC_JSON" >&2
else
  : > "$OOC_JSON"
fi

python3 - "$RAW" "$RERUN" "$OUT" "$FIG7_JSON" "$OOC_JSON" <<'EOF'
import json
import subprocess
import sys
import os

raw_path, rerun_path, out_path, fig7_path, ooc_path = sys.argv[1:6]

# Min-of-N across repetitions per kernel, plus the spread as the noise
# floor: a "speedup" smaller than the noise floor is not a result.
# Kernels that earned a doubled-repetition rerun pool both passes.
runs = {}
for b in json.load(open(raw_path))["benchmarks"]:
    if b.get("run_type", "iteration") != "iteration":
        continue  # skip _mean/_median/_stddev aggregate rows
    runs.setdefault(b["name"], []).append(b["real_time"])
rerun_names = set()
if os.path.getsize(rerun_path):
    for b in json.load(open(rerun_path))["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        rerun_names.add(b["name"])
        runs.setdefault(b["name"], []).append(b["real_time"])
after = {}
noise = {}
for name, times in runs.items():
    after[name] = min(times)
    noise[name] = (max(times) - min(times)) / min(times) * 100.0

before = {}
carried = {}  # hand-maintained keys survive rewrites
before_src = os.environ.get("HSBP_BENCH_BEFORE", "")
generated = ("commit", "min_time_s", "repetitions", "baseline", "kernels",
             "fig7", "ooc")
fig7_prev = None
ooc_prev = None
if os.path.exists(out_path):
    previous = json.load(open(out_path))
    carried = {k: v for k, v in previous.items() if k not in generated}
    fig7_prev = previous.get("fig7")
    ooc_prev = previous.get("ooc")
    if not before_src:
        before = {k: v["after_ns"] for k, v in previous["kernels"].items()}
if before_src:
    before = {b["name"]: b["real_time"]
              for b in json.load(open(before_src))["benchmarks"]
              if b.get("run_type", "iteration") == "iteration"}

commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                        capture_output=True, text=True).stdout.strip()

kernels = {}
for name, ns in after.items():
    entry = {"after_ns": round(ns, 1), "noise_pct": round(noise[name], 1)}
    if name in rerun_names:
        entry["reruns"] = len(runs[name])
    if name in before:
        entry["before_ns"] = round(before[name], 1)
        entry["speedup"] = round(before[name] / ns, 2)
        # A delta inside the kernel's own noise floor is indistinguishable
        # from measurement jitter; don't let it read as a result.
        if abs(entry["speedup"] - 1.0) * 100.0 <= entry["noise_pct"]:
            entry["inconclusive"] = True
    kernels[name] = entry

fig7 = fig7_prev  # carry the previous sweep on HSBP_BENCH_SKIP_FIG7=1
if os.path.getsize(fig7_path):
    fig7 = json.load(open(fig7_path))

ooc = ooc_prev  # carry the previous result on HSBP_BENCH_SKIP_OOC=1
if os.path.getsize(ooc_path):
    ooc = json.load(open(ooc_path))

doc = {
    "commit": commit,
    "min_time_s": float(os.environ.get("HSBP_BENCH_MIN_TIME", "0.2")),
    "repetitions": int(os.environ.get("HSBP_BENCH_REPS", "5")),
    "baseline": before_src or (out_path if before else None),
    "kernels": kernels,
}
if fig7 is not None:
    doc["fig7"] = fig7
if ooc is not None:
    doc["ooc"] = ooc
doc.update(carried)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=False)
    f.write("\n")

width = max(len(n) for n in kernels)
for name, entry in kernels.items():
    line = (f"{name:<{width}}  after={entry['after_ns']:>12.1f} ns"
            f"  noise={entry['noise_pct']:>5.1f}%")
    if "speedup" in entry:
        line += f"  before={entry['before_ns']:>12.1f} ns  ({entry['speedup']}x)"
    if entry.get("inconclusive"):
        line += "  [inconclusive]"
    print(line)
if os.path.getsize(fig7_path):
    row = "  ".join(f"{e['threads']}t={e['mcmc_s']:.3f}s"
                    for e in fig7["entries"])
    print(f"fig7  {row}")
if ooc is not None and os.path.getsize(ooc_path):
    print(f"ooc[{ooc['graph']}]  rss {ooc['ooc']['peak_rss_kb']:.0f}/"
          f"{ooc['inmem']['peak_rss_kb']:.0f} KiB "
          f"({ooc['rss_ratio']:.2f}x)  nmi {ooc['ooc']['nmi']:.3f} vs "
          f"inmem {ooc['inmem']['nmi']:.3f}")
print(f"wrote {out_path}")
EOF
