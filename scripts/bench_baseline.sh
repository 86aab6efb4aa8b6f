#!/usr/bin/env bash
# Perf baseline: run the watermark hot-path bench, the eval-path kernel
# bench, and the serving-stack smoke bench, then assemble one JSON
# document (machine info, kernel dispatch level, per-phase timings in
# both ms and ns) for the repo's bench trajectory. BENCH_10.json at the
# repo root is a committed snapshot produced by this script; CI
# regenerates a fresh one per run and uploads it as an artifact so the
# trajectory has points per machine.
#
# Usage:
#   scripts/bench_baseline.sh                     # full run -> BENCH_10.json
#   scripts/bench_baseline.sh --quick             # small model, few repeats (CI)
#   scripts/bench_baseline.sh --out PATH          # custom output path
#   scripts/bench_baseline.sh --build-dir DIR     # custom build tree (default: build)
#   scripts/bench_baseline.sh --compare FILE      # diff the fresh run against a
#                                                 # committed baseline (BENCH_10.json);
#                                                 # exit 1 on a >15% regression in a
#                                                 # comparable pinned phase
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
OUT=BENCH_10.json
MODEL=""
REPEATS=5
QUICK=0
COMPARE_FILE=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --model) MODEL="$2"; shift 2 ;;
    --compare) COMPARE_FILE="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ -n "$COMPARE_FILE" && ! -f "$COMPARE_FILE" ]]; then
  echo "compare baseline not found: $COMPARE_FILE" >&2
  exit 2
fi

if [[ ! -x "$BUILD_DIR/bench_parallel_wm" || ! -x "$BUILD_DIR/bench_engine_throughput" \
      || ! -x "$BUILD_DIR/bench_eval_path" ]]; then
  echo "bench binaries missing; build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 2
fi

WM_ARGS=(--repeats "$REPEATS")
if [[ "$QUICK" == 1 ]]; then
  WM_ARGS=(--repeats 2 --model opt-125m-sim)
  if [[ -n "$COMPARE_FILE" ]]; then
    # Best-of-2 has not converged for the microsecond-scale score phase;
    # a regression gate needs settled numbers (the kernel bench is fast,
    # the quick savings are all in the engine bench's zoo training).
    WM_ARGS=(--repeats "$REPEATS" --model opt-125m-sim)
  fi
fi
if [[ -n "$MODEL" ]]; then
  WM_ARGS+=(--model "$MODEL")
fi

# The eval-path bench mirrors the WM bench's quick/compare logic: quick
# CI runs shrink the problem sizes, but a regression gate needs settled
# best-of-N numbers on the small model instead.
EVAL_ARGS=(--repeats "$REPEATS")
if [[ "$QUICK" == 1 ]]; then
  EVAL_ARGS=(--quick --model opt-125m-sim)
  if [[ -n "$COMPARE_FILE" ]]; then
    EVAL_ARGS=(--repeats "$REPEATS" --model opt-125m-sim)
  fi
fi
if [[ -n "$MODEL" ]]; then
  EVAL_ARGS+=(--model "$MODEL")
fi

echo "[bench_baseline] bench_parallel_wm ${WM_ARGS[*]}" >&2
WM_JSON=$("$BUILD_DIR/bench_parallel_wm" "${WM_ARGS[@]}" | sed -n 's/^JSON: //p')
echo "[bench_baseline] bench_eval_path ${EVAL_ARGS[*]}" >&2
EVAL_JSON=$("$BUILD_DIR/bench_eval_path" "${EVAL_ARGS[@]}" | sed -n 's/^JSON: //p')
echo "[bench_baseline] bench_engine_throughput --smoke" >&2
ENGINE_JSON=$("$BUILD_DIR/bench_engine_throughput" --smoke | sed -n 's/^JSON: //p')

WM_JSON="$WM_JSON" EVAL_JSON="$EVAL_JSON" ENGINE_JSON="$ENGINE_JSON" \
  OUT="$OUT" python3 - <<'EOF'
import json
import os
import platform
import subprocess

wm = json.loads(os.environ["WM_JSON"])
eval_path = json.loads(os.environ["EVAL_JSON"])
engine = json.loads(os.environ["ENGINE_JSON"])

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"

def git_head():
    try:
        return subprocess.check_output(
            ["git", "describe", "--always", "--dirty"], text=True).strip()
    except Exception:
        return "unknown"

# Headline phases: best thread row and best kernel row (fastest measured
# derive, not merely the widest ISA), ms and ns.
best_threads = min(wm["rows"], key=lambda r: r["derive_ms"])
kernels = {row["kernel"]: row for row in wm["kernels"]}
best_kernel = min(wm["kernels"], key=lambda r: r["derive_ms"])
scalar = kernels["scalar"]

def phases(row):
    out = {}
    for phase in ("derive", "extract", "score"):
        ms = row[f"{phase}_ms"]
        out[f"{phase}_ms"] = ms
        out[f"{phase}_ns"] = int(ms * 1e6)
    return out

# Eval-path headline: fastest kernel row by GEMM time, with speedups
# against the in-bench legacy references (the pre-kernel eval path).
eval_best = min(eval_path["kernels"], key=lambda r: r["gemm_ms"])

doc = {
    "bench_baseline_version": 10,
    "machine": {
        "os": f"{platform.system()} {platform.release()}",
        "arch": platform.machine(),
        "cpu": cpu_model(),
        "hardware_threads": wm["hardware_threads"],
    },
    "git_head": git_head(),
    "kernel_level": wm["kernel_default"],
    "summary": {
        "model": wm["model"],
        "best_kernel": dict(kernel=best_kernel["kernel"], **phases(best_kernel)),
        "scalar_kernel": dict(kernel="scalar", **phases(scalar)),
        "kernel_speedup": {
            "derive": round(scalar["derive_ms"] / best_kernel["derive_ms"], 3),
            "score": round(scalar["score_ms"] / best_kernel["score_ms"], 3),
        },
        "best_threads": dict(threads=best_threads["threads"], **phases(best_threads)),
        "eval_path": {
            "model": eval_path["model"],
            "best_kernel": eval_best["kernel"],
            "legacy_ms": eval_path["legacy"],
            "eval_speedup": {
                phase: round(eval_best[f"{phase}_speedup"], 3)
                for phase in ("gemm", "dequant", "dct", "ppl")
            },
            # Batched-eval + packed-int4 phases run at the default kernel
            # level; the gate below pins on kernel_level matching.
            "packed_int4_speedup": round(eval_path["packed_int4"]["speedup"], 3),
            "batched_eval_speedup": round(eval_path["batched_eval"]["speedup"], 3),
        },
    },
    "parallel_wm": wm,
    "eval_path": eval_path,
    "engine_throughput": engine,
}

with open(os.environ["OUT"], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"[bench_baseline] wrote {os.environ['OUT']}")
EOF

if [[ -n "$COMPARE_FILE" ]]; then
  # Regression gate against a committed baseline. Relative speedups
  # (scalar/SIMD ratios) are machine-portable, so they are compared
  # whenever the benched model matches; absolute phase timings are only
  # meaningful on the same CPU, so those are compared only when the CPU
  # string matches too. A fresh phase more than 15% worse than the
  # baseline fails the gate.
  OUT="$OUT" COMPARE_FILE="$COMPARE_FILE" python3 - <<'EOF'
import json
import os
import sys

with open(os.environ["OUT"]) as f:
    fresh = json.load(f)
with open(os.environ["COMPARE_FILE"]) as f:
    base = json.load(f)

# Speedup ratios (scalar/SIMD, legacy/dispatched) are self-normalizing:
# numerator and denominator drift together under CPU contention, so 15%
# is a tight, reliable tripwire. Absolute wall-clock timings on shared
# CI runners routinely swing 20-25% between identical runs, so they get
# a wider bound -- still enough to catch a real (2x-style) regression
# without tripping on a noisy neighbor.
TOLERANCE = 0.15
ABS_TOLERANCE = 0.50
checks = 0
failures = 0

def check(name, baseline, current, higher_is_better, tolerance=TOLERANCE):
    global checks, failures
    checks += 1
    if higher_is_better:
        regressed = current < baseline * (1.0 - tolerance)
        delta_pct = 100.0 * (current - baseline) / baseline
    else:
        regressed = current > baseline * (1.0 + tolerance)
        delta_pct = 100.0 * (current - baseline) / baseline
    verdict = "REGRESSION" if regressed else "ok"
    print(f"[bench_compare] {verdict:10s} {name}: baseline {baseline:g}, "
          f"fresh {current:g} ({delta_pct:+.1f}%)")
    if regressed:
        failures += 1

fresh_sum, base_sum = fresh["summary"], base["summary"]
same_model = fresh_sum["model"] == base_sum["model"]
same_cpu = fresh["machine"]["cpu"] == base["machine"]["cpu"]

# Comparable pinned phase = the same kernel level on both sides. The
# baseline's headline kernel may not even exist on this host (an avx512
# snapshot gating an sse2 CI lane), and a different fastest level would
# make best-vs-best a mismatched comparison -- so every check below pins
# the baseline's headline kernel row by name inside the fresh run and
# skips (with a message) when that level was not measured here.
base_kernel = base_sum["best_kernel"]["kernel"]
fresh_wm_rows = {r["kernel"]: r for r in fresh["parallel_wm"]["kernels"]}
pinned = fresh_wm_rows.get(base_kernel)

if same_model and pinned:
    fresh_scalar = fresh_wm_rows["scalar"]
    for phase in ("derive", "score"):
        check(f"kernel_speedup.{phase} [{base_kernel}]",
              base_sum["kernel_speedup"][phase],
              fresh_scalar[f"{phase}_ms"] / pinned[f"{phase}_ms"],
              higher_is_better=True)
elif not same_model:
    print(f"[bench_compare] model mismatch ({fresh_sum['model']} vs "
          f"{base_sum['model']}); skipping speedup checks")
else:
    print(f"[bench_compare] kernel level {base_kernel} not supported here; "
          "skipping speedup checks")

if same_model and same_cpu and pinned:
    for phase in ("derive", "extract", "score"):
        check(f"kernel.{base_kernel}.{phase}_ms",
              base_sum["best_kernel"][f"{phase}_ms"],
              pinned[f"{phase}_ms"],
              higher_is_better=False, tolerance=ABS_TOLERANCE)
else:
    print("[bench_compare] CPU, model, or kernel level differs from "
          "baseline; skipping absolute-timing checks")

# Eval-path gate: same pinning discipline against the eval bench's rows.
# ppl is reported but not gated (best-of-1/2 over a full test stream is
# too noisy for a 15% tripwire).
if "eval_path" in fresh and "eval_path" in base:
    fe, be = fresh["eval_path"], base["eval_path"]
    be_kernel = base_sum["eval_path"]["best_kernel"]
    be_rows = {r["kernel"]: r for r in be["kernels"]}
    fe_rows = {r["kernel"]: r for r in fe["kernels"]}
    fe_pinned = fe_rows.get(be_kernel)
    if fe["model"] == be["model"] and fe_pinned:
        for phase in ("gemm", "dequant", "dct"):
            check(f"eval.{phase}_speedup [{be_kernel}]",
                  be_rows[be_kernel][f"{phase}_speedup"],
                  fe_pinned[f"{phase}_speedup"],
                  higher_is_better=True)
        if same_cpu and fe.get("quick") == be.get("quick"):
            for phase in ("gemm", "dequant", "dct"):
                check(f"eval.{be_kernel}.{phase}_ms",
                      be_rows[be_kernel][f"{phase}_ms"],
                      fe_pinned[f"{phase}_ms"],
                      higher_is_better=False, tolerance=ABS_TOLERANCE)
    else:
        print("[bench_compare] eval-path model or kernel level differs; "
              "skipping eval-path checks")

    # Batched-eval and packed-int4 phases (this PR's additions) run at the
    # default dispatch level, so they are only comparable when both runs
    # dispatched the same level. Speedups are self-normalizing ratios;
    # absolute timings additionally need the same CPU and problem size.
    same_level = fresh["kernel_level"] == base["kernel_level"]
    if ("packed_int4" in fe and "packed_int4" in be and same_level
            and fe.get("quick") == be.get("quick")):
        check("eval.packed_int4_speedup",
              be["packed_int4"]["speedup"], fe["packed_int4"]["speedup"],
              higher_is_better=True)
        check("eval.batched_eval_speedup",
              be["batched_eval"]["speedup"], fe["batched_eval"]["speedup"],
              higher_is_better=True)
        if same_cpu:
            check("eval.packed_int4.packed_ms",
                  be["packed_int4"]["packed_ms"], fe["packed_int4"]["packed_ms"],
                  higher_is_better=False, tolerance=ABS_TOLERANCE)
            check("eval.batched_eval.merged_ms",
                  be["batched_eval"]["merged_ms"], fe["batched_eval"]["merged_ms"],
                  higher_is_better=False, tolerance=ABS_TOLERANCE)
    elif "packed_int4" in be:
        print("[bench_compare] kernel level or problem size differs; "
              "skipping packed-int4/batched-eval checks")
else:
    print("[bench_compare] baseline predates the eval-path bench; "
          "skipping eval-path checks")

if checks == 0:
    print("[bench_compare] nothing comparable against "
          f"{os.environ['COMPARE_FILE']}; gate passes vacuously")
elif failures:
    print(f"[bench_compare] FAILED: {failures} of {checks} checks regressed "
          "past tolerance")
    sys.exit(1)
else:
    print(f"[bench_compare] all {checks} checks within tolerance of "
          f"{os.environ['COMPARE_FILE']}")
EOF
fi
