#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload <precision-sweep|serve-closed> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from src/) into .bench_build/
at the repository root, then runs the benchmark binary. Its standard output
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}; the
line before it carries the run's comparability meta. --trace 1 runs the
traced variant, which reports the per-layer metrics and writes its spans to
.bench_build/traces/<workload>.json.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "scnn_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# Environment variables that steer the library's backend, sparsity and tile
# choices; the benchmark measures the defaults, so they are cleared.
STEERING_ENV = ("SCNN_BACKEND", "SCNN_SPARSITY", "SCNN_TUNE_FILE", "SCNN_POPCOUNT_SCALAR")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    BUILD_ROOT.mkdir(exist_ok=True)
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        tmp = BUILD_ROOT / "tmp"  # keep the compiler's temporary files in the checkout
        tmp.mkdir(exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp))
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "scnn_perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """sha256 over the paths and bytes of the library and benchmark sources."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["precision-sweep", "serve-closed"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.json")]
    env = {k: v for k, v in os.environ.items() if k not in STEERING_ENV}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"benchmark binary exited with {done.returncode}", done.returncode or 1)

    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if missing:
        fail(f"metrics differ from BENCHMARK.json: {sorted(missing)}", 1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
