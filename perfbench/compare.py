#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect --workload W --out DIR [--runs 10]
                                         [--first-seed 1] [--trace 0|1] [--seconds S]
    python3 perfbench/compare.py diff DIR_A [DIR_B]

`collect` runs perfbench/run.py once per seed and keeps each run's standard
output as DIR/<workload>-t<trace>-seed<n>.out.

`diff` reads every *.out in each directory, groups runs by (workload, trace)
and prints each metric's median and quartiles (statistics.quantiles, n=4)
and its spread, (q3 - q1) / median. With two directories it also prints the
change of the median from A to B and, for end-to-end metrics, whether it
stays within BENCHMARK.json's bound. It refuses to compare runs whose
comparability meta differ (everything but the seed and the source
identity), and it compares the share of failed operations exactly. Exit
status: 0 when every compared metric agrees, 1 when one does not, 2 when the
sets cannot be compared.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Meta that identifies a run rather than its shape; it may differ between
# comparable runs (the seeds always do, the source does across commits).
RUN_IDENTITY = {"seed", "git_sha", "source_digest"}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(args):
    spec = load_spec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds or spec["run_seconds"]
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        path = out / f"{args.workload}-t{args.trace}-seed{seed}.out"
        path.write_text(done.stdout)
        last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
        print(f"seed {seed}: exit {done.returncode} {last[0][:160]}", flush=True)
        if done.returncode != 0:
            return 1
    return 0


def read_set(directory):
    """{(workload, trace): [(meta, result), ...]} for every run in the directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.out")):
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        if len(lines) < 2:
            sys.exit(f"compare: {path} holds no result")
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
        runs.setdefault((meta["workload"], meta["trace"]), []).append((meta, result))
    if not runs:
        sys.exit(f"compare: no *.out runs in {directory}")
    return runs


def shape(meta):
    return {k: v for k, v in meta.items() if k not in RUN_IDENTITY}


def check_meta(groups, key):
    shapes = [shape(meta) for runs in groups for meta, _ in runs]
    for s in shapes[1:]:
        if s != shapes[0]:
            diff = sorted(k for k in set(s) | set(shapes[0]) if s.get(k) != shapes[0].get(k))
            print(f"REFUSE {key}: runs differ in comparability meta: {diff}")
            return False
    return True


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def failed_share(runs):
    return sorted({r["failed"] / r["attempted"] for _, r in runs})


def diff(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    a = read_set(args.a)
    b = read_set(args.b) if args.b else None
    status = 0
    for key in sorted(a):
        groups = [a[key]] + ([b[key]] if b and key in b else [])
        if b and key not in b:
            print(f"REFUSE {key}: missing from {args.b}")
            status = max(status, 2)
            continue
        if not check_meta(groups, key):
            status = max(status, 2)
            continue
        print(f"\n== {key[0]} (trace {key[1]}): {' vs '.join(str(len(g)) for g in groups)} runs")
        shares = [failed_share(g) for g in groups]
        print(f"   failed share: {' vs '.join(str(s) for s in shares)}")
        if any(not all(r["correct"] for _, r in g) for g in groups):
            print("   DISAGREE: a run reported correct=false")
            status = max(status, 1)
        if b and shares[0] != shares[1]:
            print("   DISAGREE: the share of failed operations differs")
            status = max(status, 1)
        names = sorted(groups[0][0][1]["metrics"])
        print(f"   {'metric':36} {'median':>14} {'q1':>12} {'q3':>12} {'spread':>7}"
              + (f"  {'B median':>14} {'change':>8}  verdict" if b else ""))
        for name in names:
            values = [[r["metrics"][name]["value"] for _, r in g] for g in groups]
            med, q1, q3, spread = stats(values[0])
            line = f"   {name:36} {med:14.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f}"
            bound = bounds.get(name, {}).get("bound")
            if b:
                med_b, _, _, spread_b = stats(values[1])
                change = (med_b - med) / med if med else 0.0
                worse = change if better.get(name) == "lower" else -change
                verdict = ""
                if bound is not None:
                    ok = abs(change) <= bound
                    verdict = ("agree" if ok else "DISAGREE") + f" (bound {bound})"
                    if not ok:
                        status = max(status, 1)
                    if worse > bound:
                        verdict += " B worse"
                line += f"  {med_b:14.6g} {change:+8.3f}  {verdict} B spread {spread_b:.3f}"
            elif bound is not None:
                line += f"   bound {bound}" + ("" if name == "setup_s" or spread <= bound / 3
                                               else "  spread above bound/3")
            print(line)
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c.add_argument("--seconds", type=float)
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b", nargs="?")
    args = ap.parse_args()
    sys.exit(collect(args) if args.cmd == "collect" else diff(args))


if __name__ == "__main__":
    main()
