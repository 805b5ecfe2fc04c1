#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs each workload as two sets of runs, seeds 1000, 1001, ... in each set,
alternating between the sets run by run so that a slow period of the host
reaches both alike. Per end-to-end metric it prints each set's median,
first and third quartiles and spread (Q3 - Q1) / median, as Python's
statistics.quantiles(values, n=4) gives them, and how much worse the second
set's median is than the first's, as a share of the first.

A spread above the metric's bound in BENCHMARK.json, or a drift between the
set medians above it, is flagged FAIL; one above a third of the bound WIDE.
setup_s is judged on drift only: its bound limits drift between medians,
not run-to-run spread. Every seed runs once in each set, so every sim_*
metric must also read bit-identically in both.

    python3 perfbench/steady.py                          # every workload, 2 x 10 runs
    python3 perfbench/steady.py --workloads tpcds_sql --runs 5

Exit code 1 when a run fails, a metric is flagged FAIL or a sim_* metric
does not repeat; 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 1000  # seed 4242 is held out, see README.md


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        print(f"  run {workload} seed {seed}: exit {proc.returncode}")
        for line in lines[-12:]:
            print("    " + line)
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        print(f"  run {workload} seed {seed}: incorrect result")
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        print(f"== {workload}: 2 sets of {args.runs} runs of {args.seconds} s")
        sets = ([], [])
        for i in range(args.runs):
            pair = [run_once(spec, workload, SEED_BASE + i, args.seconds)
                    for _ in sets]
            if None in pair:
                ok = False
                continue
            for s, m in zip(sets, pair):
                s.append(m)
            for m in metrics:
                name = m["name"]
                if name.startswith("sim_") and pair[0][name] != pair[1][name]:
                    print(f"  {name} differs for seed {SEED_BASE + i}: "
                          f"{pair[0][name]!r} vs {pair[1][name]!r}")
                    ok = False
        if len(sets[0]) < 2:
            ok = False
            continue
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>15} {'drift':>7} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            judged = []
            stats = []
            for s in sets:
                q1, med, q3 = statistics.quantiles([r[name] for r in s], n=4)
                spread = (q3 - q1) / med if med else float("inf")
                stats.append((med, q1, q3, spread))
                if name != "setup_s":
                    judged.append(spread)
            drift = worse_by(stats[0][0], stats[1][0], m["better"])
            judged.append(drift)
            flag = ""
            if max(judged) > bound:
                flag = "FAIL"
                ok = False
            elif max(judged) > bound / 3:
                flag = "WIDE"
            med, q1, q3, _ = stats[0]
            spreads = " / ".join(f"{st[3]:.3f}" for st in stats)
            print(f"  {name:<16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spreads:>15} {drift:7.3f} {bound:6.2f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
