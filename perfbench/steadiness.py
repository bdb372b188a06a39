#!/usr/bin/env python3
"""Steadiness evidence for the benchmark in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs N] [--seeds 1,2] [--distinct K]
        [--sets S] [--workloads cold_std,warm_fine,served_mix]

Run it from the root of a checkout. For every workload it runs the
benchmark N times on each listed seed (a development seed and a held-out
seed by default), then S sets of K runs with distinct seeds, and prints
each end-to-end metric's spread -- the interquartile range as a share of
the median, from statistics.quantiles(values, n=4) -- against the
metric's bound. With S > 1 it also prints how far each later set's
median moved from the first set's, against the same bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        failed = [l for l in lines if l.startswith("CHECK FAILED")]
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n" + "\n".join(failed))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"    run {workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return values


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q[2] - q[0]) / med if med else 0.0


def report(label, runs, bounds):
    print(f"{label} ({len(runs)} runs)")
    for name, bound in bounds.items():
        med, s = spread([r[name] for r in runs])
        verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "OVER BOUND")
        print(f"  {name:<18} median {med:<14.6g} spread {s:7.4f}  bound {bound:<5} {verdict}")


def compare(label, first, later, bounds, better):
    print(label)
    for name, bound in bounds.items():
        a = statistics.median(r[name] for r in first)
        b = statistics.median(r[name] for r in later)
        shift = (b - a) / a if a else 0.0
        worse = shift if better[name] == "lower" else -shift
        verdict = "ok" if worse <= bound / 3 else ("within bound" if worse <= bound else "OVER BOUND")
        print(f"  {name:<18} median {a:<12.6g} -> {b:<12.6g} shift {shift:+7.4f}  bound {bound:<5} {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--distinct", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for w in workloads:
        for seed in [int(s) for s in args.seeds.split(",") if s]:
            runs = [run_once(w, seed, bench["run_seconds"]) for _ in range(args.runs)]
            report(f"{w} seed {seed}", runs, bounds)
        if args.distinct >= 4:
            sets = []
            for k in range(args.sets):
                runs = [run_once(w, 100 + i, bench["run_seconds"]) for i in range(args.distinct)]
                report(f"{w} set {k + 1}, distinct seeds 100..{99 + args.distinct}", runs, bounds)
                if sets:
                    compare(f"{w} set {k + 1} against set 1", sets[0], runs, bounds, better)
                sets.append(runs)
                sys.stdout.flush()
        sys.stdout.flush()


if __name__ == "__main__":
    main()
