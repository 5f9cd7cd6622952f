#!/usr/bin/env python3
"""Steadiness check for the served-store benchmark.

    python3 perfbench/steady.py --builds A [B] --runs N [--seconds S]
                                [--workloads W ...] [--seed-base K]

A and B are checkout directories (pass the same directory twice to check
the benchmark against itself; pass one to measure only its spreads). For every workload, run i uses seed K+i on
both builds, and the order alternates run by run (A first on even runs,
B first on odd ones). Beside each run it prints a host-speed reference:
a fixed loop in this file, timed before and after the run. The reference
is printed only; it is not a metric and corrects nothing.

At the end it prints, per workload and end-to-end metric, each build's
median and quartiles, the spread (quartile distance over the median) and
the median difference in the metric's worse direction, and marks with
'!' any spread or worse-difference beyond the metric's bound in
BENCHMARK.json (setup_s is exempt from the spread mark). It also checks
that both builds failed the same share of attempted operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def spin_ms():
    """A fixed integer loop: the host-speed reference."""
    t = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i & 7
    return (time.perf_counter() - t) * 1e3


def run_one(build, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = spin_ms()
    t = time.perf_counter()
    p = subprocess.run(cmd, cwd=build, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t
    after = spin_ms()
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if p.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d in %s" % (workload, seed, build))
    return result, wall, before, after


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--builds", nargs="+", required=True, metavar="DIR")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workloads", nargs="*", default=None)
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args()
    with open(os.path.join(args.builds[0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    if len(args.builds) > 2:
        ap.error("--builds takes one or two directories")
    sides = tuple(range(len(args.builds)))
    results = {(w, side): [] for w in workloads for side in sides}
    for i in range(args.runs):
        for w in workloads:
            order = sides if i % 2 == 0 else tuple(reversed(sides))
            for side in order:
                seed = args.seed_base + i
                res, wall, before, after = run_one(args.builds[side], w, seed, seconds)
                results[(w, side)].append(res)
                m = res["metrics"]
                print("run %2d %-15s %s seed %d  wall %5.1fs  host-ref %.0f/%.0f ms  failed %d/%d  %s"
                      % (i, w, "AB"[side], seed, wall, before, after, res["failed"], res["attempted"],
                         " ".join("%s=%.4g" % (k, v["value"]) for k, v in m.items())), flush=True)
    bad = 0
    for w in workloads:
        print("\n%s" % w)
        print("  %-30s %-34s %-34s %8s %8s %8s %6s" % ("metric", "A median [q1, q3]", "B median [q1, q3]",
                                                     "spreadA", "spreadB", "worse", "bound"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = []
            for side in (0, 1) if len(sides) == 2 else (0, 0):
                vals = [r["metrics"][name]["value"] for r in results[(w, side)]]
                q1, med, q3 = quartiles(vals)
                stats.append((q1, med, q3, (q3 - q1) / med if med else float("inf")))
            (a1, am, a3, sa), (b1, bm, b3, sb) = stats
            worse = (bm - am) / am if m["better"] == "lower" else (am - bm) / am
            marks = ""
            if name != "setup_s" and (sa > bound or sb > bound):
                marks += "!spread "
            if worse > bound:
                marks += "!worse"
            bad += bool(marks)
            print("  %-30s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g] %8.3f %8.3f %8.3f %6.2f %s"
                  % (name, am, a1, a3, bm, b1, b3, sa, sb, worse, bound, marks))
        first = results[(w, 0)][0]
        same = all(first["failed"] * r["attempted"] == r["failed"] * first["attempted"]
                   for side in sides for r in results[(w, side)])
        print("  failed share identical in every run: %s" % same)
        bad += not same
    print("\n%s" % ("all within bounds" if bad == 0 else "%d marks" % bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
