#!/usr/bin/env python3
"""Fit each workload's elasticity to the reference kernel.

    python3 perfbench/elasticity.py OUT...

Each OUT is the saved standard output of one `run.py --trace 0` run. Make
runs at different host speeds, for example ten per workload spread over half
an hour. For each workload and each kind of pass (full, set-up), this fits a
least-squares slope of log(mean pass time) on log(mean reference-kernel
time), one point per run, and prints it with the correlation and the range
of kernel times covered. The slopes are what `Workload.elasticity` in
run.py holds.
"""

import sys

sys.dont_write_bytecode = True

import json
import math
import re
import statistics


def fit(xs, ys):
    """(slope, correlation) of the least-squares line of ys on xs."""
    mx, my = statistics.mean(xs), statistics.mean(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / sxx, sxy / math.sqrt(sxx * syy)


def run_points(text):
    """(workload, {kind: (log mean ref, log mean pass time)}) of one saved
    run, or None when it holds no passes line."""
    workload = re.search(r"^perfbench: (\S+) seed \d+: ", text, re.M)
    passes = re.search(r"^passes (\{.*\})$", text, re.M)
    if not workload or not passes:
        return None
    p = json.loads(passes.group(1))
    points = {}
    for kind in ("full", "setup"):
        raw = [r for r, _ in p[kind]]
        ref = [r for _, r in p[kind]]
        points[kind] = (math.log(statistics.mean(ref)), math.log(statistics.mean(raw)))
    return workload.group(1), points


def main(paths):
    by_workload = {}
    for path in paths:
        with open(path) as f:
            got = run_points(f.read())
        if got:
            by_workload.setdefault(got[0], []).append(got[1])
    for workload, runs in sorted(by_workload.items()):
        for kind in ("full", "setup"):
            xs = [r[kind][0] for r in runs]
            ys = [r[kind][1] for r in runs]
            if len(runs) < 3 or max(xs) == min(xs):
                print("%-15s %-5s too few runs" % (workload, kind))
                continue
            slope, rho = fit(xs, ys)
            print("%-15s %-5s elasticity %.2f  correlation %.2f  %d runs, kernel %.2f-%.2f s"
                  % (workload, kind, slope, rho, len(runs), math.exp(min(xs)), math.exp(max(xs))))


if __name__ == "__main__":
    main(sys.argv[1:])
