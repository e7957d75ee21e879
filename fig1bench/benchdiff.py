#!/usr/bin/env python3
"""Compare two sets of fig1bench runs.

    python3 fig1bench/benchdiff.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are directories (or single files) of saved run outputs: the
stdout of `fig1bench/run.py`, one file per run (fig1bench/sweep.py writes
them). For every workload and metric the script prints each side's median
and first/third quartiles, the median move, and a verdict:

  REGRESSION  the median moved the wrong way by more than the metric's
              bound in BENCHMARK.json
  improved    it moved the right way by more than the bound
  unresolved  either side's run-to-run spread (IQR / median) exceeds the
              bound, so the comparison cannot resolve a move that size
  ok          within the bound
  -           per-layer metric: no bound, medians shown for reading

Exit status 1 when any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    """{workload: {metric: [values]}} plus units, from saved run outputs."""
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, name) for name in os.listdir(path))
    values, units = {}, {}
    for name in files:
        with open(name) as f:
            lines = [line for line in f if line.strip()]
        workload, result = None, None
        for line in lines:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if "context" in obj:
                workload = obj["context"]["workload"]
            if "metrics" in obj and "correct" in obj:
                result = obj
        if workload is None or result is None:
            continue
        for metric, m in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(metric, []).append(
                m["value"])
            units[metric] = m["unit"]
    return values, units


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, bound, better):
    if bound is None:
        return "-"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    _, mb, _ = quartiles(base)
    _, mn, _ = quartiles(new)
    if not mb:
        return "ok"
    move = (mn - mb) / abs(mb)
    worse = move > 0 if better == "lower" else move < 0
    if abs(move) > bound:
        return "REGRESSION" if worse else "improved"
    return "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    base, units = load_runs(args.base)
    new, new_units = load_runs(args.new)
    units.update(new_units)
    regressed = False
    print("%-13s %-32s %-10s %-34s %-34s %8s  %s" % (
        "workload", "metric", "unit", "base median [q1, q3]",
        "new median [q1, q3]", "move", "verdict"))
    for workload in sorted(set(base) | set(new)):
        metrics = sorted(set(base.get(workload, {})) | set(new.get(workload, {})))
        for metric in metrics:
            a = base.get(workload, {}).get(metric)
            b = new.get(workload, {}).get(metric)
            if not a or not b:
                print("%-13s %-32s missing on one side" % (workload, metric))
                continue
            qa, qb = quartiles(a), quartiles(b)
            move = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            bound, better = bounds.get(metric, (None, None))
            v = verdict(a, b, bound, better)
            regressed |= v == "REGRESSION"
            print("%-13s %-32s %-10s %-34s %-34s %+7.1f%%  %s" % (
                workload, metric, units.get(metric, ""),
                "%.4g [%.4g, %.4g]" % (qa[1], qa[0], qa[2]),
                "%.4g [%.4g, %.4g]" % (qb[1], qb[0], qb[2]),
                move * 100, v))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
