#!/usr/bin/env python3
"""Run fig1bench over several seeds and report run-to-run spread.

    python3 fig1bench/sweep.py --workloads enroll,control --seeds 1-10 \
        --seconds 20 --trace 0 --out .bench_build/runs/base

Each run's stdout is saved as <out>/<workload>-seed<n>.txt (the input
format of benchdiff.py). Afterwards, per workload and metric, the script
prints the median and the spread (IQR / median, quartiles as
statistics.quantiles(n=4) gives them) next to the metric's bound from
BENCHMARK.json; "steady" marks a spread below a third of the bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from benchdiff import load_runs, quartiles, spread  # noqa: E402


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default="enroll,enroll-ratls,control,dataplane")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            path = os.path.join(args.out, "%s-seed%d.txt" % (workload, seed))
            with open(path, "w") as f:
                f.write(proc.stdout)
            status = "ok" if proc.returncode == 0 else "exit %d" % proc.returncode
            print("%s seed %d: %s" % (workload, seed, status), flush=True)

    values, units = load_runs(args.out)
    print("\n%-13s %-32s %14s %8s %6s  %s" % (
        "workload", "metric", "median", "spread", "bound", "steady"))
    for workload in sorted(values):
        for metric, xs in sorted(values[workload].items()):
            bound = bounds.get(metric)
            s = spread(xs)
            steady = "-" if bound is None else (
                "yes" if metric != "setup_s" and s < bound / 3 or
                metric == "setup_s" else "NO")
            print("%-13s %-32s %14.6g %7.1f%% %6s  %s" % (
                workload, metric, quartiles(xs)[1], s * 100,
                "-" if bound is None else "%.2f" % bound, steady))


if __name__ == "__main__":
    main()
