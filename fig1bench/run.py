#!/usr/bin/env python3
"""Build and run the Figure-1 end-to-end benchmark.

    python3 fig1bench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (and the src/ libraries it links) at Release into the build
directory: $CARGO_TARGET_DIR when it names a directory inside the checkout,
else .bench_build. Later runs only re-check the build.

Stdout carries the run-context line, the full report line, and last the
result object {"correct","attempted","failed","metrics"}: end-to-end
metrics with --trace 0, the per-layer ledger with --trace 1. Build output
goes to stderr. The exit status is non-zero on a build failure, a
non-Release build, or any failed output check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

from check_sources import forbidden_uses  # noqa: E402

WORKLOADS = ["enroll", "enroll-ratls", "control", "dataplane"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("fig1bench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    wanted = os.environ.get("CARGO_TARGET_DIR", "")
    if wanted:
        path = os.path.abspath(os.path.join(ROOT, wanted))
        if os.path.commonpath([path, ROOT]) == ROOT and path != ROOT:
            return path
    return os.path.join(ROOT, ".bench_build")


def source_digest():
    """Content hash of src/ and the benchmark: the run's code identity
    (the checkout the benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree at " + ROOT)
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    with open(cache) as f:
        build_type = next((line.strip().split("=", 1)[1] for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        fail("build directory %s is %r, not Release" % (out, build_type), 3)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "fig1bench"]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(out, "fig1bench")


def run_one(binary, out, args, workload, commit):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
        context = json.loads(lines[0])["context"]
        report = json.loads(lines[1])["report"]
    except (IndexError, ValueError, KeyError):
        fail("%s produced no result (exit %d)" % (workload, proc.returncode), 1)
    if not context.get("release_build"):
        fail("the benchmark binary is not a Release build", 3)
    return proc.returncode, lines, result, report


def print_table(reports):
    print("%-14s %-16s %16s  %s" % ("workload", "metric", "value", "unit"))
    for workload, report in reports:
        for name, m in report["end_to_end"].items():
            print("%-14s %-16s %16.6g  %s" % (workload, name, m["value"],
                                              m["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bad = forbidden_uses(HERE)
    if bad:
        fail("benchmark sources use retired APIs: " + "; ".join(bad))
    out = build_dir()
    binary = build(out)
    commit = source_digest()

    if args.workload != "all":
        code, lines, _, _ = run_one(binary, out, args, args.workload, commit)
        print("\n".join(lines))
        sys.exit(code)

    code, reports, metrics = 0, [], {}
    attempted = failed = 0
    for workload in WORKLOADS:
        rc, lines, result, report = run_one(binary, out, args, workload,
                                            commit)
        print("\n".join(lines[:-1]))
        code = code or rc
        reports.append((workload, report))
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[workload + "." + name] = m
    print_table(reports)
    print(json.dumps({"correct": code == 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(code)


if __name__ == "__main__":
    main()
