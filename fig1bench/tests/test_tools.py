"""Tests of the benchmark's own tooling.

    python3 -m unittest discover -s fig1bench/tests
"""

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True

import benchdiff  # noqa: E402
from check_sources import forbidden_uses  # noqa: E402


class RetiredApiCheck(unittest.TestCase):
    def test_benchmark_sources_use_no_retired_api(self):
        self.assertEqual(forbidden_uses(BENCH), [])

    def test_check_finds_each_retired_api(self):
        uses = [
            "mode = ServeMode::kThreadPerConnection;",
            "ctrl->serve(std::move(stream));",
            "http::serve_connection(*s, router);",
            "auto f = net::blocking_driver(fn);",
            "opts.codec = InspectionClient::Codec::kTlv;",
            "sgx::HostCallRing ring(enclave);",
            '#include "testbed.h"',
        ]
        with tempfile.TemporaryDirectory() as root:
            with open(os.path.join(root, "bad.cpp"), "w") as f:
                f.write("\n".join(uses) + "\n")
            with open(os.path.join(root, "good.cpp"), "w") as f:
                f.write("agent->serve_frame(request);\n")
            hits = forbidden_uses(root)
        self.assertEqual(len(hits), len(uses))
        self.assertTrue(all(h.startswith("bad.cpp:") for h in hits))


def write_run(directory, name, workload, metrics):
    with open(os.path.join(directory, name), "w") as f:
        f.write(json.dumps({"context": {"workload": workload}}) + "\n")
        f.write(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                            "metrics": {k: {"value": v, "unit": "ms"}
                                        for k, v in metrics.items()}}) + "\n")


class BenchDiff(unittest.TestCase):
    def test_loads_runs_by_workload(self):
        with tempfile.TemporaryDirectory() as d:
            for i, v in enumerate([1.0, 1.1, 0.9]):
                write_run(d, "r%d.txt" % i, "control", {"p50_ms": v})
            values, units = benchdiff.load_runs(d)
        self.assertEqual(sorted(values["control"]["p50_ms"]), [0.9, 1.0, 1.1])
        self.assertEqual(units["p50_ms"], "ms")

    def test_verdicts(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02]
        self.assertEqual(benchdiff.verdict(base, [1.3, 1.31, 1.29, 1.3, 1.3],
                                           0.1, "lower"), "REGRESSION")
        self.assertEqual(benchdiff.verdict(base, [0.7, 0.71, 0.7, 0.69, 0.7],
                                           0.1, "lower"), "improved")
        self.assertEqual(benchdiff.verdict(base, [1.03, 1.0, 1.01, 1.02, 1.0],
                                           0.1, "lower"), "ok")
        self.assertEqual(benchdiff.verdict(base, [0.5, 1.5, 1.0, 0.7, 1.3],
                                           0.1, "lower"), "unresolved")
        self.assertEqual(benchdiff.verdict(base, [1.3, 1.3, 1.3, 1.3, 1.3],
                                           0.1, "higher"), "improved")
        self.assertEqual(benchdiff.verdict(base, base, None, None), "-")


if __name__ == "__main__":
    unittest.main()
