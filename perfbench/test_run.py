#!/usr/bin/env python3
"""Tests of the benchmark entry point, at CI-scale games.

    python3 perfbench/test_run.py

Runs perfbench/run.py on every workload in both modes and checks the
result line against the contract and BENCHMARK.json: exactly the four
keys, every metric named there with its unit, end-to-end metrics above
zero, correct outputs. Also
checks that the benchmark fails without a result when the library
sources are missing. The C++ tests (split equals composite, seeds) are
the perfbench_test target of perfbench/CMakeLists.txt.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run_bench(workload, seed, trace, cwd=CHECKOUT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
         "--scale", "ci"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class RunTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(workload, 7, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in expected))
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0.0, m["name"])

    def test_workloads_print_every_metric(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(len(names), 3)
        for workload in names:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp)
            for path in BENCHMARK["paths"]:
                shutil.copytree(os.path.join(CHECKOUT, path),
                                os.path.join(tmp, path))
            proc = run_bench("freq_scaling", 1, 0, cwd=tmp,
                             script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
