#!/usr/bin/env python3
"""The benchmark's own test, at smoke size.

    python3 benchmark/test_benchmark.py

Builds the benchmark like benchmark/run.py does, then checks for every
workload that
  * the result line has exactly the contract's keys and every declared
    metric of the mode, with the unit BENCHMARK.json declares;
  * the deterministic counts (precision, recall, f1, x86.decoded_insns,
    core.pointer_accepted, core.alg1_merged) repeat exactly across two runs;
and that the benchmark refuses to run, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark itself.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DETERMINISTIC_E2E = ["precision", "recall", "f1"]
DETERMINISTIC_LAYER = ["x86.decoded_insns", "core.pointer_accepted",
                       "core.alg1_merged"]


def run(workload, trace, seed=1):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class BenchmarkTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in declared])
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_workloads(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, declared, exact in (
                    (0, SPEC["end_to_end"], DETERMINISTIC_E2E),
                    (1, SPEC["per_layer"], DETERMINISTIC_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    runs = []
                    for _ in range(2):
                        rc, result, stderr = run(workload, trace)
                        self.assertEqual(rc, 0, stderr[-3000:])
                        self.check_result(result, declared)
                        runs.append(result["metrics"])
                    for name in exact:
                        self.assertEqual(runs[0][name]["value"],
                                         runs[1][name]["value"], name)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path))
            done = subprocess.run(
                SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                                   "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
