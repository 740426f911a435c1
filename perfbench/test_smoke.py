#!/usr/bin/env python3
"""Toy-size smoke test of the benchmark.

    python3 perfbench/test_smoke.py

Runs every workload in BENCHMARK.json at toy size (run.py --toy), untraced
and traced, and checks that each run is correct, exits 0, and prints as its
last line a result object carrying exactly the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1) that BENCHMARK.json names, each with
the unit it declares. The first run builds the harness.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, trace):
        spec = load_spec()
        expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        for workload in (w["name"] for w in spec["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                done = run(workload, trace)
                self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, expected)
                for name, m in result["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                    if not trace:  # end-to-end metrics are never 0
                        self.assertGreater(m["value"], 0, name)

    def test_untraced_prints_every_end_to_end_metric(self):
        self.check(0)

    def test_traced_prints_every_per_layer_metric(self):
        self.check(1)

    def test_unknown_workload_is_refused(self):
        done = run("no-such-workload", 0)
        self.assertNotEqual(done.returncode, 0)


if __name__ == "__main__":
    unittest.main()
