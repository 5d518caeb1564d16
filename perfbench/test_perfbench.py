#!/usr/bin/env python3
"""Tests of the reproduction benchmark itself.

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py (which builds the benchmark first) with a
short measuring time. The corruption test damages one output per pass and
expects the oracles to count it. The whole file takes about a minute, most
of it two passes of fig6_spgemm.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig6_spgemm", "sram_flow", "brick_golden", "dse_yield")


def run(workload, seed=1, trace=0, seconds=0.1, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt")
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    if p.returncode != 0:
        raise AssertionError("%s failed:\n%s" % (" ".join(cmd), p.stderr))
    lines = p.stdout.strip().splitlines()
    digest = re.search(r"^sim_digest (\w+)$", p.stdout, re.M).group(1)
    return json.loads(lines[-1]), digest


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         WORKLOADS)

    def test_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run("dse_yield", trace=trace)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, expected)

    def test_simulated_results_repeat_at_one_seed(self):
        _, first = run("dse_yield", seed=5)
        _, again = run("dse_yield", seed=5)
        _, other = run("dse_yield", seed=6)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_corrupted_output_is_counted_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                clean, _ = run(workload)
                bad, _ = run(workload, corrupt=True)
                self.assertEqual(clean["failed"], 0)
                self.assertTrue(clean["correct"])
                self.assertGreater(bad["failed"], 0)
                self.assertFalse(bad["correct"])


if __name__ == "__main__":
    unittest.main()
