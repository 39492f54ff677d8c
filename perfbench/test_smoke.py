#!/usr/bin/env python3
"""Smoke test of the benchmark: runs every workload of BENCHMARK.json in
the tiny --smoke mode, untraced and traced, and asserts that each run
passes all its correctness checks and emits every metric BENCHMARK.json
names for that run, with its unit.

Run from the repository root:  python3 perfbench/test_smoke.py
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        spec = load_spec()
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, metrics in ((0, spec["end_to_end"]),
                                   (1, spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc, lines = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
                    result = json.loads(lines[-1])
                    self.assertTrue(result["correct"], proc.stderr[-4000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = result["metrics"]
                    self.assertEqual(set(got), {m["name"] for m in metrics})
                    for m in metrics:
                        self.assertEqual(got[m["name"]]["unit"], m["unit"],
                                         m["name"])


if __name__ == "__main__":
    unittest.main()
