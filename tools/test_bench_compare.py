#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py on synthetic ledgers.

Run: python3 tools/test_bench_compare.py
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "mem_bytes_per_rating", "unit": "B", "better": "lower",
         "bound": 0.05},
        {"name": "ingest_rps", "unit": "1/s", "better": "higher",
         "bound": 0.25},
    ],
    "per_layer": [
        {"name": "detect.sweep_ms_p50", "unit": "ms", "better": "lower"},
    ],
}


def result(mem, rps, sweep=None, correct=True, failed=0):
    metrics = {"mem_bytes_per_rating": {"value": mem, "unit": "B"},
               "ingest_rps": {"value": rps, "unit": "1/s"}}
    if sweep is not None:
        metrics["detect.sweep_ms_p50"] = {"value": sweep, "unit": "ms"}
    return {"correct": correct, "attempted": 1000, "failed": failed,
            "metrics": metrics}


def ledger(parent_mem, change_mem, parent_rps=None, change_rps=None,
           claim="mem_bytes_per_rating"):
    """Ten pairs; rps defaults to equal on both sides."""
    runs = []
    for k in range(len(parent_mem)):
        p_rps = parent_rps[k] if parent_rps else 100.0 + k
        c_rps = change_rps[k] if change_rps else 100.0 + k
        runs.append({"seed": k + 1,
                     "first": "parent" if k % 2 == 0 else "change",
                     "parent": result(parent_mem[k], p_rps, sweep=5.0),
                     "change": result(change_mem[k], c_rps, sweep=4.0)})
    return {"workload": "synthetic", "claim": claim, "runs": runs}


PARENT_MEM = [20.0, 20.1, 19.9, 20.2, 19.8, 20.0, 20.1, 19.9, 20.0, 20.05]


class JudgeTest(unittest.TestCase):
    def judge(self, led):
        return bench_compare.judge(led, BENCHMARK)

    def row(self, report, name):
        return next(r for r in report["rows"] if r["metric"] == name)

    def test_claim_met_when_every_pair_wins_beyond_parent_iqr(self):
        report = self.judge(ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM]))
        self.assertEqual(report["verdict"], "PASS")
        row = self.row(report, "mem_bytes_per_rating")
        self.assertEqual(row["status"], "claim met")
        self.assertEqual(row["wins"], 10)
        self.assertAlmostEqual(row["parent"]["median"], 20.0)
        self.assertAlmostEqual(row["change"]["median"], 15.0)
        self.assertAlmostEqual(row["rel_change"], -0.25)

    def test_claim_fails_with_eight_wins_of_ten(self):
        change = [m - 5 for m in PARENT_MEM]
        change[0] = change[1] = 30.0
        report = self.judge(ledger(PARENT_MEM, change))
        self.assertEqual(report["verdict"], "FAIL")
        self.assertEqual(self.row(report, "mem_bytes_per_rating")["wins"], 8)
        self.assertEqual(report["failed"], ["mem_bytes_per_rating"])

    def test_claim_fails_when_gap_is_inside_parent_iqr(self):
        # Every pair wins, but by less than the parent's spread.
        report = self.judge(ledger(PARENT_MEM,
                                   [m - 0.01 for m in PARENT_MEM]))
        self.assertEqual(report["verdict"], "FAIL")
        self.assertEqual(self.row(report, "mem_bytes_per_rating")["status"],
                         "claim NOT met")

    def test_claim_fails_in_the_worse_direction(self):
        report = self.judge(ledger(PARENT_MEM, [m + 5 for m in PARENT_MEM]))
        self.assertEqual(report["verdict"], "FAIL")

    def test_higher_is_better_metric_past_its_bound_is_unresolved(self):
        parent_rps = [100.0] * 10
        change_rps = [70.0] * 10  # 30% worse, bound 25%
        report = self.judge(ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM],
                                   parent_rps, change_rps))
        self.assertEqual(report["verdict"], "UNRESOLVED")
        self.assertEqual(report["unresolved"], ["ingest_rps"])
        row = self.row(report, "ingest_rps")
        self.assertEqual(row["status"], "unresolved")
        self.assertEqual(row["wins"], 0)

    def test_higher_is_better_metric_within_bound_passes(self):
        report = self.judge(ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM],
                                   [100.0] * 10, [80.0] * 10))
        self.assertEqual(report["verdict"], "PASS")

    def test_unclaimed_metric_is_only_bound_checked(self):
        led = ledger(PARENT_MEM, [m + 0.5 for m in PARENT_MEM], claim=None)
        report = self.judge(led)
        self.assertIsNone(report["claim"])
        self.assertEqual(self.row(report, "mem_bytes_per_rating")["status"],
                         "within bound")  # +2.5%, bound 5%
        self.assertEqual(report["verdict"], "PASS")

    def test_unclaimed_metric_inside_noisy_parent_is_unresolved(self):
        # Parent IQR is ~30% of its median, wider than the 25% bound, so
        # an unchanged median does not show the metric held.
        parent_rps = [70.0, 130.0] * 5
        report = self.judge(ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM],
                                   parent_rps, list(parent_rps)))
        self.assertEqual(report["verdict"], "UNRESOLVED")
        self.assertEqual(report["unresolved"], ["ingest_rps"])

    def test_noisy_parent_passes_when_every_change_run_is_better(self):
        parent_rps = [70.0, 130.0] * 5
        report = self.judge(ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM],
                                   parent_rps, [131.0] * 10))
        self.assertEqual(self.row(report, "ingest_rps")["status"],
                         "within bound")
        self.assertEqual(report["verdict"], "PASS")

    def test_per_layer_claim_fails(self):
        led = ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM],
                     claim="detect.sweep_ms_p50")  # wins 10/10, per-layer
        report = self.judge(led)
        self.assertEqual(report["verdict"], "FAIL")
        self.assertEqual(self.row(report, "detect.sweep_ms_p50")["status"],
                         "info")

    def test_claim_absent_from_the_runs_fails(self):
        led = ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM],
                     claim="ttd_ms_p50")
        report = self.judge(led)
        self.assertEqual(report["verdict"], "FAIL")
        self.assertFalse(any(r["metric"] == "ttd_ms_p50"
                             for r in report["rows"]))

    def test_per_layer_metrics_are_reported_not_judged(self):
        report = self.judge(ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM]))
        row = self.row(report, "detect.sweep_ms_p50")
        self.assertEqual(row["status"], "info")
        self.assertEqual(row["wins"], 10)

    def test_incorrect_run_or_more_failures_do_not_pass(self):
        led = ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM])
        led["runs"][3]["change"]["correct"] = False
        self.assertEqual(self.judge(led)["verdict"], "FAIL")
        led = ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM])
        led["runs"][3]["change"]["failed"] = 2
        report = self.judge(led)
        self.assertEqual(report["verdict"], "UNRESOLVED")
        self.assertEqual(report["unresolved"], ["failed_share"])

    def test_missing_side_is_a_problem(self):
        led = ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM])
        del led["runs"][0]["change"]
        report = self.judge(led)
        self.assertEqual(report["verdict"], "FAIL")
        self.assertEqual(self.row(report, "mem_bytes_per_rating")["pairs"], 9)


class MainTest(unittest.TestCase):
    def test_exit_status_follows_the_verdict(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = os.path.join(tmp, "BENCHMARK.json")
            good = os.path.join(tmp, "good.json")
            bad = os.path.join(tmp, "bad.json")
            with open(bench, "w") as f:
                json.dump(BENCHMARK, f)
            with open(good, "w") as f:
                json.dump(ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM]), f)
            with open(bad, "w") as f:
                json.dump(ledger(PARENT_MEM, PARENT_MEM), f)
            with open(os.devnull, "w") as null:
                stdout, sys.stdout = sys.stdout, null
                try:
                    ok = bench_compare.main([good, "--benchmark", bench])
                    not_ok = bench_compare.main([good, bad,
                                                 "--benchmark", bench])
                finally:
                    sys.stdout = stdout
            self.assertEqual(ok, 0)
            self.assertEqual(not_ok, 1)

    def test_render_names_every_metric_and_the_verdict(self):
        report = bench_compare.judge(
            ledger(PARENT_MEM, [m - 5 for m in PARENT_MEM]), BENCHMARK)
        text = bench_compare.render(report)
        for name in ("mem_bytes_per_rating", "ingest_rps",
                     "detect.sweep_ms_p50", "verdict: PASS"):
            self.assertIn(name, text)


if __name__ == "__main__":
    unittest.main()
