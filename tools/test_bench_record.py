#!/usr/bin/env python3
"""Unit tests for tools/bench_record.py on canned perfbench result lines.

Run: python3 tools/test_bench_record.py
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import bench_compare  # noqa: E402
import bench_record  # noqa: E402

with open(os.path.join(bench_compare.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def result_line(seed, scale=1.0):
    """A run.py result line with every end-to-end metric, slightly noisy
    by seed."""
    metrics = {m["name"]: {"value": 100.0 * scale * (1 + 0.001 * seed),
                           "unit": m["unit"]}
               for m in BENCHMARK["end_to_end"]}
    return json.dumps({"correct": True, "attempted": 1000, "failed": 0,
                       "metrics": metrics})


def canned(calls, fail=()):
    def run(side, seed):
        calls.append((seed, side))
        if (side, seed) in fail:
            return 2, "run.py: detect_sweep failed with exit code 2\n"
        return 0, "-- build noise --\n" + result_line(seed) + "\n"
    return run


REVS = {"parent": "a" * 40, "change": "b" * 40}


class RecordTest(unittest.TestCase):
    def test_first_side_alternates_by_seed(self):
        calls = []
        runs = bench_record.record("detect_sweep", 4, canned(calls))
        self.assertEqual(calls, [(1, "parent"), (1, "change"),
                                 (2, "change"), (2, "parent"),
                                 (3, "parent"), (3, "change"),
                                 (4, "change"), (4, "parent")])
        self.assertEqual([r["first"] for r in runs],
                         ["parent", "change", "parent", "change"])

    def test_canned_ledger_judges_cleanly(self):
        runs = bench_record.record("detect_sweep", 10, canned([]))
        ledger = bench_record.ledger_of("detect_sweep", REVS, 10, 10, runs,
                                        BENCHMARK)
        self.assertNotIn("claim", ledger)
        self.assertEqual(ledger["seeds"], list(range(1, 11)))
        self.assertEqual(set(ledger["medians"]),
                         {m["name"] for m in BENCHMARK["end_to_end"]})
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_detect_sweep.json")
            with open(path, "w") as f:
                json.dump(ledger, f)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = bench_compare.main([path])
        self.assertEqual(code, 0, out.getvalue())
        self.assertIn("verdict: PASS", out.getvalue())

    def test_failed_run_is_null_and_fails_the_judge(self):
        runs = bench_record.record("detect_sweep", 2,
                                   canned([], fail={("change", 2)}))
        self.assertIsNone(runs[1]["change"])
        self.assertEqual(runs[1]["change_exit"], 2)
        ledger = bench_record.ledger_of("detect_sweep", REVS, 2, 10, runs,
                                        BENCHMARK)
        report = bench_compare.judge(ledger, BENCHMARK)
        self.assertEqual(report["verdict"], "FAIL")

    def test_parse_result_needs_a_result_last_line(self):
        self.assertIsNone(bench_record.parse_result(""))
        self.assertIsNone(bench_record.parse_result(result_line(1) + "\nx"))
        self.assertEqual(
            bench_record.parse_result("noise\n" + result_line(1) + "\n"),
            json.loads(result_line(1)))


FAKE_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
scale = float(open("SCALE").read())
specs = json.load(open("BENCHMARK.json"))["end_to_end"]
metrics = {m["name"]: {"value": 100.0 * scale * (1 + 0.001 * seed),
                       "unit": m["unit"]} for m in specs}
print("building...")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": metrics}))
"""


class WorktreeTest(unittest.TestCase):
    """The recorder end to end on a throwaway repository whose
    perfbench/run.py prints a canned result line scaled by its revision."""

    def setUp(self):
        if shutil.which("git") is None:
            self.skipTest("git not found")
        self.repo = tempfile.mkdtemp(prefix="bench_record_test_")
        self.addCleanup(shutil.rmtree, self.repo, ignore_errors=True)
        os.makedirs(os.path.join(self.repo, "tools"))
        os.makedirs(os.path.join(self.repo, "perfbench"))
        for name in ("bench_record.py", "bench_compare.py"):
            shutil.copy(os.path.join(HERE, name),
                        os.path.join(self.repo, "tools", name))
        with open(os.path.join(self.repo, "BENCHMARK.json"), "w") as f:
            json.dump(BENCHMARK, f)
        with open(os.path.join(self.repo, "perfbench", "run.py"), "w") as f:
            f.write(FAKE_RUN)
        self.git("init", "-q")
        self.commit("1.0")
        self.commit("1.01")

    def git(self, *args):
        return subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@test",
             *args], cwd=self.repo, check=True, capture_output=True,
            text=True).stdout

    def commit(self, scale):
        with open(os.path.join(self.repo, "SCALE"), "w") as f:
            f.write(scale)
        self.git("add", "-A")
        self.git("commit", "-q", "-m", f"scale {scale}")

    def test_records_both_revisions_and_removes_worktrees(self):
        proc = subprocess.run(
            [sys.executable, "tools/bench_record.py", "--workload",
             "detect_sweep", "--parent", "HEAD~1", "--change", "HEAD",
             "--pairs", "4", "--seconds", "1"],
            cwd=self.repo, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(os.path.join(self.repo, "BENCH_detect_sweep.json")) as f:
            ledger = json.load(f)
        self.assertEqual(ledger["git"]["change"],
                         self.git("rev-parse", "HEAD").strip())
        self.assertEqual(ledger["command"],
                         "python3 perfbench/run.py --workload detect_sweep "
                         "--seed S --seconds 1")
        for run in ledger["runs"]:
            seed = run["seed"]
            self.assertAlmostEqual(
                run["parent"]["metrics"]["ingest_rps"]["value"],
                100.0 * (1 + 0.001 * seed))
            self.assertAlmostEqual(
                run["change"]["metrics"]["ingest_rps"]["value"],
                101.0 * (1 + 0.001 * seed))
        self.assertEqual(len(self.git("worktree", "list").splitlines()), 1)


if __name__ == "__main__":
    unittest.main()
