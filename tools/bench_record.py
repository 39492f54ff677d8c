#!/usr/bin/env python3
"""Records a perfbench ledger of interleaved parent/change pairs.

Usage (from the repository root):

    python3 tools/bench_record.py --workload detect_sweep|front_door
        --parent REV --change REV [--pairs 10] [--seconds 10]
        [--claim METRIC]

Checks out both revisions into temporary `git worktree`s and runs
`python3 perfbench/run.py --workload W --seed S --seconds T` in each, for
seeds 1..pairs. The side that runs first alternates by seed (parent first
on odd seeds), so a host that drifts during the recording drifts both
sides alike. Each side builds into its own directory (CARGO_TARGET_DIR).

The ledger, BENCH_<workload>.json at the repository root, is the schema
tools/bench_compare.py judges against BENCHMARK.json: one entry per
seed with each side's result line (or null when the run failed, next to
its exit status), plus the command, the revisions, the host and each
end-to-end metric's median and quartiles. --claim names the metric the
change claims to improve; leave it out for a change that claims no gain.
The worktrees are removed on every exit path, and the script prints
bench_compare's report and exits 0 only on a PASS verdict.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402

ROOT = bench_compare.ROOT
SIDES = bench_compare.SIDES


def order_for(seed):
    """The sides in the order they run for `seed`."""
    return SIDES if seed % 2 == 1 else SIDES[::-1]


def parse_result(stdout):
    """The result dict from run.py's last output line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or "metrics" not in result:
        return None
    return result


def record(workload, pairs, run):
    """Runs `pairs` interleaved pairs through run(side, seed) -> (exit
    status, stdout) and returns the ledger's runs."""
    runs = []
    for seed in range(1, pairs + 1):
        outputs = {side: run(side, seed) for side in order_for(seed)}
        entry = {"seed": seed, "first": order_for(seed)[0]}
        for side in SIDES:
            code, stdout = outputs[side]
            entry[side] = parse_result(stdout) if code == 0 else None
            entry[f"{side}_exit"] = code
        runs.append(entry)
        print(f"bench_record: {workload} seed {seed}: parent exit "
              f"{entry['parent_exit']}, change exit {entry['change_exit']}",
              file=sys.stderr)
    return runs


def medians(runs, benchmark):
    """Median and quartiles of each end-to-end metric, per side."""
    out = {}
    pairs = bench_compare.pairs_of({"runs": runs})
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        row = {}
        for side in SIDES:
            values = [r[side]["metrics"][name]["value"] for r in pairs
                      if name in r[side]["metrics"]]
            if values:
                q1, median, q3 = bench_compare.quartiles(values)
                row[side] = {"median": median, "q1": q1, "q3": q3}
        if len(row) == len(SIDES):
            out[name] = dict(row, unit=spec["unit"])
    return out


def host_name():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def ledger_of(workload, revs, pairs, seconds, runs, benchmark, claim=None):
    ledger = {
        "workload": workload,
        "command": (f"python3 perfbench/run.py --workload {workload} "
                    f"--seed S --seconds {seconds:g}"),
        "seeds": list(range(1, pairs + 1)),
        "pairing": ("interleaved parent/change pairs; the side that runs "
                    "first alternates by pair (parent first on odd seeds)"),
    }
    if claim is not None:
        ledger["claim"] = claim
    ledger.update({
        "git": revs,
        "nproc": os.cpu_count(),
        "build_type": "RelWithDebInfo (perfbench/run.py default)",
        "host": host_name(),
        "medians": medians(runs, benchmark),
        "runs": runs,
    })
    return ledger


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", required=True, help="change revision")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--claim", help="end-to-end metric the change improves")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("parent", args.parent),
                              ("change", args.change))}

    tmp = tempfile.mkdtemp(prefix="bench_record_")
    trees = {}
    try:
        for side in SIDES:
            trees[side] = os.path.join(tmp, side)
            git("worktree", "add", "--detach", trees[side], revs[side])

        def run(side, seed):
            env = dict(os.environ,
                       CARGO_TARGET_DIR=os.path.join(tmp, f"{side}-build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 args.workload, "--seed", str(seed), "--seconds",
                 f"{args.seconds:g}"],
                cwd=trees[side], env=env, stdout=subprocess.PIPE, text=True)
            return proc.returncode, proc.stdout

        runs = record(args.workload, args.pairs, run)
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", tree],
                           cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)

    ledger = ledger_of(args.workload, revs, args.pairs, args.seconds, runs,
                       benchmark, args.claim)
    with open(os.path.join(ROOT, f"BENCH_{args.workload}.json"), "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    report = bench_compare.judge(ledger, benchmark)
    print(bench_compare.render(report))
    return 0 if report["verdict"] == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
