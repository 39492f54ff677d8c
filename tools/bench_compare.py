#!/usr/bin/env python3
"""Judges a perfbench ledger of interleaved parent/change pairs.

Usage (from the repository root):

    python3 tools/bench_compare.py BENCH_detect_sweep.json [more ledgers]
        [--benchmark BENCHMARK.json]

A ledger (BENCH_<workload>.json) holds the result lines of `runs`: one
entry per seed with a "parent" and a "change" result, each as printed by
perfbench/run.py ({"correct", "attempted", "failed", "metrics"}). The
ledger's optional "claim" field names the metric the change claims to
improve.

For every metric the ledger holds, the report prints each side's quantile
ladder (min, q1, median, q3, max), the relative change of the medians, and
how many pairs the change won. It then judges the end-to-end metrics that
BENCHMARK.json declares:

  * the claimed metric must be an end-to-end metric present in the runs,
    and passes only if the change wins at least 9 of every 10 pairs and
    the medians differ, in the better direction, by more than the
    parent's interquartile range;
  * every other end-to-end metric must not be worse at the median than
    its bound allows; one that is worse is "unresolved": the pairs do not
    show that the change is safe, so rerun them or explain the gap. So is
    one whose parent interquartile range, as a share of the parent
    median, is wider than its bound, unless every change run beats every
    parent run: the pairs are too noisy to show it held;
  * every run must be correct, and the change's share of failed
    operations must not exceed the parent's.

The verdict is PASS, UNRESOLVED (some bound not met) or FAIL (the claim
is not supported, or a run is incorrect). The exit status is 0 only for
PASS, so the check can gate a script; CI runs it as advisory.
"""
import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
WIN_SHARE = 0.9  # the claimed metric must win 9 of every 10 pairs


def quartiles(values):
    """(q1, median, q3) with linear interpolation between closest ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def ladder(values):
    q1, q2, q3 = quartiles(values)
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3,
            "max": max(values)}


def better(a, b, direction):
    """Whether value a beats value b."""
    return a < b if direction == "lower" else a > b


def rel_change(parent, change):
    """(change - parent) as a fraction of the parent."""
    if parent == 0:
        return 0.0 if change == parent else math.copysign(math.inf, change)
    return (change - parent) / abs(parent)


def pairs_of(ledger):
    """The runs whose both sides produced a result."""
    return [r for r in ledger["runs"]
            if all(isinstance(r.get(s), dict) and "metrics" in r[s]
                   for s in SIDES)]


def judge(ledger, benchmark):
    """Returns the report as a dict: per-metric rows, checks, verdict."""
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    declared.update({m["name"]: dict(m, per_layer=True)
                     for m in benchmark.get("per_layer", [])})
    claim = ledger.get("claim")
    pairs = pairs_of(ledger)
    problems = []

    names = []
    for r in pairs:
        for side in SIDES:
            for name in r[side]["metrics"]:
                if name not in names:
                    names.append(name)

    rows = []
    unresolved = []
    failed = []
    for name in names:
        spec = declared.get(name, {})
        direction = spec.get("better", "lower")
        both = [(r["parent"]["metrics"][name]["value"],
                 r["change"]["metrics"][name]["value"])
                for r in pairs
                if name in r["parent"]["metrics"]
                and name in r["change"]["metrics"]]
        if not both:
            continue
        parent = ladder([p for p, _ in both])
        change = ladder([c for _, c in both])
        wins = sum(1 for p, c in both if better(c, p, direction))
        rel = rel_change(parent["median"], change["median"])
        worse = rel if direction == "lower" else -rel
        row = {"metric": name, "unit": spec.get("unit", ""),
               "pairs": len(both), "wins": wins, "parent": parent,
               "change": change, "rel_change": rel, "status": "info"}
        end_to_end = name in declared and not spec.get("per_layer")
        if end_to_end and name == claim:
            iqr = parent["q3"] - parent["q1"]
            gap = abs(change["median"] - parent["median"])
            need = math.ceil(WIN_SHARE * len(both))
            ok = wins >= need and worse < 0 and gap > iqr
            row["status"] = "claim met" if ok else "claim NOT met"
            row["detail"] = (f"wins {wins}/{len(both)} (need {need}), "
                             f"median gap {gap:.4g} vs parent IQR {iqr:.4g}")
            if not ok:
                failed.append(name)
        elif end_to_end:
            bound = spec["bound"]
            spread = rel_change(parent["median"], parent["median"]
                                + parent["q3"] - parent["q1"])
            worst, best = ((change["max"], parent["min"])
                           if direction == "lower"
                           else (change["min"], parent["max"]))
            separated = better(worst, best, direction)
            ok = worse <= bound and (spread <= bound or separated)
            row["status"] = "within bound" if ok else "unresolved"
            row["detail"] = (f"worse by {worse:+.1%} (bound {bound:.0%}), "
                             f"parent IQR {spread:.1%} of median")
            if not ok:
                unresolved.append(name)
        rows.append(row)

    if claim is not None and not any(
            r["metric"] == claim and r["status"].startswith("claim")
            for r in rows):
        problems.append(f"claimed metric {claim!r} was not judged: it must "
                        "be an end-to-end metric of BENCHMARK.json present "
                        "on both sides of the runs")

    checks = {}
    for side in SIDES:
        results = [r[side] for r in pairs]
        attempted = sum(x.get("attempted", 0) for x in results)
        fails = sum(x.get("failed", 0) for x in results)
        checks[side] = {
            "correct": sum(1 for x in results if x.get("correct")),
            "runs": len(results),
            "failed_share": fails / attempted if attempted else 0.0,
        }
    missing = len(ledger["runs"]) - len(pairs)
    if missing:
        problems.append(f"{missing} run(s) lack a parent or change result")
    for side in SIDES:
        if checks[side]["correct"] != checks[side]["runs"]:
            problems.append(f"{side}: {checks[side]['runs'] - checks[side]['correct']}"
                            " run(s) failed their correctness checks")
    if checks["change"]["failed_share"] > checks["parent"]["failed_share"]:
        unresolved.append("failed_share")

    if problems or failed:
        verdict = "FAIL"
    elif unresolved:
        verdict = "UNRESOLVED"
    else:
        verdict = "PASS"
    return {"workload": ledger.get("workload", "?"), "claim": claim,
            "rows": rows, "checks": checks, "problems": problems,
            "unresolved": unresolved, "failed": failed, "verdict": verdict}


def fmt(v):
    return f"{v:.4g}"


def render(report):
    out = [f"== {report['workload']}: claim = {report['claim'] or 'none'}"]
    header = (f"{'metric':<32} {'side':<6} {'min':>10} {'q1':>10} "
              f"{'median':>10} {'q3':>10} {'max':>10}")
    out.append(header)
    out.append("-" * len(header))
    for row in report["rows"]:
        for side in ("parent", "change"):
            lad = row[side]
            label = f"{row['metric']} ({row['unit']})" if side == "parent" else ""
            out.append(f"{label:<32} {side:<6} " +
                       " ".join(f"{fmt(lad[k]):>10}"
                                for k in ("min", "q1", "median", "q3", "max")))
        verdict = f"-> {row['status']}"
        if "detail" in row:
            verdict += f": {row['detail']}"
        out.append(f"{'':<32} median {row['rel_change']:+.1%}, change better "
                   f"in {row['wins']}/{row['pairs']} pairs {verdict}")
    for side in SIDES:
        c = report["checks"][side]
        out.append(f"{side}: {c['correct']}/{c['runs']} runs correct, "
                   f"failed share {c['failed_share']:.3%}")
    for p in report["problems"]:
        out.append(f"problem: {p}")
    if report["unresolved"]:
        out.append("unresolved: " + ", ".join(report["unresolved"]))
    out.append(f"verdict: {report['verdict']}")
    return "\n".join(out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ledgers", nargs="+", help="BENCH_<workload>.json files")
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    verdicts = []
    for path in args.ledgers:
        with open(path) as f:
            ledger = json.load(f)
        report = judge(ledger, benchmark)
        print(render(report))
        print()
        verdicts.append(report["verdict"])
    return 0 if all(v == "PASS" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
