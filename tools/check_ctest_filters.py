#!/usr/bin/env python3
"""Checks that every sanitizer-lane ctest filter token still names a suite.

The ASan lane in .github/workflows/ci.yml runs `ctest -R` over the
P2PREP_CTEST_FILTER alternation, and tools/run_static_analysis.sh's tsan
stage over its default tsan_filter. A token that matches no test suite
selects nothing, so renaming a suite would silently drop it from the lane.
This script fails when any token, read as the regular expression ctest
applies, matches no suite named by a TEST, TEST_F or TEST_P in tests/.

Usage: check_ctest_filters.py [--root REPO]   (default: this script's repo)
Exit status: 0 when every token matches a suite, 1 otherwise.
"""
import argparse
import pathlib
import re
import sys

SUITE = re.compile(r"\bTEST(?:_F|_P)?\(\s*(\w+)\s*,")
CI_FILTER = re.compile(r"P2PREP_CTEST_FILTER='([^']*)'")
TSAN_FILTER = re.compile(r'^tsan_filter="\$\{P2PREP_TSAN_FILTER:-([^}]*)\}"',
                         re.MULTILINE)


def suites(root):
    """Every suite name a TEST* macro in tests/ declares."""
    names = set()
    for path in (root / "tests").rglob("*.cpp"):
        names.update(SUITE.findall(path.read_text(encoding="utf-8")))
    return names


def filters(root):
    """(where, filter) for each sanitizer-lane filter; exits when one of
    them cannot be found, since a vanished filter would pass vacuously."""
    sources = [
        ("ci.yml P2PREP_CTEST_FILTER", ".github/workflows/ci.yml", CI_FILTER),
        ("run_static_analysis.sh tsan_filter", "tools/run_static_analysis.sh",
         TSAN_FILTER),
    ]
    found = []
    for where, path, pattern in sources:
        texts = pattern.findall((root / path).read_text(encoding="utf-8"))
        if not texts:
            sys.exit(f"check_ctest_filters: cannot find the {where}")
        found += [(where, text) for text in texts]
    return found


def dead_tokens(filter_text, names):
    """The tokens of a `|` alternation that match none of `names`."""
    return [t for t in filter_text.split("|")
            if not any(re.search(t, n) for n in names)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    root = parser.parse_args().root
    names = suites(root)
    if not names:
        sys.exit("check_ctest_filters: no TEST* suites found under tests/")
    # The check itself must fire: a token naming no suite is reported.
    assert dead_tokens("NoSuchSuiteAnywhere|" + next(iter(names)), names) == [
        "NoSuchSuiteAnywhere"]
    failed = False
    for where, text in filters(root):
        for token in dead_tokens(text, names):
            print(f"{where}: token '{token}' matches no TEST*(Suite, ...) "
                  f"in tests/")
            failed = True
    if failed:
        return 1
    print(f"ok: every filter token matches one of {len(names)} suites")
    return 0


if __name__ == "__main__":
    sys.exit(main())
