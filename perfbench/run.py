#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench and p2prep_cli from source, runs
one workload, and passes through its result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload detect_sweep|front_door
        --seed N --seconds S --trace 0|1 [--smoke]

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); scratch
files go to .bench_work/<pid>/ and are removed on every exit path; the
traced run's spans go to .bench_out/trace-<workload>.csv.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170  # the binary's own watchdog fires first, at 150 s
WORKLOADS = ("detect_sweep", "front_door")


def fail(msg, code=2):
    sys.stderr.write(f"run.py: {msg}\n")
    sys.exit(code)


def build():
    """Configures (once) and builds the two targets; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources under {ROOT}/src; nothing to benchmark")
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                    "perfbench", "p2prep_cli"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs; finishes in seconds")
    args = p.parse_args()

    try:
        build_dir = build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(build_dir, "p2prep_tools", "p2prep_cli"),
           "--work-dir", work,
           "--trace-out", os.path.join(out_dir, f"trace-{args.workload}.csv")]
    if args.smoke:
        cmd.append("--smoke")

    # The binary and the managers it spawns share one process group, so
    # any exit path here can stop all of them at once.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        stop_group()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        stop_group()  # reaps stragglers; the group leader has exited
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"{args.workload} failed with exit code {proc.returncode}",
             proc.returncode or 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
