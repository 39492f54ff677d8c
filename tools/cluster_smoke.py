#!/usr/bin/env python3
"""Cluster smoke test (ctest `ClusterSmoke`, CI job `cluster-smoke`).

Boots a real 3-manager M=2 cluster as separate `p2prep_cli manager`
processes on loopback, replays one seeded overstock trace through
`serve-replay --cluster-ring`, replays the same trace through the plain
single-process global-scope service at the same shard count, and requires
the suspected sets and detection reports to match byte for byte — the
multi-process deployment may not change a byte of detection output.

Usage: cluster_smoke.py <path-to-p2prep_cli>
"""
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

RING_SIZE = 3
REPLICATION = 2


def reserve_port():
    """Binds 127.0.0.1:0 with SO_REUSEADDR and returns the socket, bound
    and never listening. While it stays open no other bind(0) or outgoing
    connect() gets the port, and a manager (which sets SO_REUSEADDR) can
    still listen on it. Close it only after the manager has stopped."""
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    s.bind(("127.0.0.1", 0))
    return s


def wait_port(port, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), 0.2).close()
            return True
        except OSError:
            time.sleep(0.05)
    return False


def detection_tail(output):
    """Everything from the 'suspected:' line on: the suspected set and the
    per-epoch detection reports. The metrics block above it legitimately
    differs (cluster gauges, forward counters)."""
    idx = output.find("suspected:")
    if idx < 0:
        raise SystemExit("serve-replay output has no 'suspected:' line:\n"
                         + output)
    return output[idx:]


def main():
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} <path-to-p2prep_cli>")
    cli = sys.argv[1]
    work = tempfile.mkdtemp(prefix="p2prep_cluster_smoke_")
    managers = []
    reservations = []
    try:
        trace = os.path.join(work, "trace.csv")
        subprocess.run(
            [cli, "trace", "overstock", "--users", "64", "--transactions",
             "1500", "--pairs", "3", "--seed", "7", "--out", trace],
            check=True)

        # The managers' key space must equal the service's (max id + 1):
        # checkpoint blobs are sized by it, and the service reloads them
        # verbatim.
        max_id = 0
        with open(trace, encoding="ascii") as f:
            next(f)  # header: rater,ratee,stars,day
            for line in f:
                rater, ratee = line.split(",")[:2]
                max_id = max(max_id, int(rater), int(ratee))
        nodes = max_id + 1

        reservations = [reserve_port() for _ in range(RING_SIZE)]
        ports = [s.getsockname()[1] for s in reservations]
        ring = ",".join(f"127.0.0.1:{p}" for p in ports)
        for i in range(RING_SIZE):
            managers.append(subprocess.Popen(
                [cli, "manager", "--index", str(i), "--ring", ring,
                 "--replication", str(REPLICATION), "--nodes", str(nodes),
                 "--data-dir", os.path.join(work, f"mgr{i}")],
                stdout=subprocess.DEVNULL))
        for i, port in enumerate(ports):
            if not wait_port(port):
                raise SystemExit(f"manager {i} never opened port {port}")

        # --one-sided: overstock is a marketplace trace (one-way ratings);
        # without it mutual-frequency gating yields zero pairs and the
        # byte-compare below would vacuously pass on empty output.
        common = [cli, "serve-replay", "--in", trace, "--from-trace",
                  "--epoch-ratings", "500", "--one-sided", "--report"]
        single = subprocess.run(
            common + ["--shards", str(RING_SIZE)],
            check=True, capture_output=True, text=True).stdout
        clustered = subprocess.run(
            common + ["--cluster-ring", ring,
                      "--replication", str(REPLICATION)],
            check=True, capture_output=True, text=True).stdout

        single_tail = detection_tail(single)
        clustered_tail = detection_tail(clustered)
        if single_tail != clustered_tail:
            sys.stderr.write("cluster-smoke: detection output diverged\n")
            sys.stderr.write("--- single-process ---\n" + single_tail)
            sys.stderr.write("--- clustered ---\n" + clustered_tail)
            return 1
        if "epoch" not in single_tail:
            sys.stderr.write("cluster-smoke: no detection report produced\n")
            return 1
        suspected = single_tail.splitlines()[0][len("suspected:"):].split()
        if not suspected:
            sys.stderr.write("cluster-smoke: suspected set is empty — the "
                             "comparison passed vacuously\n")
            return 1
        print(f"cluster-smoke: OK ({nodes} nodes, {RING_SIZE} managers, "
              f"M={REPLICATION}; detection output identical)")
        return 0
    finally:
        for proc in managers:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in managers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for s in reservations:
            s.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
