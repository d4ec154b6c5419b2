#!/usr/bin/env python3
"""The benchmark's own determinism test.

    python3 perfbench/determinism_test.py [--seconds 2]

For every sim workload: two traced runs with one seed must print the same
input and output digests and identical deterministic metrics (every figure
that does not come from a clock: allocations, on-time fraction, simulated
delays and goodput, per-layer counts), and a run with another seed must
print a different input digest with every check passing. The result line of
every run must carry exactly the metrics BENCHMARK.json declares.
Exits 0 when all of that holds.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_WORKLOADS = ["sim_mixed_wan", "sim_lan_mux", "sim_failover"]
# Figures read off a wall clock (or the process) rather than the simulation.
CLOCKED = re.compile(r"^(msgs_per_s.*|cpu_us_per_msg.*|peak_rss_mb|setup_s|trace\.overhead_frac"
                     r"|.*_ns|.*_ns_per_msg|.*_ns_per_pkt|rt\..*)$")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = proc.stdout.decode()
    digests = re.search(r"inputs digest (\w+)\s+outputs digest (\w+)", out)
    figures = {}
    for m in re.finditer(r"^\s+(e2e|layer)\s+(\S+)\s+(\S+)", out, re.M):
        if not CLOCKED.match(m.group(2)):
            figures[m.group(2)] = m.group(3)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, digests.groups() if digests else None, figures, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in bench["per_layer"]]}

    failures = []
    for wl in SIM_WORKLOADS:
        a = run(wl, args.seed, args.seconds, 1)
        b = run(wl, args.seed, args.seconds, 1)
        c = run(wl, args.seed + 1, args.seconds, 0)
        for label, r in (("first", a), ("repeat", b), ("other seed", c)):
            if r[0] != 0 or r[3] is None or not r[3]["correct"]:
                failures.append("%s %s run: exit %d" % (wl, label, r[0]))
        if a[1] != b[1]:
            failures.append("%s: same seed, different digests %s vs %s" % (wl, a[1], b[1]))
        for name in sorted(set(a[2]) | set(b[2])):
            if a[2].get(name) != b[2].get(name):
                failures.append("%s: %s differs for one seed: %s vs %s"
                                % (wl, name, a[2].get(name), b[2].get(name)))
        if a[1] is not None and c[1] is not None and a[1][0] == c[1][0]:
            failures.append("%s: another seed generated the same inputs" % wl)
        for trace, r in ((1, a), (0, c)):
            printed = [(k, v["unit"]) for k, v in r[3]["metrics"].items()] if r[3] else None
            if r[3] is not None and printed != declared[trace]:
                failures.append("%s: result metrics differ from BENCHMARK.json (trace %d)"
                                % (wl, trace))
        print("%-14s digests %s / %s, other seed %s, %d deterministic figures compared"
              % (wl, a[1], b[1], c[1], len(a[2])), flush=True)

    for f in failures:
        print("FAIL:", f)
    print("determinism test %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
