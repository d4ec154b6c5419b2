#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload sim_lan_mux --seeds 1-10 [--seconds 10]

Runs perfbench/run.py once per seed (sequentially, so runs do not compete
for CPU) and prints, for every end-to-end metric of BENCHMARK.json, the
median and the quartile spread (Q3 - Q1) / median next to the metric's
bound. A spread below a third of the bound is the steadiness target.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        lines = proc.stdout.decode().strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: attempted %d failed %d" % (seed, result["attempted"],
                                                    result["failed"]), flush=True)

    print("%-34s %14s %9s %7s  %s" % ("metric", "median", "spread", "bound", "per seed"))
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = m.get("bound")
        print("%-34s %14.6g %9.4f %7s  %s" % (m["name"], med, spread,
                                              "-" if bound is None else bound,
                                              " ".join("%.4g" % x for x in v)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
