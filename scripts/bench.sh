#!/bin/sh
# Runs the full-stack benchmark (perfbench/) on all four workloads with
# tracing on and prints one table: per workload, the outputs digest and the
# six gated end-to-end metrics, then every per-layer metric. Run from the
# repository root.
#
#   scripts/bench.sh [seed] [seconds]      defaults: seed 7, 8 s per workload
#
# perfbench/run.py builds into $CARGO_TARGET_DIR/perfbench (default
# .bench_build/perfbench); each workload's full text report is kept in
# $BENCH_OUT (default .bench_build/reports). The exit code is 1 when any
# workload's run failed (its column then reads "-").
SEED=${1:-7}
DURATION=${2:-8}
OUT=${BENCH_OUT:-.bench_build/reports}
WORKLOADS="sim_mixed_wan sim_lan_mux udp_loopback sim_failover"

mkdir -p "$OUT" || exit 1
status=0
for w in $WORKLOADS; do
  echo "bench.sh: $w (seed $SEED, $DURATION s)" >&2
  if ! python3 perfbench/run.py --workload "$w" --seed "$SEED" \
      --seconds "$DURATION" --trace 1 > "$OUT/$w.txt"; then
    echo "bench.sh: $w failed; report in $OUT/$w.txt" >&2
    rm -f "$OUT/$w.txt"
    status=1
  fi
done

python3 - "$OUT" $WORKLOADS <<'PY'
import os
import re
import sys

out, workloads = sys.argv[1], sys.argv[2:]
E2E = ["allocs_per_msg", "latency_p50_ms", "latency_p95_ms", "ontime_frac",
       "peak_rss_mb", "setup_s"]
ROW = re.compile(r"^\s+(e2e|layer)\s+(\S+)\s+(\S+)\s+(\S+)\s+n=\d+")
DIGEST = re.compile(r"outputs digest (\w+)")

reports, layer_rows, units = {}, [], {}
for w in workloads:
    path = os.path.join(out, w + ".txt")
    if not os.path.exists(path):
        continue
    r = {}
    with open(path) as f:
        for line in f:
            m = DIGEST.search(line)
            if m:
                r["outputs digest"] = m.group(1)
            m = ROW.match(line)
            if m:
                kind, name, value, unit = m.groups()
                r[name] = "%.6g" % float(value)
                units[name] = unit
                if kind == "layer" and name not in layer_rows:
                    layer_rows.append(name)
    reports[w] = r

width = max([16] + [len(w) for w in workloads]) + 2
def row(name, label):
    cells = "".join(reports.get(w, {}).get(name, "-").rjust(width) for w in workloads)
    print(label.ljust(40) + cells)

print("metric".ljust(40) + "".join(w.rjust(width) for w in workloads))
row("outputs digest", "outputs digest")
for name in E2E:
    row(name, "%s [%s]" % (name, units.get(name, "")))
print("per layer (median of traced rounds)")
for name in layer_rows:
    row(name, "  %s [%s]" % (name, units.get(name, "")))
PY
exit $status
