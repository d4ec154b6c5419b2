#!/bin/sh
# Counts heap allocations by call site on one perfbench workload and prints
# allocations per delivered message, grouped by the first frame in the
# tree's own code outside src/util/ (libstdc++ and libc frames are skipped
# too, so a vector growth is charged to whoever grew the vector; perfbench's
# own payloads show up under perfbench/). Run from the repository root.
#
#   scripts/alloc_sites.sh <workload> [seed] [seconds]   defaults: seed 7, 1 s
#
# It copies src/ and perfbench/ into a temporary directory, swaps in
# scripts/alloc_sites_count.cpp for the counting allocator there, builds
# perfbench RelWithDebInfo and runs it with --trace 0; call stacks are
# resolved with addr2line -f -C -i. The recorder cannot be armed for
# perfbench's timed phase alone, so its total covers the whole run (setup,
# every round, teardown) and is printed next to perfbench's own
# allocs_per_msg, which counts the timed phase only. The temporary
# directory is removed on exit; nothing is written to the tree.
WORKLOAD=${1:?usage: scripts/alloc_sites.sh <workload> [seed] [seconds]}
SEED=${2:-7}
SECONDS_=${3:-1}

TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT INT TERM
cp -r src perfbench "$TMP"/ || exit 1
cp scripts/alloc_sites_count.cpp "$TMP/src/util/alloc_count.cpp" || exit 1

echo "alloc_sites.sh: building perfbench (RelWithDebInfo) in $TMP" >&2
cmake -S "$TMP/perfbench" -B "$TMP/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2 &&
  cmake --build "$TMP/build" --target perfbench -j 4 >&2 || exit 1

echo "alloc_sites.sh: running $WORKLOAD (seed $SEED, $SECONDS_ s)" >&2
(cd "$TMP" && ./build/perfbench --workload "$WORKLOAD" --seed "$SEED" \
   --seconds "$SECONDS_" --trace 0 --out "$TMP") > "$TMP/report.txt" || {
  cat "$TMP/report.txt" >&2
  exit 1
}

python3 - "$TMP" "$WORKLOAD" "$SEED" <<'PY'
import collections
import os
import re
import subprocess
import sys

tmp, workload, seed = sys.argv[1], sys.argv[2], sys.argv[3]
exe = os.path.join(tmp, "build", "perfbench")

per_msg, msgs = None, None
with open(os.path.join(tmp, "report.txt")) as f:
    for line in f:
        m = re.match(r"\s+e2e\s+allocs_per_msg\s+(\S+)\s+\S+\s+n=(\d+)", line)
        if m:
            per_msg, msgs = float(m.group(1)), int(m.group(2))
if not msgs:
    sys.exit("alloc_sites.sh: no allocs_per_msg row in the perfbench report")

stacks = []
with open(os.path.join(tmp, "alloc_sites.raw")) as f:
    _, total, dropped, base = f.readline().split()
    total, dropped = int(total), int(dropped)
    for line in f:
        fields = line.split()
        stacks.append((int(fields[0]), fields[1:]))

# A non-PIE executable is linked at its load address; addr2line then wants
# absolute addresses rather than offsets from the start of the image.
with open(exe, "rb") as f:
    header = f.read(18)
shift = int(base, 16) if int.from_bytes(header[16:18], "little") == 2 else 0

offsets = sorted({o for _, frames in stacks for o in frames if o != "-"})
frames_at = {}  # offset -> [(function, file)], innermost inline frame first
if offsets:
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", exe] +
        ["0x%x" % (int(o, 16) + shift) for o in offsets],
        stdout=subprocess.PIPE, check=True, text=True).stdout.splitlines()
    current, i = None, 0
    by_addr = {"0x%x" % (int(o, 16) + shift): o for o in offsets}
    while i < len(out):
        line = out[i]
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current = by_addr.get("0x%x" % int(line, 16))
            frames_at[current] = []
            i += 1
            continue
        loc = (out[i + 1] if i + 1 < len(out) else "??:0").split(" ")[0]
        path, _, lineno = loc.rpartition(":")
        frames_at[current].append((line, path, lineno))
        i += 2

util = os.path.join(tmp, "src", "util") + "/"

def site_of(frames):
    for o in frames:
        for func, path, lineno in frames_at.get(o, []):
            path = os.path.normpath(path)
            if path.startswith(tmp + "/") and not path.startswith(util):
                # An inlined lambda is named only "operator()": give its line.
                func = ("lambda at line " + lineno if func.startswith("operator()")
                        else re.sub(r"\(.*", "", func))
                return "%s  %s" % (os.path.relpath(path, tmp), func)
    return "(no frame in src/ or perfbench/)"

sites = collections.Counter()
for count, frames in stacks:
    sites[site_of(frames)] += count

print("workload %s seed %s: %d delivered messages" % (workload, seed, msgs))
print("perfbench allocs_per_msg (timed phase) %.4f   this count (whole run) %.4f"
      % (per_msg, total / msgs))
if dropped:
    print("note: %d allocations found the stack table full and are not broken down"
          % dropped)
print("%10s %7s  %s" % ("per msg", "share", "site"))
for site, count in sites.most_common():
    print("%10.4f %6.1f%%  %s" % (count / msgs, 100.0 * count / total, site))
PY
