#!/usr/bin/env bash
# Alternating-pair comparison of a base revision and the working tree on
# one workload of the benchmark of record.
#
#   scripts/ab_pairs.sh <base-rev> <workload> <n>
#
# Exports <base-rev>'s tree to target/ab/base (git archive: no worktree
# state is left in .git; kept while it is the same revision, so a second
# workload does not rebuild it) and builds the benchmark there and in the
# working tree, each into its own CARGO_TARGET_DIR under target/ab/. Then
# runs n pairs of
#
#   bash benchmark/run.sh --workload <w> --seed 20200903 --seconds 20 --trace 0
#
# starting with the base and alternating which side runs first (base
# first in odd pairs, the change first in even ones), so a drifting host
# favours neither side.
#
# It prints, per end-to-end metric of BENCHMARK.json, each side's median
# and quartiles and the pairs the change wins (by the metric's `better`
# direction), the failed-operation counts, and every run's CPU pressure
# (`some avg10` of /proc/pressure/cpu) read before and after it: a pair
# run under pressure the other side did not see is weak evidence.
# Each run's result line is kept in target/ab/runs/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ $# -ne 3 ]; then
  echo "usage: scripts/ab_pairs.sh <base-rev> <workload> <n>" >&2
  exit 2
fi
base_rev="$1"; workload="$2"; pairs="$3"
root=$(pwd)
ab="$root/target/ab"
rev=$(git rev-parse --verify "$base_rev^{commit}")

if [ "$(cat "$ab/base.rev" 2>/dev/null)" != "$rev" ]; then
  rm -rf "$ab/base" "$ab/base.rev"
  mkdir -p "$ab/base"
  git archive "$rev" | tar -x -C "$ab/base"
  echo "$rev" >"$ab/base.rev"
fi
rm -rf "$ab/runs"
mkdir -p "$ab/runs"

pressure() {
  sed -n 's/^some avg10=\([0-9.]*\).*/\1/p' /proc/pressure/cpu 2>/dev/null || echo "n/a"
}

# side name → tree
tree() { if [ "$1" = base ]; then echo "$ab/base"; else echo "$root"; fi; }

for side in base change; do
  echo "building $side ($( [ "$side" = base ] && echo "${rev:0:12}" || echo "working tree"))" >&2
  (cd "$(tree "$side")" && CARGO_TARGET_DIR="$ab/$side-target" \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2)
done

for i in $(seq 1 "$pairs"); do
  order="base change"
  if [ $((i % 2)) -eq 0 ]; then order="change base"; fi
  for side in $order; do
    before=$(pressure)
    (cd "$(tree "$side")" && CARGO_TARGET_DIR="$ab/$side-target" \
      bash benchmark/run.sh --workload "$workload" --seed 20200903 --seconds 20 --trace 0) \
      2>/dev/null | tail -n 1 >"$ab/runs/$side-$i.json"
    after=$(pressure)
    printf '%s\t%s\n' "$before" "$after" >"$ab/runs/$side-$i.pressure"
    echo "pair $i $side: cpu pressure avg10 $before -> $after" >&2
  done
done

python3 - "$ab/runs" "$pairs" "$root/BENCHMARK.json" "$workload" "${rev:0:12}" <<'EOF'
import json, statistics, sys

runs, pairs, spec, workload, rev = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
metrics = json.load(open(spec))["end_to_end"]
load = lambda side, i: json.load(open(f"{runs}/{side}-{i}.json"))
res = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("base", "change")}

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

print(f"{workload}: {pairs} pairs, base {rev} vs working tree (base first in odd pairs)")
print(f"{'metric':18} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} {'change':>8} wins")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    vals = {s: [r["metrics"].get(name, {}).get("value") for r in res[s]] for s in res}
    if any(v is None for s in vals for v in vals[s]):
        print(f"{name:18} (not reported)")
        continue
    cells = []
    for s in ("base", "change"):
        q1, med, q3 = quartiles(vals[s])
        cells.append((med, f"{med:10.3f} [{q1:.3f}, {q3:.3f}]"))
    wins = sum((c > b) if higher else (c < b) for b, c in zip(vals["base"], vals["change"]))
    delta = (cells[1][0] / cells[0][0] - 1) * 100 if cells[0][0] else float("nan")
    print(f"{name:18} {cells[0][1]:>30} {cells[1][1]:>30} {delta:+7.1f}% {wins}/{pairs}")
for s in ("base", "change"):
    failed = [r.get("failed", 0) for r in res[s]]
    attempted = [r.get("attempted", 0) for r in res[s]]
    print(f"{s}: failed ops {sum(failed)} of {sum(attempted)} attempted; correct {all(r.get('correct') for r in res[s])}")
print("cpu pressure (some avg10 before -> after), per pair:")
for i in range(1, pairs + 1):
    p = {s: open(f"{runs}/{s}-{i}.pressure").read().split() for s in ("base", "change")}
    print(f"  pair {i:2}: base {p['base'][0]} -> {p['base'][1]}   change {p['change'][0]} -> {p['change'][1]}")
EOF
