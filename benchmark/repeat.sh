#!/usr/bin/env bash
# Run N full sets of the benchmark (every workload, untraced) and print,
# per workload and end-to-end metric, the median, the quartiles and the
# spread against the bound fixed in BENCHMARK.json. Exits non-zero when
# sets disagree by more than a metric's bound (`same`: highest against
# lowest; `vary`: third against first quartile, as the acceptance check
# takes it), when any run is not correct, or when the `pretrain` loss
# bits differ between sets that shared a seed.
#
#   benchmark/repeat.sh N [same|vary]   (default: same)
#
# `same` repeats one seed, which is how two builds of the same code are
# compared; `vary` gives every set its own seed, which is how the spread
# behind the bounds was calibrated (ten sets).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

n="${1:?usage: benchmark/repeat.sh N [same|vary]}"
mode="${2:-same}"
base_seed=20200903
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
out="benchmark/out/repeat"
rm -rf "$out"
mkdir -p "$out"

for set in $(seq 1 "$n"); do
  seed="$base_seed"
  [ "$mode" = vary ] && seed=$((base_seed + set))
  for w in serve_cold serve_hot serve_int8 pretrain; do
    echo "set $set/$n: $w (seed $seed)" >&2
    bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
      > "$out/$w.$set.log"
  done
done

python3 - "$out" "$n" "$mode" <<'EOF'
import json, re, statistics, sys

out, n, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
failures = []
print(f"{'workload':12} {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'max-min':>8} {'bound':>7}")
for w in (x["name"] for x in spec["workloads"]):
    runs, bits = [], set()
    for s in range(1, n + 1):
        lines = open(f"{out}/{w}.{s}.log").read().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            failures.append(f"{w} set {s}: correct={result['correct']} failed={result['failed']}")
        runs.append(result["metrics"])
        bits.update(m.group(1) for l in lines if (m := re.match(r"pretrain\.loss_bits_step\d+ (0x[0-9a-f]+)", l)))
    if mode == "same" and len(bits) > 1:
        failures.append(f"{w}: loss bits differ between sets: {sorted(bits)}")
    if bits:
        print(f"{w:12} loss bits {sorted(bits)}")
    for m in spec["end_to_end"]:
        vals = [r[m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if n >= 2 else (med, med, med)
        spread, swing = (q3 - q1) / med, (max(vals) - min(vals)) / med
        flag = ""
        if (swing if mode == "same" else spread) > m["bound"]:
            flag = "  <-- sets disagree by more than the bound"
            failures.append(f"{w} {m['name']}: spread {spread:.3f}, max-min {swing:.3f}, bound {m['bound']}")
        print(f"{w:12} {m['name']:18} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {swing:8.4f} {m['bound']:7.2f}{flag}")
for f in failures:
    print("FAIL:", f)
sys.exit(1 if failures else 0)
EOF
