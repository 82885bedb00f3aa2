#!/usr/bin/env bash
# The benchmark of record. Builds the benchmark package (release,
# offline) and runs it from the repository root.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process; the last line of standard output is
#       the JSON result (the form BENCHMARK.json's `command` is run in)
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace]
#       every workload, each in its own process: the untraced run that
#       gives the end-to-end metrics and, with --trace, the traced run
#       that gives the per-layer metrics and benchmark/out/trace_<workload>.jsonl
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The seed every recorded number in benchmark/README.md was taken with.
DEFAULT_SEED=20200903
WORKLOADS=(serve_cold serve_hot serve_int8 pretrain)

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/turl-benchmark"

seed="$DEFAULT_SEED"; seconds=20; trace=0; workload=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      # `--trace 0|1` in the contract form, a bare `--trace` otherwise.
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ -n "$workload" ]; then
  exec "$BIN" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" --out benchmark/out
fi
for w in "${WORKLOADS[@]}"; do
  for t in $(seq 0 "$trace"); do
    echo "==== $w (trace $t) ===="
    "$BIN" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" --out benchmark/out
  done
done
