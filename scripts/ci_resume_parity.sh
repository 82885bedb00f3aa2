#!/usr/bin/env bash
# CI gate for crash-safe checkpointing: kill a `turl pretrain` run
# mid-flight with SIGKILL, resume it from its checkpoint directory, and
# require the final loss to be bit-identical to an uninterrupted
# reference run (compared via the `final loss ... bits 0x...` line).
#
# Usage: scripts/ci_resume_parity.sh [path-to-turl-binary]
set -euo pipefail

TURL="${1:-./target/release/turl}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

ARGS=(--entities 120 --tables 60 --epochs 3 --seed 11)

bits() { grep -o 'bits 0x[0-9a-f]*' "$1" | tail -n1; }

echo "== reference run (uninterrupted) =="
"$TURL" pretrain "${ARGS[@]}" --out "$WORK/ref.artifact" | tee "$WORK/ref.log"
REF_BITS="$(bits "$WORK/ref.log")"
[ -n "$REF_BITS" ] || { echo "reference run printed no bits line"; exit 1; }

echo "== interrupted run (SIGKILL after first checkpoint) =="
"$TURL" pretrain "${ARGS[@]}" \
  --checkpoint-dir "$WORK/ckpts" --checkpoint-every 2 --checkpoint-keep 3 \
  --out "$WORK/killed.artifact" > "$WORK/killed.log" 2>&1 &
PID=$!
# wait for the first checkpoint file to land, then kill -9 mid-run (a
# binary checkpoint costs well under a millisecond here and the whole run
# a few hundred, so poll finely or the run is over first)
for _ in $(seq 1 1500); do
  if compgen -G "$WORK/ckpts/ckpt-*.ckpt" > /dev/null; then break; fi
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.02
done
if kill -9 "$PID" 2>/dev/null; then
  echo "killed pid $PID mid-run"
  wait "$PID" 2>/dev/null || true
else
  # the short run finished before we could kill it — resume must then be
  # a no-op continuation, which the parity check below still validates
  echo "run finished before kill; continuing with completed checkpoints"
  wait "$PID" 2>/dev/null || true
fi
ls "$WORK/ckpts"

echo "== resumed run =="
"$TURL" pretrain "${ARGS[@]}" \
  --checkpoint-dir "$WORK/ckpts" --resume \
  --out "$WORK/resumed.artifact" | tee "$WORK/resumed.log"
RES_BITS="$(bits "$WORK/resumed.log")"

echo "reference: $REF_BITS"
echo "resumed:   $RES_BITS"
if [ "$REF_BITS" != "$RES_BITS" ]; then
  echo "FAIL: resumed run diverged from uninterrupted reference"
  exit 1
fi
echo "PASS: resume is bit-identical to the uninterrupted run"
