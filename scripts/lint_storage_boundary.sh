#!/usr/bin/env bash
# Storage-boundary lint: the DType/Storage split lives entirely inside
# `crates/tensor`. Outside that crate, code must go through the typed
# accessors (`data()`, `dtype()`, `quantized()`, `quantize_i8()`,
# `dequantize()`) so that adding a dtype is a one-crate change. Two
# families of leakage are banned elsewhere:
#
#   * `Storage::` variant matching — dtype dispatch belongs to the
#     tensor crate's kernels, not to callers.
#   * raw quantized-part access (`.scales()` / `.quants()` /
#     `QuantBlocks::from_parts`) — only the on-disk tensor codec
#     (crates/nn/src/codec.rs, and artifact.rs whose tests compare
#     round-tripped blocks) and the arena executor's typed source
#     views (crates/exec/src/run.rs) may touch block internals.
#
# A third rule keeps the tensor crate free of any text wire format: no
# source file under crates/tensor names `serde`, and its Cargo.toml does
# not depend on `serde_json`. (The manifest's `serde` line is unused and
# stays only while benchmark/Cargo.lock, frozen, records the edge.)
#
# Exits non-zero listing every violation, for the CI `check` job.
set -euo pipefail
cd "$(dirname "$0")/.."

storage_violations=$(grep -rnE '\bStorage::' crates/ --include='*.rs' \
  | grep -vE '^crates/tensor/' \
  || true)

quant_violations=$(grep -rnE '\.scales\(\)|\.quants\(\)|QuantBlocks::from_parts' \
    crates/ --include='*.rs' \
  | grep -vE '^crates/tensor/' \
  | grep -vE '^crates/nn/src/(codec|artifact)\.rs:' \
  | grep -vE '^crates/exec/src/run\.rs:' \
  || true)

serde_violations=$(
  { grep -rn 'serde' crates/tensor/src crates/tensor/tests --include='*.rs'
    grep -n 'serde_json' crates/tensor/Cargo.toml; } || true)

status=0
if [ -n "$storage_violations" ]; then
  {
    echo "error: Storage variant access outside crates/tensor —"
    echo "use Tensor accessors (data()/dtype()/quantized()) instead:"
    echo "$storage_violations"
  } >&2
  status=1
fi
if [ -n "$quant_violations" ]; then
  {
    echo "error: raw quantized-block access outside the allowlist —"
    echo "only the tensor codec and arena executor may touch block parts:"
    echo "$quant_violations"
  } >&2
  status=1
fi
if [ -n "$serde_violations" ]; then
  {
    echo "error: serde in crates/tensor — a tensor has no wire format of"
    echo "its own; tensors are written by crates/nn/src/codec.rs only:"
    echo "$serde_violations"
  } >&2
  status=1
fi
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
echo "storage boundary: ok — dtype internals stay inside crates/tensor"
