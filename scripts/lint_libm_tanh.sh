#!/usr/bin/env bash
# libm-tanh lint: every f32 `tanh` in the product runs the kernel
# library's own (`turl_tensor::ops::{tanh_into, gelu_tanh_into, gelu}` and
# the scalar `gelu_tanh`/`gelu_fwd`, all one lane function proven equal to
# glibc's `tanhf` on all 2^32 inputs). A `.tanh()` or `f32::tanh` call in
# crates/*/src would bring the host's libm back into the model's bits and
# run at a third of the kernel's speed. Allowed:
#
#   * crates/tensor/src/ops/tanh/tests.rs — libm's `tanhf` is the oracle
#     the kernel is tested against;
#   * crates/audit/src/range.rs — `gelu64`, the f64 twin of GELU that the
#     range analysis bounds intervals with; f64 `tanh` is not a kernel and
#     its bits never reach a tensor.
#
# Exits non-zero listing every violation, for the CI `check` job.
set -euo pipefail
cd "$(dirname "$0")/.."

violations=$(grep -rnE '\.tanh\(\)|f32::tanh' crates/*/src --include='*.rs' \
  | grep -vE '^crates/tensor/src/ops/tanh/tests\.rs:' \
  | grep -vE '^crates/audit/src/range\.rs:[0-9]+: +0\.5 \* x \* \(1\.0 \+ \(0\.797_884_6 ' \
  || true)

if [ -n "$violations" ]; then
  {
    echo "error: libm tanh in crates/*/src — call turl_tensor::ops::tanh_into"
    echo "(or gelu_tanh_into / gelu / gelu_fwd) instead:"
    echo "$violations"
  } >&2
  exit 1
fi
echo "libm tanh: ok — every tanh runs the kernel library's"
