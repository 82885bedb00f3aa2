#!/usr/bin/env bash
# Input-path lint: every model input in library code comes from the §4.2
# linearizer — `TableInstance::from_table` → `EncodedInput::from_instance`,
# then masking edits — so an `EncodedInput { .. }` struct literal in
# crates/*/src is a second, hand-built linearization. Allowed:
#
#   * crates/core/src/input.rs — `from_instance` itself;
#   * crates/baselines/src/bert_re.rs — BERT-RE reads the table metadata
#     and the entity pair as one sentence, a different input format by
#     design, not a table linearization;
#   * anything after a file's first `#[cfg(test)]` — tests build inputs
#     of chosen shapes on purpose.
#
# Exits non-zero listing every violation, for the CI `check` job.
set -euo pipefail
cd "$(dirname "$0")/.."

violations=$(grep -rlE 'EncodedInput \{' crates/*/src --include='*.rs' \
  | grep -vxE 'crates/core/src/input\.rs|crates/baselines/src/bert_re\.rs' \
  | xargs -r awk '
      FNR == 1 { in_test = 0 }
      /#\[cfg\(test\)\]/ { in_test = 1 }
      !in_test && /EncodedInput \{/ && !/(struct|impl|->) +EncodedInput \{/ {
        print FILENAME ":" FNR ": " $0
      }' \
  || true)

if [ -n "$violations" ]; then
  {
    echo "error: hand-built EncodedInput in crates/*/src — build a turl_data::Table"
    echo "and encode it through TableInstance::from_table and EncodedInput::from_instance:"
    echo "$violations"
  } >&2
  exit 1
fi
echo "input path: ok — every model input goes through the linearizer"
