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
# The turl-core integration tests (crates/core/tests/*.rs) take their
# inputs from the fixture corpus, crates/core/tests/support/: a full
# `EncodedInput { .. }` literal or a `fn .. -> EncodedInput` in one of
# them is a hand-rolled builder growing back. A struct-update edit of an
# input already built (`EncodedInput { mask: None, ..x.clone() }`) is
# allowed.
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

# A literal may span lines: collect it up to its closing brace, and let
# it through only when it ends in a struct update (`..base` right after
# a `{` or a `,`).
builders=$(awk '
    function count(s, c,   t) { t = s; return gsub(c, "", t) }
    function close_literal() {
      if (literal !~ /[{,][[:space:]]*\.\./) print where
      depth = 0
    }
    FNR == 1 { depth = 0 }
    depth > 0 {
      literal = literal " " $0
      depth += count($0, "[{]") - count($0, "[}]")
      if (depth <= 0) close_literal()
      next
    }
    /->[[:space:]]*EncodedInput([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; next }
    /EncodedInput \{/ && !/(struct|impl) +EncodedInput \{/ {
      where = FILENAME ":" FNR ": " $0
      literal = substr($0, index($0, "EncodedInput {"))
      depth = count(literal, "[{]") - count(literal, "[}]")
      if (depth <= 0) close_literal()
    }' crates/core/tests/*.rs)

if [ -n "$violations" ]; then
  {
    echo "error: hand-built EncodedInput in crates/*/src — build a turl_data::Table"
    echo "and encode it through TableInstance::from_table and EncodedInput::from_instance:"
    echo "$violations"
  } >&2
fi
if [ -n "$builders" ]; then
  {
    echo "error: hand-rolled EncodedInput builder in crates/core/tests — add a Shape or"
    echo "a case to the fixture corpus (crates/core/tests/support/mod.rs) instead:"
    echo "$builders"
  } >&2
fi
[ -z "$violations$builders" ] || exit 1
echo "input path: ok — every model input goes through the linearizer or the fixture corpus"
