#!/usr/bin/env bash
# Callerless-pub lint: every `pub fn` under crates/*/src must be named in
# some other file under crates, tests, examples or benchmark/src. A public
# function that only its own file names is either private API that
# forgot to say so, or dead code that its own tests keep alive; make it
# private or delete it. The match is by word, so a name defined in two
# files counts each file as the other's caller.
#
# Allowed (one `name<TAB>reason` line each, in ALLOW below): none yet.
#
# Exits non-zero listing every callerless function, for the CI `check` job.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=''

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# file<TAB>name of every public function definition.
grep -rnoE --include='*.rs' '\bpub (const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src \
  | sed -E 's/^([^:]+):[0-9]+:.* fn ([A-Za-z0-9_]+)$/\1\t\2/' | sort -u >"$tmp/defs"
cut -f2 "$tmp/defs" | sort -u >"$tmp/names"

# file<TAB>name of every file that names one of them.
grep -rowF --include='*.rs' -f "$tmp/names" crates tests examples benchmark/src \
  | sed -E 's/^([^:]+):/\1\t/' | sort -u >"$tmp/uses"

violations=$(awk -F'\t' -v allow="$ALLOW" '
  BEGIN { n = split(allow, lines, "\n"); for (i = 1; i <= n; i++) { split(lines[i], f, "\t"); ok[f[1]] = 1 } }
  NR == FNR { files[$2] = files[$2] " " $1; next }
  {
    if ($2 in ok) next
    n = split(files[$2], fs, " "); other = 0
    for (i = 1; i <= n; i++) if (fs[i] != $1) other = 1
    if (!other) print $1 ": pub fn " $2
  }' "$tmp/uses" "$tmp/defs")

if [ -n "$violations" ]; then
  {
    echo "error: public functions no other file names — make them private or delete them:"
    echo "$violations"
  } >&2
  exit 1
fi
echo "callerless pub fn: ok — every public function is named outside its own file"
