#!/usr/bin/env bash
# Lines added, removed and net under crates/*/src (inline #[cfg(test)]
# modules included) and, on a second line, under crates/*/tests, against
# a base revision: the numbers every simplicity change reports. Moving an
# inline test module out of src into tests shrinks the first line and
# grows the second by as much; only the two together say whether code
# went.
#
#   scripts/net_src_lines.sh [base]
#
# `base` defaults to the merge-base of HEAD with main (origin/main where
# there is no local main branch). Uncommitted changes to tracked files
# count; untracked files do not until they are added.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ $# -gt 0 ]; then
  base="$1"
else
  main=main
  git rev-parse --verify -q "$main" >/dev/null || main=origin/main
  base=$(git merge-base HEAD "$main")
fi

# Binary files count `-`, which awk reads as 0.
for dir in src tests; do
  git diff --numstat "$base" -- ":(glob)crates/*/$dir/**" | awk -v what="crates/*/$dir" -v base="$base" '
    { added += $1; removed += $2 }
    END { printf "%s vs %s: added %d, removed %d, net %+d\n", what, base, added, removed, added - removed }'
done
