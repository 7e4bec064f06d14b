#!/bin/sh
# Non-test lines: for every *.rs file under the given paths, the number
# of lines before its first `#[cfg(test)]` (the whole file when it has
# none), one row per file and a total. This is the measure simplicity
# issues quote ("no file above N non-test lines", "crate X shrinks").
#
#   scripts/non_test_lines.sh crates/query/src crates/relation/src
set -eu
[ $# -gt 0 ] || { echo "usage: $0 <path>..." >&2; exit 2; }
find "$@" -name '*.rs' -type f | LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, f }' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
