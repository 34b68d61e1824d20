#!/bin/sh
# Non-test line counts: for every .rs file under the given directories
# (default: each crates/*/src), the number of lines before the first
# `#[cfg(test)]`, then a total per directory. The simplicity PRs quote
# these numbers in CHANGES.md.
#
#   scripts/nontest_lines.sh                      # every crate
#   scripts/nontest_lines.sh crates/serve/src     # one crate, per file
set -eu
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates/*/src
for dir in "$@"; do
    find "$dir" -name '*.rs' | sort | while read -r file; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, FILENAME }' "$file"
    done | awk -v dir="$dir" '{ print; total += $1 } END { printf "%6d %s (total)\n", total, dir }'
done
