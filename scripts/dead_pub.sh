#!/usr/bin/env bash
# Public functions nothing outside their own tests names: every `pub fn`
# under `crates/*/src` whose name appears in no non-test line of
# `crates/*/src`, `src/`, `examples/` or `benchmark/src`, other than in a
# `fn NAME` definition. Non-test lines are the ones `scripts/loc.sh`
# counts (before a file's first line that IS `#[cfg(test)]`).
#
# Name-based: a `pub fn new` is never listed while any `new` is called, a
# method is "used" when a different type's method of the same name is,
# and a name in a comment or a doctest counts as a use. It is a report to
# read, not a CI gate: an item it lists may be a test seam kept on
# purpose.
#
#   scripts/dead_pub.sh [ROOT]    # ROOT defaults to this checkout
set -euo pipefail
export LC_ALL=C

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# Non-test lines, prefixed with `path:line:`.
non_test() {
    find "$@" -name '*.rs' 2>/dev/null | sort | while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ":" $0 }' "$f"
    done
}

defs="$(mktemp)"
used="$(mktemp)"
trap 'rm -f "$defs" "$used"' EXIT

non_test crates/*/src >"$defs"
# Every identifier of every scanned line, with definitions taken out.
non_test crates/*/src src examples benchmark/src |
    cut -d: -f3- |
    sed -E 's/\bfn [A-Za-z_][A-Za-z0-9_]*//g' |
    grep -oE '\b[A-Za-z_][A-Za-z0-9_]*\b' |
    sort -u >"$used"

sed -nE 's/^([^:]+:[0-9]+):[[:space:]]*pub fn ([A-Za-z_][A-Za-z0-9_]*).*/\2 \1/p' "$defs" |
    sort -k1,1 |
    join -v 1 - "$used" |
    awk '{ print $2 "  " $1 }' |
    sort -t: -k1,1 -k2,2n
