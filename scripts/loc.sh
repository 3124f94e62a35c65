#!/usr/bin/env bash
# Non-test line counts per crate: for every `.rs` file under
# `crates/*/src` (and the facade's `src/`), the lines before the file's
# first line that IS `#[cfg(test)]` (anchored at the line start, so a
# doc comment that mentions the attribute does not end the count); a
# file without one counts whole. Run from anywhere inside the repo.
#
#   scripts/loc.sh [ROOT]    # ROOT defaults to this checkout
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

count() {
    local total=0 n f
    for f in "$@"; do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        total=$((total + n))
    done
    echo "$total"
}

all=0
for dir in "$root"/crates/*/src "$root"/src; do
    [ -d "$dir" ] || continue
    mapfile -t files < <(find "$dir" -name '*.rs' | sort)
    n=$(count "${files[@]}")
    all=$((all + n))
    name="${dir#"$root"/}"
    printf '%-22s %6d\n' "${name%/src}" "$n"
done
printf '%-22s %6d\n' "total" "$all"
