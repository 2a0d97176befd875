#!/bin/sh
# Non-test Rust lines per crate: for every .rs file under crates/<name>/src,
# the lines above its first `#[cfg(test)]` (the whole file when it has none).
# Comments and blank lines count; tests/, benches/ and examples/ do not.
set -eu
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/src; do
    n=$(find "$dir" -name '*.rs' -exec awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%-18s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-18s %6d\n' total "$total"
