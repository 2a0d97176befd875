#!/bin/sh
# Non-test Rust lines per crate: for every .rs file under crates/<name>/src,
# the lines above its test module — the first `#[cfg(test)]` that is followed
# by a `mod … {` block (the whole file when it has none; a `#[cfg(test)]` on a
# method or a `mod …;` declaration in the middle of a file does not end the
# count). Comments and blank lines count; tests/, benches/ and examples/ do not.
set -eu
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/src; do
    n=$(find "$dir" -name '*.rs' -exec awk '
        held { held = 0; if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))? +)?mod +[A-Za-z0-9_]+ *\{/) exit; n++ }
        /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
        { n++ }
        END { print n + held }' {} \; |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%-18s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-18s %6d\n' total "$total"
