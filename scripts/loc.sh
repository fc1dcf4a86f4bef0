#!/bin/sh
# Non-test, non-comment, non-blank lines of Rust per crate.
#
#   scripts/loc.sh [repo-root]        (default: the checkout this script is in)
#
# Counted: every `src/**/*.rs` of each workspace crate and of the root
# package. Not counted: files named `tests.rs`, everything from a
# `#[cfg(test)]` item that opens a block to the end of its file (the
# repo's convention puts the test module last), a `#[cfg(test)] mod x;`
# declaration, blank lines, and lines that hold only a `//` comment.
# `tests/`, `benches/`, `examples/` and `benchmark/` are not `src/`.
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"

count() {
    find "$1" -name '*.rs' ! -name 'tests.rs' | sort | xargs awk '
        FNR == 1 { in_tests = 0; pending = 0 }
        in_tests { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
        pending {
            pending = 0
            if ($0 ~ /;[[:space:]]*$/) next
            in_tests = 1
            next
        }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

total=0
printf '%-16s %8s\n' crate lines
for dir in crates/*/src src; do
    case $dir in
        src) name=megatron-repro ;;
        *) name=$(basename "$(dirname "$dir")") ;;
    esac
    n=$(count "$dir")
    total=$((total + n))
    printf '%-16s %8d\n' "$name" "$n"
done
printf '%-16s %8d\n' workspace "$total"
