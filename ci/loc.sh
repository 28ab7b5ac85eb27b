#!/usr/bin/env bash
# Non-test source lines per crate: in every `.rs` file under
# `crates/*/src`, the lines before its first `#[cfg(test)]` that are
# neither blank nor `//` comments (doc comments included). Count a
# tree that `cargo fmt` has formatted (CI's lint job checks that first),
# so that line breaks are the formatter's and counts compare across
# commits.
#
#   bash ci/loc.sh        # from the repository root
set -euo pipefail

total=0
for crate in crates/*/; do
    lines=0
    while IFS= read -r file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
                 /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
                 { n++ }
                 END { print n + 0 }' "$file")
        lines=$((lines + n))
    done < <(find "$crate/src" -name '*.rs' | sort)
    printf '%-10s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
