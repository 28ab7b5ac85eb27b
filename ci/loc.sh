#!/usr/bin/env bash
# Non-test source lines per crate: in every `.rs` file under
# `crates/*/src`, the lines before its first `#[cfg(test)]` that are
# neither blank nor `//` comments (doc comments included). That first
# `#[cfg(test)]` must open a module (the file's tests): a test-only
# item above the production code would hide the lines below it from
# the count, so the script fails naming the file and line. Count a
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
        n=$(awk 'pending && /^[[:space:]]*#\[/ { next }
                 pending {
                     if ($0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) { opened = 1; exit }
                     exit
                 }
                 /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; at = FNR; next }
                 /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
                 { n++ }
                 END {
                     if (pending && !opened) {
                         printf "%s:%d: the first #[cfg(test)] does not open a module\n", FILENAME, at > "/dev/stderr"
                         exit 1
                     }
                     print n + 0
                 }' "$file")
        lines=$((lines + n))
    done < <(find "$crate/src" -name '*.rs' | sort)
    printf '%-10s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"
