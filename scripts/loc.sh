#!/usr/bin/env bash
# Production line count, per crate and for the workspace: every line of
# crates/*/src/**/*.rs up to the file's first inline `#[cfg(test)] mod ... {`
# (or `pub(crate) mod`, for a test module that lends a helper to another's)
# (unit tests and test-only references trail each file; tests/ and benches/
# are not under src/). Two columns: all lines, and code lines only (no blank
# and no comment-only lines). Run it on the parent and on the PR and report
# the difference in CHANGES.md.
#
# usage: scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # files... -> "<lines> <code lines>"
    awk '
        FNR == 1 { flush() }
        { line[++n] = $0 }
        END { flush(); print total + 0, code + 0 }
        function flush(   i, cut) {
            cut = n
            for (i = 1; i < n; i++)
                if (line[i] == "#[cfg(test)]" && line[i + 1] ~ /^(pub\(crate\) )?mod [a-z_]+ \{/) {
                    cut = i - 1
                    break
                }
            for (i = 1; i <= cut; i++) {
                total++
                if (line[i] !~ /^[ \t]*(\/\/.*)?$/) code++
            }
            n = 0
        }
    ' "$@"
}

printf '%-14s %8s %8s\n' crate lines code
all=()
for dir in crates/*/src; do
    mapfile -t files < <(find "$dir" -name '*.rs' | sort)
    all+=("${files[@]}")
    read -r lines code < <(count "${files[@]}")
    printf '%-14s %8d %8d\n' "$(basename "$(dirname "$dir")")" "$lines" "$code"
done
read -r lines code < <(count "${all[@]}")
printf '%-14s %8d %8d\n' total "$lines" "$code"
