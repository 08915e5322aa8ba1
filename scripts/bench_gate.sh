#!/usr/bin/env bash
# Perf regression gate: regenerate the quick run report and compare it
# against the committed baseline (BENCH_quick.json at the repo root).
#
# Every value under the report's `cases` is a virtual-time quantity or an
# allocation count, reproduced to the bit by any run on any host, so the
# comparison is exact: any difference is a real behaviour change. The
# wall-clock `host` section is not compared. Exit codes: 0 identical,
# 1 a difference, 2 usage/IO error.
#
#   BENCH_UPDATE=1  rewrite the baseline instead of failing (use when a PR
#                   intentionally moves a deterministic value; commit the
#                   result with the change). The differing paths are printed
#                   first, so the re-baseline's log says what moved.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_quick.json

cargo build --release -p overset-bench --bin repro

if [[ ! -f "$BASELINE" ]]; then
    echo "== bench gate: no baseline found, bootstrapping $BASELINE =="
    ./target/release/repro report table1 --quick -o "$BASELINE"
    echo "Baseline written; commit $BASELINE to arm the gate."
    exit 0
fi

NEW="$(mktemp /tmp/BENCH_quick.XXXXXX.json)"
trap 'rm -f "$NEW"' EXIT
echo "== bench gate: quick report vs $BASELINE (exact) =="
./target/release/repro report table1 --quick -o "$NEW"
RC=0
./target/release/repro compare "$BASELINE" "$NEW" || RC=$?
if [[ "${BENCH_UPDATE:-0}" == "1" ]]; then
    cp "$NEW" "$BASELINE"
    echo "Baseline $BASELINE rewritten (BENCH_UPDATE=1); commit it with the change that moved it."
    exit 0
fi
if [[ "$RC" == "1" ]]; then
    echo "intentional? \`BENCH_UPDATE=1 scripts/bench_gate.sh\` and commit $BASELINE with the change"
fi
exit "$RC"
