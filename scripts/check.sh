#!/usr/bin/env bash
# Full pre-merge gate: lint, format, tier-1 build+test, and the golden
# Chrome-trace schema/determinism tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --all -- --check

echo "== rustdoc (deny warnings): no intra-doc link left dangling =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== repo benchmark type-checks against the workspace API =="
# benchmark/ is its own package outside the workspace, so nothing else here
# compiles it: an API change can break it unseen. Type-check only (same
# target dir as benchmark/run.sh), and ahead of the test run, so that a
# signature change is proven benchmark-compatible before anything slower
# runs; its timing smoke below stays advisory.
cargo check --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "${CARGO_TARGET_DIR:-target/benchmark}"

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== golden trace schema + determinism =="
cargo test -q -p overflow-d --test observability

echo "== M:N scheduler: 512 virtual ranks on 8 OS threads; 128 ranks 1:1 vs M:N; 256-rank donor search quiesces =="
cargo test -q --release -p overflow-d --test scheduler_modes -- --ignored

echo "== criterion microbenches compile =="
cargo bench --no-run

echo "== repro smoke test (one table, the one run-time switch) =="
./target/release/repro table1 --quick > /dev/null
./target/release/repro ablate-restart --quick > /dev/null

echo "== the paper's shapes (DESIGN.md §4): exit 1 on a FAIL or an unexpected pass =="
./target/release/repro verify-shapes --quick

echo "== repo benchmark smoke (advisory) =="
# One round of every workload with its output checks (serial reference,
# orphans, sample-to-sample determinism). Timings on a CI host are noise,
# so a failure is reported but does not fail the check.
if ! benchmark/run.sh --smoke > /dev/null; then
    echo "benchmark/run.sh --smoke: a workload check failed (advisory)" >&2
fi

echo "== analyzer smoke test =="
./target/release/repro analyze table1 --quick > /dev/null

echo "== analyze-diff smoke: byte-deterministic diff of two quick analyses =="
DIFF_TMP="$(mktemp -d)"
trap 'rm -rf "$DIFF_TMP"' EXIT
./target/release/repro analyze table1 --quick --json -o "$DIFF_TMP/a.json" > /dev/null
./target/release/repro analyze table1 --quick --json -o "$DIFF_TMP/b.json" > /dev/null
cmp "$DIFF_TMP/a.json" "$DIFF_TMP/b.json" || {
    echo "analyze --json: two identical quick runs produced different documents" >&2
    exit 1
}
./target/release/repro analyze-diff "$DIFF_TMP/a.json" "$DIFF_TMP/b.json" > "$DIFF_TMP/d1.txt"
./target/release/repro analyze-diff "$DIFF_TMP/a.json" "$DIFF_TMP/b.json" > "$DIFF_TMP/d2.txt"
cmp "$DIFF_TMP/d1.txt" "$DIFF_TMP/d2.txt" || {
    echo "analyze-diff: output not byte-deterministic" >&2
    exit 1
}
grep -q "no wait-state regressions beyond tolerance" "$DIFF_TMP/d1.txt" || {
    echo "analyze-diff: self-diff must report no regressions" >&2
    exit 1
}

echo "== alloc determinism smoke: identical runs must gate-compare clean =="
./target/release/repro report table1 --quick -o "$DIFF_TMP/r1.json" > /dev/null
./target/release/repro report table1 --quick -o "$DIFF_TMP/r2.json" > /dev/null
./target/release/repro compare "$DIFF_TMP/r1.json" "$DIFF_TMP/r2.json" > /dev/null || {
    echo "alloc determinism: two identical quick runs failed the exact gate" >&2
    exit 1
}

echo "== alloc gate smoke: injected allocations must fail the compare =="
./target/release/repro report table1 --quick --inject-alloc 64 -o "$DIFF_TMP/r3.json" > /dev/null
INJECT_RC=0
./target/release/repro compare "$DIFF_TMP/r1.json" "$DIFF_TMP/r3.json" > /dev/null || INJECT_RC=$?
if [[ "$INJECT_RC" != "1" ]]; then
    echo "alloc gate: --inject-alloc 64 should make compare exit 1 (got $INJECT_RC)" >&2
    exit 1
fi

echo "== host report smoke: analyze --host must be byte-deterministic =="
./target/release/repro analyze "$DIFF_TMP/r1.json" --host -o "$DIFF_TMP/h1.txt" > /dev/null
./target/release/repro analyze "$DIFF_TMP/r1.json" --host -o "$DIFF_TMP/h2.txt" > /dev/null
cmp "$DIFF_TMP/h1.txt" "$DIFF_TMP/h2.txt" || {
    echo "analyze --host: output not byte-deterministic" >&2
    exit 1
}

echo "== multi-process transport: bit-equality smoke =="
SMOKE_OUT="$(./target/release/repro smoke)"
if ! grep -q "bit-equal" <<< "$SMOKE_OUT"; then
    echo "transport smoke: proc and inproc backends diverged" >&2
    exit 1
fi

echo "== multi-process transport: killed-child robustness =="
cargo test -q --release -p overset-comm --test transport_conformance killed_child

echo "== perf regression gate =="
./scripts/bench_gate.sh

echo "== line ledger (scripts/loc.sh: production lines / code lines per crate) =="
./scripts/loc.sh

echo "All checks passed."
