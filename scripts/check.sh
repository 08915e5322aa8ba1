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

echo "== solver bit-equality proptests (kernels vs scalar references, pipelined chains vs the whole grid with their carry messages and compute charges, step vs reference step, row copies vs per-node copies, block construction vs its per-node reference): release, 256 cases each =="
PROPTEST_CASES=256 cargo test -q --release -p overset-solver -- bit_equal

echo "== grid bit-equality proptest (row-hoisted metrics and their one-write construction vs per-node metric_at): release, 256 cases =="
PROPTEST_CASES=256 cargo test -q --release -p overset-grid -- bit_equal

echo "== connectivity bit-equality (cutter vs its per-node oracle, slab vs per-bin hole-lattice classes, inverse-map build vs its frozen oracle on random blocks, candidate lists and sub-bins, one-rank protocol vs serial oracle, map and arena off-paths): release, 256 cases each =="
PROPTEST_CASES=256 cargo test -q --release -p overset-connectivity -- \
    cutter_agrees_with_the_per_node_sweep_on_the_paper_systems \
    random_blocks_build_the_reference_map \
    slab_classes_equal_per_bin_classes \
    candidate_lists_hold_every_containing_cell \
    one_rank_protocol_agrees_with_the_serial_oracle_on_the_paper_systems \
    map_and_arena_change_work_never_answers

echo "== message buffers fit their messages: the request and answer pools stop growing over twelve moving store steps on 18 ranks: release =="
cargo test -q --release -p overset-connectivity -- the_search_buffers_stop_growing

echo "== donor-search records fit: bytes per IGBP (arena, donor caches, IGBP lists, deferred writes) within bound on every store step, 1 rank and 18: release =="
cargo test -q --release -p overset-connectivity -- donor_search_bookkeeping_fits_its_fringe_points

echo "== golden trace schema + determinism =="
cargo test -q -p overflow-d --test observability

echo "== M:N scheduler: 512 virtual ranks on 8 OS threads; 128 ranks 1:1 vs M:N; 256-rank donor search quiesces =="
cargo test -q --release -p overflow-d --test scheduler_modes -- --ignored

echo "== M:N wakes are never lost: 64 ranks, 2 000 cross-worker ping-pong + barrier rounds on 2 and 4 workers, clocks bit-equal to 1:1: release =="
cargo test -q --release -p overset-comm --lib -- mn_wakes_are_never_lost_across_workers

echo "== known blow-ups abort where they start (no positivity floors): airfoil x1.0 at step 37 on its trailing-edge seam node, the store's old ejection trajectory at step 22 on grid 4, full-effort Table 5's first run naming rank 5 at step 17 under threads and M:N: release =="
cargo test -q --release -p overflow-d --test integration -- --ignored \
    airfoil_full_scale_aborts_at_its_trailing_edge \
    store_old_trajectory_aborts_loudly
cargo test -q --release -p overset-bench --lib -- --ignored \
    full_effort_table5_aborts_naming_one_rank

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

echo "== analysis determinism smoke: two quick analysis documents are byte-identical =="
DIFF_TMP="$(mktemp -d)"
trap 'rm -rf "$DIFF_TMP"' EXIT
./target/release/repro analyze table1 --quick --json -o "$DIFF_TMP/a.json" > /dev/null
./target/release/repro analyze table1 --quick --json -o "$DIFF_TMP/b.json" > /dev/null
cmp "$DIFF_TMP/a.json" "$DIFF_TMP/b.json" || {
    echo "analyze --json: two identical quick runs produced different documents" >&2
    exit 1
}

echo "== report determinism smoke: two fresh quick reports agree on every value under cases =="
./target/release/repro report table1 --quick -o "$DIFF_TMP/r1.json" > /dev/null
./target/release/repro report table1 --quick -o "$DIFF_TMP/r2.json" > /dev/null
./target/release/repro compare "$DIFF_TMP/r1.json" "$DIFF_TMP/r2.json" > /dev/null || {
    echo "report determinism: two identical quick runs failed the exact gate" >&2
    exit 1
}

echo "== streamed analysis smoke: a recorded span dir analyses, a Chrome trace file exits 2 =="
./target/release/repro table1 --quick --trace-stream "$DIFF_TMP/spans" > /dev/null
./target/release/repro analyze "$DIFF_TMP/spans" > /dev/null
./target/release/repro table1 --quick --trace "$DIFF_TMP/t.json" > /dev/null
CHROME_RC=0
./target/release/repro analyze "$DIFF_TMP/t.json" > /dev/null 2>&1 || CHROME_RC=$?
if [[ "$CHROME_RC" != "2" ]]; then
    echo "analyze: a Chrome trace file is not an analysis input; want exit 2, got $CHROME_RC" >&2
    exit 1
fi

echo "== host view smoke: analyze <report> is byte-deterministic, with median and peak-heap rows =="
./target/release/repro analyze "$DIFF_TMP/r1.json" -o "$DIFF_TMP/h1.txt" > /dev/null
./target/release/repro analyze "$DIFF_TMP/r1.json" -o "$DIFF_TMP/h2.txt" > /dev/null
cmp "$DIFF_TMP/h1.txt" "$DIFF_TMP/h2.txt" || {
    echo "analyze <report>: output not byte-deterministic" >&2
    exit 1
}
grep -q "median ms" "$DIFF_TMP/h1.txt" && grep -q "peak heap (max over ranks)" "$DIFF_TMP/h1.txt" || {
    echo "analyze <report>: host view lacks the per-phase median or peak-heap rows" >&2
    exit 1
}

echo "== perf regression gate =="
./scripts/bench_gate.sh

echo "== line ledger (scripts/loc.sh: production lines / code lines per crate) =="
./scripts/loc.sh

echo "All checks passed."
