//! Transport conformance: every backend must implement the same protocol
//! semantics — FIFO per (src, tag) channel, tag matching, disconnect and
//! type-mismatch errors, deterministic collectives, abort-on-peer-panic —
//! and produce bit-identical virtual time.
//!
//! Each scenario is written once against `UniverseBuilder` and run on the
//! in-process backend (1:1 threads and M:N coroutines) and on the process
//! backend (rank groups in forked OS processes). Process-backed tests pass
//! their own test path so the forked children replay exactly one test.

use overset_comm::runtime::UniverseBuilder;
use overset_comm::{MachineModel, OversetError, RankOutput, TransportConfig, Universe, Wire};
use std::sync::Arc;

const NRANKS: usize = 4;

fn base() -> UniverseBuilder {
    Universe::builder().ranks(NRANKS).machine(&MachineModel::modern())
}

fn mn() -> UniverseBuilder {
    base().max_threads(2)
}

/// Process transport: two rank-group children ({0,1} and {2,3}), so ranks
/// 0↔2 always cross a socket. `test` is the calling test's `--exact` path.
fn proc(test: &str) -> UniverseBuilder {
    base().transport(TransportConfig::process_for_test(2, test))
}

// ---------------------------------------------------------------------------
// Ordering + tag matching
// ---------------------------------------------------------------------------

/// Rank r streams three same-tag messages and one out-of-band message to
/// rank (r+2) % 4 (always cross-group on proc:2). The receiver takes the
/// out-of-band tag first, then the stream — which must arrive FIFO.
fn scenario_ordering(b: UniverseBuilder) -> Vec<RankOutput<(Vec<u64>, u64, f64)>> {
    b.run(|c| {
        let me = c.rank() as u64;
        let dst = (c.rank() + 2) % c.size();
        let src = (c.rank() + 2) % c.size();
        for i in 0..3u64 {
            c.send(dst, 7, me * 10 + i, 32);
        }
        c.send(dst, 9, me * 1000, 8);
        let oob: u64 = c.recv(src, 9);
        let stream: Vec<u64> = (0..3).map(|_| c.recv::<u64>(src, 7)).collect();
        c.barrier();
        (stream, oob, c.now())
    })
}

fn check_ordering(out: &[RankOutput<(Vec<u64>, u64, f64)>]) {
    for (r, o) in out.iter().enumerate() {
        let src = ((r + 2) % NRANKS) as u64;
        assert_eq!(o.result.0, vec![src * 10, src * 10 + 1, src * 10 + 2], "rank {r} stream");
        assert_eq!(o.result.1, src * 1000, "rank {r} out-of-band");
    }
}

#[test]
fn ordering_and_tag_matching_inproc() {
    check_ordering(&scenario_ordering(base()));
    check_ordering(&scenario_ordering(mn()));
}

#[test]
fn ordering_and_tag_matching_proc() {
    let out = scenario_ordering(proc("ordering_and_tag_matching_proc"));
    check_ordering(&out);
    // Same protocol, same bytes, same clocks: the process run must agree
    // with the in-process run bit for bit.
    let reference = scenario_ordering(base());
    for (a, b) in out.iter().zip(&reference) {
        assert_eq!(a.result.2.to_bits(), b.result.2.to_bits(), "clock diverged across backends");
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.clock.to_bits(), b.clock.to_bits());
    }
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

type CollectiveRound = (Vec<usize>, f64, usize, f64);

fn scenario_collectives(b: UniverseBuilder) -> Vec<RankOutput<CollectiveRound>> {
    b.run(|c| {
        c.compute(1_000_000 * (c.rank() + 1) as u64, overset_comm::WorkClass::Flow);
        let gathered = c.allgather(c.rank() * 3, 8).to_vec();
        let m = c.allreduce_max(c.rank() as f64 * 1.5);
        let s = c.allreduce_sum_usize(c.rank());
        c.barrier();
        (gathered, m, s, c.now())
    })
}

fn check_collectives(out: &[RankOutput<CollectiveRound>]) {
    let expect: Vec<usize> = (0..NRANKS).map(|r| r * 3).collect();
    for o in out {
        assert_eq!(o.result.0, expect);
        assert_eq!(o.result.1, (NRANKS - 1) as f64 * 1.5);
        assert_eq!(o.result.2, NRANKS * (NRANKS - 1) / 2);
        // Collectives synchronize the clock: all ranks leave equal.
        assert_eq!(o.result.3.to_bits(), out[0].result.3.to_bits());
    }
}

#[test]
fn collectives_inproc() {
    check_collectives(&scenario_collectives(base()));
    check_collectives(&scenario_collectives(mn()));
}

#[test]
fn collectives_proc() {
    let out = scenario_collectives(proc("collectives_proc"));
    check_collectives(&out);
    let reference = scenario_collectives(base());
    for (a, b) in out.iter().zip(&reference) {
        assert_eq!(a.result.3.to_bits(), b.result.3.to_bits(), "collective clock diverged");
        assert_eq!(a.metrics, b.metrics);
    }
}

// ---------------------------------------------------------------------------
// A collective's result is shared, never copied
// ---------------------------------------------------------------------------

/// Deliberately not `Clone`: gathering it compiles only while `allgather`
/// moves contributions into one buffer instead of copying them per rank.
struct Row(Vec<u32>);

impl Wire for Row {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut overset_comm::WireReader<'_>) -> Result<Self, overset_comm::WireError> {
        Ok(Row(Vec::decode(r)?))
    }
}

/// What one rank saw: (address of the gathered buffer in the last round,
/// every round held every rank's row, own row came back un-copied, clock).
type SharedResult = (usize, bool, bool, f64);

const SHARED_ROUNDS: u32 = 3;

/// The donor-search round pattern: each rank owns one row, contributes a
/// shared handle to it every round and refills it in place for the next —
/// which requires that every view of the previous round is gone once a
/// later collective (here the barrier) has completed.
fn scenario_shared_result(b: UniverseBuilder) -> Vec<RankOutput<SharedResult>> {
    b.run(|c| {
        let me = c.rank();
        let mut mine = Arc::new(Row(Vec::new()));
        let (mut addr, mut complete, mut own_aliased) = (0, true, true);
        for round in 0..SHARED_ROUNDS {
            let row = Arc::get_mut(&mut mine).expect("a view of the previous round is alive");
            row.0.clear();
            row.0.extend([me as u32, round]);
            let view = c.allgather(Arc::clone(&mine), 8);
            addr = view.as_ptr() as usize;
            complete &= view.len() == c.size()
                && view.iter().enumerate().all(|(r, row)| row.0 == [r as u32, round]);
            own_aliased &= Arc::ptr_eq(&view[me], &mine);
            drop(view);
            c.barrier();
        }
        (addr, complete, own_aliased, c.now())
    })
}

#[test]
fn collective_result_is_one_buffer_inproc() {
    for out in [scenario_shared_result(base()), scenario_shared_result(mn())] {
        for (r, o) in out.iter().enumerate() {
            assert!(o.result.1, "rank {r} read a wrong or short row");
            assert!(o.result.2, "rank {r}'s own row was copied");
            assert_eq!(o.result.0, out[0].result.0, "rank {r} viewed a private copy");
        }
    }
}

/// Across a process boundary rows are decoded — once per rank group, whose
/// ranks then share the decoded vector — and clocks match the in-process run.
#[test]
fn collective_result_is_one_buffer_per_process_proc() {
    let out = scenario_shared_result(proc("collective_result_is_one_buffer_per_process_proc"));
    let reference = scenario_shared_result(base());
    for (o, r) in out.iter().zip(&reference) {
        assert!(o.result.1, "a rank read a wrong or short row");
        assert!(!o.result.2, "a row cannot alias across a socket");
        assert_eq!(o.result.3.to_bits(), r.result.3.to_bits(), "collective clock diverged");
        assert_eq!(o.metrics, r.metrics);
    }
    for group in out.chunks(2) {
        assert_eq!(group[0].result.0, group[1].result.0, "rank group decoded the round twice");
    }
}

// ---------------------------------------------------------------------------
// Error semantics: type mismatch, disconnected sender, collective mismatch
// ---------------------------------------------------------------------------

/// Rank 0 sends a `u64` to rank 2, which asks for an `f64`; rank 2 must see
/// `TypeMismatch` (not a mis-decode) on every backend.
fn scenario_type_mismatch(b: UniverseBuilder) -> Vec<RankOutput<u8>> {
    b.run(|c| {
        let mut marker = 0u8;
        if c.rank() == 0 {
            c.send(2, 5, 42u64, 8);
        } else if c.rank() == 2 {
            marker = match c.try_recv::<f64>(0, 5) {
                Err(OversetError::TypeMismatch { rank: 2, src: 0, tag: 5, .. }) => 1,
                other => panic!("expected TypeMismatch, got {other:?}"),
            };
        }
        c.barrier();
        marker
    })
}

#[test]
fn type_mismatch_inproc() {
    assert_eq!(scenario_type_mismatch(base())[2].result, 1);
    assert_eq!(scenario_type_mismatch(mn())[2].result, 1);
}

#[test]
fn type_mismatch_proc() {
    assert_eq!(scenario_type_mismatch(proc("type_mismatch_proc"))[2].result, 1);
}

/// Rank 2 finishes without sending; rank 0's receive from it must fail with
/// `Disconnected` instead of hanging — including across processes, where
/// the finish travels as a frame.
fn scenario_disconnected(b: UniverseBuilder) -> Vec<RankOutput<u8>> {
    b.run(|c| {
        if c.rank() == 0 {
            match c.try_recv::<u64>(2, 77) {
                Err(OversetError::Disconnected { rank: 0, src: 2, tag: 77 }) => 1,
                other => panic!("expected Disconnected, got {other:?}"),
            }
        } else {
            0
        }
    })
}

#[test]
fn disconnected_inproc() {
    assert_eq!(scenario_disconnected(base())[0].result, 1);
    assert_eq!(scenario_disconnected(mn())[0].result, 1);
}

#[test]
fn disconnected_proc() {
    assert_eq!(scenario_disconnected(proc("disconnected_proc"))[0].result, 1);
}

/// Rank 0 contributes a different type to the round than everyone else:
/// every rank must see `CollectiveMismatch` (the process backend detects it
/// via wire type hashes and poisons the round).
fn scenario_collective_mismatch(b: UniverseBuilder) -> Vec<RankOutput<u8>> {
    b.run(|c| {
        let ok = if c.rank() == 0 {
            matches!(c.try_allgather(1u32, 4), Err(OversetError::CollectiveMismatch { .. }))
        } else {
            matches!(c.try_allgather(1u64, 8), Err(OversetError::CollectiveMismatch { .. }))
        };
        u8::from(ok)
    })
}

#[test]
fn collective_mismatch_inproc() {
    for o in scenario_collective_mismatch(base()) {
        assert_eq!(o.result, 1);
    }
}

#[test]
fn collective_mismatch_proc() {
    for o in scenario_collective_mismatch(proc("collective_mismatch_proc")) {
        assert_eq!(o.result, 1);
    }
}

// ---------------------------------------------------------------------------
// Abort semantics: peer panic and child-process death
// ---------------------------------------------------------------------------

/// Rank 1 panics while ranks 0, 2, 3 are blocked receiving from it. The
/// universe must shut down with `RankPanicked { rank: 1 }` on every
/// backend — never hang.
fn scenario_peer_panic(b: UniverseBuilder) {
    let err = b
        .try_run(|c| {
            if c.rank() == 1 {
                panic!("deliberate failure on rank 1");
            }
            c.recv::<u64>(1, 3)
        })
        .unwrap_err();
    match err {
        OversetError::RankPanicked { rank, message, .. } => {
            assert_eq!(rank, 1);
            assert!(message.contains("deliberate failure"), "message: {message}");
        }
        other => panic!("expected RankPanicked, got {other}"),
    }
}

#[test]
fn peer_panic_aborts_inproc() {
    scenario_peer_panic(base());
    scenario_peer_panic(mn());
}

#[test]
fn peer_panic_aborts_proc() {
    scenario_peer_panic(proc("peer_panic_aborts_proc"));
}

/// A rank-group process dies without a goodbye (here: `exit(3)` mid-run,
/// standing in for a crash or an OOM kill). The parent must detect the
/// socket EOF, abort the surviving group, and surface `RankPanicked` —
/// instead of the remaining ranks hanging in `recv` forever.
#[test]
fn killed_child_process_surfaces_rank_panicked() {
    let err = proc("killed_child_process_surfaces_rank_panicked")
        .try_run(|c| {
            if c.rank() == 3 {
                // Kills the whole {2,3} group process, bypassing every
                // cleanup path. Safe: the parent router runs no ranks.
                std::process::exit(3);
            }
            c.recv::<u64>(3, 11)
        })
        .unwrap_err();
    match err {
        OversetError::RankPanicked { rank, message, .. } => {
            assert_eq!(rank, 2, "failure attributed to the dead group's first rank");
            assert!(message.contains("exited unexpectedly"), "message: {message}");
        }
        other => panic!("expected RankPanicked, got {other}"),
    }
}

/// A killed rank-group child with a binary telemetry stream attached leaves
/// truncated-but-parseable span files: every step closed before the kill is
/// recoverable from disk, and the reader names the gap. (`repro analyze
/// <dir>` turns that gap into an exit-2 diagnosis — covered in the bench
/// crate; this test proves the on-disk contract the diagnosis rests on.)
#[test]
fn killed_child_leaves_truncated_but_parseable_stream() {
    use overset_comm::trace::TraceConfig;
    use overset_comm::{read_span_dir, Phase, WorkClass};

    let dir = std::env::temp_dir().join("overset_conformance_killed_stream");
    // The forked children replay this test body before `try_run`; only the
    // parent (no child env var) may clear the sink directory, or a late
    // child would wipe the other group's live stream.
    let is_parent = std::env::var_os("OVERSET_PROC_CHILD").is_none();
    if is_parent {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let err = proc("killed_child_leaves_truncated_but_parseable_stream")
        .trace(TraceConfig::enabled().with_stream(&dir))
        .try_run(|c| {
            for s in 0..4 {
                {
                    let mut ph = c.phase(Phase::Flow);
                    ph.compute(100_000, WorkClass::Flow);
                }
                c.end_step();
                if s == 1 && c.rank() == 3 {
                    // Dies right after closing step 1: steps 0..=1 are
                    // already flushed chunks, the footer never lands.
                    std::process::exit(3);
                }
            }
            c.barrier();
            0u64
        })
        .unwrap_err();
    assert!(matches!(err, OversetError::RankPanicked { .. }), "got {err}");

    let sd = read_span_dir(&dir).unwrap();
    assert!(!sd.gaps.is_empty(), "the killed group must leave at least one named gap");
    let r3 = sd.ranks.iter().find(|r| r.rank == 3).expect("rank 3 stream on disk");
    assert_eq!(r3.steps.len(), 2, "steps closed before the kill are recoverable");
    let gap = r3.truncation.as_ref().expect("rank 3 stream must be marked truncated");
    assert!(gap.contains("without a footer") || gap.contains("inside a chunk"), "{gap}");
    assert!(sd.gaps.iter().any(|g| g.starts_with("rank 3 ")), "gaps name the rank: {:?}", sd.gaps);
    // Every stream on disk — including the surviving group's, whose final
    // state depends on abort timing — must parse to a usable prefix.
    for r in &sd.ranks {
        assert!(r.steps.len() <= 4);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Cross-backend bit-equality on a mixed workload
// ---------------------------------------------------------------------------

/// A workload mixing skewed compute, pipelined sends, reductions and
/// barriers. Clocks, counters and payload bytes must agree bit for bit
/// across 1:1 in-process, M:N in-process and multi-process backends.
#[test]
fn mixed_workload_is_bit_identical_across_backends() {
    fn workload(c: &mut overset_comm::Comm) -> (f64, f64, u64) {
        let me = c.rank();
        let n = c.size();
        let mut acc = 0u64;
        for step in 0..3 {
            c.compute(500_000 * ((me + step) % 3 + 1) as u64, overset_comm::WorkClass::Flow);
            let dst = (me + 1) % n;
            let src = (me + n - 1) % n;
            c.send(dst, step as u64, (me * 100 + step) as u64, 256);
            acc = acc.wrapping_add(c.recv::<u64>(src, step as u64));
            let total = c.allreduce_sum(acc as f64);
            if total < 0.0 {
                unreachable!();
            }
        }
        c.barrier();
        (c.now(), c.allreduce_max(c.now()), acc)
    }

    // Process run first: children re-execute this test and must reach the
    // process-backed establish before any in-process universes would slow
    // their replay down.
    let p = proc("mixed_workload_is_bit_identical_across_backends").run(workload);
    let a = base().run(workload);
    let b = mn().run(workload);
    for (r, ((pa, aa), ba)) in p.iter().zip(&a).zip(&b).enumerate() {
        assert_eq!(pa.result.2, aa.result.2, "rank {r} payload");
        assert_eq!(pa.result.0.to_bits(), aa.result.0.to_bits(), "rank {r} clock proc vs 1:1");
        assert_eq!(aa.result.0.to_bits(), ba.result.0.to_bits(), "rank {r} clock 1:1 vs M:N");
        assert_eq!(pa.result.1.to_bits(), aa.result.1.to_bits(), "rank {r} reduced clock");
        assert_eq!(pa.metrics, aa.metrics, "rank {r} registry proc vs 1:1");
        assert_eq!(aa.metrics, ba.metrics, "rank {r} registry 1:1 vs M:N");
        assert_eq!(pa.clock.to_bits(), aa.clock.to_bits(), "rank {r} final clock");
    }
}

// ---------------------------------------------------------------------------
// Wire payloads that exercise nested encodings end to end
// ---------------------------------------------------------------------------

/// A nested payload (Vec of tuples with floats and strings) crosses the
/// process boundary intact, including NaN bit patterns.
#[test]
fn nested_payloads_cross_process_boundary() {
    type Msg = Vec<(String, [f64; 2], Option<u32>)>;
    let msg: Msg = vec![
        ("alpha".into(), [1.5, f64::NAN], Some(7)),
        ("β-mixed-utf8".into(), [-0.0, 1.0e-300], None),
    ];
    let expect = msg.to_wire_bytes();
    let sent = msg.clone();
    let out = proc("nested_payloads_cross_process_boundary").run(move |c| {
        if c.rank() == 0 {
            c.send(2, 1, sent.clone(), 64);
            Vec::new()
        } else if c.rank() == 2 {
            c.recv::<Msg>(0, 1).to_wire_bytes()
        } else {
            Vec::new()
        }
    });
    assert_eq!(out[2].result, expect, "payload bytes changed crossing the socket");
}
