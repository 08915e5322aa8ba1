//! Scheduler conformance: both schedulers must implement the same protocol
//! semantics — FIFO per (src, tag) channel, tag matching, disconnect,
//! type-mismatch and mixed-collective failures, deterministic collectives,
//! abort-on-peer-panic.
//!
//! Each scenario is written once against `UniverseBuilder` and run with one
//! OS thread per rank and with M:N coroutines on two workers. Bit-identical
//! clocks across the two are `runtime.rs`'s
//! `mn_clocks_bit_identical_to_thread_mode`.

use overset_comm::runtime::UniverseBuilder;
use overset_comm::{MachineModel, OversetError, RankOutput, Universe};
use std::sync::Arc;

const NRANKS: usize = 4;

fn base() -> UniverseBuilder {
    Universe::builder().ranks(NRANKS).machine(&MachineModel::modern())
}

fn mn() -> UniverseBuilder {
    base().max_threads(2)
}

// ---------------------------------------------------------------------------
// Ordering + tag matching
// ---------------------------------------------------------------------------

/// Rank r streams three same-tag messages and one out-of-band message to
/// rank (r+2) % 4. The receiver takes the out-of-band tag first, then the
/// stream — which must arrive FIFO.
fn scenario_ordering(b: UniverseBuilder) -> Vec<RankOutput<(Vec<u64>, u64)>> {
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
        (stream, oob)
    })
}

fn check_ordering(out: &[RankOutput<(Vec<u64>, u64)>]) {
    for (r, o) in out.iter().enumerate() {
        let src = ((r + 2) % NRANKS) as u64;
        assert_eq!(o.result.0, vec![src * 10, src * 10 + 1, src * 10 + 2], "rank {r} stream");
        assert_eq!(o.result.1, src * 1000, "rank {r} out-of-band");
    }
}

#[test]
fn ordering_and_tag_matching() {
    check_ordering(&scenario_ordering(base()));
    check_ordering(&scenario_ordering(mn()));
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

type CollectiveRound = (Vec<usize>, f64, usize, f64);

fn scenario_collectives(b: UniverseBuilder) -> Vec<RankOutput<CollectiveRound>> {
    b.run(|c| {
        c.compute(1_000_000 * (c.rank() + 1) as u64, overset_comm::WorkClass::Flow);
        let gathered = c.allgather(c.rank() * 3, 8).to_vec();
        let m =
            c.allgather(c.rank() as f64 * 1.5, 8).iter().copied().fold(f64::NEG_INFINITY, f64::max);
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
fn collectives() {
    check_collectives(&scenario_collectives(base()));
    check_collectives(&scenario_collectives(mn()));
}

// ---------------------------------------------------------------------------
// A collective's result is shared, never copied
// ---------------------------------------------------------------------------

/// Deliberately not `Clone`: gathering it compiles only while `allgather`
/// moves contributions into one buffer instead of copying them per rank.
struct Row(Vec<u32>);

/// What one rank saw: (address of the gathered buffer in the last round,
/// every round held every rank's row, own row came back un-copied).
type SharedResult = (usize, bool, bool);

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
        (addr, complete, own_aliased)
    })
}

#[test]
fn collective_result_is_one_buffer() {
    for out in [scenario_shared_result(base()), scenario_shared_result(mn())] {
        for (r, o) in out.iter().enumerate() {
            assert!(o.result.1, "rank {r} read a wrong or short row");
            assert!(o.result.2, "rank {r}'s own row was copied");
            assert_eq!(o.result.0, out[0].result.0, "rank {r} viewed a private copy");
        }
    }
}

// ---------------------------------------------------------------------------
// Error semantics: type mismatch, disconnected sender, collective mismatch
// ---------------------------------------------------------------------------

/// The run's error under `b`: the failure `try_run` reports.
fn failure<R: Send>(
    b: UniverseBuilder,
    f: impl Fn(&mut overset_comm::Comm) -> R + Send + Sync,
) -> OversetError {
    match b.try_run(f) {
        Ok(_) => panic!("the run succeeded"),
        Err(e) => e,
    }
}

fn panicked(rank: usize, message: &str) -> OversetError {
    OversetError::RankPanicked { rank, phase: "other", message: message.to_string() }
}

/// Rank 0 sends a `u64` to rank 2, which asks for an `f64`: rank 2 panics
/// naming the receive, and its peers, blocked in the barrier, unwind.
fn scenario_type_mismatch(b: UniverseBuilder) -> OversetError {
    failure(b, |c| {
        if c.rank() == 0 {
            c.send(2, 5, 42u64, 8);
        } else if c.rank() == 2 {
            c.recv::<f64>(0, 5);
        }
        c.barrier();
    })
}

#[test]
fn type_mismatch() {
    let want = panicked(2, "rank 2: type mismatch receiving tag 5 from rank 0 (expected f64)");
    assert_eq!(scenario_type_mismatch(base()), want);
    assert_eq!(scenario_type_mismatch(mn()), want);
}

/// Rank 2 finishes without sending; rank 0's receive from it panics instead
/// of hanging.
fn scenario_disconnected(b: UniverseBuilder) -> OversetError {
    failure(b, |c| {
        if c.rank() == 0 {
            c.recv::<u64>(2, 77);
        }
    })
}

#[test]
fn disconnected() {
    let want = panicked(0, "rank 0: all senders disconnected while waiting for tag 77 from rank 2");
    assert_eq!(scenario_disconnected(base()), want);
    assert_eq!(scenario_disconnected(mn()), want);
}

/// Rank 0 contributes a different type to the round than everyone else.
/// The last arriver poisons the round instead of publishing it, every rank
/// panics on its own, and the lowest, rank 0, is named.
fn scenario_collective_mismatch(b: UniverseBuilder) -> OversetError {
    failure(b, |c| {
        if c.rank() == 0 {
            drop(c.allgather(1u32, 4));
        } else {
            drop(c.allgather(1u64, 8));
        }
    })
}

#[test]
fn collective_mismatch() {
    let want = panicked(0, "rank 0: mixed payload types in collective (expected u32)");
    assert_eq!(scenario_collective_mismatch(base()), want);
    assert_eq!(scenario_collective_mismatch(mn()), want);
}

// ---------------------------------------------------------------------------
// Abort semantics: peer panic
// ---------------------------------------------------------------------------

/// Rank 1 panics while ranks 0, 2, 3 are blocked receiving from it. The
/// universe must shut down with `RankPanicked { rank: 1 }` under either
/// scheduler — never hang.
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
fn peer_panic_aborts() {
    scenario_peer_panic(base());
    scenario_peer_panic(mn());
}
