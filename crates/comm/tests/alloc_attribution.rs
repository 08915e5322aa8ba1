//! Allocation-attribution conformance: heap allocations made by rank code
//! must land on the allocating rank and the phase it was in — under the
//! 1:1 thread scheduler and the M:N coroutine scheduler (a yield mid-phase
//! must not leak the attribution to whichever rank runs next on the
//! worker).
//!
//! The technique is differential: run a workload twice, identical except
//! that rank 1 makes two known extra allocations per step inside the
//! connectivity phase (one before and one after a barrier, so under M:N
//! the coroutine is suspended between them). The per-phase counters of the
//! two runs must differ by *exactly* those allocations and nothing else.

use overset_comm::runtime::UniverseBuilder;
use overset_comm::{MachineModel, Phase, RankOutput, Universe, WorkClass, NUM_PHASES};

const NRANKS: usize = 4;
const STEPS: usize = 3;
const EXTRA_BYTES: usize = 4096;
const CONN: usize = Phase::Connectivity as usize;

fn base() -> UniverseBuilder {
    Universe::builder().ranks(NRANKS).machine(&MachineModel::modern())
}

fn mn() -> UniverseBuilder {
    base().max_threads(2)
}

/// The workload: per step, a flow compute + barrier, then a connectivity
/// phase with a mid-phase barrier. With `extra`, rank 1 allocates
/// `EXTRA_BYTES` on each side of that barrier.
fn scenario(b: UniverseBuilder, extra: bool) -> Vec<RankOutput<u64>> {
    b.run(move |c| {
        for _ in 0..STEPS {
            {
                let mut ph = c.phase(Phase::Flow);
                ph.compute(50_000, WorkClass::Flow);
                ph.barrier();
            }
            {
                let mut ph = c.phase(Phase::Connectivity);
                if extra && ph.rank() == 1 {
                    std::hint::black_box(vec![0u8; EXTRA_BYTES]);
                }
                // Mid-phase suspension point: under M:N the coroutine
                // yields here and another rank reuses this OS thread.
                ph.barrier();
                if extra && ph.rank() == 1 {
                    std::hint::black_box(vec![0u8; EXTRA_BYTES]);
                }
                ph.barrier();
            }
            c.end_step();
        }
        c.rank() as u64
    })
}

/// The extra run differs from the baseline by exactly 2 allocations of
/// `EXTRA_BYTES` per step, on rank 1, in connectivity — zero drift
/// anywhere else (any other delta means attribution leaked).
fn assert_exact_delta(base: &[RankOutput<u64>], extra: &[RankOutput<u64>]) {
    for (r, (b, e)) in base.iter().zip(extra).enumerate() {
        for p in 0..NUM_PHASES {
            let (da, db) = if r == 1 && p == CONN {
                ((2 * STEPS) as u64, (2 * STEPS * EXTRA_BYTES) as u64)
            } else {
                (0, 0)
            };
            assert_eq!(
                e.alloc.allocs[p] - b.alloc.allocs[p],
                da,
                "alloc-count delta for rank {r} phase {p}"
            );
            assert_eq!(
                e.alloc.bytes[p] - b.alloc.bytes[p],
                db,
                "alloc-bytes delta for rank {r} phase {p}"
            );
        }
        // The per-step series localizes the same delta to every step.
        assert_eq!(b.steps.len(), STEPS);
        assert_eq!(e.steps.len(), STEPS);
        for (s, (bs, es)) in b.steps.iter().zip(&e.steps).enumerate() {
            assert_eq!(bs.step, s as u64);
            assert_eq!(es.step, s as u64);
            let (da, db) = if r == 1 { (2u64, (2 * EXTRA_BYTES) as u64) } else { (0, 0) };
            assert_eq!(es.allocs[CONN] - bs.allocs[CONN], da, "rank {r} step {s} conn allocs");
            assert_eq!(
                es.alloc_bytes[CONN] - bs.alloc_bytes[CONN],
                db,
                "rank {r} step {s} conn bytes"
            );
        }
    }
}

#[test]
fn connectivity_allocs_attribute_to_rank_and_phase_inproc() {
    assert_exact_delta(&scenario(base(), false), &scenario(base(), true));
}

/// A coroutine switch mid-phase (at the barrier between the two extra
/// allocations) must not leak rank 1's attribution to the rank that runs
/// next on the same worker thread.
#[test]
fn attribution_survives_mn_coroutine_switches() {
    assert_exact_delta(&scenario(mn(), false), &scenario(mn(), true));
}

/// The bit-gate contract: for a fixed configuration, two identical runs
/// produce identical per-phase and per-step allocation counts.
#[test]
fn alloc_counts_are_bit_identical_run_to_run() {
    for build in [base, mn] {
        let a = scenario(build(), true);
        let b = scenario(build(), true);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.alloc, rb.alloc, "per-phase totals must be deterministic");
            assert_eq!(ra.steps, rb.steps, "per-step series must be deterministic");
        }
    }
}

/// A collective's gathered buffer is freed by whichever rank drops its view
/// last, which host timing decides. Neither its allocation nor that free
/// may be attributed, or the per-rank free counts wander run to run: 16
/// preemptible 1:1 threads and many rounds, so lucky scheduling cannot
/// hide it. The payload vectors themselves are rank code and are counted.
#[test]
fn shared_collective_buffers_stay_out_of_attribution() {
    const WIDE: usize = 16;
    const ROUNDS: usize = 40;
    let run = || {
        Universe::builder().ranks(WIDE).machine(&MachineModel::modern()).run(|c| {
            let mut ph = c.phase(Phase::Connectivity);
            let mut seen = 0u64;
            for round in 0..ROUNDS {
                let mine = vec![(ph.rank() + round) as u32; 64];
                let view = ph.allgather(mine, 256);
                seen += view.iter().map(|v| u64::from(v[0])).sum::<u64>();
            }
            seen
        })
    };
    let first = run();
    for r in &first {
        assert_eq!(r.alloc.allocs[CONN], ROUNDS as u64, "one payload vector per round");
        assert_eq!(r.alloc.frees[CONN], 0, "a shared buffer's free was attributed");
    }
    for _ in 0..4 {
        for (a, b) in first.iter().zip(&run()) {
            assert_eq!(a.alloc, b.alloc, "per-phase totals must be deterministic");
        }
    }
}

/// Frees are attributed too: the extra vectors die in the phase that made
/// them, so rank 1's connectivity frees grow by the same amount.
#[test]
fn frees_follow_the_allocating_phase() {
    let b = scenario(base(), false);
    let e = scenario(base(), true);
    assert_eq!(e[1].alloc.frees[CONN] - b[1].alloc.frees[CONN], (2 * STEPS) as u64);
    assert_eq!(
        e[1].alloc.freed_bytes[CONN] - b[1].alloc.freed_bytes[CONN],
        (2 * STEPS * EXTRA_BYTES) as u64
    );
}
