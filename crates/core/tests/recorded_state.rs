//! Recorded values the driver must keep reproducing: final state, every
//! virtual clock and the fringe / orphan census of two runs — on rank
//! threads and under the M:N scheduler — and
//! the steady-state allocation floor the per-rank arena and pools hold.
//!
//! The state bits are those recorded before the flow phase's data path
//! changed (residual as node pass + face assembly, sweeps in storage
//! order). The clocks were re-recorded when the serving rank started
//! answering cold requests its fine occupancy mask rejects without a walk:
//! less search work, so the connectivity and total clocks moved (and the
//! airfoil's flow clock by one ulp, a difference of later absolute times),
//! but the same answers — the state bits did not. They were re-recorded
//! once more when a donor-search round started visiting every candidate rank
//! of a hierarchy level: fewer rounds and more requests per round move the
//! connectivity and total clocks (flow and motion kept theirs), and where
//! the old 24-round cap never fired — as here — the donors are the same.
//! And a third time when a search its first walk left open — a failed walk,
//! a donor in the polar band of a self-wrapping shell — stopped re-walking
//! the block through the canonical chain and was settled by inverting the
//! cells the inverse map lists for the point's bin: the map build charges
//! for its lists, a proof charges a box test per listed cell and a walk
//! step per inverted one, and the chain's tens of steps per open search are
//! gone, so the connectivity and total clocks fell (store: 0.0497 → 0.0256
//! and 0.0543 → 0.0302 virtual seconds; the store's flow and motion clocks
//! moved by a few ulps, differences of later absolute times). Every donor
//! is the one the chain picked — where cells apart hold a point the chain
//! still picks — so state bits, orphans and IGBPs are untouched.
//!
//! The `other` clock is the start-up barrier. The runtime's phase timers
//! always held it; since they are the run's only per-phase clock it is
//! recorded here too, and the five phase clocks add up to the wall clock.

use overflow_d::{airfoil_case, run_case, store_case, LbConfig, RunResult};
use overset_comm::{Counter, MachineModel, Phase, NUM_PHASES};

/// Final state and virtual clocks of one run, as IEEE bit patterns.
struct Recorded {
    state_rms: u64,
    wall_time: u64,
    /// Flow, connectivity, motion (balance is zero).
    phase_elapsed: [u64; 3],
    /// Other: the start-up barrier.
    other: u64,
    orphans_last: usize,
    igbps_last: usize,
}

/// `airfoil_case(0.3, 8)` on 6 ranks of `MachineModel::modern()`.
const AIRFOIL_6: Recorded = Recorded {
    state_rms: 0x400339a7d5334b83,
    wall_time: 0x3f6d939a53698e2e,
    phase_elapsed: [0x3f68893c827a86e1, 0x3f4198522b3df2fe, 0x3f12f58a29019ac8],
    other: 0x3ed939e9aefb6dae,
    orphans_last: 0,
    igbps_last: 192,
};

/// `store_case(0.3, 3)` on 18 ranks of `MachineModel::modern()`, likewise.
const STORE_18: Recorded = Recorded {
    state_rms: 0x400bc3623698b3d2,
    wall_time: 0x3f9ef2d570b1e822,
    phase_elapsed: [0x3f72573f818ccdda, 0x3f9a42adcc8b87a1, 0x3f17b3d81eb752e0],
    other: 0x3ee51f5d23adc052,
    orphans_last: 0,
    igbps_last: 7394,
};

fn assert_matches_recorded(r: &RunResult, want: &Recorded, what: &str) {
    assert_eq!(r.state_rms.to_bits(), want.state_rms, "{what}: state {}", r.state_rms);
    let wall = r.summary.wall_time;
    assert_eq!(wall.to_bits(), want.wall_time, "{what}: virtual time {wall}");
    for (p, (got, want)) in r.phase_elapsed.iter().zip(want.phase_elapsed).enumerate() {
        assert_eq!(got.to_bits(), want, "{what}: phase {p} time {got}");
    }
    assert_eq!(r.phase_elapsed[Phase::Balance as usize], 0.0, "{what}: balance time");
    let other = r.phase_elapsed[Phase::Other as usize];
    assert_eq!(other.to_bits(), want.other, "{what}: other time {other}");
    assert_eq!(r.orphans_last, want.orphans_last, "{what}: orphan census");
    assert_eq!(r.igbps_last, want.igbps_last, "{what}: fringe census");
    assert_records_sum_to_totals(r, what);
}

/// One tally: what the step records add up to is what the run's registry,
/// flop totals and allocation counters hold, and the phase times add up to
/// the wall clock. The recorder's running totals start at zero, so whatever
/// set-up counted before step 0 is step 0's; `other` alone keeps what a rank
/// allocates after its last step (its return value).
fn assert_records_sum_to_totals(r: &RunResult, what: &str) {
    let records = || r.step_records.iter().flatten();
    for (rank, recs) in r.step_records.iter().enumerate() {
        assert_eq!(recs.len(), r.steps, "{what}: rank {rank} keeps one record a step");
    }
    for c in Counter::ALL {
        let sum: u64 = records().map(|s| s.count(c)).sum();
        assert_eq!(sum, r.metrics.get(c), "{what}: step series of {} vs run total", c.name());
    }
    for p in Phase::ALL {
        let flops: u64 = records().map(|s| s.count(Counter::flops_in(p))).sum();
        assert_eq!(flops as f64, r.summary.flops[p as usize], "{what}: {} flops", p.name());
    }
    let phases: f64 = r.phase_elapsed.iter().sum();
    let wall = r.summary.wall_time;
    assert!((phases - wall).abs() <= 1e-12 * wall, "{what}: phases {phases} vs wall {wall}");
    for p in 0..NUM_PHASES {
        let steps = (
            records().map(|s| s.allocs[p]).sum::<u64>(),
            records().map(|s| s.alloc_bytes[p]).sum::<u64>(),
        );
        let run = (
            r.alloc_by_rank.iter().map(|a| a.allocs[p]).sum::<u64>(),
            r.alloc_by_rank.iter().map(|a| a.bytes[p]).sum::<u64>(),
        );
        if p == Phase::Other as usize {
            assert!(steps.0 <= run.0 && steps.1 <= run.1, "{what}: other-phase allocations");
        } else {
            assert_eq!(steps, run, "{what}: phase {p} allocations, step series vs run total");
        }
    }
}

/// Allocation count of `phase` on the final (steady-state) step, summed
/// over ranks. Deterministic for a fixed configuration.
fn last_step_allocs(r: &RunResult, phase: Phase) -> u64 {
    r.alloc_records.iter().filter_map(|recs| recs.last()).map(|a| a.allocs[phase as usize]).sum()
}

/// Run `cfg` on rank threads and under the M:N scheduler against the
/// recorded values.
fn assert_all_modes_match_recorded(
    cfg: overflow_d::CaseConfig,
    nranks: usize,
    want: &Recorded,
    test_name: &str,
) {
    let [threads, mn] = run_all_modes(cfg, nranks, test_name, |r, what| {
        assert_matches_recorded(r, want, what);
    });
    // Arenas and pools belong to ranks, not threads: what a rank allocates
    // must not depend on which worker polls it.
    for phase in [Phase::Flow, Phase::Connectivity] {
        assert_eq!(
            last_step_allocs(&threads, phase),
            last_step_allocs(&mn, phase),
            "{test_name}: {phase:?} alloc counters depend on the scheduler"
        );
    }
}

/// Run `cfg` on rank threads and under the M:N scheduler, handing each
/// result to `check` as it arrives.
fn run_all_modes(
    mut cfg: overflow_d::CaseConfig,
    nranks: usize,
    test_name: &str,
    check: impl Fn(&RunResult, &str),
) -> [RunResult; 2] {
    let machine = MachineModel::modern();
    let threads = run_case(&cfg, nranks, &machine).unwrap();
    check(&threads, &format!("{test_name} threads"));
    cfg.max_threads = Some(2);
    let mn = run_case(&cfg, nranks, &machine).unwrap();
    check(&mn, &format!("{test_name} m:n"));
    [threads, mn]
}

#[test]
fn airfoil_6_ranks_matches_recorded_state_and_clocks() {
    assert_all_modes_match_recorded(
        airfoil_case(0.3, 8),
        6,
        &AIRFOIL_6,
        "airfoil_6_ranks_matches_recorded_state_and_clocks",
    );
}

#[test]
fn store_18_ranks_matches_recorded_state_and_clocks() {
    assert_all_modes_match_recorded(
        store_case(0.3, 3),
        18,
        &STORE_18,
        "store_18_ranks_matches_recorded_state_and_clocks",
    );
}

/// The same store run with Algorithm 2 acting on it: a repartition rebuilds
/// every block mid-run, and the step records still add up to the registry
/// and the allocation totals in every mode — which agree with each other on
/// every counter of every step.
#[test]
fn store_18_ranks_step_records_sum_to_totals_across_a_repartition() {
    let mut cfg = store_case(0.3, 6);
    cfg.lb = LbConfig::dynamic(1.5, 2);
    let runs = run_all_modes(
        cfg,
        18,
        "store_18_ranks_step_records_sum_to_totals_across_a_repartition",
        |r, what| {
            assert!(r.repartitions >= 1, "{what}: no repartition fired");
            let fired: u64 =
                r.step_records[0].iter().map(|s| s.count(Counter::LbRepartitions)).sum();
            assert_eq!(fired, r.repartitions as u64, "{what}: rank 0's series vs the run's count");
            assert_records_sum_to_totals(r, what);
        },
    );
    let counts = |r: &RunResult| -> Vec<_> {
        r.step_records.iter().flatten().map(|s| (s.clock.to_bits(), s.counts)).collect()
    };
    assert_eq!(counts(&runs[0]), counts(&runs[1]), "threads vs m:n");
}

/// The quick airfoil case on 12 SP2 nodes (`repro table1 --quick`'s 12-node
/// row): once the arena and the halo / line-solve pools are warm, a
/// connectivity step allocates nothing, and a flow step allocates only the
/// line carries a cyclic chain's first rank is short of. It sends two passes
/// down the chain (elimination, correction) and gets one back
/// (substitution), so it takes a fresh buffer per chunk, 8 a step: 24 on
/// the three ranks that start an O-grid's `i` chains.
#[test]
fn airfoil_12_ranks_steady_state_allocation_floor() {
    let r = run_case(&airfoil_case(0.6, 10), 12, &MachineModel::ibm_sp2()).unwrap();
    assert_eq!(last_step_allocs(&r, Phase::Connectivity), 0, "connectivity allocs, last step");
    let flow = last_step_allocs(&r, Phase::Flow);
    assert!(flow <= 24, "flow-phase allocs on the last step: {flow} > 24");
}
