//! Driver-level SIMD ablation: `Ablation::Simd` deselects the lane-batched AVX2
//! kernels for the implicit sweeps, the donor-search Newton inversions and
//! the hole-cutter containment tests. The batched kernels replay the scalar
//! operation order lane by lane, so turning them off may change host speed
//! only — states, walk outcomes, censuses and every virtual clock must be
//! bit-identical, in-process, under the M:N scheduler, and across the
//! multi-process transport.
//!
//! The last two tests pin the flow phase's data path itself: final state
//! and every virtual clock of two runs must equal the values recorded
//! before the residual became a node pass + face assembly and the sweeps
//! moved to storage order — on rank threads, under the M:N scheduler and
//! across the process transport, with and without SIMD.

use overflow_d::{airfoil_case, run_case, store_case, Ablation, RunResult};
use overset_comm::{MachineModel, TransportConfig};

/// Everything that must not notice the instruction set: physics checksum,
/// global and per-phase virtual clocks, and the connectivity censuses.
fn assert_bit_identical(on: &RunResult, off: &RunResult, what: &str) {
    assert_eq!(
        on.state_rms.to_bits(),
        off.state_rms.to_bits(),
        "{what}: state diverged: {} vs {}",
        on.state_rms,
        off.state_rms
    );
    assert_eq!(on.wall_time.to_bits(), off.wall_time.to_bits(), "{what}: virtual time diverged");
    for (p, (a, b)) in on.phase_elapsed.iter().zip(&off.phase_elapsed).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: phase {p} time diverged");
    }
    assert_eq!(on.orphans_last, off.orphans_last, "{what}: orphan census diverged");
    assert_eq!(on.igbps_last, off.igbps_last, "{what}: fringe census diverged");
}

#[test]
fn simd_ablation_airfoil_bit_identical() {
    let mut cfg = airfoil_case(0.3, 8);
    cfg.ablations.remove(Ablation::Simd);
    let on = run_case(&cfg, 8, &MachineModel::modern()).unwrap();
    cfg.ablations.insert(Ablation::Simd);
    let off = run_case(&cfg, 8, &MachineModel::modern()).unwrap();
    assert_bit_identical(&on, &off, "airfoil");
}

#[test]
fn simd_ablation_store_bit_identical_under_mn_scheduler() {
    // 16 ranks multiplexed onto 4 worker threads: the ISA rides on per-rank
    // scratch (sweep scratch and connectivity arena), so rank migration
    // between polls must not perturb anything.
    let mut cfg = store_case(0.3, 3);
    cfg.max_threads = Some(4);
    cfg.ablations.remove(Ablation::Simd);
    let on = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    cfg.ablations.insert(Ablation::Simd);
    let off = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    assert_bit_identical(&on, &off, "m:n scheduler");
}

#[test]
fn simd_ablation_bit_identical_on_process_transport() {
    // The forked rank-group children each re-select the ISA from the case
    // config; serialization must not smuggle host-dependent state across.
    let machine = MachineModel::modern();
    let mut cfg = store_case(0.3, 3);
    cfg.transport =
        TransportConfig::process_for_test(2, "simd_ablation_bit_identical_on_process_transport");
    cfg.ablations.remove(Ablation::Simd);
    let proc_on = run_case(&cfg, 16, &machine).unwrap();
    cfg.transport =
        TransportConfig::process_for_test(2, "simd_ablation_bit_identical_on_process_transport");
    cfg.ablations.insert(Ablation::Simd);
    let proc_off = run_case(&cfg, 16, &machine).unwrap();
    assert_bit_identical(&proc_on, &proc_off, "proc transport");

    // Cross-transport: the SIMD-on case in-process must agree bit-for-bit.
    cfg.transport = TransportConfig::InProcess;
    cfg.ablations.remove(Ablation::Simd);
    let inproc_on = run_case(&cfg, 16, &machine).unwrap();
    assert_bit_identical(&proc_on, &inproc_on, "proc vs in-process");
}

/// Final state and virtual clocks of one run, as IEEE bit patterns.
struct Recorded {
    state_rms: u64,
    wall_time: u64,
    /// Flow, connectivity, motion (balance and other are zero).
    phase_elapsed: [u64; 3],
    orphans_last: usize,
    igbps_last: usize,
}

/// `airfoil_case(0.3, 8)` on 6 ranks of `MachineModel::modern()`, recorded
/// at the commit before the flow-phase data path changed.
const AIRFOIL_6: Recorded = Recorded {
    state_rms: 0x400339a7d5334b83,
    wall_time: 0x3f6db9f324663b3e,
    phase_elapsed: [0x3f68893c827a86e0, 0x3f4231b56f30a742, 0x3f12f58a29019ac8],
    orphans_last: 0,
    igbps_last: 192,
};

/// `store_case(0.3, 3)` on 18 ranks of `MachineModel::modern()`, likewise.
const STORE_18: Recorded = Recorded {
    state_rms: 0x400bc3623698b3d2,
    wall_time: 0x3fae0535003afb40,
    phase_elapsed: [0x3f72573f818ccdde, 0x3fabad212e27cb00, 0x3f17b3d81eb750e0],
    orphans_last: 0,
    igbps_last: 7394,
};

fn assert_matches_recorded(r: &RunResult, want: &Recorded, what: &str) {
    assert_eq!(r.state_rms.to_bits(), want.state_rms, "{what}: state {}", r.state_rms);
    assert_eq!(r.wall_time.to_bits(), want.wall_time, "{what}: virtual time {}", r.wall_time);
    for (p, (got, want)) in r.phase_elapsed.iter().zip(want.phase_elapsed).enumerate() {
        assert_eq!(got.to_bits(), want, "{what}: phase {p} time {got}");
    }
    assert!(r.phase_elapsed[3..].iter().all(|&t| t == 0.0), "{what}: balance/other time");
    assert_eq!(r.orphans_last, want.orphans_last, "{what}: orphan census");
    assert_eq!(r.igbps_last, want.igbps_last, "{what}: fringe census");
}

/// Run `cfg` on rank threads, under the M:N scheduler and across the
/// process transport, SIMD on and off, against the recorded values.
fn assert_all_modes_match_recorded(
    mut cfg: overflow_d::CaseConfig,
    nranks: usize,
    want: &Recorded,
    test_name: &str,
) {
    let machine = MachineModel::modern();
    // The process transport goes first: its children replay this test from
    // the top, so anything before it would be run once more per child.
    cfg.transport = TransportConfig::process_for_test(2, test_name);
    let r = run_case(&cfg, nranks, &machine).unwrap();
    assert_matches_recorded(&r, want, &format!("{test_name} proc"));
    cfg.transport = TransportConfig::InProcess;
    for simd in [true, false] {
        if !simd {
            cfg.ablations.insert(Ablation::Simd);
        }
        cfg.max_threads = None;
        let r = run_case(&cfg, nranks, &machine).unwrap();
        assert_matches_recorded(&r, want, &format!("{test_name} threads simd={simd}"));
        cfg.max_threads = Some(2);
        let r = run_case(&cfg, nranks, &machine).unwrap();
        assert_matches_recorded(&r, want, &format!("{test_name} m:n simd={simd}"));
    }
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
