//! Arena reset correctness under the hard cases: repartition steps (the
//! arena's buffers outlive a complete change of what the rank owns), the
//! M:N scheduler (ranks sharing OS threads migrate between polls with their
//! arenas in tow), and the multi-process transport (buffers round-tripped
//! through serialization instead of moved). In every mode the arena may
//! only recycle capacity — states, walk outcomes and virtual times must be
//! bit-identical with the arena disabled, and the deterministic allocation
//! counters must show the recycling actually happened.

use overflow_d::{airfoil_case, run_case, store_case, Ablation, LbConfig, RunResult};
use overset_comm::{MachineModel, Phase, TransportConfig};

/// Connectivity-phase allocation count on the final (steady-state) step,
/// summed over ranks. Deterministic for a fixed configuration.
fn conn_allocs_last_step(r: &RunResult) -> u64 {
    r.alloc_records
        .iter()
        .filter_map(|recs| recs.last())
        .map(|a| a.allocs[Phase::Connectivity as usize])
        .sum()
}

/// Everything that must not notice the arena: physics checksum, global and
/// per-phase virtual clocks, and the connectivity censuses.
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
fn arena_survives_repartitions_bit_identically() {
    // Aggressive dynamic balancing: the partition — and with it every
    // rank's block shape, neighbor set and fringe — changes mid-run. The
    // arena's recycled buffers must carry zero information across that
    // boundary.
    let mut cfg = airfoil_case(0.3, 8);
    cfg.lb = LbConfig::dynamic(1.05, 2);
    cfg.ablations.remove(Ablation::Arena);
    let on = run_case(&cfg, 8, &MachineModel::modern()).unwrap();
    cfg.ablations.insert(Ablation::Arena);
    let off = run_case(&cfg, 8, &MachineModel::modern()).unwrap();

    assert!(on.repartitions >= 1, "case never repartitioned; the test lost its point");
    assert_eq!(on.repartitions, off.repartitions, "arena changed repartition decisions");
    assert_bit_identical(&on, &off, "repartition");

    let (a_on, a_off) = (conn_allocs_last_step(&on), conn_allocs_last_step(&off));
    assert!(a_on < a_off, "arena recycled nothing after repartition: {a_on} vs {a_off}");
}

#[test]
fn arena_bit_identical_under_mn_scheduler() {
    // 16 ranks multiplexed onto 4 worker threads: arenas are owned by
    // ranks, not threads, so scheduling must not perturb anything.
    let mut cfg = store_case(0.3, 3);
    cfg.max_threads = Some(4);
    cfg.ablations.remove(Ablation::Arena);
    let on = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    cfg.ablations.insert(Ablation::Arena);
    let off = run_case(&cfg, 16, &MachineModel::modern()).unwrap();
    assert_bit_identical(&on, &off, "m:n scheduler");
    let (a_on, a_off) = (conn_allocs_last_step(&on), conn_allocs_last_step(&off));
    assert!(a_on < a_off, "arena recycled nothing under M:N: {a_on} vs {a_off}");

    // And the M:N run must match the one-thread-per-rank run bit-for-bit,
    // arena on — allocation counters included (they are deterministic).
    let mut cfg2 = store_case(0.3, 3);
    cfg2.max_threads = None;
    cfg2.ablations.remove(Ablation::Arena);
    let plain = run_case(&cfg2, 16, &MachineModel::modern()).unwrap();
    assert_bit_identical(&on, &plain, "m:n vs 1:1");
    assert_eq!(
        conn_allocs_last_step(&on),
        conn_allocs_last_step(&plain),
        "alloc counters depend on the scheduler"
    );
}

#[test]
fn arena_bit_identical_on_process_transport() {
    // The multi-process backend serializes every message, so the pooled
    // buffers the protocol round-trips come back as fresh decodes instead
    // of moved vectors. The pools must stay balanced — and the physics
    // bit-identical — all the same. (The process-backed runs go first: the
    // forked rank-group children re-execute this test and must reach their
    // own `establish` without replaying the in-process runs.)
    let machine = MachineModel::modern();
    let mut cfg = store_case(0.3, 3);
    cfg.transport =
        TransportConfig::process_for_test(2, "arena_bit_identical_on_process_transport");
    cfg.ablations.remove(Ablation::Arena);
    let proc_on = run_case(&cfg, 16, &machine).unwrap();
    cfg.transport =
        TransportConfig::process_for_test(2, "arena_bit_identical_on_process_transport");
    cfg.ablations.insert(Ablation::Arena);
    let proc_off = run_case(&cfg, 16, &machine).unwrap();
    assert_bit_identical(&proc_on, &proc_off, "proc transport");
    let (a_on, a_off) = (conn_allocs_last_step(&proc_on), conn_allocs_last_step(&proc_off));
    assert!(a_on < a_off, "arena recycled nothing on proc transport: {a_on} vs {a_off}");

    // Cross-transport: same arena-on case in-process must agree bit-for-bit.
    cfg.transport = TransportConfig::InProcess;
    cfg.ablations.remove(Ablation::Arena);
    let inproc_on = run_case(&cfg, 16, &machine).unwrap();
    assert_bit_identical(&proc_on, &inproc_on, "proc vs in-process");
}
