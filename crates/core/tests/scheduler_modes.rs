//! Scheduler-mode integration tests: the M:N virtual-rank scheduler must
//! reproduce the rank-per-thread results bit-for-bit, scale to rank counts
//! far past the host's cores, and surface rank panics as errors instead of
//! hangs.

use overflow_d::{run_case, store_case};
use overset_comm::{MachineModel, OversetError, StepRecord};

/// The store-separation case (x0.3, 2 steps) run 1:1 and M:N on `workers`
/// threads must agree on every virtual-time observable, every counter and
/// histogram, and the final state node for node, not just complete.
fn assert_scheduler_modes_agree(nranks: usize, workers: usize) {
    let machine = MachineModel::ibm_sp2();
    let mut cfg = store_case(0.3, 2);
    cfg.collect_state = true;
    let one_to_one = run_case(&cfg, nranks, &machine).expect("1:1 run failed");
    cfg.max_threads = Some(workers);
    let mn = run_case(&cfg, nranks, &machine).expect("M:N run failed");
    assert_eq!(one_to_one.summary.wall_time.to_bits(), mn.summary.wall_time.to_bits());
    assert_eq!(
        one_to_one.phase_elapsed.map(f64::to_bits),
        mn.phase_elapsed.map(f64::to_bits),
        "phase times differ between scheduler modes"
    );
    assert_eq!(one_to_one.metrics, mn.metrics, "merged registries differ");
    assert_eq!(one_to_one.state_rms.to_bits(), mn.state_rms.to_bits());
    assert_eq!(one_to_one.igbps_last, mn.igbps_last);
    assert_eq!(one_to_one.serviced_last, mn.serviced_last);
    assert_eq!(one_to_one.orphans_last, mn.orphans_last);
    assert_eq!(one_to_one.np_final, mn.np_final);
    // The full final state, to the last bit.
    let bits = |r: &overflow_d::RunResult| -> Vec<_> {
        r.states.iter().map(|(g, c, q)| (*g, *c, q.map(f64::to_bits))).collect()
    };
    assert!(!one_to_one.states.is_empty(), "collect_state gathered no nodes");
    assert!(bits(&one_to_one) == bits(&mn), "final state differs between scheduler modes");
    // Every rank's clock, phase times, waits and counters, step by step
    // (flops, messages, bytes and collectives among them).
    let wait_bits = |r: &StepRecord| r.wait.map(|w| w.map(f64::to_bits));
    for (rank, (a, b)) in one_to_one.step_records.iter().zip(&mn.step_records).enumerate() {
        assert!(
            a.iter().map(|r| r.clock.to_bits()).eq(b.iter().map(|r| r.clock.to_bits())),
            "rank {rank} clock differs between scheduler modes"
        );
        assert!(
            a.iter()
                .map(|r| r.time.map(f64::to_bits))
                .eq(b.iter().map(|r| r.time.map(f64::to_bits))),
            "rank {rank} phase times differ between scheduler modes"
        );
        assert!(
            a.iter().map(wait_bits).eq(b.iter().map(wait_bits)),
            "rank {rank} waits differ between scheduler modes"
        );
        assert!(
            a.iter().map(|r| r.counts).eq(b.iter().map(|r| r.counts)),
            "rank {rank} counters differ between scheduler modes"
        );
    }
}

#[test]
fn store_case_clocks_identical_across_scheduler_modes() {
    assert_scheduler_modes_agree(24, 4);
}

/// 128 preemptible OS threads against 128 coroutines on 2 workers: every
/// donor-search round refills each rank's count row in place, which is
/// sound only if no rank still views the previous round's rows — the 1:1
/// side is where the host scheduler gets to try. Expensive, so ignored by
/// default; `scripts/check.sh` runs it in release.
#[test]
#[ignore = "128 OS threads; run explicitly (scripts/check.sh does, in release)"]
fn store_case_128_ranks_identical_across_scheduler_modes() {
    assert_scheduler_modes_agree(128, 2);
}

/// The ISSUE's scale target: a 512-virtual-rank store-separation universe
/// completes on at most 8 OS threads. Expensive, so ignored by default;
/// `scripts/check.sh` runs it in release.
#[test]
#[ignore = "512-rank smoke; run explicitly (scripts/check.sh does, in release)"]
fn store_case_512_virtual_ranks_on_8_threads() {
    let machine = MachineModel::ibm_sp2();
    let mut cfg = store_case(0.3, 2);
    cfg.max_threads = Some(8);
    let r = run_case(&cfg, 512, &machine).expect("512-rank M:N run failed");
    assert_eq!(r.nranks, 512);
    assert_eq!(r.step_records.len(), 512);
    assert!(r.summary.wall_time > 0.0);
    assert!(r.state_rms.is_finite() && r.state_rms > 0.0);
}

/// The benchmark's `store_ranks` geometry, one step: 256 ranks resolve
/// every IGBP, in at most twice the rounds 18 ranks need — the round count
/// follows the hierarchy, not the rank count.
#[test]
#[ignore = "256-rank store case; run explicitly (scripts/check.sh does, in release)"]
fn store_on_256_ranks_quiesces_like_18() {
    let per_rank = |nranks: usize| {
        let mut cfg = store_case(0.55, 1);
        cfg.max_threads = Some(2);
        let r = run_case(&cfg, nranks, &MachineModel::ibm_sp2()).unwrap();
        assert_eq!(r.orphans_last, 0, "{nranks} ranks");
        let rounds = r.metrics.get(overset_comm::metrics::Counter::ConnRounds);
        assert_eq!(rounds % nranks as u64, 0, "every rank counts every round");
        rounds / nranks as u64
    };
    let (small, large) = (per_rank(18), per_rank(256));
    assert!(large <= 2 * small, "{large} rounds per rank on 256 ranks, {small} on 18");
}

/// A panic inside a rank body must come back as `RankPanicked` naming the
/// rank and phase — not hang the universe or abort the process. Driven
/// through the raw runtime with a store-sized rank count.
#[test]
fn rank_panic_is_reported_not_hung() {
    use overset_comm::{Phase, Universe};
    let err = Universe::builder().ranks(16).machine(&MachineModel::ibm_sp2()).try_run(|c| {
        if c.rank() == 11 {
            let _ph = c.phase(Phase::Flow);
            panic!("synthetic solver blowup");
        }
        // Everyone else is blocked on a collective the dead rank never
        // reaches.
        c.barrier();
    });
    match err {
        Err(OversetError::RankPanicked { rank, phase, message }) => {
            assert_eq!(rank, 11);
            assert_eq!(phase, "flow");
            assert!(message.contains("synthetic solver blowup"), "{message}");
        }
        other => panic!("expected RankPanicked, got {other:?}"),
    }
}
