//! The tentpole determinism guarantee: the same case on the same rank
//! count produces **bit-identical** virtual times, counters and physics on
//! the in-process and multi-process transports. Nothing about where the
//! bytes travel may leak into the simulation.
//!
//! The process-backed run goes first: the forked rank-group children
//! re-execute this test and must reach the process-backed `establish`
//! without replaying the in-process reference run.

use overflow_d::{run_case, store_case};
use overset_comm::{MachineModel, TransportConfig};

const NRANKS: usize = 16;

#[test]
fn store_case_bit_identical_across_transports() {
    let machine = MachineModel::ibm_sp2();

    let mut cfg = store_case(0.3, 3);
    cfg.collect_state = true;
    cfg.transport =
        TransportConfig::process_for_test(2, "store_case_bit_identical_across_transports");
    let proc = run_case(&cfg, NRANKS, &machine).expect("process-transport run");

    cfg.transport = TransportConfig::InProcess;
    let inproc = run_case(&cfg, NRANKS, &machine).expect("in-process run");

    // Physics checksum and global clock, to the last bit.
    assert_eq!(
        proc.state_rms.to_bits(),
        inproc.state_rms.to_bits(),
        "state RMS diverged: {} vs {}",
        proc.state_rms,
        inproc.state_rms
    );
    let (pw, iw) = (proc.summary.wall_time, inproc.summary.wall_time);
    assert_eq!(pw.to_bits(), iw.to_bits(), "wall time diverged");
    for (p, i) in proc.phase_elapsed.iter().zip(&inproc.phase_elapsed) {
        assert_eq!(p.to_bits(), i.to_bits(), "phase time diverged");
    }

    // Aggregated metrics registries: every counter and histogram.
    assert_eq!(proc.metrics, inproc.metrics);

    // Flight-recorder step telemetry: same per-step clocks and phase times
    // and the same counters (flops, messages, bytes, collectives, every
    // `conn.*`) on every rank.
    assert_eq!(proc.step_records.len(), inproc.step_records.len());
    for (rank, (pr, ir)) in proc.step_records.iter().zip(&inproc.step_records).enumerate() {
        assert_eq!(pr.len(), ir.len(), "rank {rank} step count");
        for (a, b) in pr.iter().zip(ir) {
            assert_eq!(a.clock.to_bits(), b.clock.to_bits(), "rank {rank} step clock");
            assert_eq!(a.time.map(f64::to_bits), b.time.map(f64::to_bits), "rank {rank} times");
            assert_eq!(a.counts, b.counts, "rank {rank} step counters");
        }
    }

    // Connectivity outcomes and the full final state, node for node.
    assert_eq!(proc.igbps_last, inproc.igbps_last);
    assert_eq!(proc.serviced_last, inproc.serviced_last);
    assert_eq!(proc.orphans_last, inproc.orphans_last);
    assert_eq!(proc.states.len(), inproc.states.len());
    let mut ps = proc.states.clone();
    let mut is = inproc.states.clone();
    let key = |s: &(usize, overset_grid::Ijk, [f64; 5])| (s.0, s.1.i, s.1.j, s.1.k);
    ps.sort_by_key(key);
    is.sort_by_key(key);
    for (p, i) in ps.iter().zip(&is) {
        assert_eq!(key(p), key(i), "state node sets differ");
        for (a, b) in p.2.iter().zip(&i.2) {
            assert_eq!(a.to_bits(), b.to_bits(), "state value diverged at {:?}", key(p));
        }
    }
}
