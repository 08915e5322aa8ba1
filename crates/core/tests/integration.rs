//! End-to-end integration tests spanning the whole stack: grids, balancer,
//! solver, connectivity, motion, driver.

use overflow_d::{airfoil_case, delta_wing_case, run_case, run_case_serial, store_case, LbConfig};
use overset_comm::{MachineModel, Phase};

fn modern() -> MachineModel {
    MachineModel::modern()
}

#[test]
fn airfoil_runs_clean_on_many_rank_counts() {
    for nranks in [3usize, 6, 10] {
        let cfg = airfoil_case(0.3, 4);
        let r = run_case(&cfg, nranks, &modern()).unwrap();
        assert_eq!(r.orphans_last, 0, "orphans at {nranks} ranks");
        assert!(r.state_rms.is_finite() && r.state_rms > 0.0);
        assert!(r.summary.wall_time > 0.0);
        assert!(r.igbps_last > 0);
    }
}

#[test]
fn physics_is_independent_of_rank_count() {
    // Implicitness is maintained across subdomains (pipelined Thomas), so
    // the solution trajectory must not depend on the decomposition.
    let rms: Vec<f64> = [3usize, 6, 12]
        .iter()
        .map(|&n| run_case(&airfoil_case(0.3, 5), n, &modern()).unwrap().state_rms)
        .collect();
    for w in rms.windows(2) {
        let rel = (w[0] - w[1]).abs() / w[0];
        assert!(rel < 1e-9, "state differs across rank counts: {rms:?}");
    }
}

/// The single-processor run (the same rank body, every grid whole on one
/// rank) is the oracle every parallel `state_rms` is checked against. Fringe
/// writes are buffered until the search is over, so no donor ever sees an
/// updated fringe; what is left between the two is summation order in the flow phase (airfoil, ~1e-15) and, on the 3-D
/// cases, field nodes beside a hole across a subdomain face (store x0.3:
/// 1.7e-8; see `igbp_census_is_independent_of_rank_count`).
#[test]
fn parallel_matches_serial_physics() {
    for (cfg, nranks, tol) in [(airfoil_case(0.3, 5), 6, 1e-12), (store_case(0.3, 3), 18, 1e-6)] {
        let par = run_case(&cfg, nranks, &modern()).unwrap();
        let ser = run_case_serial(&cfg, &MachineModel::cray_ymp()).unwrap();
        let rel = (par.state_rms - ser.state_rms).abs() / ser.state_rms;
        assert!(
            rel < tol,
            "{}: parallel {} vs serial {} (rel {rel})",
            cfg.name,
            par.state_rms,
            ser.state_rms
        );
    }
}

/// A rank steps all of its blocks through one flow workspace. In a serial
/// run of the store system (16 whole grids on one rank) the bytes the flow
/// phase allocates and keeps are the largest block's workspace — 37.5
/// doubles per node of the largest grid; 48 bound it — and not the sum over
/// the blocks, 3.4 times as much here (127 per node of the largest grid).
#[test]
fn a_serial_rank_keeps_one_flow_workspace() {
    let cfg = store_case(0.3, 2);
    let r = run_case_serial(&cfg, &modern()).unwrap();
    let flow = &r.alloc_by_rank[0];
    let live = flow.bytes[Phase::Flow as usize] - flow.freed_bytes[Phase::Flow as usize];
    let largest = cfg.grids.iter().map(|g| g.num_points()).max().unwrap();
    let per_node = live as f64 / (8 * largest) as f64;
    let summed = live as f64 / (8 * cfg.total_points()) as f64;
    assert!(
        per_node <= 48.0,
        "{live} B live: {per_node:.1} doubles per node of the largest block, {summed:.1} of all"
    );
}

/// A single-processor run counts its orphans where it reports them: the last
/// step's `conn.orphans` is `orphans_last`, and the step series sums to the
/// run total, exactly as on rank threads.
#[test]
fn serial_orphans_are_counted_where_they_are_reported() {
    use overset_comm::metrics::Counter;
    // The near-body grid searches nowhere: its outer fringe is orphaned.
    let mut cfg = airfoil_case(0.3, 1);
    cfg.search_order[0].clear();
    for r in [run_case_serial(&cfg, &modern()).unwrap(), run_case(&cfg, 6, &modern()).unwrap()] {
        assert!(r.orphans_last > 0, "{} ranks: no orphans", r.nranks);
        let total = r.metrics.get(Counter::ConnOrphans);
        let series: u64 =
            r.step_records.iter().flatten().map(|s| s.count(Counter::ConnOrphans)).sum();
        assert_eq!(r.orphans_last as u64, total, "{} ranks: last step vs run total", r.nranks);
        assert_eq!(series, total, "{} ranks: step series vs run total", r.nranks);
    }
}

/// How many IGBPs a case has is a property of its grids and solids, not of
/// the partition: serial, 6 and 18 ranks must count the same fringe.
///
/// Recorded expected-fail: the delta wing on 18 ranks misses four —
/// background-grid nodes (15..=18, 9, 16), the field nodes under the
/// one-row tip (j = 10) of the hole the wing cuts. At P = 18 the background
/// is split 3 x 3 x 1 with a face between j = 9 and j = 10, and nothing ever
/// writes a halo node's `iblank`: the cutter blanks owned nodes only, so the
/// subdomain below the face sees `Field` where its neighbour holds a hole
/// and promotes no fringe (ROADMAP item 9a). When a fix makes the counts
/// agree this test fails: delete the `known_gap` row.
#[test]
fn igbp_census_is_independent_of_rank_count() {
    let known_gap = |case: &str, nranks: usize| -> usize {
        if case.starts_with("descending-delta-wing") && nranks == 18 {
            4
        } else {
            0
        }
    };
    for cfg in [airfoil_case(0.3, 1), store_case(0.3, 1), delta_wing_case(0.4, 3)] {
        let serial = run_case_serial(&cfg, &modern()).unwrap().igbps_last;
        assert!(serial > 0);
        for nranks in [6usize, 18] {
            if nranks < cfg.grids.len() {
                continue; // every grid needs a processor
            }
            let par = run_case(&cfg, nranks, &modern()).unwrap().igbps_last;
            assert_eq!(
                par + known_gap(&cfg.name, nranks),
                serial,
                "{} on {nranks} ranks: {par} IGBPs vs {serial} serially",
                cfg.name
            );
        }
    }
}

#[test]
fn serial_restart_off_searches_from_scratch_every_step() {
    use overset_comm::metrics::Counter;
    let on = run_case_serial(&airfoil_case(0.3, 4), &modern()).unwrap();
    let mut cfg = airfoil_case(0.3, 4);
    cfg.restart = false;
    let off = run_case_serial(&cfg, &modern()).unwrap();
    let warm_starts = |r: &overflow_d::RunResult| {
        r.metrics.get(Counter::ConnCacheHit) + r.metrics.get(Counter::ConnCacheMiss)
    };
    assert!(warm_starts(&on) > 0);
    assert_eq!(warm_starts(&off), 0, "restart-off run still warm-started");
    let (w_on, w_off) =
        (on.metrics.get(Counter::ConnWalkSteps), off.metrics.get(Counter::ConnWalkSteps));
    assert!(w_off > w_on, "cold searches every step must walk more: {w_off} vs {w_on}");
    assert_eq!(off.orphans_last, on.orphans_last);
}

#[test]
fn a_motion_naming_a_missing_grid_is_an_error_from_both_drivers() {
    use overset_comm::OversetError;
    let mut cfg = airfoil_case(0.3, 2);
    cfg.motions[0].grids = vec![cfg.grids.len()];
    for (driver, r) in
        [("serial", run_case_serial(&cfg, &modern())), ("parallel", run_case(&cfg, 3, &modern()))]
    {
        match r {
            Err(OversetError::RankPanicked { phase: "motion", .. }) => {}
            other => panic!("{driver}: expected RankPanicked in motion, got {other:?}"),
        }
    }
}

/// The message of the flow-phase abort a run must end in.
fn flow_abort(r: Result<overflow_d::RunResult, overset_comm::OversetError>) -> String {
    match r {
        Err(overset_comm::OversetError::RankPanicked { phase: "flow", message, .. }) => message,
        other => panic!("expected a flow-phase abort, got {other:?}"),
    }
}

/// The first non-physical node stops the run from the flow phase, naming
/// step, grid, cell and variable. The airfoil's O-grid and background
/// (~440 nodes, one grid per rank), with the O-grid whirled about its
/// quarter chord at up to tens of a∞: only its rank goes non-physical, so
/// it is the lowest failing rank the runtime names, and threads and M:N
/// agree.
#[test]
fn a_non_physical_node_aborts_the_flow_phase_naming_its_cell() {
    use overset_motion::{BodyMotion, Prescribed};
    let mut cfg = airfoil_case(0.1, 6);
    cfg.grids.remove(1);
    cfg.search_order = vec![vec![1], vec![0]];
    let (pivot, axis) = ([0.25, 0.0, 0.0], [0.0, 0.0, 1.0]);
    let whirl = Prescribed::PitchOscillation { alpha0: 0.1, omega: 2000.0, pivot, axis, time: 0.0 };
    cfg.motions = vec![BodyMotion::prescribed(vec![0], whirl)];
    let threads = run_case(&cfg, 2, &modern());
    cfg.max_threads = Some(1);
    let mn = run_case(&cfg, 2, &modern());
    assert_eq!(threads.as_ref().err(), mn.as_ref().err());
    let message = flow_abort(threads);
    assert!(message.starts_with("non-physical state at step "), "{message}");
    assert!(message.contains(", grid 0, cell ("), "{message}");
    assert!(message.contains("): ρ = ") || message.contains("): p = "), "{message}");
}

/// Airfoil ×1.0 collapses at its blunt trailing edge: the trailing-edge
/// seam node of the O-grid ((264, 0, 0) is its duplicate) goes to negative
/// density at step 37 (0-based).
#[test]
#[ignore = "release build, ~1 s; run by scripts/check.sh"]
fn airfoil_full_scale_aborts_at_its_trailing_edge() {
    let message = flow_abort(run_case_serial(&airfoil_case(1.0, 40), &modern()));
    assert!(
        message.starts_with("non-physical state at step 37, grid 0, cell (0,0,0): ρ = -2.48"),
        "{message}"
    );
}

/// Store ×0.55 on today's prescribed ejection, which descends at 1.5 a∞ by
/// step 22 (ROADMAP item 2(a)): the old trajectory aborts loudly, at step
/// 22 on grid 4, instead of drifting on.
#[test]
#[ignore = "release build, ~3 s; run by scripts/check.sh"]
fn store_old_trajectory_aborts_loudly() {
    let message = flow_abort(run_case_serial(&store_case(0.55, 24), &modern()));
    assert!(
        message.starts_with("non-physical state at step 22, grid 4, cell (3,1,1): p = -1.59"),
        "{message}"
    );
}

#[test]
fn serial_collect_state_returns_every_field_node() {
    let mut cfg = airfoil_case(0.3, 3);
    let plain = run_case_serial(&cfg, &modern()).unwrap();
    assert!(plain.states.is_empty());
    cfg.collect_state = true;
    let r = run_case_serial(&cfg, &modern()).unwrap();
    assert_eq!(r.state_rms.to_bits(), plain.state_rms.to_bits());
    // One entry per field node, in the checksum's own order, so the same
    // sum reproduces `state_rms` to the bit.
    let sum_sq: f64 = r.states.iter().map(|(_, _, q)| q.iter().map(|v| v * v).sum::<f64>()).sum();
    assert_eq!((sum_sq / r.states.len() as f64).sqrt().to_bits(), r.state_rms.to_bits());
    let mut nodes: Vec<_> = r.states.iter().map(|&(g, n, _)| (g, n.i, n.j, n.k)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    assert_eq!(nodes.len(), r.states.len(), "a node was collected twice");
    assert!(r.states.len() < cfg.total_points(), "holes and fringes are not field nodes");
    assert!(r.states.len() > cfg.total_points() / 2);
    assert!((0..cfg.grids.len()).all(|g| r.states.iter().any(|s| s.0 == g)));
}

#[test]
fn virtual_time_is_deterministic() {
    let a = run_case(&airfoil_case(0.3, 3), 6, &MachineModel::ibm_sp2()).unwrap();
    let b = run_case(&airfoil_case(0.3, 3), 6, &MachineModel::ibm_sp2()).unwrap();
    assert_eq!(a.summary.wall_time.to_bits(), b.summary.wall_time.to_bits());
    assert_eq!(a.state_rms.to_bits(), b.state_rms.to_bits());
    assert_eq!(a.serviced_last, b.serviced_last);
}

#[test]
fn faster_machine_is_faster_same_physics() {
    let sp2 = run_case(&airfoil_case(0.3, 3), 6, &MachineModel::ibm_sp2()).unwrap();
    let sp = run_case(&airfoil_case(0.3, 3), 6, &MachineModel::ibm_sp()).unwrap();
    assert!(sp.summary.wall_time < sp2.summary.wall_time);
    assert_eq!(sp.state_rms.to_bits(), sp2.state_rms.to_bits());
}

#[test]
fn moving_grid_connectivity_stays_resolved() {
    // Run long enough that the airfoil rotates appreciably; connectivity
    // must stay fully resolved and the state physical.
    let cfg = airfoil_case(0.3, 15);
    let r = run_case(&cfg, 6, &modern()).unwrap();
    assert_eq!(r.orphans_last, 0);
    assert!(r.state_rms.is_finite());
}

#[test]
fn dynamic_lb_repartitions_and_preserves_physics() {
    let mut cfg = airfoil_case(0.3, 8);
    cfg.lb = LbConfig::dynamic(1.05, 2); // aggressive: force repartitions
    let dynamic = run_case(&cfg, 8, &modern()).unwrap();
    let mut cfg2 = airfoil_case(0.3, 8);
    cfg2.lb = LbConfig::static_only();
    let static_ = run_case(&cfg2, 8, &modern()).unwrap();
    // With such a tight threshold the scheme should have acted at least once.
    assert!(
        dynamic.repartitions >= 1,
        "no repartition despite f_o = 1.05 (f_max = {})",
        dynamic.f_max()
    );
    assert_eq!(dynamic.np_final.iter().sum::<usize>(), 8);
    // Physics must survive redistribution bit-for-bit in structure (finite,
    // same magnitude as the static run).
    // Repartitioning changes connectivity resolution order slightly; the
    // state must agree closely (bitwise equality is not expected).
    let rel = (dynamic.state_rms - static_.state_rms).abs() / static_.state_rms;
    assert!(rel < 1e-5, "redistribution corrupted the state: rel {rel}");
}

#[test]
fn delta_wing_reduced_scale_runs() {
    let cfg = delta_wing_case(0.25, 2);
    let r = run_case(&cfg, 7, &modern()).unwrap();
    assert!(r.state_rms.is_finite());
    // Small-scale 3-D geometry leaves a few gap points; they must be rare.
    let frac = r.orphans_last as f64 / r.igbps_last.max(1) as f64;
    assert!(frac < 0.05, "orphan fraction {frac}");
}

#[test]
fn store_reduced_scale_runs_with_motion() {
    let cfg = store_case(0.3, 3);
    let r = run_case(&cfg, 16, &modern()).unwrap();
    assert!(r.state_rms.is_finite());
    let frac = r.orphans_last as f64 / r.igbps_last.max(1) as f64;
    assert!(frac < 0.05, "orphan fraction {frac}");
    // The store case is connectivity-heavy: measured service imbalance
    // exists (the paper's premise for the dynamic scheme).
    assert!(r.f_max() > 1.2, "no service imbalance measured");
}

#[test]
fn igbp_ratio_ladder_matches_paper_ordering() {
    // The store case has the largest IGBP/gridpoint ratio — the paper's
    // reason it is "a good candidate to evaluate the dynamic load balance
    // scheme". Measured at moderate scale.
    let ratio = |r: &overflow_d::RunResult| r.igbps_last as f64 / r.total_points as f64;
    let airfoil = run_case(&airfoil_case(0.5, 1), 3, &modern()).unwrap();
    let store = run_case(&store_case(0.5, 1), 16, &modern()).unwrap();
    assert!(
        ratio(&store) > 2.0 * ratio(&airfoil),
        "store ratio {} not >> airfoil ratio {}",
        ratio(&store),
        ratio(&airfoil)
    );
}

#[test]
fn connectivity_fraction_grows_with_rank_count() {
    // Table 1's rightmost column: %DCF3D grows as ranks increase (the
    // connectivity solution scales worse than the flow solution).
    let lo = run_case(&airfoil_case(0.6, 8), 6, &MachineModel::ibm_sp2()).unwrap();
    let hi = run_case(&airfoil_case(0.6, 8), 24, &MachineModel::ibm_sp2()).unwrap();
    assert!(
        hi.connectivity_fraction() > lo.connectivity_fraction(),
        "%DCF3D did not grow: {} -> {}",
        lo.connectivity_fraction(),
        hi.connectivity_fraction()
    );
}

#[test]
fn speedup_is_substantial_but_sublinear() {
    let t6 = run_case(&airfoil_case(0.6, 8), 6, &MachineModel::ibm_sp2()).unwrap().time_per_step();
    let t24 =
        run_case(&airfoil_case(0.6, 8), 24, &MachineModel::ibm_sp2()).unwrap().time_per_step();
    let speedup = t6 / t24;
    // Mildly super-linear speedup is possible (the cache model reproduces
    // the paper's "super scalar speedups"); wildly off means a bug.
    assert!((1.8..4.8).contains(&speedup), "6->24 rank speedup out of band: {speedup}");
}

#[test]
fn sixdof_store_falls_and_is_rank_independent() {
    // The 6-DOF-coupled store case: the body must drop under gravity +
    // ejector and the replicated rigid-body state must keep physics
    // identical across rank counts (the loads allreduce is deterministic).
    let run = |n: usize| {
        let mut cfg = overflow_d::store_case_sixdof(0.3, 4);
        cfg.collect_state = true;
        run_case(&cfg, n, &modern()).unwrap()
    };
    let a = run(16);
    let b = run(20);
    assert!(a.state_rms.is_finite());
    // The aerodynamic-load allreduce sums panel contributions grouped by
    // rank; different decompositions reassociate the floating-point sum, so
    // 6-DOF trajectories agree closely but not bitwise (unlike the purely
    // local physics, which is exactly rank-independent).
    let rel = (a.state_rms - b.state_rms).abs() / a.state_rms;
    assert!(rel < 1e-3, "6-DOF physics rank-dependent: rel {rel}");
    // The store grids moved (hole fringe positions shifted): compare the
    // final solids implicitly via orphan-free connectivity.
    let frac = a.orphans_last as f64 / a.igbps_last.max(1) as f64;
    assert!(frac < 0.05, "orphan fraction {frac}");
}

#[test]
fn sixdof_perf_close_to_prescribed() {
    // The paper: free motion computes "with negligible change in the
    // parallel performance". Compare virtual time per step.
    let pres = run_case(&overflow_d::store_case(0.3, 4), 16, &MachineModel::ibm_sp2()).unwrap();
    let free =
        run_case(&overflow_d::store_case_sixdof(0.3, 4), 16, &MachineModel::ibm_sp2()).unwrap();
    let ratio = free.time_per_step() / pres.time_per_step();
    assert!((0.9..1.15).contains(&ratio), "6-DOF cost ratio {ratio} not negligible");
}
