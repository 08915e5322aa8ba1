//! Connectivity behaviour under sustained motion: holes migrate, fringe
//! sets track the bodies, and the donor cache keeps the warm path warm.

use overflow_d::{airfoil_case, run_case, store_case};
use overset_comm::{metrics::Counter, MachineModel};
use overset_motion::{BodyMotion, Prescribed};

fn modern() -> MachineModel {
    MachineModel::modern()
}

#[test]
fn quarter_period_pitch_stays_connected() {
    // Run an appreciable fraction of the pitch cycle (dt·steps·ω): the
    // near grid rotates, hole fringes in the background migrate, and the
    // connectivity must stay fully resolved throughout.
    let mut cfg = airfoil_case(0.3, 40);
    cfg.fc.dt = 0.01; // larger steps = more motion per connectivity solve
    let r = run_case(&cfg, 6, &modern()).unwrap();
    assert_eq!(r.orphans_last, 0);
    assert!(r.state_rms.is_finite() && r.state_rms > 1.0);
}

#[test]
fn warm_connectivity_stays_cheap_through_motion() {
    // Average connectivity time over a long moving run must stay below the
    // cold first step (nth-level restart keeps working while the grids
    // move). The margin is narrower than the pre-inverse-map 2x: map
    // seeding makes the cold step itself cheap, so the warm/cold gap now
    // measures hint-vs-seeded-walk, not hint-vs-center-start.
    let one = run_case(&airfoil_case(0.3, 1), 6, &MachineModel::ibm_sp2()).unwrap();
    let many = run_case(&airfoil_case(0.3, 30), 6, &MachineModel::ibm_sp2()).unwrap();
    let conn =
        |r: &overflow_d::RunResult| r.phase_elapsed[overset_comm::Phase::Connectivity as usize];
    let cold = conn(&one);
    let warm_avg = (conn(&many) - cold) / 29.0;
    assert!(warm_avg < 0.8 * cold, "warm connectivity not cheap: {warm_avg} vs cold {cold}");
}

#[test]
fn store_drop_moves_holes_consistently() {
    // As the store drops, the hole it cuts in the backgrounds moves; the
    // IGBP census changes but stays in a sane band and never orphans badly.
    let mut cfg = store_case(0.3, 6);
    cfg.fc.dt = 0.04; // exaggerate the motion
    let r = run_case(&cfg, 16, &modern()).unwrap();
    assert!(r.state_rms.is_finite());
    let frac = r.orphans_last as f64 / r.igbps_last.max(1) as f64;
    assert!(frac < 0.05, "orphan fraction {frac}");
    assert!(r.igbps_last > 1000, "fringe census collapsed: {}", r.igbps_last);
}

#[test]
fn service_imbalance_is_a_store_phenomenon() {
    // The premise of Algorithm 2: the store system's donor-search service
    // load is much more imbalanced than the airfoil's.
    let a = run_case(&airfoil_case(0.5, 3), 6, &modern()).unwrap();
    let s = run_case(&store_case(0.4, 3), 16, &modern()).unwrap();
    assert!(s.f_max() > a.f_max(), "store f_max {} not above airfoil {}", s.f_max(), a.f_max());
}

#[test]
fn dynamic_scheme_reduces_measured_service_imbalance() {
    // After a repartition triggered by Algorithm 2, the measured f(p) of
    // the final step should not exceed the static scheme's.
    let nranks = 16;
    let mut dyn_cfg = store_case(0.4, 10);
    dyn_cfg.lb = overflow_d::LbConfig::dynamic(1.5, 3);
    let d = run_case(&dyn_cfg, nranks, &modern()).unwrap();
    let s = run_case(&store_case(0.4, 10), nranks, &modern()).unwrap();
    if d.repartitions > 0 {
        assert!(
            d.f_max() <= s.f_max() * 1.25,
            "dynamic did not tame imbalance: {} vs static {}",
            d.f_max(),
            s.f_max()
        );
    }
}

/// A step whose rigid transform is the identity, or moves the grid by less
/// than epsilon·diagonal, must not mark the grid moved: no inverse-map
/// rebuild, no pose advance, walk outcomes identical to no motion at all.
#[test]
fn negligible_motion_never_marks_grids_moved() {
    let run = |motion: Option<Prescribed>| {
        let mut cfg = airfoil_case(0.3, 6);
        cfg.motions = motion.map(|p| BodyMotion::prescribed(vec![0], p)).into_iter().collect();
        run_case(&cfg, 6, &modern()).unwrap()
    };
    let none = run(None);
    // Zero-amplitude pitch: every step's transform is the exact identity.
    let zero = run(Some(Prescribed::PitchOscillation {
        alpha0: 0.0,
        omega: std::f64::consts::FRAC_PI_2,
        pivot: [0.25, 0.0, 0.0],
        axis: [0.0, 0.0, 1.0],
        time: 0.0,
    }));
    // Displaces every node by ~1e-21 of the domain per step: real motion,
    // far under the negligibility threshold.
    let tiny = run(Some(Prescribed::ConstantVelocity { velocity: [0.0, 0.0, 1.0e-18], time: 0.0 }));
    assert_eq!(zero.state_rms.to_bits(), none.state_rms.to_bits(), "identity motion moved state");
    // One build per rank on the cold first step and never again, nothing
    // ever advances a pose, and the walks are those of the static run.
    let walks = none.metrics.get(Counter::ConnWalkSteps);
    for (what, r) in [("no", &none), ("identity", &zero), ("below-epsilon", &tiny)] {
        let m = &r.metrics;
        assert_eq!(
            (
                m.get(Counter::ConnInvmapBuild),
                m.get(Counter::ConnInvmapIncr),
                m.get(Counter::ConnWalkSteps)
            ),
            (6, 0, walks),
            "{what} motion: map builds, pose advances, walk steps"
        );
    }
}

/// A single-processor run's steady steps restart as well as an 18-rank
/// run's: a donor accepted relaxed is warm-started relaxed, so (nearly)
/// every warm start hits, and the one processor walks about what the 18
/// ranks walk together. (When a serial cache warm-started relaxed donors
/// strictly, 3.4 % of its warm starts failed and each re-walked the whole
/// hierarchy: 4-5x the distributed run's steps.)
#[test]
fn serial_steady_steps_restart_like_the_distributed_ones() {
    let cfg = store_case(0.3, 5);
    let serial = overflow_d::run_case_serial(&cfg, &modern()).unwrap();
    let ranks = run_case(&cfg, 18, &modern()).unwrap();
    // Rank-summed walk steps of one timestep.
    let walked = |r: &overflow_d::RunResult, step: usize| -> u64 {
        r.step_records.iter().map(|recs| recs[step].count(Counter::ConnWalkSteps)).sum()
    };
    for step in 1..cfg.steps {
        let rec = &serial.step_records[0][step];
        let rate = rec.cache_hit_rate().expect("a steady step warm-starts");
        assert!(rate >= 0.995, "step {step}: serial warm-hit rate {rate}");
        let (one, many) = (walked(&serial, step), walked(&ranks, step));
        assert!(2 * one <= 3 * many, "step {step}: serial walks {one} steps, 18 ranks {many}");
    }
}

/// `conn.forwards` has one meaning: every request point sent after an
/// IGBP's first (its level's other candidates, then each later level's).
/// So the points serviced on all ranks in a step are the IGBPs that were
/// routed anywhere — here all of them — plus the forwards, also on a moving
/// step, where warm misses fall back to the hierarchy.
#[test]
fn serviced_points_are_first_requests_plus_forwards() {
    let r = run_case(&store_case(0.3, 3), 18, &modern()).unwrap();
    assert_eq!(r.orphans_last, 0, "an IGBP no rank admits sends no request");
    let serviced: usize = r.serviced_last.iter().sum();
    let forwards: u64 =
        r.step_records.iter().map(|recs| recs.last().unwrap().count(Counter::ConnForwards)).sum();
    assert!(forwards > 0, "a moving step forwards some requests");
    assert_eq!(serviced as u64, r.igbps_last as u64 + forwards);
}
