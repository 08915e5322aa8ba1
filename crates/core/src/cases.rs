//! The paper's three test cases, assembled as runnable [`CaseConfig`]s.

use crate::driver::CaseConfig;
use overset_grid::gen::{airfoil, delta_wing, store};
use overset_motion::{BodyMotion, Loads, Prescribed, RigidBody};
use overset_solver::FlowConditions;

/// Section 4.1: 2-D oscillating NACA 0012 airfoil. M∞ = 0.8, Re = 10⁶,
/// α(t) = 5°·sin(πt/2); three grids, ~64K composite points at `scale = 1`.
pub fn airfoil_case(scale: f64, steps: usize) -> CaseConfig {
    let mut fc = FlowConditions::new(0.8, 0.0, 1.0e6);
    // Stability-governed timestep (the paper: "the maximum timestep ... is
    // most often governed by stability conditions of the flow solver"):
    // the near-wall cell size shrinks with resolution, so dt scales down.
    fc.dt = 0.004 / scale.max(1.0);
    let mut cfg = CaseConfig::new(
        format!("oscillating-airfoil(x{scale})"),
        airfoil::airfoil_system(scale),
        airfoil::airfoil_search_order(),
        fc,
    );
    cfg.motions = vec![BodyMotion::prescribed(vec![0], Prescribed::paper_airfoil_pitch())];
    cfg.steps = steps;
    cfg
}

/// Section 4.2: descending delta wing. Four grids (~1M points at full
/// scale), all viscous, no turbulence model; the three curvilinear grids
/// descend at M = 0.064 relative to the background.
pub fn delta_wing_case(scale: f64, steps: usize) -> CaseConfig {
    let mut fc = FlowConditions::new(0.3, 0.0, 1.0e6);
    fc.dt = 0.02;
    let descent = Prescribed::descent(0.064, 1.0);
    let mut cfg = CaseConfig::new(
        format!("descending-delta-wing(x{scale})"),
        delta_wing::delta_wing_system(scale),
        delta_wing::delta_wing_search_order(),
        fc,
    );
    cfg.motions = vec![BodyMotion::prescribed(vec![0, 1, 2], descent)];
    cfg.steps = steps;
    cfg
}

/// Section 4.3: finned-store separation from a wing/pylon at M∞ = 1.6.
/// Sixteen grids (~0.81M points at full scale), Baldwin–Lomax on the
/// curvilinear grids, prescribed store motion.
pub fn store_case(scale: f64, steps: usize) -> CaseConfig {
    let mut fc = FlowConditions::new(1.6, 0.0, 1.0e6);
    fc.dt = 0.01;
    let motions = vec![BodyMotion::prescribed(
        store::STORE_GRID_IDS.to_vec(),
        Prescribed::store_ejection([
            store::STORE_CARRIAGE[0] + 0.5 * store::STORE_LEN,
            store::STORE_CARRIAGE[1],
            store::STORE_CARRIAGE[2],
        ]),
    )];
    let mut cfg = CaseConfig::new(
        format!("finned-store-separation(x{scale})"),
        store::store_system(scale),
        store::store_search_order(),
        fc,
    );
    cfg.motions = motions;
    cfg.steps = steps;
    cfg
}

/// The store-separation case with *computed* (6-DOF) store motion instead
/// of the prescribed trajectory — the paper: "the free motion can be
/// computed with negligible change in the parallel performance of the
/// code". Aerodynamic loads are integrated over the store grids' wall
/// patches each step and allreduce-summed; gravity and an initial ejector
/// push are applied on top.
pub fn store_case_sixdof(scale: f64, steps: usize) -> CaseConfig {
    let mut cfg = store_case(scale, steps);
    let cg = [
        store::STORE_CARRIAGE[0] + 0.5 * store::STORE_LEN,
        store::STORE_CARRIAGE[1],
        store::STORE_CARRIAGE[2],
    ];
    let mut body = RigidBody::new(8.0, [0.6, 5.0, 5.0], cg);
    body.velocity = [0.0, 0.0, -0.4]; // post-ejector downward velocity
    let applied = Loads { force: [0.0, 0.0, -8.0], moment: [0.0, -0.2, 0.0] };
    cfg.motions = vec![BodyMotion::six_dof(store::STORE_GRID_IDS.to_vec(), body, applied)];
    cfg.name = format!("finned-store-separation-6dof(x{scale})");
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_shapes_match_paper() {
        let a = airfoil_case(0.2, 1);
        assert_eq!(a.grids.len(), 3);
        assert_eq!(a.motions.len(), 1);
        let d = delta_wing_case(0.1, 1);
        assert_eq!(d.grids.len(), 4);
        assert_eq!(d.motions.len(), 1);
        assert_eq!(d.motions[0].grids, vec![0, 1, 2]);
        let s = store_case(0.1, 1);
        assert_eq!(s.grids.len(), 16);
        assert_eq!(s.motions.len(), 1);
        // All store grids move together as one body.
        assert_eq!(s.motions[0].grids, store::STORE_GRID_IDS.to_vec());
        let sd = store_case_sixdof(0.1, 1);
        assert!(sd.motions[0].needs_aero());
    }

    #[test]
    fn search_orders_name_valid_grids() {
        // Every grid has a search order, which names other grids of its
        // system only. (How the IGBP / gridpoint ratios compare with the
        // paper's is ROADMAP item 5(c); nothing here measures them.)
        for cfg in [airfoil_case(0.2, 1), delta_wing_case(0.1, 1), store_case(0.1, 1)] {
            assert_eq!(cfg.search_order.len(), cfg.grids.len());
            for (g, list) in cfg.search_order.iter().enumerate() {
                assert!(!list.contains(&g));
                for &t in list {
                    assert!(t < cfg.grids.len());
                }
            }
        }
    }
}
