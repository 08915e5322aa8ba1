//! Isentropic vortex advection: the classic Euler-solver accuracy test.
//! An exact solution of the Euler equations (a vortex advecting with the
//! freestream) is integrated for a short time; the discrete solution must
//! track the exactly-translated vortex, and the error must shrink
//! faster than first order with grid refinement (2nd-order space, 1st-order
//! time, dominated by the spatial term at these timestep sizes).

use overset_grid::curvilinear::{BcKind, BoundaryPatch, CurvilinearGrid, Face, GridKind};
use overset_grid::field::Field3;
use overset_grid::{Dims, Ijk};
use overset_solver::conditions::{conservatives, FlowConditions, GAMMA};
use overset_solver::{step_block, Block, Scratch, SerialComm};

const VORTEX_BETA: f64 = 1.0;
const MACH: f64 = 0.5;

/// Exact vortex state centered at `(xc, yc)`.
fn vortex_state(x: f64, y: f64, xc: f64, yc: f64) -> [f64; 5] {
    let (dx, dy) = (x - xc, y - yc);
    let r2 = dx * dx + dy * dy;
    let e = (0.5 * (1.0 - r2)).exp();
    let du = VORTEX_BETA / (2.0 * std::f64::consts::PI) * e * (-dy);
    let dv = VORTEX_BETA / (2.0 * std::f64::consts::PI) * e * dx;
    let dt2 = (GAMMA - 1.0) * VORTEX_BETA * VORTEX_BETA
        / (8.0 * GAMMA * std::f64::consts::PI * std::f64::consts::PI)
        * (1.0 - r2).exp();
    let t = 1.0 / GAMMA - dt2; // T∞ = p∞/ρ∞ = 1/γ in a∞ units
    let rho = (t * GAMMA).powf(1.0 / (GAMMA - 1.0));
    let p = rho * t;
    [rho, MACH + du, dv, 0.0, p]
}

fn vortex_block(n: usize, half: f64) -> Block {
    let d = Dims::new(n, n, 1);
    let h = 2.0 * half / (n - 1) as f64;
    let coords = Field3::from_fn(d, |p: Ijk| [-half + h * p.i as f64, -half + h * p.j as f64, 0.0]);
    let mut g = CurvilinearGrid::new("v", coords, GridKind::Background);
    g.patches =
        Face::ALL[..4].iter().map(|&f| BoundaryPatch { face: f, kind: BcKind::Farfield }).collect();
    let fc = FlowConditions::new(MACH, 0.0, 0.0);
    let mut b = Block::from_grid(0, &g, d.full_box(), [None; 6], &fc);
    for p in b.local_dims.iter().collect::<Vec<_>>() {
        let [x, y, _] = b.coords[p];
        b.q.set_node(p, conservatives(&vortex_state(x, y, 0.0, 0.0)));
    }
    b
}

/// L2 density error against the exactly-advected vortex after `t_end`.
fn advect_error(n: usize, t_end: f64, dt: f64) -> f64 {
    let mut fc = FlowConditions::new(MACH, 0.0, 0.0);
    fc.dt = dt;
    let mut b = vortex_block(n, 5.0);
    let mut s = Scratch::default();
    let steps = (t_end / dt).round() as usize;
    for _ in 0..steps {
        step_block(&mut b, &fc, None, &mut SerialComm, &mut s);
    }
    let xc = MACH * t_end;
    let mut sum = 0.0;
    let mut count = 0usize;
    for p in b.owned_local().iter() {
        let [x, y, _] = b.coords[p];
        // Skip the far field (boundary effects) — measure near the vortex.
        if (x - xc).abs() > 3.0 || y.abs() > 3.0 {
            continue;
        }
        let exact = conservatives(&vortex_state(x, y, xc, 0.0));
        let got = b.q.node(p);
        sum += (got[0] - exact[0]).powi(2);
        count += 1;
    }
    (sum / count as f64).sqrt()
}

#[test]
fn vortex_advects_with_small_error() {
    let err = advect_error(65, 0.5, 0.01);
    assert!(err < 5e-3, "vortex error too large: {err}");
}

#[test]
fn vortex_error_converges_with_resolution() {
    // Refine 2x in space (and time, to keep the temporal error subordinate):
    // the error must drop by clearly more than 1st order.
    let coarse = advect_error(49, 0.4, 0.01);
    let fine = advect_error(97, 0.4, 0.005);
    let ratio = coarse / fine;
    assert!(ratio > 2.0, "convergence ratio {ratio} (coarse {coarse}, fine {fine})");
}

#[test]
fn vortex_preserves_total_mass_in_interior() {
    // The vortex never reaches the boundary in this window: interior mass
    // (sum of ρJ) is conserved to truncation level.
    let mut fc = FlowConditions::new(MACH, 0.0, 0.0);
    fc.dt = 0.01;
    let mut b = vortex_block(65, 5.0);
    let mut s = Scratch::default();
    let mass = |b: &Block| -> f64 {
        let mut m = 0.0;
        for p in b.owned_local().iter() {
            m += b.q.node(p)[0] * b.metrics.metric(p).jac;
        }
        m
    };
    let m0 = mass(&b);
    for _ in 0..30 {
        step_block(&mut b, &fc, None, &mut SerialComm, &mut s);
    }
    let m1 = mass(&b);
    let rel = (m1 - m0).abs() / m0;
    assert!(rel < 2e-4, "mass drift {rel}");
}
