//! Physical boundary conditions, applied to the owned boundary layers of a
//! block after each implicit update.
//!
//! Overset outer boundaries (`BcKind::OversetOuter`) are *not* handled here:
//! those nodes are inter-grid boundary points whose values the connectivity
//! module imposes by interpolation each step.
//!
//! Each node a BC sets is checked as it is set (DESIGN.md §6): nothing here
//! floors a state or falls back on a default normal.

use crate::block::Block;
use crate::conditions::{conservatives, pressure, FlowConditions};
use crate::step::{first_nonphysical, Nonphysical};
use overset_grid::curvilinear::BcKind;
use overset_grid::field::NVAR;
use overset_grid::index::Ijk;

/// Flops per boundary node for BC application (cost accounting).
pub const FLOPS_PER_BC_NODE: u64 = 40;

/// Apply all physical BCs, face by face. Returns estimated flops and the
/// first node set non-physical, in that order: ρ or p non-finite or ≤ 0,
/// or a far-field boundary sound speed `c_b` ≤ 0.
pub fn apply_bcs(block: &mut Block, fc: &FlowConditions) -> (u64, Option<Nonphysical>) {
    let (mut nodes, mut found) = (0u64, None);
    for face in 0..6 {
        let Some(kind) = block.face_bc[face] else { continue };
        let dir = face / 2;
        let inward: isize = if face % 2 == 0 { 1 } else { -1 };
        let layer = block.layer_box(face, 1, false);
        for p in layer.iter() {
            nodes += 1;
            let bad = apply_at(block, fc, kind, p, dir, inward);
            if let (None, Some((var, value))) = (found, bad) {
                let node = block.to_global(p);
                found = Some(Nonphysical { node, var, value, set_by: Some((face, kind)) });
            }
        }
    }
    (nodes * FLOPS_PER_BC_NODE, found)
}

/// How a message names a BC.
pub fn bc_name(kind: BcKind) -> &'static str {
    match kind {
        BcKind::Farfield => "far-field",
        BcKind::Wall { viscous: true } => "no-slip wall",
        BcKind::Wall { viscous: false } => "slip wall",
        BcKind::Symmetry => "symmetry",
        BcKind::Extrapolate => "extrapolation",
        BcKind::Axis => "axis",
        BcKind::OversetOuter | BcKind::PeriodicI => "interface",
    }
}

/// Set boundary node `p`; returns what makes the state it set
/// non-physical, if anything does.
fn apply_at(
    block: &mut Block,
    fc: &FlowConditions,
    kind: BcKind,
    p: Ijk,
    dir: usize,
    inward: isize,
) -> Option<(&'static str, f64)> {
    let inner = {
        let mut q = p;
        q.set(dir, (q.get(dir) as isize + inward) as usize);
        q
    };
    let q = match kind {
        BcKind::Farfield => {
            let (q, c_b) = characteristic_farfield(block, fc, p, inner, dir);
            block.q.set_node(p, q);
            return first_nonphysical(&q).or((c_b <= 0.0).then_some(("c_b", c_b)));
        }
        BcKind::Extrapolate | BcKind::Axis => *block.q.node(inner),
        BcKind::Wall { viscous } => {
            let qi = *block.q.node(inner);
            let rho = qi[0];
            let p_wall = pressure(&qi); // zero normal pressure gradient
            let vg = block.grid_vel_at(p);
            let vel = if viscous {
                // No-slip relative to the (possibly moving) wall.
                vg
            } else {
                // Slip: remove the wall-normal component of the relative
                // velocity. The wall normal is ∇η (or the face direction's
                // metric gradient), normalized.
                let nh = unit(block.metrics.grad(p, dir));
                let u = [qi[1] / rho - vg[0], qi[2] / rho - vg[1], qi[3] / rho - vg[2]];
                let un = u[0] * nh[0] + u[1] * nh[1] + u[2] * nh[2];
                [vg[0] + u[0] - un * nh[0], vg[1] + u[1] - un * nh[1], vg[2] + u[2] - un * nh[2]]
            };
            conservatives(&[rho, vel[0], vel[1], vel[2], p_wall])
        }
        BcKind::Symmetry => {
            // Mirror: copy interior with reflected normal velocity.
            let qi = *block.q.node(inner);
            let nh = unit(block.metrics.grad(p, dir));
            let rho = qi[0];
            let u = [qi[1] / rho, qi[2] / rho, qi[3] / rho];
            let un = u[0] * nh[0] + u[1] * nh[1] + u[2] * nh[2];
            let vel = [u[0] - un * nh[0], u[1] - un * nh[1], u[2] - un * nh[2]];
            conservatives(&[rho, vel[0], vel[1], vel[2], pressure(&qi)])
        }
        // Overset fringes are set by the connectivity phase; periodic wrap is
        // handled by the halo exchange.
        BcKind::OversetOuter | BcKind::PeriodicI => return None,
    };
    block.q.set_node(p, q);
    first_nonphysical(&q)
}

/// `g` normalized: a block's metrics have a finite Jacobian at every node,
/// so a face-direction gradient is never zero.
#[inline]
fn unit(g: [f64; 3]) -> [f64; 3] {
    let inv = 1.0 / (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
    [g[0] * inv, g[1] * inv, g[2] * inv]
}

/// One-dimensional characteristic (Riemann-invariant) far-field state at a
/// boundary node: `R⁺ = uₙ + 2c/(γ-1)` is taken from the upstream side of
/// the outgoing characteristic and `R⁻ = uₙ - 2c/(γ-1)` from the incoming
/// one; entropy and tangential velocity come from the upwind side selected
/// by the sign of the boundary-normal velocity. Supersonic inflow reduces
/// to freestream Dirichlet, supersonic outflow to pure extrapolation — far
/// less reflective than the naive freestream clamp. Returns the state and
/// the boundary sound speed it was built from.
fn characteristic_farfield(
    block: &Block,
    fc: &FlowConditions,
    p: Ijk,
    inner: Ijk,
    dir: usize,
) -> ([f64; NVAR], f64) {
    // Outward unit normal: the face-direction metric gradient, oriented
    // away from the interior.
    let mut nh = unit(block.metrics.grad(p, dir));
    // grad points toward increasing index; flip when the interior lies on
    // the increasing side (min face).
    if inner.get(dir) > p.get(dir) {
        nh = [-nh[0], -nh[1], -nh[2]];
    }

    let qi = *block.q.node(inner);
    let rho_i = qi[0];
    let ui = [qi[1] / rho_i, qi[2] / rho_i, qi[3] / rho_i];
    let pi = pressure(&qi);
    let ci = (crate::conditions::GAMMA * pi / rho_i).sqrt();

    let qf = fc.freestream();
    let uf = [qf[1] / qf[0], qf[2] / qf[0], qf[3] / qf[0]];
    let pf = pressure(&qf);
    let cf = (crate::conditions::GAMMA * pf / qf[0]).sqrt();

    let un_i = ui[0] * nh[0] + ui[1] * nh[1] + ui[2] * nh[2];
    let un_f = uf[0] * nh[0] + uf[1] * nh[1] + uf[2] * nh[2];
    let gm1 = crate::conditions::GAMMA - 1.0;

    // Supersonic cases: one-sided.
    if un_f <= -cf {
        return (fc.freestream(), cf); // supersonic inflow
    }
    if un_i >= ci {
        return (qi, ci); // supersonic outflow
    }
    // Subsonic: mix invariants.
    let r_plus = un_i + 2.0 * ci / gm1; // outgoing (from interior)
    let r_minus = un_f - 2.0 * cf / gm1; // incoming (from freestream)
    let un_b = 0.5 * (r_plus + r_minus);
    let c_b = 0.25 * gm1 * (r_plus - r_minus);
    // Upwind side for entropy and tangential velocity.
    let (s_ref, ut_ref, un_ref) = if un_b >= 0.0 {
        (pi / rho_i.powf(crate::conditions::GAMMA), ui, un_i)
    } else {
        (pf / qf[0].powf(crate::conditions::GAMMA), uf, un_f)
    };
    let rho_b = (c_b * c_b / (crate::conditions::GAMMA * s_ref)).powf(1.0 / gm1);
    let p_b = rho_b * c_b * c_b / crate::conditions::GAMMA;
    let vel = [
        ut_ref[0] + (un_b - un_ref) * nh[0],
        ut_ref[1] + (un_b - un_ref) * nh[1],
        ut_ref[2] + (un_b - un_ref) * nh[2],
    ];
    (conservatives(&[rho_b, vel[0], vel[1], vel[2], p_b]), c_b)
}

/// Wall-surface state of a face: `(nu, nv, coords, pressures)` over the
/// face's owned nodes.
pub type WallSurface = (usize, usize, Vec<[f64; 3]>, Vec<f64>);

/// Extract the wall-surface state of a face for aerodynamic load
/// integration.
pub fn wall_surface(block: &Block, face: usize) -> Option<WallSurface> {
    match block.face_bc[face] {
        Some(BcKind::Wall { .. }) => {}
        _ => return None,
    }
    let layer = block.layer_box(face, 1, false);
    let d = layer.dims();
    let dims = [d.ni, d.nj, d.nk];
    let dir = face / 2;
    let (u_dir, v_dir) = match dir {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let (nu, nv) = (dims[u_dir], dims[v_dir]);
    let mut coords = Vec::with_capacity(nu * nv);
    let mut press = Vec::with_capacity(nu * nv);
    for v in 0..nv {
        for u in 0..nu {
            let mut p = layer.lo;
            p.set(u_dir, layer.lo.get(u_dir) + u);
            p.set(v_dir, layer.lo.get(v_dir) + v);
            coords.push(block.coords[p]);
            press.push(pressure(block.q.node(p)));
        }
    }
    Some((nu, nv, coords, press))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::conditions::conservatives;
    use overset_grid::curvilinear::{BoundaryPatch, CurvilinearGrid, Face, GridKind};
    use overset_grid::field::{Field3, SoaField};
    use overset_grid::index::Dims;

    /// A 6 × 6 planar block at freestream with the BCs `patches`.
    fn block_with(patches: &[(Face, BcKind)]) -> Block {
        let d = Dims::new(6, 6, 1);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.2, p.j as f64 * 0.2, 0.0]);
        let mut g = CurvilinearGrid::new("w", coords, GridKind::NearBody);
        g.patches = patches.iter().map(|&(face, kind)| BoundaryPatch { face, kind }).collect();
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &fc)
    }

    fn wall_block(viscous: bool) -> Block {
        block_with(&[(Face::JMin, BcKind::Wall { viscous }), (Face::JMax, BcKind::Farfield)])
    }

    /// What `apply_bcs` reports once `inner`, a node next in from a face,
    /// holds the primitives `w` (on the freestream it reports nothing).
    fn report_after(b: &mut Block, inner: Ijk, w: [f64; NVAR]) -> Nonphysical {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        assert_eq!(apply_bcs(b, &fc).1, None, "a freestream block is physical");
        b.q.set_node(inner, conservatives(&w));
        apply_bcs(b, &fc).1.expect("a node set non-physical")
    }

    /// Every BC that writes a state names the first node it sets
    /// non-physical, with the face, the BC and the quantity: here the node
    /// on the face next to one non-physical interior node.
    #[test]
    fn each_bc_names_the_node_it_sets_non_physical() {
        let (rho_neg, p_neg) = ([-0.5, 0.8, 0.0, 0.0, 0.7], [1.0, 0.8, 0.0, 0.0, -0.7]);
        let cases = [
            (Face::JMin, BcKind::Wall { viscous: true }, p_neg, "p", "no-slip wall"),
            (Face::JMin, BcKind::Wall { viscous: false }, p_neg, "p", "slip wall"),
            (Face::JMax, BcKind::Farfield, p_neg, "ρ", "far-field"),
            (Face::IMin, BcKind::Extrapolate, rho_neg, "ρ", "extrapolation"),
            (Face::IMax, BcKind::Axis, p_neg, "p", "axis"),
            (Face::IMin, BcKind::Symmetry, rho_neg, "ρ", "symmetry"),
        ];
        for (face, kind, w, var, name) in cases {
            let mut b = block_with(&[(face, kind)]);
            let (fi, dir) = (face as usize, face.dir());
            let layer = b.layer_box(fi, 1, false);
            let on_face = Ijk::new(layer.lo.i, layer.lo.j, 0);
            let mut inner = on_face;
            inner.set(dir, if face.is_min() { on_face.get(dir) + 1 } else { on_face.get(dir) - 1 });
            let n = report_after(&mut b, inner, w);
            assert_eq!((n.node, n.var, n.set_by), (b.to_global(on_face), var, Some((fi, kind))));
            let want = w[if var == "ρ" { 0 } else { 4 }];
            assert!(n.value.is_nan() || (n.value - want).abs() < 1e-12, "{name}: {}", n.value);
            let text = n.to_string();
            assert!(text.contains(&format!("set by the {name} BC: {var} = ")), "{text}");
        }
    }

    /// A far-field node whose boundary sound speed comes out ≤ 0 is named
    /// by `c_b`: strong inflow from the interior against a cold interior
    /// makes the invariants' difference negative, which squaring would
    /// turn into a positive ρ_b and p_b.
    #[test]
    fn a_far_field_sound_speed_below_zero_is_named() {
        let mut b = wall_block(false);
        let ow = b.owned_local();
        let (on_face, inner) = (Ijk::new(3, ow.hi.j - 1, 0), Ijk::new(3, ow.hi.j - 2, 0));
        let cold = 0.01 / crate::conditions::GAMMA; // c = 0.1
        let n = report_after(&mut b, inner, [1.0, 0.0, -10.0, 0.0, cold]);
        let qb = b.q.node(on_face);
        assert!(qb[0] > 0.0 && pressure(qb) > 0.0, "the state itself is positive: {qb:?}");
        assert_eq!(
            (n.node, n.var, n.set_by),
            (b.to_global(on_face), "c_b", Some((3, BcKind::Farfield)))
        );
        assert!(n.value < 0.0, "c_b = {}", n.value);
        assert!(n.to_string().ends_with(&format!("set by the far-field BC: c_b = {:e}", n.value)));
    }

    #[test]
    fn noslip_wall_zeroes_velocity() {
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let mut b = wall_block(true);
        apply_bcs(&mut b, &fc);
        let ow = b.owned_local();
        for i in ow.lo.i..ow.hi.i {
            let q = b.q.node(Ijk::new(i, ow.lo.j, 0));
            assert_eq!(q[1], 0.0);
            assert_eq!(q[2], 0.0);
            // Density and pressure from the interior (freestream here).
            assert!((q[0] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn slip_wall_removes_normal_velocity_only() {
        let fc = FlowConditions::new(0.8, 30.0, 0.0);
        let mut b = wall_block(false);
        b.q.fill_uniform(fc.freestream());
        apply_bcs(&mut b, &fc);
        let ow = b.owned_local();
        let q = b.q.node(Ijk::new(3, ow.lo.j, 0));
        // Wall normal is +y here: v = 0, u preserved.
        assert!(q[2].abs() < 1e-12, "v = {}", q[2]);
        let u_free = 0.8 * 30.0f64.to_radians().cos();
        assert!((q[1] - u_free).abs() < 1e-12, "u = {} vs {}", q[1], u_free);
    }

    #[test]
    fn moving_wall_takes_grid_velocity() {
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let mut b = wall_block(true);
        b.grid_vel = Some(SoaField::new(b.local_dims, [0.3, 0.1, 0.0]));
        apply_bcs(&mut b, &fc);
        let ow = b.owned_local();
        let q = b.q.node(Ijk::new(2, ow.lo.j, 0));
        assert!((q[1] / q[0] - 0.3).abs() < 1e-12);
        assert!((q[2] / q[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn farfield_resets_to_freestream() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut b = wall_block(false);
        // Perturb the farfield boundary layer.
        let ow = b.owned_local();
        let top = Ijk::new(3, ow.hi.j - 1, 0);
        b.q.set_node(top, [2.0, 0.0, 0.0, 0.0, 5.0]);
        apply_bcs(&mut b, &fc);
        assert_eq!(*b.q.node(top), fc.freestream());
    }

    #[test]
    fn characteristic_farfield_supersonic_cases() {
        // Supersonic inflow face (flow entering): full freestream.
        let fc = FlowConditions::new(1.6, 0.0, 0.0);
        let mut b = wall_block(false); // JMax is Farfield; flow along +x
        b.q.fill_uniform(fc.freestream());
        // Perturb interior; the farfield J-boundary is side-on (normal ±y,
        // un_f = 0: subsonic normal component) — check it stays bounded and
        // physical rather than reflecting the perturbation.
        let ow = b.owned_local();
        let inner = Ijk::new(3, ow.hi.j - 2, 0);
        let mut q = *b.q.node(inner);
        q[4] *= 1.1;
        b.q.set_node(inner, q);
        apply_bcs(&mut b, &fc);
        let qb = b.q.node(Ijk::new(3, ow.hi.j - 1, 0));
        assert!(qb[0] > 0.0 && pressure(qb) > 0.0);
        // Boundary state lies between interior and freestream.
        let pf = pressure(&fc.freestream());
        let pi = pressure(&q);
        let pb = pressure(qb);
        // The invariant mixing is non-reflective: an interior pressure
        // spike produces boundary OUTFLOW and locally *lowers* the boundary
        // pressure (the wave leaves). Require a physical value in the
        // vicinity of the freestream rather than interval containment.
        assert!(pb > 0.5 * pf && pb < 1.5 * pf, "pb {pb} vs pf {pf} pi {pi}");
    }

    #[test]
    fn characteristic_farfield_is_exact_at_freestream() {
        let fc = FlowConditions::new(0.8, 5.0, 0.0);
        let mut b = wall_block(false);
        b.q.fill_uniform(fc.freestream());
        apply_bcs(&mut b, &fc);
        let ow = b.owned_local();
        let qb = b.q.node(Ijk::new(2, ow.hi.j - 1, 0));
        let qf = fc.freestream();
        for v in 0..NVAR {
            assert!((qb[v] - qf[v]).abs() < 1e-12, "var {v}: {} vs {}", qb[v], qf[v]);
        }
    }

    #[test]
    fn wall_surface_extraction() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut b = wall_block(true);
        apply_bcs(&mut b, &fc);
        let (nu, nv, coords, press) = wall_surface(&b, 2).expect("JMin is a wall");
        assert_eq!(nu, 6);
        assert_eq!(nv, 1);
        assert_eq!(coords.len(), 6);
        // All on y = 0.
        for c in &coords {
            assert_eq!(c[1], 0.0);
        }
        for p in &press {
            assert!((p - 1.0 / crate::conditions::GAMMA).abs() < 1e-12);
        }
        assert!(wall_surface(&b, 3).is_none());
    }
}
