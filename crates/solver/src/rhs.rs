//! Right-hand-side (residual) assembly for the transformed Euler /
//! thin-layer Navier–Stokes equations.
//!
//! Spatial discretization matches the paper's solver family: second-order
//! central flux differences with scalar (JST-type) 2nd/4th-difference
//! artificial dissipation, ALE grid-velocity terms for moving grids, and
//! thin-layer viscous terms in the wall-normal (η) direction.
//!
//! The residual is `dq/dt` (already divided by the cell Jacobian), so
//! `res = 0` exactly at uniform freestream on any untangled grid — verified
//! by the freestream-preservation tests.
//!
//! Evaluation is a **node pass + face assembly** per direction: every
//! quantity that depends on one node only (pressure, the pressure switch ν,
//! the spectral radius σ̂, the contravariant flux F̂, the state and its
//! blanking; velocity, kinetic energy, a², μ_l, Ŝ and μ_t for the thin-layer
//! term) is computed once per node by the lane-batched kernels in
//! [`crate::kernels`] into a node cache, and the lane-batched assembly then
//! differences cached values, accumulating straight into the sweeps'
//! increment direction by direction. Each cached value is produced by the
//! operation sequence the per-node form used (kept as `reference` for the
//! bit-equality tests), so the result is bit-identical to evaluating every
//! stencil from scratch.

use crate::adi::Scratch;
use crate::block::{Blank, Block};
use crate::conditions::FlowConditions;
use crate::kernels::{self, Rows, RC_FIELDS};
use overset_grid::index::{Ijk, IndexBox};

/// JST dissipation constants (2nd-difference sensor gain, 4th-difference
/// background gain).
pub const K2: f64 = 0.5;
pub const K4: f64 = 1.0 / 16.0;

/// Modelled flops per owned node per active direction for the flux +
/// dissipation assembly (virtual-time accounting: the cost of evaluating
/// every stencil from scratch, which is what the paper's machines did).
pub const FLOPS_PER_NODE_PER_DIR: u64 = 110;
/// Modelled extra flops per owned node for thin-layer viscous terms.
pub const FLOPS_VISCOUS_PER_NODE: u64 = 90;

/// The thin layer acts in the body-normal η direction.
const ETA: usize = 1;

/// Range of local indices along `dir` that have valid ±1 stencil data:
/// owned nodes, shrunk by one at faces with no neighbor (physical
/// boundaries are handled by the BC module). `None` when nothing is left.
fn sweep_box(block: &Block) -> Option<IndexBox> {
    let mut b = block.owned_local();
    for dir in block.active_dirs().iter().copied() {
        let f_min = 2 * dir;
        let f_max = 2 * dir + 1;
        let has_min = block.neighbor[f_min].is_some() || (dir == 0 && block.self_wrap_i);
        let has_max = block.neighbor[f_max].is_some() || (dir == 0 && block.self_wrap_i);
        if !has_min {
            b.lo.set(dir, b.lo.get(dir) + 1);
        }
        if !has_max {
            b.hi.set(dir, b.hi.get(dir) - 1);
        }
    }
    // Periodic grids: the duplicated seam node (global i = ni-1) mirrors
    // node 0 and is never updated directly.
    if (block.self_wrap_i || block.neighbor[1].is_some())
        && block.owned.hi.i == block.grid_dims.ni
        && block.periodic_i_grid
    {
        b.hi.set(0, b.hi.get(0) - 1);
    }
    (0..3).all(|d| b.lo.get(d) < b.hi.get(d)).then_some(b)
}

/// Assemble the residual R over the block's computable nodes into the
/// sweeps' increment ([`Scratch::increment`]), which leaves holding
/// Δt·R on field nodes (R already divided by J) and zero elsewhere. Returns
/// the modelled flops and the L2 norm of R over the owned field nodes
/// (diagnostic).
///
/// Every pass walks rows of the sweep box (`i` fastest) and caches node
/// quantities for the few rows its stencil spans: a row's own ±2
/// neighbours along `i`, a ring of five rows along a `j` or `k` pencil,
/// three rows along η for the thin layer. The node cache stays in the
/// first cache levels whatever the block size.
pub fn compute_residual(block: &Block, fc: &FlowConditions, ws: &mut Scratch) -> (u64, f64) {
    let ow = block.owned_local();
    let (ld, od) = (block.local_dims, ow.dims());
    let ib = block.iblank.as_slice();
    let field_nodes: usize = Rows::new(ow, ld.full_box(), ow)
        .starts()
        .map(|(s0, _)| ib[s0..s0 + od.ni].iter().filter(|&&b| b == Blank::Field).count())
        .sum();
    let Some(sweep) = sweep_box(block) else {
        ws.increment(block).fill(0.0);
        return (0, 0.0);
    };
    let viscous = block.viscous && fc.viscous_coefficient() > 0.0;
    let (q, met, vel) = (block.q.as_slice(), &block.metrics, block.grid_vel.as_ref());
    let (isa, mm, n) = (ws.isa, ow.count(), sweep.dims().ni);
    // The widest cache: five rows of `n + 4` nodes.
    const _: () = assert!(kernels::VC_FIELDS <= RC_FIELDS);
    let (cache, dw) = ws.residual_buffers(block, RC_FIELDS * 5 * (n + 4));
    dw.fill(0.0);
    // Storage offset of a node; increment offset of an owned node.
    let s_at = |p: Ijk| ld.offset(p);
    let t_at = |p: Ijk| od.offset(Ijk::new(p.i - ow.lo.i, p.j - ow.lo.j, p.k - ow.lo.k));
    // The first nodes of the sweep box's rows along the pencils of `dir`.
    let pencils = |dir: usize| {
        let o = 3 - dir;
        (sweep.lo.get(o)..sweep.hi.get(o)).map(move |c| {
            let mut p = sweep.lo;
            p.set(o, c);
            p
        })
    };

    for &dir in block.active_dirs() {
        // The stencil of a sweep node reaches one node along `dir` for F̂,
        // σ̂ and ν, two for the state and the pressures under ν — always
        // inside storage.
        assert_eq!(block.halo[dir], crate::block::HALO);
        if dir == 0 {
            // Row by row: node `i` of a sweep row at cache position `i + 2`.
            let stride = n + 4;
            for k in sweep.lo.k..sweep.hi.k {
                for j in sweep.lo.j..sweep.hi.j {
                    let p = Ijk::new(sweep.lo.i, j, k);
                    let s = s_at(p) - 2;
                    kernels::flux_node_row(isa, n + 4, s, 0, 0, q, ib, met, vel, stride, cache);
                    kernels::nu_row(isa, n + 2, [0, 1, 2], stride, cache);
                    kernels::assemble_row(isa, n, [0, 1, 2, 3, 4], stride, cache, mm, t_at(p), dw);
                }
            }
            continue;
        }
        // Pencils of rows along `dir` through a ring of five: row `c` in
        // slot `c % 5`. Row `c`'s node pass completes row `c - 1`'s ν
        // stencil and row `c - 2`'s assembly stencil.
        let (stride, slot) = (5 * n, |c: usize| (c % 5) * n);
        let (lo, hi) = (sweep.lo.get(dir), sweep.hi.get(dir));
        for p0 in pencils(dir) {
            let row = |c: usize| {
                let mut p = p0;
                p.set(dir, c);
                p
            };
            for c in lo - 2..hi + 2 {
                let s = s_at(row(c));
                kernels::flux_node_row(isa, n, s, slot(c), dir, q, ib, met, vel, stride, cache);
                if c >= lo {
                    let at = [slot(c - 2), slot(c - 1), slot(c)];
                    kernels::nu_row(isa, n, at, stride, cache);
                }
                if c >= lo + 2 {
                    let at = [slot(c - 4), slot(c - 3), slot(c - 2), slot(c - 1), slot(c)];
                    let t = t_at(row(c - 2));
                    kernels::assemble_row(isa, n, at, stride, cache, mm, t, dw);
                }
            }
        }
    }

    // Thin-layer viscous terms in the body-normal η direction, 1/J and Δt,
    // through a ring of three rows along η.
    let (stride, slot) = (3 * n, |c: usize| (c % 3) * n);
    let (lo, hi) = (sweep.lo.get(ETA), sweep.hi.get(ETA));
    let (coef, mu_t) = (fc.viscous_coefficient(), block.mu_t.as_ref().map(|m| m.as_slice()));
    let (mut nodes, mut sum) = (0u64, 0.0f64);
    for p0 in pencils(ETA) {
        let row = |c: usize| {
            let mut p = p0;
            p.set(ETA, c);
            p
        };
        for c in lo - 1..hi + 1 {
            let s = s_at(row(c));
            kernels::viscous_node_row(isa, n, s, slot(c), viscous, q, ib, met, mu_t, stride, cache);
            if c > lo {
                let (at, t) = ([slot(c - 2), slot(c - 1), slot(c)], t_at(row(c - 1)));
                let (row_nodes, row_sum) = kernels::finish_row(
                    isa, n, at, viscous, coef, stride, cache, fc.dt, mm, t, dw, sum,
                );
                nodes += row_nodes;
                sum = row_sum;
            }
        }
    }

    let mut flops = nodes * block.active_dirs().len() as u64 * FLOPS_PER_NODE_PER_DIR;
    if viscous {
        flops += nodes * FLOPS_VISCOUS_PER_NODE;
    }
    let l2 = if field_nodes == 0 { 0.0 } else { (sum / field_nodes as f64).sqrt() };
    (flops, l2)
}

/// The per-node recomputing form of the residual: every stencil evaluated
/// from scratch through scalar `pressure` / `hat_flux` / `spectral_radius`
/// calls, into an interleaved field over the block. The node-pass
/// implementation above must reproduce it bit for bit (times Δt).
#[cfg(test)]
pub(crate) mod reference {
    use super::{FLOPS_PER_NODE_PER_DIR, FLOPS_VISCOUS_PER_NODE, K2, K4};
    use crate::block::{Blank, Block};
    use crate::conditions::{
        pressure, sound_speed, sutherland_viscosity, FlowConditions, GAMMA, PRANDTL, PRANDTL_T,
    };
    use overset_grid::field::{StateField, NVAR};
    use overset_grid::index::Ijk;

    /// L2 norm of the residual over owned field nodes.
    pub fn residual_l2(block: &Block, res: &StateField) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for p in block.owned_local().iter() {
            if block.iblank[p] != Blank::Field {
                continue;
            }
            let r = res.node(p);
            sum += r.iter().map(|x| x * x).sum::<f64>();
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            (sum / count as f64).sqrt()
        }
    }

    #[inline]
    fn offset(p: Ijk, dir: usize, d: isize) -> Ijk {
        let mut q = p;
        q.set(dir, (q.get(dir) as isize + d) as usize);
        q
    }

    /// Contravariant flux vector F̂ through the `dir` computational face at a
    /// node, including ALE grid-velocity terms.
    #[inline]
    fn hat_flux(block: &Block, p: Ijk, dir: usize) -> [f64; NVAR] {
        let q = block.q.node(p);
        let (g, jac) = (block.metrics.grad(p, dir), block.metrics.metric(p).jac);
        let s = [g[0] * jac, g[1] * jac, g[2] * jac]; // Ŝ = J ∇ξ
        let inv_rho = 1.0 / q[0];
        let u = [q[1] * inv_rho, q[2] * inv_rho, q[3] * inv_rho];
        let vg = block.grid_vel_at(p);
        let p_stat = pressure(q);
        let u_s = s[0] * u[0] + s[1] * u[1] + s[2] * u[2];
        let ug_s = s[0] * vg[0] + s[1] * vg[1] + s[2] * vg[2];
        let u_rel = u_s - ug_s;
        [
            q[0] * u_rel,
            q[1] * u_rel + s[0] * p_stat,
            q[2] * u_rel + s[1] * p_stat,
            q[3] * u_rel + s[2] * p_stat,
            q[4] * u_rel + p_stat * u_s,
        ]
    }

    /// Scaled spectral radius σ̂ = |Û_rel| + c|Ŝ| at a node for direction `dir`.
    #[inline]
    pub fn spectral_radius(block: &Block, p: Ijk, dir: usize) -> f64 {
        let q = block.q.node(p);
        let (g, jac) = (block.metrics.grad(p, dir), block.metrics.metric(p).jac);
        let s = [g[0] * jac, g[1] * jac, g[2] * jac];
        let s_norm = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]).sqrt();
        let inv_rho = 1.0 / q[0];
        let vg = block.grid_vel_at(p);
        let u_rel = s[0] * (q[1] * inv_rho - vg[0])
            + s[1] * (q[2] * inv_rho - vg[1])
            + s[2] * (q[3] * inv_rho - vg[2]);
        u_rel.abs() + sound_speed(q) * s_norm
    }

    /// Is the node usable in a difference stencil (inside local storage)?
    #[inline]
    fn in_local(block: &Block, p: Ijk, dir: usize, d: isize) -> bool {
        let c = p.get(dir) as isize + d;
        c >= 0 && (c as usize) < block.local_dims.get(dir)
    }

    /// Assemble the residual into `res` over the block's computable nodes.
    /// Returns estimated flops performed.
    pub fn compute_residual(block: &Block, fc: &FlowConditions, res: &mut StateField) -> u64 {
        assert_eq!(res.dims(), block.local_dims);
        for v in res.as_mut_slice() {
            *v = 0.0;
        }
        let Some(sweep) = super::sweep_box(block) else { return 0 };
        let mut nodes = 0u64;

        for p in sweep.iter() {
            if block.iblank[p] != Blank::Field {
                continue;
            }
            nodes += 1;
            let jac = block.metrics.metric(p).jac;
            let inv_j = 1.0 / jac;
            let mut r = [0.0f64; NVAR];

            for &dir in block.active_dirs() {
                // Central flux difference.
                let fp = hat_flux(block, offset(p, dir, 1), dir);
                let fm = hat_flux(block, offset(p, dir, -1), dir);
                for v in 0..NVAR {
                    r[v] -= 0.5 * (fp[v] - fm[v]);
                }
                // JST scalar dissipation: face-based 2nd/4th differences.
                let d_hi = face_dissipation(block, p, dir, 1);
                let d_lo = face_dissipation(block, p, dir, -1);
                for v in 0..NVAR {
                    r[v] += d_hi[v] - d_lo[v];
                }
            }

            if block.viscous && fc.viscous_coefficient() > 0.0 {
                let fv_hi = viscous_face_flux(block, p, fc, 1);
                let fv_lo = viscous_face_flux(block, p, fc, -1);
                for v in 0..NVAR {
                    r[v] += fv_hi[v] - fv_lo[v];
                }
            }

            let out = res.node_mut(p);
            for v in 0..NVAR {
                out[v] = r[v] * inv_j;
            }
        }

        let dirs = block.active_dirs().len() as u64;
        let mut flops = nodes * dirs * FLOPS_PER_NODE_PER_DIR;
        if block.viscous && fc.viscous_coefficient() > 0.0 {
            flops += nodes * FLOPS_VISCOUS_PER_NODE;
        }
        flops
    }

    /// JST dissipative flux at the face between `p` and `p + side` along `dir`
    /// (side = ±1).
    fn face_dissipation(block: &Block, p: Ijk, dir: usize, side: isize) -> [f64; NVAR] {
        let p1 = offset(p, dir, side);
        // Pressure switch ν at both nodes (guarded near storage edges).
        let nu_at = |n: Ijk| -> f64 {
            if !in_local(block, n, dir, 1) || !in_local(block, n, dir, -1) {
                return 0.0;
            }
            let pm = pressure(block.q.node(offset(n, dir, -1)));
            let pc = pressure(block.q.node(n));
            let pp = pressure(block.q.node(offset(n, dir, 1)));
            ((pp - 2.0 * pc + pm) / (pp + 2.0 * pc + pm)).abs()
        };
        let eps2 = K2 * nu_at(p).max(nu_at(p1));
        let eps4 = (K4 - eps2).max(0.0);
        let sigma = 0.5 * (spectral_radius(block, p, dir) + spectral_radius(block, p1, dir));

        let q0 = block.q.node(p);
        let q1 = block.q.node(p1);
        let mut d = [0.0f64; NVAR];
        // Second difference across the face.
        for v in 0..NVAR {
            d[v] = eps2 * (q1[v] - q0[v]);
        }
        // Fourth difference needs one more node on each side; degrade to pure
        // 2nd-difference when the stencil leaves local storage or crosses
        // blanked nodes.
        let pm = offset(p, dir, -side);
        let pp = offset(p1, dir, side);
        let stencil_ok = in_local(block, p, dir, -side)
            && in_local(block, p1, dir, side)
            && block.iblank[pm] == Blank::Field
            && block.iblank[pp] == Blank::Field
            && block.iblank[p1] != Blank::Hole;
        if stencil_ok {
            let qm = block.q.node(pm);
            let qp = block.q.node(pp);
            for v in 0..NVAR {
                let third = (qp[v] - q1[v]) - 2.0 * (q1[v] - q0[v]) + (q0[v] - qm[v]);
                d[v] -= eps4 * third;
            }
        }
        // Face flux orientation: the residual adds d(p+1/2) - d(p-1/2).
        let sign = if side > 0 { 1.0 } else { -1.0 };
        for v in d.iter_mut() {
            *v *= sigma * sign;
        }
        d
    }

    /// Thin-layer viscous flux at the η-face between `p` and `p + side`·η̂
    /// (side = ±1), in the Q̂ equation (to be differenced and divided by J).
    fn viscous_face_flux(block: &Block, p: Ijk, fc: &FlowConditions, side: isize) -> [f64; NVAR] {
        const DIR: usize = 1; // thin layer acts in the body-normal η direction
        if !in_local(block, p, DIR, side) {
            return [0.0; NVAR];
        }
        let p1 = offset(p, DIR, side);
        let (qa, qb) = (block.q.node(p), block.q.node(p1));
        let (ma, mb) = (block.metrics.metric(p), block.metrics.metric(p1));
        // Face-averaged Ŝ and J.
        let s = [
            0.5 * (ma.eta[0] * ma.jac + mb.eta[0] * mb.jac),
            0.5 * (ma.eta[1] * ma.jac + mb.eta[1] * mb.jac),
            0.5 * (ma.eta[2] * ma.jac + mb.eta[2] * mb.jac),
        ];
        let jf = 0.5 * (ma.jac + mb.jac);
        let m1 = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]) / jf;

        let ua = [qa[1] / qa[0], qa[2] / qa[0], qa[3] / qa[0]];
        let ub = [qb[1] / qb[0], qb[2] / qb[0], qb[3] / qb[0]];
        let du = [ub[0] - ua[0], ub[1] - ua[1], ub[2] - ua[2]];
        let s_du = s[0] * du[0] + s[1] * du[1] + s[2] * du[2];

        let mu_l = 0.5 * (sutherland_viscosity(qa) + sutherland_viscosity(qb));
        let mu_t = 0.5 * (block.mu_t_at(p) + block.mu_t_at(p1));
        let mu = mu_l + mu_t;
        let coef = fc.viscous_coefficient();

        // Momentum: μ (m1 du + (1/3)(S·du) S / J).
        let fm = [
            coef * mu * (m1 * du[0] + s_du * s[0] / (3.0 * jf)),
            coef * mu * (m1 * du[1] + s_du * s[1] / (3.0 * jf)),
            coef * mu * (m1 * du[2] + s_du * s[2] / (3.0 * jf)),
        ];
        // Energy: shear work + heat conduction on a² = γ p / ρ.
        let ke_a = 0.5 * (ua[0] * ua[0] + ua[1] * ua[1] + ua[2] * ua[2]);
        let ke_b = 0.5 * (ub[0] * ub[0] + ub[1] * ub[1] + ub[2] * ub[2]);
        let a2_a = GAMMA * pressure(qa) / qa[0];
        let a2_b = GAMMA * pressure(qb) / qb[0];
        let k_heat = mu_l / PRANDTL + mu_t / PRANDTL_T;
        let fe = coef * m1 * (mu * (ke_b - ke_a) + k_heat / (GAMMA - 1.0) * (a2_b - a2_a));

        let sign = if side > 0 { 1.0 } else { -1.0 };
        [0.0, sign * fm[0], sign * fm[1], sign * fm[2], sign * fe]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::GAMMA;
    use crate::testutil::same_bits as same;
    use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
    use overset_grid::field::{Field3, SoaField, StateField, NVAR};
    use overset_grid::index::{Dims, Ijk};

    fn uniform_block(n: usize, fc: &FlowConditions) -> Block {
        let d = Dims::new(n, n, n);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.2, p.j as f64 * 0.2, p.k as f64 * 0.2]);
        let g = CurvilinearGrid::new("u", coords, GridKind::Background);
        Block::from_grid(0, &g, d.full_box(), [None; 6], fc)
    }

    /// The increment the residual leaves (Δt·R on the owned nodes, zero
    /// elsewhere) as an interleaved field over the block, with the flops and
    /// the L2 norm of R.
    fn residual(b: &Block, fc: &FlowConditions, ws: &mut Scratch) -> (StateField, u64, f64) {
        let (flops, l2) = compute_residual(b, fc, ws);
        let (ow, inc) = (b.owned_local(), ws.increment(b));
        let mut out = StateField::new(b.local_dims);
        for (t, p) in ow.iter().enumerate() {
            out.set_node(p, std::array::from_fn(|v| inc[v * ow.count() + t]));
        }
        (out, flops, l2)
    }

    fn l2(b: &Block, fc: &FlowConditions) -> f64 {
        compute_residual(b, fc, &mut Scratch::default()).1
    }

    #[test]
    fn freestream_preserved_on_cartesian_grid() {
        let fc = FlowConditions::new(0.8, 3.0, 0.0);
        let b = uniform_block(8, &fc);
        assert!(l2(&b, &fc) < 1e-13);
    }

    #[test]
    fn freestream_preserved_on_stretched_grid() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let d = Dims::new(9, 9, 9);
        let coords = Field3::from_fn(d, |p| {
            // Smoothly stretched curvilinear coordinates.
            let x = (p.i as f64 * 0.15).sinh() * 0.5;
            let y = p.j as f64 * 0.1 + 0.03 * (p.i as f64 * 0.4).sin();
            let z = p.k as f64 * 0.12;
            [x, y, z]
        });
        let g = CurvilinearGrid::new("s", coords, GridKind::Background);
        let b = Block::from_grid(0, &g, d.full_box(), [None; 6], &fc);
        // Central metrics + central fluxes commute on linear variation; for
        // generic smooth grids freestream error is at truncation level.
        assert!(l2(&b, &fc) < 1e-10, "res = {}", l2(&b, &fc));
    }

    #[test]
    fn freestream_preserved_viscous() {
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let mut b = uniform_block(8, &fc);
        b.viscous = true;
        assert!(l2(&b, &fc) < 1e-13);
    }

    #[test]
    fn pressure_pulse_produces_outward_response() {
        let fc = FlowConditions::new(0.0, 0.0, 0.0);
        let mut b = uniform_block(9, &fc);
        // Raise pressure at the center node.
        let c = Ijk::new(4, 4, 4);
        let mut q = *b.q.node(c);
        q[4] *= 1.2;
        b.q.set_node(c, q);
        let (res, _, _) = residual(&b, &fc, &mut Scratch::default());
        // Neighbours see incoming momentum flux (divergence of p at center).
        let right = res.node(Ijk::new(5, 4, 4));
        let left = res.node(Ijk::new(3, 4, 4));
        assert!(right[1] > 0.0, "x-momentum should increase right of pulse");
        assert!(left[1] < 0.0);
        // Center loses energy symmetrically: residual finite.
        assert!(res.node(c)[4].abs() > 0.0);
    }

    #[test]
    fn holes_and_fringes_are_skipped() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut b = uniform_block(8, &fc);
        let c = Ijk::new(4, 4, 4);
        b.iblank[c] = Blank::Hole;
        let f = Ijk::new(3, 4, 4);
        b.iblank[f] = Blank::Fringe;
        // Put garbage in the hole: must not contaminate its own residual.
        b.q.set_node(c, [1.0, 9.0, 9.0, 9.0, 99.0]);
        let (res, _, _) = residual(&b, &fc, &mut Scratch::default());
        assert_eq!(*res.node(c), [0.0; 5]);
        assert_eq!(*res.node(f), [0.0; 5]);
    }

    #[test]
    fn moving_grid_uniform_flow_in_grid_frame() {
        // Grid translating with the fluid: relative flux vanishes except for
        // the pressure terms, which are constant: residual ~ 0.
        let fc = FlowConditions::new(0.5, 0.0, 0.0);
        let mut b = uniform_block(8, &fc);
        b.grid_vel = Some(SoaField::new(b.local_dims, [0.5, 0.0, 0.0]));
        assert!(l2(&b, &fc) < 1e-13);
    }

    #[test]
    fn spectral_radius_positive_and_scales() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = uniform_block(6, &fc);
        let p = Ijk::new(3, 3, 3);
        let s = reference::spectral_radius(&b, p, 0);
        assert!(s > 0.0);
        // |Û| + c|Ŝ| with h = 0.2: Ŝ = J∇ξ = h² ; σ̂ = (0.8 + 1) h².
        let expect = (0.8 + 1.0) * 0.04;
        assert!((s - expect).abs() < 1e-9, "sigma {s} expect {expect}");
    }

    #[test]
    fn viscous_shear_decays_toward_uniform() {
        // A shear layer in u(y) must produce momentum diffusion with the
        // right sign: residual accelerates slow fluid, decelerates fast.
        // Low Reynolds number so physical viscosity dominates the JST
        // background dissipation in this sign check.
        let fc = FlowConditions::new(0.5, 0.0, 10.0);
        let mut b = uniform_block(9, &fc);
        b.viscous = true;
        for p in b.local_dims.iter() {
            // Inflection at local j = 6 (mid-block, inside the sweep box).
            let u = 0.1 * (p.j as f64 - 6.0).tanh();
            let prim = [1.0, u, 0.0, 0.0, 1.0 / GAMMA];
            b.q.set_node(p, crate::conditions::conservatives(&prim));
        }
        let (res, _, _) = residual(&b, &fc, &mut Scratch::default());
        // Above the inflection u is concave (u'' < 0) so du/dt < 0; below,
        // convex so du/dt > 0.
        let above = res.node(Ijk::new(6, 8, 6));
        let below = res.node(Ijk::new(6, 4, 6));
        assert!(above[1] < 0.0, "above: {above:?}");
        assert!(below[1] > 0.0, "below: {below:?}");
    }

    // ---- node pass vs the per-node reference: bit equality ---------------

    use crate::lanes::{select_isa, Isa};
    use overset_grid::index::IndexBox;
    use proptest::prelude::*;

    /// xorshift in [0, 1).
    struct Rand(u64);
    impl Rand {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() * n as f64) as usize
        }
    }

    /// A random subdomain of a wavy (or, when `periodic`, annular) grid:
    /// interior-neighbour faces where the owned box stops short of the grid
    /// edge, physical faces elsewhere; random state, grid velocity and eddy
    /// viscosity on every local node including the halo; holes and fringes
    /// scattered everywhere, the storage edges included, with non-finite
    /// garbage in some holes. Half of the seeds give the block no grid
    /// velocity, half no eddy viscosity: the absent field reads as zero, and
    /// its values are drawn all the same, so the other fields do not change.
    fn random_block(seed: u64, three_d: bool, periodic: bool, viscous: bool) -> Block {
        let mut r = Rand(seed | 1);
        let fc = FlowConditions::new(0.8, 2.0, 1.0e4);
        let d = Dims::new(6 + r.below(8), 5 + r.below(7), if three_d { 4 + r.below(5) } else { 1 });
        let mut g = crate::testutil::wavy_grid(d, periodic);
        g.viscous = viscous;
        // Owned sub-box: each face either on the grid edge or interior.
        let mut lo = Ijk::new(0, 0, 0);
        let mut hi = Ijk::new(d.ni, d.nj, d.nk);
        let mut neighbor = [None; 6];
        let whole_i = periodic && r.below(2) == 0;
        for dir in 0..if three_d { 3 } else { 2 } {
            if dir == 0 && whole_i {
                continue; // self-wrapping O-grid block
            }
            let n = d.get(dir);
            let a = if r.below(2) == 0 { 0 } else { 1 + r.below(n / 3) };
            let b = if r.below(2) == 0 { n } else { n - 1 - r.below(n / 3) };
            lo.set(dir, a);
            hi.set(dir, b);
            // Interior faces have a neighbour; so do both ends of a split
            // periodic direction (the wrap link).
            let wrap = dir == 0 && periodic;
            neighbor[2 * dir] = (a > 0 || wrap).then_some(1);
            neighbor[2 * dir + 1] = (b < n || wrap).then_some(2);
        }
        let mut b = Block::from_grid(0, &g, IndexBox::new(lo, hi), neighbor, &fc);
        if crate::adi::tests::keyed(seed, [-1; 3], 20) < 0.5 {
            b.grid_vel = Some(SoaField::new(b.local_dims, [0.0; 3]));
        }
        if crate::adi::tests::keyed(seed, [-1; 3], 21) < 0.5 {
            b.mu_t = Some(Field3::new(b.local_dims, 0.0));
        }
        for p in b.local_dims.iter() {
            let prim = [
                0.5 + r.next(),
                r.next() - 0.5,
                r.next() - 0.5,
                r.next() - 0.5,
                0.3 + 0.9 * r.next(),
            ];
            b.q.set_node(p, crate::conditions::conservatives(&prim));
            let vg = [0.2 * (r.next() - 0.5), 0.2 * (r.next() - 0.5), 0.2 * (r.next() - 0.5)];
            let mu_t = if r.below(3) == 0 { 0.0 } else { 40.0 * r.next() };
            if let Some(v) = &mut b.grid_vel {
                v.set_node(p, vg);
            }
            if let Some(m) = &mut b.mu_t {
                m[p] = mu_t;
            }
            b.iblank[p] = match r.below(12) {
                0 => Blank::Hole,
                1 | 2 => Blank::Fringe,
                _ => Blank::Field,
            };
            if b.iblank[p] == Blank::Hole && r.below(2) == 0 {
                let junk = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0e300];
                b.q.set_node(p, std::array::from_fn(|_| junk[r.below(junk.len())]));
            }
        }
        b
    }

    fn assert_matches_reference(b: &Block, what: &str) -> Result<(), TestCaseError> {
        let fc = FlowConditions::new(0.8, 2.0, 1.0e4);
        let mut want = StateField::new(b.local_dims);
        let want_flops = reference::compute_residual(b, &fc, &mut want);
        let want_l2 = reference::residual_l2(b, &want);
        for isa in [Isa::Scalar, select_isa()] {
            let mut ws = Scratch::new(isa);
            ws.increment(b).fill(7.0); // stale values must be overwritten
            let (got, flops, l2) = residual(b, &fc, &mut ws);
            prop_assert_eq!(flops, want_flops, "{} {:?}: flops", what, isa);
            prop_assert!(same(l2, want_l2), "{} {:?}: L2 {:e} vs {:e}", what, isa, l2, want_l2);
            for p in b.local_dims.iter() {
                for v in 0..NVAR {
                    let want = want.node(p)[v] * fc.dt;
                    prop_assert!(
                        same(got.node(p)[v], want),
                        "{} {:?}: node {:?} var {}: {:e} vs reference {:e} ({:#x} vs {:#x})",
                        what,
                        isa,
                        p,
                        v,
                        got.node(p)[v],
                        want,
                        got.node(p)[v].to_bits(),
                        want.to_bits()
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn node_pass_bit_equals_reference_2d(seed in 1u64..(1 << 60), kind in 0usize..4) {
            let b = random_block(seed, false, kind & 1 == 1, kind & 2 == 2);
            assert_matches_reference(&b, "2-D")?;
        }

        #[test]
        fn node_pass_bit_equals_reference_3d(seed in 1u64..(1 << 60), kind in 0usize..4) {
            let b = random_block(seed, true, kind & 1 == 1, kind & 2 == 2);
            assert_matches_reference(&b, "3-D")?;
        }
    }

    #[test]
    fn non_finite_hole_behind_one_fringe_layer_leaves_field_nodes_finite() {
        // ν at the fringe node next to the hole is NaN (it differences the
        // hole's pressure); `max` must drop it exactly as `f64::max` does.
        let fc = FlowConditions::new(0.8, 2.0, 1.0e4);
        let mut b = uniform_block(9, &fc);
        b.viscous = true;
        let hole = Ijk::new(4, 4, 4);
        b.iblank[hole] = Blank::Hole;
        b.q.set_node(hole, [f64::NAN; NVAR]);
        for (di, dj, dk) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
            for s in [-1isize, 1] {
                let at = |c: usize, d: isize| (c as isize + s * d) as usize;
                b.iblank[Ijk::new(at(4, di), at(4, dj), at(4, dk))] = Blank::Fringe;
            }
        }
        // A non-uniform state so the dissipation is not identically zero.
        for p in b.local_dims.iter() {
            if b.iblank[p] != Blank::Hole {
                let prim =
                    [1.0 + 0.01 * p.i as f64, 0.5, 0.02 * p.j as f64, 0.0, 0.7 + 0.01 * p.k as f64];
                b.q.set_node(p, crate::conditions::conservatives(&prim));
            }
        }
        assert_matches_reference(&b, "shielded hole").unwrap();
        let (res, _, _) = residual(&b, &fc, &mut Scratch::default());
        assert!(res.as_slice().iter().all(|x| x.is_finite()));
        assert!(res.node(Ijk::new(6, 4, 4)).iter().any(|&x| x != 0.0));
    }
}
