//! Baldwin–Lomax-type algebraic turbulence model.
//!
//! The store-separation case of the paper runs the Baldwin–Lomax model on
//! all viscous curvilinear grids. This implementation is the inner-layer
//! mixing-length form with an outer-length cutoff,
//!
//! ```text
//! μ_t = ρ l² |ω|,   l = min(κ d, C_outer δ)
//! ```
//!
//! with `d` the distance to the grid's wall surface, `|ω|` the local
//! vorticity magnitude (computed through the curvilinear metrics), `κ` the
//! Kármán constant and `δ` the wall-normal extent of the grid. The
//! subdomain-local evaluation keeps the cost and communication structure of
//! the algebraic model (pointwise work proportional to gridpoints, no
//! messages) while avoiding the full F_max line search, which would be
//! ill-defined on j-split subdomains; see DESIGN.md for the substitution
//! note.

use crate::block::{Blank, Block};
use overset_grid::field::Field3;
use overset_grid::index::Ijk;

/// Kármán constant.
pub const KAPPA: f64 = 0.41;
/// Outer mixing-length fraction of the layer thickness.
pub const C_OUTER: f64 = 0.085;
/// Eddy-viscosity cap (in units of the freestream molecular viscosity).
pub const MU_T_MAX: f64 = 3000.0;

/// Flops per node for the model evaluation (cost accounting).
pub const FLOPS_PER_NODE: u64 = 70;

/// Vorticity magnitude at a node from central differences of velocity in
/// computational space mapped through the metrics.
pub fn vorticity_magnitude(block: &Block, p: Ijk) -> f64 {
    // du/dx_m = sum_d (grad xi_d)[m] * du/dxi_d
    let mut grad_u = [[0.0f64; 3]; 3]; // grad_u[comp][dxyz]
    for &dir in block.active_dirs() {
        let n = block.local_dims.get(dir);
        let c = p.get(dir);
        let (pm, pp, scale) = if c == 0 {
            (p, offset(p, dir, 1), 1.0)
        } else if c + 1 >= n {
            (offset(p, dir, -1), p, 1.0)
        } else {
            (offset(p, dir, -1), offset(p, dir, 1), 0.5)
        };
        let (qa, qb) = (block.q.node(pm), block.q.node(pp));
        let du = [
            (qb[1] / qb[0] - qa[1] / qa[0]) * scale,
            (qb[2] / qb[0] - qa[2] / qa[0]) * scale,
            (qb[3] / qb[0] - qa[3] / qa[0]) * scale,
        ];
        let g = block.metrics.grad(p, dir);
        for comp in 0..3 {
            for m in 0..3 {
                grad_u[comp][m] += g[m] * du[comp];
            }
        }
    }
    let wx = grad_u[2][1] - grad_u[1][2];
    let wy = grad_u[0][2] - grad_u[2][0];
    let wz = grad_u[1][0] - grad_u[0][1];
    (wx * wx + wy * wy + wz * wz).sqrt()
}

/// Wall geometry a block needs for the model: the wall-surface points for
/// its `(i, k)` columns and the layer thickness δ. Extracted at setup from
/// the parent grid (which has the full `j` range) for grids whose JMin face
/// is a wall.
#[derive(Clone, Debug)]
pub struct WallGeometry {
    /// Wall point per owned (i, k) column, `i` fastest.
    pub wall_xyz: Vec<[f64; 3]>,
    pub ni: usize,
    pub nk: usize,
    /// Wall-normal layer extent δ per column (wall → JMax distance).
    /// Column-local (not rank-averaged) so the model is independent of the
    /// domain decomposition.
    pub delta_col: Vec<f64>,
    /// Mean layer extent (used for initialization profiles).
    pub delta: f64,
}

impl WallGeometry {
    /// Extract from the parent grid for a block owning `owned`.
    pub fn from_grid(grid: &overset_grid::CurvilinearGrid, owned: overset_grid::IndexBox) -> Self {
        let gd = grid.dims();
        let d = owned.dims();
        let mut wall_xyz = Vec::with_capacity(d.ni * d.nk);
        let mut delta_col = Vec::with_capacity(d.ni * d.nk);
        let mut delta = 0.0;
        for k in owned.lo.k..owned.hi.k {
            for i in owned.lo.i..owned.hi.i {
                let w = grid.xyz(Ijk::new(i, 0, k));
                wall_xyz.push(w);
                let o = grid.xyz(Ijk::new(i, gd.nj - 1, k));
                let dc = dist(w, o);
                delta_col.push(dc);
                delta += dc;
            }
        }
        delta /= (d.ni * d.nk) as f64;
        WallGeometry { wall_xyz, ni: d.ni, nk: d.nk, delta_col, delta }
    }

    #[inline]
    fn wall_at(&self, i: usize, k: usize) -> [f64; 3] {
        self.wall_xyz[i + self.ni * k]
    }

    #[inline]
    fn delta_at(&self, i: usize, k: usize) -> f64 {
        self.delta_col[i + self.ni * k]
    }
}

#[inline]
fn dist(a: [f64; 3], b: [f64; 3]) -> f64 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
}

#[inline]
fn offset(p: Ijk, dir: usize, d: isize) -> Ijk {
    let mut q = p;
    q.set(dir, (q.get(dir) as isize + d) as usize);
    q
}

/// Evaluate the model over the block's owned nodes, filling `block.mu_t`
/// (created, zero, on the first pass; halo nodes keep zero). Returns
/// estimated flops.
pub fn compute_mu_t(block: &mut Block, wall: &WallGeometry) -> u64 {
    let ow = block.owned_local();
    let mut mu_t = block.mu_t.take().unwrap_or_else(|| Field3::new(block.local_dims, 0.0));
    let mut nodes = 0u64;
    for p in ow.iter() {
        if block.iblank[p] != Blank::Field {
            mu_t[p] = 0.0;
            continue;
        }
        nodes += 1;
        let gi = p.i - ow.lo.i;
        let gk = p.k - ow.lo.k;
        let d = dist(block.coords[p], wall.wall_at(gi, gk));
        let l = (KAPPA * d).min(C_OUTER * wall.delta_at(gi, gk));
        let w = vorticity_magnitude(block, p);
        let rho = block.q.node(p)[0];
        mu_t[p] = (rho * l * l * w).min(MU_T_MAX);
    }
    block.mu_t = Some(mu_t);
    nodes * FLOPS_PER_NODE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::{conservatives, FlowConditions, GAMMA};
    use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::Dims;

    fn flat_plate_block(n: usize) -> (Block, WallGeometry) {
        let d = Dims::new(n, n, 1);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.1, p.j as f64 * 0.1, 0.0]);
        let g = CurvilinearGrid::new("p", coords, GridKind::NearBody);
        let fc = FlowConditions::new(0.5, 0.0, 1.0e6);
        let owned = d.full_box();
        let w = WallGeometry::from_grid(&g, owned);
        (Block::from_grid(0, &g, owned, [None; 6], &fc), w)
    }

    #[test]
    fn wall_geometry_extraction() {
        let (_, w) = flat_plate_block(11);
        assert_eq!(w.ni, 11);
        assert_eq!(w.nk, 1);
        assert!((w.delta - 1.0).abs() < 1e-12);
        assert_eq!(w.wall_at(3, 0)[1], 0.0);
    }

    #[test]
    fn uniform_flow_has_zero_eddy_viscosity() {
        let (mut b, w) = flat_plate_block(9);
        compute_mu_t(&mut b, &w);
        for p in b.owned_local().iter() {
            assert_eq!(b.mu_t_at(p), 0.0);
        }
    }

    #[test]
    fn shear_layer_produces_eddy_viscosity_growing_with_distance() {
        let (mut b, w) = flat_plate_block(11);
        // Linear shear u = y: |omega| = 1 everywhere.
        for p in b.local_dims.iter() {
            let y = b.coords[p][1];
            b.q.set_node(p, conservatives(&[1.0, y, 0.0, 0.0, 1.0 / GAMMA]));
        }
        compute_mu_t(&mut b, &w);
        let ow = b.owned_local();
        let near = b.mu_t_at(Ijk::new(5, ow.lo.j + 1, 0));
        let far = b.mu_t_at(Ijk::new(5, ow.lo.j + 4, 0));
        assert!(near > 0.0);
        assert!(far > near, "mu_t should grow with wall distance: {near} vs {far}");
        // Within the inner layer: mu_t = (kappa d)^2 |omega| with d = 0.1.
        let expect = (KAPPA * 0.1).powi(2);
        assert!((near - expect).abs() < 0.3 * expect, "near {near} expect {expect}");
    }

    #[test]
    fn outer_cutoff_limits_growth() {
        let (mut b, w) = flat_plate_block(11);
        for p in b.local_dims.iter() {
            let y = b.coords[p][1];
            b.q.set_node(p, conservatives(&[1.0, y, 0.0, 0.0, 1.0 / GAMMA]));
        }
        compute_mu_t(&mut b, &w);
        let ow = b.owned_local();
        let top = b.mu_t_at(Ijk::new(5, ow.hi.j - 2, 0));
        // l capped at C_OUTER * delta = 0.085.
        let cap = (C_OUTER * w.delta).powi(2);
        assert!(top <= cap * 1.01, "top {top} cap {cap}");
    }

    #[test]
    fn vorticity_of_solid_rotation() {
        // u = -y, v = x: |omega_z| = 2.
        let (mut b, _) = flat_plate_block(9);
        for p in b.local_dims.iter() {
            let [x, y, _] = b.coords[p];
            b.q.set_node(p, conservatives(&[1.0, -y, x, 0.0, 1.0 / GAMMA]));
        }
        let w = vorticity_magnitude(&b, Ijk::new(4, 4, 0));
        assert!((w - 2.0).abs() < 1e-9, "w = {w}");
    }

    #[test]
    fn blanked_nodes_have_zero_mu_t() {
        let (mut b, w) = flat_plate_block(9);
        for p in b.local_dims.iter() {
            let y = b.coords[p][1];
            b.q.set_node(p, conservatives(&[1.0, y, 0.0, 0.0, 1.0 / GAMMA]));
        }
        let hole = Ijk::new(4, 4, 0);
        b.iblank[hole] = Blank::Hole;
        compute_mu_t(&mut b, &w);
        assert_eq!(b.mu_t_at(hole), 0.0);
    }
}
