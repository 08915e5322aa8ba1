//! Finite-difference metric terms for curvilinear grids.
//!
//! For the transformed Navier–Stokes equations the solver needs, at every
//! node, the contravariant metric vectors `∇ξ`, `∇η`, `∇ζ` and the Jacobian
//! `J = det ∂(x,y,z)/∂(ξ,η,ζ)` (the local cell volume scale). They are
//! computed from second-order central differences of the node coordinates
//! (one-sided at boundaries, wrapped for periodic O-grids). Single-plane
//! (2-D) grids get `∂/∂ζ = ẑ`, reducing to the planar transformation.

use crate::curvilinear::CurvilinearGrid;
use crate::field::{Field3, SoaField};
use crate::index::Ijk;

/// Metric data at one node.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Metric {
    /// `∇ξ` (times nothing — true spatial gradient of the computational coord).
    pub xi: [f64; 3],
    /// `∇η`.
    pub eta: [f64; 3],
    /// `∇ζ`.
    pub zeta: [f64; 3],
    /// Jacobian `det ∂x/∂ξ` (volume of a unit computational cell).
    pub jac: f64,
}

impl Metric {
    /// The terms as the [`MetricField`] components: `∇ξ`, `∇η`, `∇ζ`, `J`.
    #[inline]
    pub fn components(&self) -> [f64; METRIC_COMPONENTS] {
        let [a, b, c] = [self.xi, self.eta, self.zeta];
        [a[0], a[1], a[2], b[0], b[1], b[2], c[0], c[1], c[2], self.jac]
    }

    /// The metric of its [`MetricField`] components.
    #[inline]
    pub fn from_components(m: [f64; METRIC_COMPONENTS]) -> Metric {
        Metric {
            xi: [m[0], m[1], m[2]],
            eta: [m[3], m[4], m[5]],
            zeta: [m[6], m[7], m[8]],
            jac: m[JAC],
        }
    }
}

/// Doubles per node of a [`MetricField`].
pub const METRIC_COMPONENTS: usize = 10;
/// The Jacobian's component; component `3 * dir + t` is the `t`-th
/// Cartesian entry of the gradient of computational coordinate `dir`.
pub const JAC: usize = 9;

/// Metric field over a grid, field-major: one array per term, so four
/// consecutive nodes' `∂ξ/∂x` (or `J`) are one vector load. [`Metric`] is
/// the value [`MetricField::metric`] hands a reader of one node.
pub type MetricField = SoaField<METRIC_COMPONENTS>;

impl MetricField {
    /// The metric of node `p`.
    #[inline]
    pub fn metric(&self, p: Ijk) -> Metric {
        Metric::from_components(self.node(p))
    }

    /// The metric of the node at storage offset `s`.
    #[inline]
    pub fn metric_at(&self, s: usize) -> Metric {
        Metric::from_components(self.at(s))
    }

    /// `∇` of computational coordinate `dir` at the node at storage offset
    /// `s`: three loads, not ten.
    #[inline]
    pub fn grad_at(&self, s: usize, dir: usize) -> [f64; 3] {
        let n = self.dims().count();
        let g = &self.as_slice()[3 * dir * n..];
        [g[s], g[n + s], g[2 * n + s]]
    }

    /// `∇` of computational coordinate `dir` at node `p`.
    #[inline]
    pub fn grad(&self, p: Ijk, dir: usize) -> [f64; 3] {
        self.grad_at(self.dims().offset(p), dir)
    }

    /// The Jacobian of every node, in storage order.
    #[inline]
    pub fn jac(&self) -> &[f64] {
        self.component(JAC)
    }
}

#[inline]
fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

#[inline]
fn scale(a: [f64; 3], s: f64) -> [f64; 3] {
    [a[0] * s, a[1] * s, a[2] * s]
}

/// Derivative of coordinates along direction `dir` at node `p` using central
/// differences (periodic wrap in `i` when requested, else one-sided at ends).
fn coord_deriv(g: &CurvilinearGrid, p: Ijk, dir: usize) -> [f64; 3] {
    let d = g.dims();
    let n = d.get(dir);
    if n == 1 {
        // Degenerate (2-D) direction: unit out-of-plane vector.
        return [0.0, 0.0, 1.0];
    }
    let at = |v: usize| -> [f64; 3] {
        let mut q = p;
        q.set(dir, v);
        g.coords[q]
    };
    let c = p.get(dir);
    if dir == 0 && g.periodic_i {
        // O-grid wrap: node ni-1 coincides with node 0; the periodic images
        // skip the duplicate to avoid a zero-length difference.
        let prev = if c == 0 { n - 2 } else { c - 1 };
        let next = if c == n - 1 { 1 } else { c + 1 };
        return scale(sub(at(next), at(prev)), 0.5);
    }
    if c == 0 {
        sub(at(1), at(0))
    } else if c == n - 1 {
        sub(at(n - 1), at(n - 2))
    } else {
        scale(sub(at(c + 1), at(c - 1)), 0.5)
    }
}

/// Compute the full metric field for a grid.
///
/// Returns metrics with a strictly positive Jacobian at every node for a
/// right-handed, untangled grid; a non-positive Jacobian indicates a tangled
/// or degenerate cell (asserted in debug builds).
pub fn compute_metrics(g: &CurvilinearGrid) -> MetricField {
    let d = g.dims();
    let mut out = MetricField::zeroed(d);
    for (s, p) in d.iter().enumerate() {
        let m = metric_at(g, p);
        debug_assert!(m.jac.abs() > 0.0, "degenerate metric at {p:?}");
        out.set(s, m.components());
    }
    out
}

/// Metric terms at a single node.
pub fn metric_at(g: &CurvilinearGrid, p: Ijk) -> Metric {
    metric_from_derivs(coord_deriv(g, p, 0), coord_deriv(g, p, 1), coord_deriv(g, p, 2))
}

/// How a row of nodes differences its coordinates along `j` or `k`: the
/// same for every node of the row, so decided once per row.
#[derive(Clone, Copy)]
enum RowDiff {
    /// A flat axis (one node): the unit out-of-plane vector.
    Flat,
    /// `x[at + up] - x[at - down]`: one-sided at an end (one offset is 0).
    Sided { up: usize, down: usize },
    /// `(x[at + s] - x[at - s]) / 2`.
    Central(usize),
}

impl RowDiff {
    /// The difference at coordinate `c` of an axis of `n` nodes, stride `s`.
    fn at(c: usize, n: usize, s: usize) -> RowDiff {
        if n == 1 {
            RowDiff::Flat
        } else if c == 0 {
            RowDiff::Sided { up: s, down: 0 }
        } else if c == n - 1 {
            RowDiff::Sided { up: 0, down: s }
        } else {
            RowDiff::Central(s)
        }
    }

    #[inline(always)]
    fn eval(self, x: &[[f64; 3]], at: usize) -> [f64; 3] {
        match self {
            RowDiff::Flat => [0.0, 0.0, 1.0],
            RowDiff::Sided { up, down } => sub(x[at + up], x[at - down]),
            RowDiff::Central(s) => scale(sub(x[at + s], x[at - s]), 0.5),
        }
    }
}

/// Metric terms at every node of a non-periodic coordinate field, written
/// over `out` (same dimensions): node for node what [`metric_at`] returns on
/// a grid of these coordinates, to the bit — the same differences in the
/// same order. Returns how many nodes have no finite Jacobian (coincident
/// nodes, an axis of one node, non-finite coordinates): their terms are
/// stored as computed, for the caller to refuse. The `j` and `k`
/// differences are chosen once per row and the `i` ends peeled off it, so
/// the row's interior runs without a branch.
pub fn metrics_into(coords: &Field3<[f64; 3]>, out: &mut MetricField) -> usize {
    assert_eq!(out.dims(), coords.dims(), "metric field of another block");
    let mut terms = out.components_mut();
    metric_rows(coords, |at, metric| {
        for (t, x) in terms.iter_mut().zip(metric.components()) {
            t[at] = x;
        }
    })
}

/// [`metrics_into`] into a new field on zeroed pages: each term written
/// once, as it is computed. Returns the field and how many nodes have no
/// finite Jacobian.
pub fn metrics_of(coords: &Field3<[f64; 3]>) -> (MetricField, usize) {
    let mut m = MetricField::zeroed(coords.dims());
    let singular = metrics_into(coords, &mut m);
    (m, singular)
}

/// Compute every node's metric terms, row by row in storage order, and hand
/// each with its offset to `put`; returns how many nodes have no finite
/// Jacobian.
#[inline(always)]
fn metric_rows(coords: &Field3<[f64; 3]>, mut put: impl FnMut(usize, Metric)) -> usize {
    let d = coords.dims();
    let x = coords.as_slice();
    let mut singular = 0;
    for k in 0..d.nk {
        let dk = RowDiff::at(k, d.nk, d.ni * d.nj);
        for j in 0..d.nj {
            let dj = RowDiff::at(j, d.nj, d.ni);
            let row = d.ni * (j + d.nj * k);
            singular += match (dj, dk) {
                (RowDiff::Central(sj), RowDiff::Central(sk)) => {
                    metric_row(x, &mut put, row, d.ni, |at| {
                        (
                            scale(sub(x[at + sj], x[at - sj]), 0.5),
                            scale(sub(x[at + sk], x[at - sk]), 0.5),
                        )
                    })
                }
                (RowDiff::Central(sj), RowDiff::Flat) => metric_row(x, &mut put, row, d.ni, |at| {
                    (scale(sub(x[at + sj], x[at - sj]), 0.5), [0.0, 0.0, 1.0])
                }),
                _ => metric_row(x, &mut put, row, d.ni, |at| (dj.eval(x, at), dk.eval(x, at))),
            };
        }
    }
    singular
}

/// The metrics of the row of `ni` nodes starting at `row`, in storage
/// order, each handed to `put`, `eta_zeta` giving a node's `j` and `k`
/// differences; returns how many of them have no finite Jacobian.
#[inline(always)]
fn metric_row(
    x: &[[f64; 3]],
    put: &mut impl FnMut(usize, Metric),
    row: usize,
    ni: usize,
    eta_zeta: impl Fn(usize) -> ([f64; 3], [f64; 3]),
) -> usize {
    let mut singular = 0;
    let mut node = |at: usize, x_xi: [f64; 3]| {
        let (x_eta, x_zeta) = eta_zeta(at);
        let metric = metric_from_derivs(x_xi, x_eta, x_zeta);
        singular += usize::from(!metric.jac.is_finite());
        put(at, metric);
    };
    if ni == 1 {
        node(row, [0.0, 0.0, 1.0]);
        return singular;
    }
    let last = row + ni - 1;
    node(row, sub(x[row + 1], x[row]));
    for at in row + 1..last {
        node(at, scale(sub(x[at + 1], x[at - 1]), 0.5));
    }
    node(last, sub(x[last], x[last - 1]));
    singular
}

/// Metric terms from the coordinate derivatives along ξ, η, ζ.
#[inline]
fn metric_from_derivs(x_xi: [f64; 3], x_eta: [f64; 3], x_zeta: [f64; 3]) -> Metric {
    // J = x_xi . (x_eta x x_zeta)
    let cx = [
        x_eta[1] * x_zeta[2] - x_eta[2] * x_zeta[1],
        x_eta[2] * x_zeta[0] - x_eta[0] * x_zeta[2],
        x_eta[0] * x_zeta[1] - x_eta[1] * x_zeta[0],
    ];
    let jac = x_xi[0] * cx[0] + x_xi[1] * cx[1] + x_xi[2] * cx[2];
    // Degenerate nodes (coincident neighbours, a single-node axis other
    // than the flat ζ of a 2-D grid) yield J = 0; report NaN so callers can
    // detect and handle it.
    if jac == 0.0 {
        let nan = f64::NAN;
        return Metric { xi: [0.0; 3], eta: [0.0; 3], zeta: [0.0; 3], jac: nan };
    }
    let inv_j = 1.0 / jac;

    // Rows of the inverse Jacobian matrix via cofactors:
    // grad xi   = (x_eta x x_zeta) / J
    // grad eta  = (x_zeta x x_xi) / J
    // grad zeta = (x_xi x x_eta) / J
    let xi = scale(cx, inv_j);
    let eta = scale(
        [
            x_zeta[1] * x_xi[2] - x_zeta[2] * x_xi[1],
            x_zeta[2] * x_xi[0] - x_zeta[0] * x_xi[2],
            x_zeta[0] * x_xi[1] - x_zeta[1] * x_xi[0],
        ],
        inv_j,
    );
    let zeta = scale(
        [
            x_xi[1] * x_eta[2] - x_xi[2] * x_eta[1],
            x_xi[2] * x_eta[0] - x_xi[0] * x_eta[2],
            x_xi[0] * x_eta[1] - x_xi[1] * x_eta[0],
        ],
        inv_j,
    );

    Metric { xi, eta, zeta, jac }
}

/// Total physical volume represented by the grid (sum of nodal Jacobians).
pub fn total_volume(metrics: &MetricField) -> f64 {
    metrics.jac().iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curvilinear::GridKind;
    use crate::index::Dims;

    fn cartesian_grid(n: usize, h: f64) -> CurvilinearGrid {
        let d = Dims::new(n, n, n);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * h, p.j as f64 * h, p.k as f64 * h]);
        CurvilinearGrid::new("cart", coords, GridKind::Background)
    }

    #[test]
    fn uniform_grid_metrics() {
        let h = 0.25;
        let g = cartesian_grid(5, h);
        let m = compute_metrics(&g);
        for p in g.dims().iter() {
            let mm = m.metric(p);
            assert!((mm.jac - h * h * h).abs() < 1e-12);
            assert!((mm.xi[0] - 1.0 / h).abs() < 1e-12);
            assert!(mm.xi[1].abs() < 1e-12 && mm.xi[2].abs() < 1e-12);
            assert!((mm.eta[1] - 1.0 / h).abs() < 1e-12);
            assert!((mm.zeta[2] - 1.0 / h).abs() < 1e-12);
        }
    }

    #[test]
    fn stretched_grid_jacobian() {
        // x stretched by 2: J should be 2*h^3.
        let d = Dims::new(4, 4, 4);
        let h = 0.5;
        let coords = Field3::from_fn(d, |p| [2.0 * h * p.i as f64, h * p.j as f64, h * p.k as f64]);
        let g = CurvilinearGrid::new("stretch", coords, GridKind::Background);
        let m = compute_metrics(&g);
        for p in d.iter() {
            assert!((m.metric(p).jac - 2.0 * h * h * h).abs() < 1e-12);
            assert!((m.metric(p).xi[0] - 0.5 / h).abs() < 1e-12);
        }
    }

    #[test]
    fn two_d_grid_metrics() {
        let d = Dims::new(6, 6, 1);
        let h = 0.2;
        let coords = Field3::from_fn(d, |p| [h * p.i as f64, h * p.j as f64, 0.0]);
        let g = CurvilinearGrid::new("2d", coords, GridKind::Background);
        let m = compute_metrics(&g);
        for p in d.iter() {
            assert!((m.metric(p).jac - h * h).abs() < 1e-12);
            assert!((m.metric(p).zeta[2] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rotated_grid_preserves_volume() {
        let g0 = cartesian_grid(5, 0.25);
        let mut g1 = g0.clone();
        g1.apply_transform(&crate::transform::RigidTransform::rotation_about(
            [0.0; 3],
            [1.0, 1.0, 1.0],
            0.8,
        ));
        let (v0, v1) = (total_volume(&compute_metrics(&g0)), total_volume(&compute_metrics(&g1)));
        assert!((v0 - v1).abs() < 1e-9 * v0.abs());
    }

    #[test]
    fn periodic_o_grid_has_smooth_metrics_at_seam() {
        // Annular 2-D O-grid: i wraps around the circle, j is radial.
        let (nth, nr) = (33, 5);
        let d = Dims::new(nth, nr, 1);
        let coords = Field3::from_fn(d, |p| {
            // Node nth-1 duplicates node 0 (standard O-grid storage).
            let th = -2.0 * std::f64::consts::PI * (p.i % (nth - 1)) as f64 / (nth - 1) as f64;
            let r = 1.0 + 0.2 * p.j as f64;
            [r * th.cos(), r * th.sin(), 0.0]
        });
        let mut g = CurvilinearGrid::new("annulus", coords, GridKind::NearBody);
        g.periodic_i = true;
        let m = compute_metrics(&g);
        // Jacobian at the seam (i = 0) should match the interior value at the
        // same radius, not a one-sided artifact.
        let seam = m.metric(Ijk::new(0, 2, 0)).jac;
        let interior = m.metric(Ijk::new(10, 2, 0)).jac;
        assert!(
            (seam - interior).abs() < 1e-6 * interior.abs(),
            "seam {seam} vs interior {interior}"
        );
        for p in d.iter() {
            assert!(m.metric(p).jac > 0.0, "negative jacobian at {p:?}");
        }
    }
}
