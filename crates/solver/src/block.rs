//! Subdomain blocks: the per-rank piece of a component grid, with halo
//! (ghost) layers at subdomain interfaces and periodic wraps.
//!
//! A block stores only its owned node box plus `HALO` ghost layers; the full
//! grid is never replicated per rank (each rank extracts its local geometry
//! from the shared setup grid). Halo layers are filled by message exchange
//! (or in-place for a self-periodic wrap) before each residual evaluation.

use crate::conditions::FlowConditions;
use overset_grid::curvilinear::{BcKind, CurvilinearGrid, Face};
use overset_grid::field::{Field3, StateField, NVAR};
use overset_grid::index::{Dims, Ijk, IndexBox};
use overset_grid::metrics::{metrics_into, metrics_of, MetricField};
use overset_grid::transform::RigidTransform;

/// Halo width (2 layers: enough for the 4th-difference dissipation stencil).
pub const HALO: usize = 2;

/// Node blanking state (Chimera iblank convention).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Blank {
    /// Hole point: inside a solid body cut from this grid; not solved.
    Hole,
    /// Normal field point: updated by the flow solver.
    Field,
    /// Fringe / inter-grid boundary point: value imposed by interpolation.
    Fringe,
}

/// The per-rank block of one component grid.
pub struct Block {
    /// Which component grid this block belongs to.
    pub grid_id: usize,
    /// Owned node box in the parent grid's index space.
    pub owned: IndexBox,
    /// Parent grid dimensions.
    pub grid_dims: Dims,
    /// Local storage dimensions (owned + halo all around, except in
    /// degenerate directions).
    pub local_dims: Dims,
    /// Halo width per direction (0 for degenerate 2-D direction).
    pub halo: [usize; 3],
    /// Node coordinates (local, including halo where geometry exists).
    pub coords: Field3<[f64; 3]>,
    /// Metric terms (local).
    pub metrics: MetricField,
    /// Conserved state (local).
    pub q: StateField,
    /// Node blanking (local).
    pub iblank: Field3<Blank>,
    /// Grid velocity at nodes (the ALE fluxes of a moving grid), local:
    /// absent until the block first moves ([`Block::apply_motion`],
    /// [`Block::set_grid_velocity_from`]); an absent field reads as zero.
    pub grid_vel: Option<Field3<[f64; 3]>>,
    /// Turbulent eddy viscosity at nodes (Baldwin–Lomax), local: absent
    /// until the model first runs ([`crate::turbulence::compute_mu_t`]); an
    /// absent field reads as zero.
    pub mu_t: Option<Field3<f64>>,
    /// Interface neighbor rank per face (IMin, IMax, JMin, JMax, KMin, KMax);
    /// `None` at physical boundaries.
    pub neighbor: [Option<usize>; 6],
    /// The parent grid wraps periodically in `i` (every block of the grid,
    /// including interior ones, needs to know for the cyclic line solves).
    pub periodic_i_grid: bool,
    /// The grid wraps periodically in `i` and this block spans all of `i`
    /// (wrap handled locally instead of via messages).
    pub self_wrap_i: bool,
    /// Physical BC on each face when the block touches it.
    pub face_bc: [Option<BcKind>; 6],
    /// Viscous terms active.
    pub viscous: bool,
    /// Baldwin–Lomax active.
    pub turbulent: bool,
    /// 2-D (single k-plane) block.
    pub two_d: bool,
}

impl Block {
    /// Build a block for `owned` within `grid`, initialized to freestream.
    /// `neighbor[f]` gives the rank owning the adjacent subdomain across
    /// face `f`, if any.
    pub fn from_grid(
        grid_id: usize,
        grid: &CurvilinearGrid,
        owned: IndexBox,
        neighbor: [Option<usize>; 6],
        fc: &FlowConditions,
    ) -> Block {
        Self::from_grid_posed(grid_id, grid, owned, neighbor, fc, &RigidTransform::IDENTITY)
    }

    /// [`Block::from_grid`] with the grid moved by `pose`, the cumulative
    /// motion of a grid stored at its t = 0 pose (blocks rebuilt after a
    /// repartition): the coordinates are moved before the metrics are
    /// computed, once. The block has no grid velocity and no eddy viscosity
    /// yet: both read as zero.
    pub fn from_grid_posed(
        grid_id: usize,
        grid: &CurvilinearGrid,
        owned: IndexBox,
        neighbor: [Option<usize>; 6],
        fc: &FlowConditions,
        pose: &RigidTransform,
    ) -> Block {
        let gd = grid.dims();
        let two_d = gd.is_two_d();
        let halo = [HALO, HALO, if two_d { 0 } else { HALO }];
        let od = owned.dims();
        let local_dims = Dims::new(od.ni + 2 * halo[0], od.nj + 2 * halo[1], od.nk + 2 * halo[2]);
        let mut coords = Self::local_coords(grid, owned, halo, local_dims);
        if !pose.is_identity() {
            for x in coords.as_mut_slice() {
                *x = pose.apply(*x);
            }
        }
        let wrap = grid.periodic_i;
        // Each field is written once: the metrics as they are computed, the
        // state by the freestream fill over zeroed (untouched) pages.
        let (metrics, _) = metrics_of(&coords);

        let mut block = Block {
            grid_id,
            owned,
            grid_dims: gd,
            local_dims,
            halo,
            metrics,
            q: StateField::new(local_dims),
            iblank: Field3::new(local_dims, Blank::Field),
            grid_vel: None,
            mu_t: None,
            neighbor,
            periodic_i_grid: wrap,
            self_wrap_i: wrap && owned.dims().ni == gd.ni,
            face_bc: Self::face_bcs(grid, owned),
            viscous: grid.viscous,
            turbulent: grid.turbulent,
            two_d,
            coords,
        };
        block.q.fill_uniform(fc.freestream());
        block
    }

    fn face_bcs(grid: &CurvilinearGrid, owned: IndexBox) -> [Option<BcKind>; 6] {
        let gd = grid.dims();
        let mut out = [None; 6];
        for (fi, face) in Face::ALL.iter().enumerate() {
            let touches = if face.is_min() {
                owned.lo.get(face.dir()) == 0
            } else {
                owned.hi.get(face.dir()) == gd.get(face.dir())
            };
            if touches {
                out[fi] = grid.patch_on(*face);
            }
        }
        out
    }

    /// The coordinates of the local (halo-inclusive) box of `owned`: copied
    /// from the parent grid a row run at a time where the (possibly
    /// wrapped) global node exists, *linearly extrapolated* node by node past
    /// physical grid edges. Extrapolation (rather than clamping) matters:
    /// with x(-1) = 2x(0) - x(1), the central coordinate difference at a
    /// boundary node equals the one-sided difference the grid-level metric
    /// routine would use, so boundary metrics stay exact.
    fn local_coords(
        grid: &CurvilinearGrid,
        owned: IndexBox,
        halo: [usize; 3],
        local: Dims,
    ) -> Field3<[f64; 3]> {
        let gd = grid.dims();
        let src = grid.coords.as_slice();
        let mut x = Vec::with_capacity(local.count());
        for k in 0..local.nk {
            let (gk, ok) = grid_node(k, owned.lo.k, halo[2], gd.nk, false);
            for j in 0..local.nj {
                let (gj, oj) = grid_node(j, owned.lo.j, halo[1], gd.nj, false);
                let row = gd.ni * (gj + gd.nj * gk);
                for (gi, len, oi) in i_runs(local.ni, owned.lo.i, halo[0], gd.ni, grid.periodic_i) {
                    if [oi, oj, ok] == [0; 3] {
                        x.extend_from_slice(&src[row + gi..row + gi + len]);
                    } else {
                        x.extend(
                            (gi..gi + len).map(|i| extrapolated(grid, i, gj, gk, [oi, oj, ok])),
                        );
                    }
                }
            }
        }
        Field3::from_vec(local, x)
    }

    /// Local index of a global (parent-grid) node.
    #[inline]
    pub fn to_local(&self, g: Ijk) -> Ijk {
        Ijk::new(
            g.i + self.halo[0] - self.owned.lo.i,
            g.j + self.halo[1] - self.owned.lo.j,
            g.k + self.halo[2] - self.owned.lo.k,
        )
    }

    /// Global node of a local index (no wrap adjustment; owned region only).
    #[inline]
    pub fn to_global(&self, l: Ijk) -> Ijk {
        Ijk::new(
            l.i + self.owned.lo.i - self.halo[0],
            l.j + self.owned.lo.j - self.halo[1],
            l.k + self.owned.lo.k - self.halo[2],
        )
    }

    /// Local box of owned (non-halo) nodes.
    pub fn owned_local(&self) -> IndexBox {
        let d = self.owned.dims();
        IndexBox::new(
            Ijk::new(self.halo[0], self.halo[1], self.halo[2]),
            Ijk::new(self.halo[0] + d.ni, self.halo[1] + d.nj, self.halo[2] + d.nk),
        )
    }

    /// Number of owned nodes.
    pub fn owned_count(&self) -> usize {
        self.owned.count()
    }

    /// Recompute metric terms from current coordinates (after grid motion);
    /// returns how many nodes got
    /// [`Metric::INERT`](overset_grid::metrics::Metric::INERT) for want of a
    /// finite Jacobian.
    pub fn recompute_metrics(&mut self) -> usize {
        // Periodicity is irrelevant here: halo layers carry real wrapped
        // geometry, so one-sided differences never straddle the seam. Halo
        // nodes past a physical boundary are extrapolated, not clamped, so
        // they difference like their boundary node. A zero Jacobian comes
        // only from the grid's own geometry: nodes that coincide (an axis
        // or a face collapsed to a line or a point), an `i` or `j` axis of
        // one node, whose halo repeats it, or non-finite coordinates. The
        // paper systems have none (`overflow_d::setup`'s tests count them).
        metrics_into(&self.coords, &mut self.metrics)
    }

    /// Grid velocity of local node `p`: zero on a block that has not moved.
    #[inline]
    pub fn grid_vel_at(&self, p: Ijk) -> [f64; 3] {
        self.grid_vel.as_ref().map_or([0.0; 3], |v| v[p])
    }

    /// Eddy viscosity of local node `p`: zero before the model first runs.
    #[inline]
    pub fn mu_t_at(&self, p: Ijk) -> f64 {
        self.mu_t.as_ref().map_or(0.0, |m| m[p])
    }

    /// Apply a rigid motion to the block geometry (and set grid velocities
    /// for the ALE fluxes, the field created on the first motion), then
    /// refresh metrics.
    pub fn apply_motion(&mut self, t: &RigidTransform, dt: f64) {
        let dims = self.local_dims;
        let vel = self.grid_vel.get_or_insert_with(|| Field3::new(dims, [0.0; 3]));
        for (p, v) in self.coords.as_mut_slice().iter_mut().zip(vel.as_mut_slice()) {
            let old = *p;
            *p = t.apply(old);
            *v = [(p[0] - old[0]) / dt, (p[1] - old[1]) / dt, (p[2] - old[2]) / dt];
        }
        self.recompute_metrics();
    }

    /// Set grid velocities consistent with `t` having been the last motion
    /// step (the block's geometry is already at the post-`t` pose): the
    /// node velocity is `(x - t⁻¹x) / dt`. Used after repartitioning, where
    /// blocks are rebuilt at the current pose but must keep the ALE state.
    pub fn set_grid_velocity_from(&mut self, t: &RigidTransform, dt: f64) {
        let inv = t.inverse();
        let dims = self.local_dims;
        let vel = self.grid_vel.get_or_insert_with(|| Field3::new(dims, [0.0; 3]));
        for (x, v) in self.coords.as_slice().iter().zip(vel.as_mut_slice()) {
            let old = inv.apply(*x);
            *v = [(x[0] - old[0]) / dt, (x[1] - old[1]) / dt, (x[2] - old[2]) / dt];
        }
    }

    /// Pack `width` owned layers adjacent to `face` (for halo exchange),
    /// states only, in layout order, into a caller-owned (recycled) buffer.
    pub fn pack_face_into(&self, face: usize, width: usize, out: &mut Vec<f64>) {
        self.pack_box_into(self.layer_box(face, width, false), out);
    }

    /// Unpack halo layers beyond `face` from a neighbor's packed data.
    pub fn unpack_face(&mut self, face: usize, width: usize, data: &[f64]) {
        self.unpack_box(self.layer_box(face, width, true), data);
    }

    /// Pack the states of an arbitrary local box (layout order).
    pub fn pack_box(&self, b: IndexBox) -> Vec<f64> {
        let mut out = Vec::new();
        self.pack_box_into(b, &mut out);
        out
    }

    /// [`Self::pack_box`] into a caller-owned (recycled) buffer; the buffer
    /// is cleared first, so steady-state exchanges allocate nothing. Each
    /// `(j, k)` row of the box is one contiguous run of the interleaved
    /// state and is copied as one.
    pub fn pack_box_into(&self, b: IndexBox, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(b.count() * NVAR);
        let (q, run) = (self.q.as_slice(), b.dims().ni * NVAR);
        for at in self.state_rows(b) {
            push_run(out, &q[at..at + run]);
        }
    }

    /// Unpack states into an arbitrary local box (layout order), row by row.
    pub fn unpack_box(&mut self, b: IndexBox, data: &[f64]) {
        assert_eq!(data.len(), b.count() * NVAR, "box unpack size mismatch");
        let run = b.dims().ni * NVAR;
        let rows = self.state_rows(b);
        let q = self.q.as_mut_slice();
        for (at, src) in rows.zip(data.chunks_exact(run.max(1))) {
            copy_run(&mut q[at..at + run], src);
        }
    }

    /// Where each `(j, k)` row of the local box `b` starts in the
    /// interleaved state, rows in layout order (none for an empty box).
    fn state_rows(&self, b: IndexBox) -> impl Iterator<Item = usize> {
        let d = self.local_dims;
        assert!(b.hi.i <= d.ni && b.hi.j <= d.nj && b.hi.k <= d.nk, "{b:?} outside {d:?}");
        let (lo, hi) = (b.lo, if b.count() == 0 { b.lo } else { b.hi });
        (lo.k..hi.k)
            .flat_map(move |k| (lo.j..hi.j).map(move |j| (lo.i + d.ni * (j + d.nj * k)) * NVAR))
    }

    /// The local box of `width` layers at `face`: owned layers (`halo_side
    /// = false`) or ghost layers just outside (`halo_side = true`).
    pub fn layer_box(&self, face: usize, width: usize, halo_side: bool) -> IndexBox {
        let ow = self.owned_local();
        let dir = face / 2;
        let is_min = face % 2 == 0;
        let (mut lo, mut hi) = (ow.lo, ow.hi);
        if is_min {
            if halo_side {
                hi.set(dir, ow.lo.get(dir));
                lo.set(dir, ow.lo.get(dir) - width);
            } else {
                hi.set(dir, ow.lo.get(dir) + width);
            }
        } else if halo_side {
            lo.set(dir, ow.hi.get(dir));
            hi.set(dir, ow.hi.get(dir) + width);
        } else {
            lo.set(dir, ow.hi.get(dir) - width);
        }
        IndexBox::new(lo, hi)
    }

    /// Fill the periodic wrap halo in `i` from this block's own data (only
    /// valid when `self_wrap_i`). The parent O-grid duplicates node `ni-1`
    /// over node 0, so the period is `ni-1`; it must be at least the halo
    /// width, so that no ghost mirrors another ghost.
    pub fn fill_self_wrap(&mut self) {
        assert!(self.self_wrap_i);
        let ow = self.owned_local();
        let (h, period) = (self.halo[0], self.owned.dims().ni - 1);
        assert!(period >= h, "a period of {period} nodes wraps onto the halo");
        let rows = self.state_rows(IndexBox::new(ow.lo, Ijk::new(ow.lo.i + 1, ow.hi.j, ow.hi.k)));
        let q = self.q.as_mut_slice();
        for at in rows {
            // Node 0 of the row, and where node `i` of it lies.
            let node = |i: usize| at + i * NVAR;
            // Ghosts left of i = 0 mirror i = period - h .. period, ghosts
            // right of the seam mirror i = 1 ..= h; the duplicated seam node
            // mirrors node 0 last (a ghost may read it first when the
            // period is h).
            q.copy_within(node(period - h)..node(period), node(0) - h * NVAR);
            q.copy_within(node(1)..node(h + 1), node(period + 1));
            q.copy_within(node(0)..node(1), node(period));
        }
    }

    /// Active sweep directions (2-D blocks skip ζ).
    pub fn active_dirs(&self) -> &'static [usize] {
        if self.two_d {
            &[0, 1]
        } else {
            &[0, 1, 2]
        }
    }

    /// The modelled working set of the block on the paper's machines: 26
    /// doubles per local node — state (5), metrics (10), coordinates (3),
    /// grid velocity (3) and a residual array (5) — the input of the
    /// virtual machine's cache term. A model constant, not a measure of this
    /// program's buffers: the host keeps the increment in its own layout and
    /// stores no grid velocity on a grid that never moved, and changing host
    /// storage must not move the virtual clocks.
    pub fn working_set_bytes(&self) -> f64 {
        let n = self.local_dims.count() as f64;
        n * 8.0 * 26.0
    }
}

/// Where local coordinate `l` of an axis (owned nodes from `lo`, `h` halo
/// layers) lies in a grid axis of `n` nodes: the node and the overshoot past
/// the edge (negative below node 0) — or, on a periodic axis, whose node
/// `n - 1` duplicates node 0, the wrapped node of period `n - 1`.
fn grid_node(l: usize, lo: usize, h: usize, n: usize, wrap: bool) -> (usize, isize) {
    let g = l as isize + lo as isize - h as isize;
    if wrap && n > 1 {
        (g.rem_euclid(n as isize - 1) as usize, 0)
    } else {
        let c = g.clamp(0, n as isize - 1);
        (c as usize, g - c)
    }
}

/// The local `i` row of [`grid_node`]'s axis, `ni` nodes long, as runs
/// `(grid node, length, overshoot)`: consecutive grid nodes (overshoot 0),
/// or a single node past an edge.
fn i_runs(
    ni: usize,
    lo: usize,
    h: usize,
    n: usize,
    wrap: bool,
) -> impl Iterator<Item = (usize, usize, isize)> {
    let period = if wrap && n > 1 { n - 1 } else { n };
    let mut l = 0;
    std::iter::from_fn(move || {
        (l < ni).then(|| {
            let (g, over) = grid_node(l, lo, h, n, wrap);
            let len = if over == 0 { (period - g).min(ni - l) } else { 1 };
            l += len;
            (g, len, over)
        })
    })
}

/// The grid node `(i, j, k)` moved `over` nodes past the grid's edges, one
/// axis after the other, along the slope of the edge cell (an axis of one
/// node has none: the node is copied).
fn extrapolated(
    grid: &CurvilinearGrid,
    i: usize,
    j: usize,
    k: usize,
    over: [isize; 3],
) -> [f64; 3] {
    let g = Ijk::new(i, j, k);
    let mut x = grid.coords[g];
    for (dir, &ov) in over.iter().enumerate() {
        if ov == 0 || grid.dims().get(dir) < 2 {
            continue;
        }
        let mut inner = g;
        inner.set(dir, if ov < 0 { g.get(dir) + 1 } else { g.get(dir) - 1 });
        let (a, b) = if ov < 0 { (g, inner) } else { (inner, g) };
        let (xa, xb) = (grid.coords[a], grid.coords[b]);
        for t in 0..3 {
            x[t] += ov as f64 * (xb[t] - xa[t]);
        }
    }
    x
}

/// A row of an `i`-face halo: two nodes' states.
const PAIR: usize = 2 * NVAR;

/// Copy a row run of states into `dst` (same length). A two-node run is a
/// fixed-size copy, which compiles to a few moves instead of a `memcpy`
/// call.
#[inline(always)]
fn copy_run(dst: &mut [f64], src: &[f64]) {
    match (<&mut [f64; PAIR]>::try_from(&mut *dst), <&[f64; PAIR]>::try_from(src)) {
        (Ok(d), Ok(s)) => *d = *s,
        _ => dst.copy_from_slice(src),
    }
}

/// Append a row run of states to `out` (capacity reserved), as [`copy_run`]
/// copies it.
#[inline(always)]
fn push_run(out: &mut Vec<f64>, src: &[f64]) {
    match <&[f64; PAIR]>::try_from(src) {
        Ok(s) => out.extend_from_slice(s),
        Err(_) => out.extend_from_slice(src),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_grid::curvilinear::GridKind;
    use overset_grid::metrics::Metric;

    fn test_grid(ni: usize, nj: usize, nk: usize) -> CurvilinearGrid {
        let d = Dims::new(ni, nj, nk);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.1, p.j as f64 * 0.1, p.k as f64 * 0.1]);
        CurvilinearGrid::new("t", coords, GridKind::Background)
    }

    fn fc() -> FlowConditions {
        FlowConditions::new(0.8, 0.0, 0.0)
    }

    #[test]
    fn block_local_global_roundtrip() {
        let g = test_grid(12, 10, 8);
        let owned = IndexBox::new(Ijk::new(4, 0, 2), Ijk::new(8, 5, 6));
        let b = Block::from_grid(0, &g, owned, [None; 6], &fc());
        for gp in owned.iter() {
            let l = b.to_local(gp);
            assert!(b.owned_local().contains(l));
            assert_eq!(b.to_global(l), gp);
            assert_eq!(b.coords[l], g.coords[gp]);
        }
    }

    #[test]
    fn halo_geometry_matches_parent_at_interfaces() {
        let g = test_grid(12, 10, 8);
        let owned = IndexBox::new(Ijk::new(4, 2, 2), Ijk::new(8, 8, 6));
        let b = Block::from_grid(0, &g, owned, [None; 6], &fc());
        // Interior halo node one layer left of owned in i.
        let gp = Ijk::new(3, 4, 4);
        assert_eq!(b.coords[b.to_local(gp)], g.coords[gp]);
    }

    #[test]
    fn two_d_block_has_no_k_halo() {
        let g = test_grid(10, 10, 1);
        let b = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());
        assert_eq!(b.halo, [2, 2, 0]);
        assert_eq!(b.local_dims.nk, 1);
        assert_eq!(b.active_dirs(), &[0, 1]);
    }

    #[test]
    fn pack_unpack_are_inverse_shapes() {
        let g = test_grid(10, 8, 6);
        let owned = IndexBox::new(Ijk::new(0, 0, 0), Ijk::new(5, 8, 6));
        let mut a = Block::from_grid(0, &g, owned, [None, Some(1), None, None, None, None], &fc());
        let owned_b = IndexBox::new(Ijk::new(5, 0, 0), Ijk::new(10, 8, 6));
        let mut b =
            Block::from_grid(0, &g, owned_b, [Some(0), None, None, None, None, None], &fc());

        // Mark a's rightmost owned layers with a recognizable state.
        for p in a.layer_box(1, HALO, false).iter() {
            let gp = a.to_global(p);
            a.q.set_node(p, [gp.i as f64, gp.j as f64, gp.k as f64, 0.0, 1.0]);
        }
        let mut data = Vec::new();
        a.pack_face_into(1, HALO, &mut data);
        b.unpack_face(0, HALO, &data);
        // b's ghost layer left of its owned region matches a's owned nodes.
        for p in b.layer_box(0, HALO, true).iter() {
            let gp = b.to_global(p);
            let got = b.q.node(p);
            assert_eq!(got[0], gp.i as f64, "at {gp:?}");
            assert_eq!(got[1], gp.j as f64);
        }
    }

    #[test]
    fn face_bc_detection() {
        let mut g = test_grid(10, 8, 1);
        g.patches = vec![
            overset_grid::curvilinear::BoundaryPatch {
                face: Face::JMin,
                kind: BcKind::Wall { viscous: true },
            },
            overset_grid::curvilinear::BoundaryPatch { face: Face::JMax, kind: BcKind::Farfield },
        ];
        // A block touching JMin but not JMax.
        let owned = IndexBox::new(Ijk::new(0, 0, 0), Ijk::new(10, 4, 1));
        let b = Block::from_grid(0, &g, owned, [None; 6], &fc());
        assert_eq!(b.face_bc[2], Some(BcKind::Wall { viscous: true }));
        assert_eq!(b.face_bc[3], None);
        assert_eq!(b.face_bc[0], None);
    }

    #[test]
    fn self_wrap_fills_ghosts() {
        let mut g = test_grid(9, 5, 1);
        g.periodic_i = true;
        let mut b = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());
        assert!(b.self_wrap_i);
        // Tag owned nodes by global i.
        let ow = b.owned_local();
        for p in ow.iter() {
            let gp = b.to_global(p);
            b.q.set_node(p, [gp.i as f64, 0.0, 0.0, 0.0, 1.0]);
        }
        b.fill_self_wrap();
        let j = ow.lo.j;
        // Ghost at local i = ow.lo.i - 1 should mirror global i = 7 (period 8).
        let ghost = b.q.node(Ijk::new(ow.lo.i - 1, j, 0));
        assert_eq!(ghost[0], 7.0);
        let ghost2 = b.q.node(Ijk::new(ow.lo.i - 2, j, 0));
        assert_eq!(ghost2[0], 6.0);
        // Ghost past the seam mirrors i = 1.
        let ghost3 = b.q.node(Ijk::new(ow.lo.i + 9, j, 0));
        assert_eq!(ghost3[0], 1.0);
        // Seam duplicate mirrors i = 0.
        let seam = b.q.node(Ijk::new(ow.lo.i + 8, j, 0));
        assert_eq!(seam[0], 0.0);
    }

    /// The box copies this module shipped before it copied rows: one node
    /// at a time, in `IndexBox::iter` order. Oracles of the row copies.
    fn pack_box_per_node(b: &Block, bx: IndexBox) -> Vec<f64> {
        bx.iter().flat_map(|p| *b.q.node(p)).collect()
    }

    fn unpack_box_per_node(b: &mut Block, bx: IndexBox, data: &[f64]) {
        assert_eq!(data.len(), bx.count() * NVAR);
        for (idx, p) in bx.iter().enumerate() {
            b.q.set_node(p, data[idx * NVAR..(idx + 1) * NVAR].try_into().unwrap());
        }
    }

    /// The periodic wrap fill of the per-node era: per row, layer by layer,
    /// both ghosts, then the seam node.
    fn fill_self_wrap_per_node(b: &mut Block) {
        let ow = b.owned_local();
        let period = b.owned.dims().ni - 1;
        for k in ow.lo.k..ow.hi.k {
            for j in ow.lo.j..ow.hi.j {
                for layer in 1..=b.halo[0] {
                    let v = *b.q.node(Ijk::new(ow.lo.i + period - layer, j, k));
                    b.q.set_node(Ijk::new(ow.lo.i - layer, j, k), v);
                    let v = *b.q.node(Ijk::new(ow.lo.i + layer, j, k));
                    b.q.set_node(Ijk::new(ow.lo.i + period + layer, j, k), v);
                }
                let v = *b.q.node(Ijk::new(ow.lo.i, j, k));
                b.q.set_node(Ijk::new(ow.lo.i + period, j, k), v);
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The row copies against the per-node ones on 2-D and 3-D blocks
        /// with owned `ni` from 1 to 9, placed anywhere in their grid: every
        /// face at every width up to [`HALO`] and arbitrary (possibly empty)
        /// boxes inside local storage, packed and unpacked; and the periodic
        /// wrap fill of whole O-grid blocks. Packed buffers and the state of
        /// every local node must be bit-equal, and an unpack must leave every
        /// node outside its box as it was.
        #[test]
        fn row_copies_bit_equal_per_node_copies(
            seed in 1u64..(1 << 60),
            ni in 1usize..10,
            three_d in 0usize..2,
        ) {
            let mut h = seed;
            let mut rand = |n: usize| {
                h = (h ^ (h >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d;
                (h >> 17) as usize % n
            };
            let own = Dims::new(ni, 1 + rand(7), if three_d == 1 { 1 + rand(5) } else { 1 });
            let gd = Dims::new(
                own.ni + rand(4),
                own.nj + rand(4),
                if three_d == 1 { own.nk + rand(3) } else { 1 },
            );
            let lo = Ijk::new(rand(gd.ni - own.ni + 1), rand(gd.nj - own.nj + 1), rand(gd.nk - own.nk + 1));
            let owned = IndexBox::new(lo, Ijk::new(lo.i + own.ni, lo.j + own.nj, lo.k + own.nk));
            let mut b = Block::from_grid(0, &test_grid(gd.ni, gd.nj, gd.nk), owned, [None; 6], &fc());
            let tag = |x: usize| f64::from_bits(seed.wrapping_mul(x as u64 + 1) >> 2);
            for (x, v) in b.q.as_mut_slice().iter_mut().enumerate() {
                *v = tag(x);
            }
            let bits = |q: &[f64]| q.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();

            let ld = b.local_dims;
            let mut boxes = Vec::new();
            for face in 0..if b.two_d { 4 } else { 6 } {
                for width in 1..=HALO {
                    boxes.push(b.layer_box(face, width, false));
                    boxes.push(b.layer_box(face, width, true));
                }
            }
            for _ in 0..8 {
                let (a, c) = (Ijk::new(rand(ld.ni + 1), rand(ld.nj + 1), rand(ld.nk + 1)),
                    Ijk::new(rand(ld.ni + 1), rand(ld.nj + 1), rand(ld.nk + 1)));
                boxes.push(IndexBox::new(
                    Ijk::new(a.i.min(c.i), a.j.min(c.j), a.k.min(c.k)),
                    Ijk::new(a.i.max(c.i), a.j.max(c.j), a.k.max(c.k)),
                ));
            }
            let mut packed = vec![f64::NAN; 3];
            for bx in boxes {
                b.pack_box_into(bx, &mut packed);
                prop_assert_eq!(bits(&packed), bits(&pack_box_per_node(&b, bx)), "pack {:?}", bx);
                let data: Vec<f64> = (0..bx.count() * NVAR).map(|x| -tag(x + 7)).collect();
                let before = b.q.clone();
                b.unpack_box(bx, &data);
                let rows = std::mem::replace(&mut b.q, before.clone());
                unpack_box_per_node(&mut b, bx, &data);
                prop_assert_eq!(bits(rows.as_slice()), bits(b.q.as_slice()), "unpack {:?}", bx);
                for p in ld.iter().filter(|&p| !bx.contains(p)) {
                    prop_assert_eq!(bits(rows.node(p)), bits(before.node(p)), "{:?} outside {:?}", p, bx);
                }
            }

            // A whole O-grid block: its period must cover the halo.
            let od = Dims::new(ni.max(HALO + 1), own.nj, own.nk);
            let g = crate::testutil::wavy_grid(od, true);
            let mut o = Block::from_grid(0, &g, od.full_box(), [None; 6], &fc());
            prop_assert!(o.self_wrap_i);
            for (x, v) in o.q.as_mut_slice().iter_mut().enumerate() {
                *v = tag(x);
            }
            let before = o.q.clone();
            o.fill_self_wrap();
            let rows = std::mem::replace(&mut o.q, before);
            fill_self_wrap_per_node(&mut o);
            prop_assert_eq!(bits(rows.as_slice()), bits(o.q.as_slice()), "wrap {:?}", od);
        }
    }

    #[test]
    fn apply_motion_moves_coords_and_sets_velocity() {
        let g = test_grid(6, 6, 1);
        let mut b = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());
        let t = RigidTransform::translation([0.3, 0.0, 0.0]);
        let before = b.coords[Ijk::new(3, 3, 0)];
        b.apply_motion(&t, 0.1);
        let after = b.coords[Ijk::new(3, 3, 0)];
        assert!((after[0] - before[0] - 0.3).abs() < 1e-12);
        let v = b.grid_vel_at(Ijk::new(3, 3, 0));
        assert!((v[0] - 3.0).abs() < 1e-12);
    }

    /// Bytes per local node of each field the block stores.
    fn stored_bytes_per_node(b: &Block) -> usize {
        fn bytes<T>(f: &Field3<T>) -> usize {
            std::mem::size_of_val(f.as_slice())
        }
        let (vel, mu_t) = (b.grid_vel.as_ref().map_or(0, bytes), b.mu_t.as_ref().map_or(0, bytes));
        let fields = bytes(&b.coords) + bytes(&b.metrics) + bytes(&b.iblank) + vel + mu_t;
        (fields + std::mem::size_of_val(b.q.as_slice())) / b.local_dims.count()
    }

    /// A block stores coordinates, metrics, state and blanking (145 bytes
    /// per local node); its grid velocity comes with its first motion and
    /// its eddy viscosity with the model's first pass, and both read as
    /// zero before.
    #[test]
    fn a_block_stores_only_the_fields_its_grid_uses() {
        let g = test_grid(12, 10, 8);
        let owned = IndexBox::new(Ijk::new(2, 0, 1), Ijk::new(9, 6, 5));
        let mut b = Block::from_grid(0, &g, owned, [None; 6], &fc());
        assert_eq!(stored_bytes_per_node(&b), 24 + 80 + 40 + 1);
        let p = Ijk::new(3, 2, 1);
        assert_eq!((b.grid_vel_at(p), b.mu_t_at(p)), ([0.0; 3], 0.0));
        b.apply_motion(&RigidTransform::IDENTITY, 0.1);
        assert_eq!(stored_bytes_per_node(&b), 145 + 24);
        let wall = crate::turbulence::WallGeometry::from_grid(&g, owned);
        crate::turbulence::compute_mu_t(&mut b, &wall);
        assert_eq!(stored_bytes_per_node(&b), 145 + 24 + 8);
        b.apply_motion(&RigidTransform::IDENTITY, 0.1);
        crate::turbulence::compute_mu_t(&mut b, &wall);
        assert_eq!(stored_bytes_per_node(&b), 177, "fields are made once");
    }

    /// The metrics the block shipped before it computed them in place: a
    /// grid over a copy of the local coordinates, [`metric_at`] node by node.
    fn metrics_by_the_oracle(coords: &Field3<[f64; 3]>) -> MetricField {
        use overset_grid::metrics::metric_at;
        let tmp = CurvilinearGrid::new("block", coords.clone(), GridKind::NearBody);
        Field3::from_fn(coords.dims(), |p| {
            let m = metric_at(&tmp, p);
            if m.jac.is_finite() {
                m
            } else {
                Metric { xi: [0.0; 3], eta: [0.0; 3], zeta: [0.0; 3], jac: 1.0 }
            }
        })
    }

    /// Every metric term's bits, node by node.
    fn metric_bits(m: &MetricField) -> Vec<u64> {
        let terms = m.as_slice().iter();
        terms
            .flat_map(|m| [m.xi, m.eta, m.zeta, [m.jac, 0.0, 0.0]])
            .flatten()
            .map(f64::to_bits)
            .collect()
    }

    /// The parent-grid node a local index mirrors plus the per-direction
    /// overshoot past the grid edge (negative = below the min edge): the
    /// per-node map `from_grid` built its coordinates through before it
    /// copied rows.
    fn local_to_global_over(
        l: Ijk,
        owned: IndexBox,
        halo: [usize; 3],
        gd: Dims,
        wrap_i: bool,
    ) -> (Ijk, [isize; 3]) {
        let map1 = |lc: usize, lo: usize, h: usize, n: usize, wrap: bool| -> (usize, isize) {
            let g = lc as isize + lo as isize - h as isize;
            if wrap && n > 1 {
                // O-grid: node n-1 duplicates node 0; period is n-1.
                let m = (n - 1) as isize;
                ((((g % m) + m) % m) as usize, 0)
            } else {
                let c = g.clamp(0, n as isize - 1);
                (c as usize, g - c)
            }
        };
        let (i, oi) = map1(l.i, owned.lo.i, halo[0], gd.ni, wrap_i);
        let (j, oj) = map1(l.j, owned.lo.j, halo[1], gd.nj, false);
        let (k, ok) = map1(l.k, owned.lo.k, halo[2], gd.nk, false);
        (Ijk::new(i, j, k), [oi, oj, ok])
    }

    /// The local coordinates `from_grid` built node by node before it
    /// copied rows: the oracle of [`Block::local_coords`].
    fn coords_per_node(
        grid: &CurvilinearGrid,
        owned: IndexBox,
        halo: [usize; 3],
    ) -> Field3<[f64; 3]> {
        let gd = grid.dims();
        let od = owned.dims();
        let local_dims = Dims::new(od.ni + 2 * halo[0], od.nj + 2 * halo[1], od.nk + 2 * halo[2]);
        let wrap = grid.periodic_i;
        Field3::from_fn(local_dims, |l: Ijk| {
            let (g, over) = local_to_global_over(l, owned, halo, gd, wrap);
            let mut x = grid.coords[g];
            for (dir, &ov) in over.iter().enumerate() {
                if ov == 0 {
                    continue;
                }
                // Edge slope along `dir` at the clamped node.
                let n = gd.get(dir);
                if n < 2 {
                    continue;
                }
                let (a, b) = if ov < 0 {
                    (
                        g,
                        Ijk::new(
                            g.i + usize::from(dir == 0),
                            g.j + usize::from(dir == 1),
                            g.k + usize::from(dir == 2),
                        ),
                    )
                } else {
                    (
                        Ijk::new(
                            g.i - usize::from(dir == 0),
                            g.j - usize::from(dir == 1),
                            g.k - usize::from(dir == 2),
                        ),
                        g,
                    )
                };
                let (xa, xb) = (grid.coords[a], grid.coords[b]);
                let slope = [xb[0] - xa[0], xb[1] - xa[1], xb[2] - xa[2]];
                for t in 0..3 {
                    x[t] += ov as f64 * slope[t];
                }
            }
            x
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `Block::from_grid_posed` against the per-node reference, the
        /// coordinates and the metrics of every local node to the bit: 2-D
        /// and 3-D grids with 1 to 8 nodes along `j` and `k`, open grids and
        /// O-grids; whole (an O-grid block then wraps onto itself) or cut
        /// anywhere (a piece at a physical edge extrapolates its halo, a
        /// piece of an O-grid reads across the seam or not); at the grid's
        /// pose or moved by a rigid motion.
        #[test]
        fn from_grid_bit_equals_per_node_reference(seed in 1u64..(1 << 60), kind in 0usize..8) {
            let (three_d, periodic, posed) = (kind & 1 == 1, kind & 2 == 2, kind & 4 == 4);
            let mut h = seed;
            let mut rand = |n: usize| {
                h = (h ^ (h >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d;
                (h >> 17) as usize % n
            };
            let gd = Dims::new(3 + rand(9), 1 + rand(8), if three_d { 1 + rand(8) } else { 1 });
            let owned = if rand(3) == 0 {
                gd.full_box()
            } else {
                let lo = Ijk::new(rand(gd.ni), rand(gd.nj), rand(gd.nk));
                let hi = Ijk::new(
                    lo.i + 1 + rand(gd.ni - lo.i),
                    lo.j + 1 + rand(gd.nj - lo.j),
                    lo.k + 1 + rand(gd.nk - lo.k),
                );
                IndexBox::new(lo, hi)
            };
            let mut angle = || 0.1 * rand(1000) as f64 / 1000.0;
            let pose = if posed {
                RigidTransform::translation([angle(), -angle(), angle()])
                    .then(&RigidTransform::rotation_about([angle(), 0.0, 1.0], [angle(), 0.3, 1.0], angle()))
            } else {
                RigidTransform::IDENTITY
            };
            let g = crate::testutil::wavy_grid(gd, periodic);
            let b = Block::from_grid_posed(0, &g, owned, [None; 6], &fc(), &pose);
            let mut want = coords_per_node(&g, owned, b.halo);
            if posed {
                for x in want.as_mut_slice() {
                    *x = pose.apply(*x);
                }
            }
            let what = format!("{gd:?} owned {owned:?} periodic {periodic} posed {posed}");
            let bits = |c: &Field3<[f64; 3]>| c.as_slice().iter().flatten().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert!(bits(&b.coords) == bits(&want), "coordinates: {}", what);
            prop_assert!(metric_bits(&b.metrics) == metric_bits(&metrics_by_the_oracle(&want)), "metrics: {}", what);
        }
    }

    /// In-place metrics equal the oracle's to the bit on every grid of the
    /// three paper systems (2-D, periodic O-grids, 3-D shells and boxes),
    /// whole and as an interior subdomain with halos on every side, as
    /// built and after a rigid motion.
    #[test]
    fn in_place_metrics_bit_equal_the_oracle_on_every_paper_grid() {
        use overset_grid::gen::{airfoil, delta_wing, store};
        let motion = RigidTransform::translation([0.01, -0.02, 0.005])
            .then(&RigidTransform::rotation_about([0.3, 0.1, 0.0], [0.2, 0.1, 1.0], 0.03));
        let mut checked = 0;
        for grids in [
            airfoil::airfoil_system(0.3),
            delta_wing::delta_wing_system(0.2),
            store::store_system(0.2),
        ] {
            for g in &grids {
                let d = g.dims();
                let lo = Ijk::new(d.ni / 3, d.nj / 3, d.nk / 3);
                let hi = Ijk::new(2 * d.ni / 3 + 1, 2 * d.nj / 3 + 1, 2 * d.nk / 3 + 1);
                for owned in [d.full_box(), IndexBox::new(lo, hi)] {
                    let mut b = Block::from_grid(0, g, owned, [None; 6], &fc());
                    let oracle = metrics_by_the_oracle(&b.coords);
                    assert!(metric_bits(&b.metrics) == metric_bits(&oracle), "{}", g.name);
                    b.apply_motion(&motion, 0.01);
                    let oracle = metrics_by_the_oracle(&b.coords);
                    assert!(metric_bits(&b.metrics) == metric_bits(&oracle), "{} moved", g.name);
                    checked += 1;
                }
            }
        }
        assert!(checked >= 2 * (3 + 3 + 16));
    }

    #[test]
    fn working_set_is_the_modelled_26_doubles_per_local_node() {
        let g = test_grid(12, 10, 8);
        let owned = IndexBox::new(Ijk::new(2, 0, 1), Ijk::new(9, 6, 5));
        let b = Block::from_grid(0, &g, owned, [None; 6], &fc());
        assert_eq!(b.local_dims.count(), 11 * 10 * 8);
        assert_eq!(b.working_set_bytes(), (11 * 10 * 8 * 26 * 8) as f64);
    }

    #[test]
    fn working_set_scales_with_block_size() {
        let g = test_grid(20, 20, 1);
        let whole = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());
        let half = Block::from_grid(
            0,
            &g,
            IndexBox::new(Ijk::new(0, 0, 0), Ijk::new(10, 20, 1)),
            [None; 6],
            &fc(),
        );
        assert!(whole.working_set_bytes() > 1.5 * half.working_set_bytes());
    }
}
