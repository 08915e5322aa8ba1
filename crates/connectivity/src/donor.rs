//! Donor-cell search: the stencil-walk ("gradient jump") procedure at the
//! heart of DCF3D, with Newton inversion of the trilinear cell mapping.
//!
//! Given a target point and a starting cell, the walk inverts the local
//! trilinear map; when the computational coordinates fall outside the unit
//! cube, it jumps to the adjacent cell in the indicated direction(s) and
//! retries. Warm starts from the previous timestep's donor ("nth-level
//! restart", Barszcz) mean the walk typically converges in one or two jumps,
//! which is why restart "yields a considerable reduction in the time spent
//! in the connectivity solution".

use crate::inverse_map::{InverseMap, FLOPS_PER_CANDIDATE_BOX};
use crate::kernels::{invert_cells_lanes, CORNERS};
use overset_grid::index::Ijk;
use overset_solver::{Blank, Block, Isa, W};

/// Flops per Newton iteration (trilinear evaluation + 3×3 solve).
pub const FLOPS_PER_NEWTON: u64 = 140;
/// Flops of per-walk-step overhead (cell gather, range checks).
pub const FLOPS_PER_WALK_STEP: u64 = 60;

/// Maximum walk steps before giving up (the request is then forwarded to
/// another candidate processor or grid).
pub const MAX_WALK_STEPS: usize = 60;

/// A successful donor: cell lower corner (local), trilinear coordinates and
/// interpolation weights over the cell's corner nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Donor {
    pub cell: Ijk,
    pub loc: [f64; 3],
}

/// A node or cell index in one word, 21 bits per axis (`i` lowest), for the
/// records the donor search keeps per fringe point: an [`Ijk`] takes three
/// words, four as `Option<Ijk>`. [`PackedIjk::NONE`] names no index; every
/// packed index leaves the top bit clear, and it sets it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PackedIjk(u64);

impl PackedIjk {
    const BITS: u32 = 21;
    /// The largest index an axis holds.
    pub(crate) const MAX_AXIS: usize = (1 << Self::BITS) - 1;
    /// No index.
    pub(crate) const NONE: PackedIjk = PackedIjk(u64::MAX);

    /// `c` packed. Panics, naming the index, when an axis does not fit.
    pub(crate) fn new(c: Ijk) -> Self {
        let fits = c.i <= Self::MAX_AXIS && c.j <= Self::MAX_AXIS && c.k <= Self::MAX_AXIS;
        assert!(fits, "index {c:?} does not fit in {} bits per axis", Self::BITS);
        PackedIjk(c.i as u64 | (c.j as u64) << Self::BITS | (c.k as u64) << (2 * Self::BITS))
    }

    /// The index, `None` for [`PackedIjk::NONE`].
    pub(crate) fn get(self) -> Option<Ijk> {
        (self != Self::NONE).then(|| self.ijk())
    }

    /// The index of a packed word that is not [`PackedIjk::NONE`].
    pub(crate) fn ijk(self) -> Ijk {
        debug_assert!(self != Self::NONE, "unpacking the empty index");
        let axis = |shift: u32| (self.0 >> shift) as usize & Self::MAX_AXIS;
        Ijk::new(axis(0), axis(Self::BITS), axis(2 * Self::BITS))
    }
}

impl std::fmt::Debug for PackedIjk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.get() {
            Some(c) => c.fmt(f),
            None => f.write_str("NONE"),
        }
    }
}

/// What nth-level restart remembers of a resolved fringe point, in both the
/// serial and the per-rank cache: where its donor was found and under which
/// acceptance. The next step's warm start searches from `cell` with the same
/// `relaxed` flag, so a donor whose stencil touches holes is found again
/// from its own cell instead of failing a strict search and re-walking the
/// whole hierarchy. 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CachedDonor {
    /// Donor cell in the indices the owning cache searches by: local to the
    /// whole-grid block (serial), global donor-grid indices (distributed).
    pub(crate) cell: PackedIjk,
    pub(crate) grid: u32,
    /// Found by the relaxed last-resort pass.
    pub(crate) relaxed: bool,
}

/// Outcome of a local donor search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SearchOutcome {
    /// Containing cell found, stencil clean, cell owned by this block.
    Found(Donor),
    /// The walk left this block's owned region (forward to a neighbor).
    WalkedOut,
    /// Containing cell found but its stencil touches a hole or the target
    /// grid simply does not contain the point.
    Unusable,
}

/// Statistics of one search (for virtual-time accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCost {
    pub walk_steps: u64,
    /// Newton iterations of the walk steps, of the face-tie polish and of
    /// the candidate inversions alike.
    pub newton_iters: u64,
    /// Listed cells of an inverse map whose corner box was tested against
    /// the point (`settle_by_candidates`).
    pub listed: u64,
    /// Of those, the cells inverted: what proving a search's answer cost.
    pub candidates: u64,
    /// Proofs that found the point in cells apart and handed the search to
    /// the canonical chain (0 or 1).
    pub fallbacks: u64,
}

impl SearchCost {
    /// An inverted candidate costs the gather of a walk step and its Newton
    /// iterations; a listed cell that its box rules out, the box test.
    pub fn flops(&self) -> u64 {
        (self.walk_steps + self.candidates) * FLOPS_PER_WALK_STEP
            + self.newton_iters * FLOPS_PER_NEWTON
            + self.listed * FLOPS_PER_CANDIDATE_BOX
    }
}

/// Cell index bounds of a block in local indices: cells are identified by
/// their lower corner node; the corner must have a +1 neighbour in every
/// active direction within local storage.
fn clamp_cell(block: &Block, mut c: Ijk) -> Ijk {
    let d = block.local_dims;
    c.i = c.i.min(d.ni.saturating_sub(2));
    c.j = c.j.min(d.nj.saturating_sub(2));
    if !block.two_d {
        c.k = c.k.min(d.nk.saturating_sub(2));
    } else {
        c.k = 0;
    }
    c
}

/// Trilinear evaluation of cell corner coordinates at local coords `t`.
fn cell_map(block: &Block, cell: Ijk, t: [f64; 3]) -> ([f64; 3], [[f64; 3]; 3]) {
    let two_d = block.two_d;
    let mut x = [0.0f64; 3];
    let mut dx = [[0.0f64; 3]; 3]; // dx[d][comp] = ∂x_comp/∂t_d
    let kmax = if two_d { 1 } else { 2 };
    for dk in 0..kmax {
        for dj in 0..2 {
            for di in 0..2 {
                let node = Ijk::new(cell.i + di, cell.j + dj, cell.k + dk);
                let c = block.coords[node];
                let wi = if di == 0 { 1.0 - t[0] } else { t[0] };
                let wj = if dj == 0 { 1.0 - t[1] } else { t[1] };
                let wk = if two_d {
                    1.0
                } else if dk == 0 {
                    1.0 - t[2]
                } else {
                    t[2]
                };
                let w = wi * wj * wk;
                let gi = if di == 0 { -1.0 } else { 1.0 };
                let gj = if dj == 0 { -1.0 } else { 1.0 };
                let gk = if dk == 0 { -1.0 } else { 1.0 };
                for m in 0..3 {
                    x[m] += w * c[m];
                    dx[0][m] += gi * wj * wk * c[m];
                    dx[1][m] += wi * gj * wk * c[m];
                    if !two_d {
                        dx[2][m] += wi * wj * gk * c[m];
                    }
                }
            }
        }
    }
    if two_d {
        dx[2] = [0.0, 0.0, 1.0];
    }
    (x, dx)
}

/// Newton inversion of the cell map for `target`. Returns local coords and
/// iteration count; `None` if the 3×3 system is singular.
fn invert_cell(block: &Block, cell: Ijk, target: [f64; 3]) -> Option<([f64; 3], u64)> {
    let mut t = [0.5f64; 3];
    if block.two_d {
        t[2] = 0.0;
    }
    let mut iters = 0u64;
    for _ in 0..8 {
        iters += 1;
        let (x, dx) = cell_map(block, cell, t);
        let r = [target[0] - x[0], target[1] - x[1], target[2] - x[2]];
        let rn = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
        // Solve J^T-layout system: dx[d][m] * dt[d] = r[m].
        let a = [
            [dx[0][0], dx[1][0], dx[2][0]],
            [dx[0][1], dx[1][1], dx[2][1]],
            [dx[0][2], dx[1][2], dx[2][2]],
        ];
        let det = a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]);
        if det.abs() < 1e-300 {
            return None;
        }
        let inv_det = 1.0 / det;
        let dt = [
            inv_det
                * (r[0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                    - a[0][1] * (r[1] * a[2][2] - a[1][2] * r[2])
                    + a[0][2] * (r[1] * a[2][1] - a[1][1] * r[2])),
            inv_det
                * (a[0][0] * (r[1] * a[2][2] - a[1][2] * r[2])
                    - r[0] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                    + a[0][2] * (a[1][0] * r[2] - r[1] * a[2][0])),
            inv_det
                * (a[0][0] * (a[1][1] * r[2] - r[1] * a[2][1])
                    - a[0][1] * (a[1][0] * r[2] - r[1] * a[2][0])
                    + r[0] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])),
        ];
        t[0] += dt[0];
        t[1] += dt[1];
        if !block.two_d {
            t[2] += dt[2];
        }
        // Clamp wild Newton steps so the walk jumps at most a few cells.
        for v in t.iter_mut() {
            *v = v.clamp(-3.0, 4.0);
        }
        if rn < 1e-16 || (dt[0].abs() + dt[1].abs() + dt[2].abs()) < 1e-8 {
            break;
        }
    }
    Some((t, iters))
}

const TOL: f64 = 1e-9;

/// Walk from `start` (a local cell) toward the cell containing `target`.
/// Runs the Newton stencil walk; if the walk stalls (concave grids can point
/// the local linearization "through" a hole), falls back to a greedy
/// cell-center descent followed by one more Newton walk.
pub fn walk_search(
    block: &Block,
    target: [f64; 3],
    start: Ijk,
    cost: &mut SearchCost,
) -> SearchOutcome {
    walk_search_isa(block, target, start, cost, false, Isa::Scalar, None)
}

/// Relaxed variant: accepts a containing cell even when its stencil touches
/// holes (the interpolation then renormalizes over clean corners). This is
/// the standard last-resort treatment for otherwise-orphaned fringe points
/// in gap regions between overset surfaces.
pub fn walk_search_relaxed(
    block: &Block,
    target: [f64; 3],
    start: Ijk,
    cost: &mut SearchCost,
) -> SearchOutcome {
    walk_search_isa(block, target, start, cost, true, Isa::Scalar, None)
}

/// [`walk_search`] with an explicit acceptance, a lane [`Isa`] carrying the
/// batched candidate inversions, and the block's inverse map when it has
/// one. The outcome and cost are bit-identical for every `Isa` (the lanes
/// execute the scalar operation sequence); only host speed changes. With a
/// map a walk that fails, or succeeds where containment can be ambiguous, is
/// settled from the map's cell lists (`settle_by_candidates`); without
/// one by the canonical chain — the same answer at a different cost.
pub fn walk_search_isa(
    block: &Block,
    target: [f64; 3],
    start: Ijk,
    cost: &mut SearchCost,
    relaxed: bool,
    isa: Isa,
    inv: Option<&InverseMap>,
) -> SearchOutcome {
    let start = clamp_cell(block, start);
    if inv.is_none() && start == clamp_cell(block, center_start(block)) {
        return canonical_search(block, target, cost, relaxed, isa);
    }
    let out = newton_walk(block, target, start, cost, relaxed, isa);
    settle(block, inv, target, out, cost, relaxed, isa)
}

/// What the outcome `out` of a search's first walk is worth. A donor found
/// where containment is unique stands. Near the polar caps of revolution
/// shells the trilinear hulls of azimuthal sliver cells overlap across the
/// axis: several non-adjacent cells legitimately contain the point, and
/// which one a walk reaches depends on its start; and a walk that failed
/// says little about whether a donor exists. Both are settled so that the
/// *outcome* of a search never depends on its start — only its cost does
/// (the inverse-map guarantee, seeding changes work and not donors, rests on
/// this): from the map's cell lists when they prove the answer, else by the
/// canonical chain, which is the same no matter where the first walk began.
fn settle(
    block: &Block,
    inv: Option<&InverseMap>,
    target: [f64; 3],
    out: SearchOutcome,
    cost: &mut SearchCost,
    relaxed: bool,
    isa: Isa,
) -> SearchOutcome {
    if matches!(out, SearchOutcome::Found(d) if !polar_cap(block, d.cell)) {
        return out;
    }
    if let Some(map) = inv {
        match settle_by_candidates(block, map, target, cost, relaxed, isa) {
            Some(proven) => return proven,
            None => cost.fallbacks += 1,
        }
    }
    canonical_search(block, target, cost, relaxed, isa)
}

/// Cells a point can sit in and still have one answer: a cell and the seven
/// neighbours across the faces, edges and corner it is tied on.
const MAX_TIED: usize = 8;

/// Is `t` inside the unit cube to within the walk's tolerance?
fn inside(t: [f64; 3]) -> bool {
    (0..3).all(|d| t[d] >= -TOL && t[d] <= 1.0 + TOL)
}

/// Settle a search for `target` without walking: invert every cell the
/// map lists for the point's bin whose corner box can hold it (box-testing
/// only the cells of the point's sub-bin) — the list is
/// complete, so the cells found containing are *all* the block's
/// owned-anchored cells that contain the point. None: no donor here, and no
/// walk can find one. One, or several tied across shared faces: the face-tie
/// rule's answer from any of them is the answer, whatever it is — a donor, a
/// holed stencil, a cell anchored on another block. Cells apart (the axis of
/// a revolution shell): `None`, and the canonical chain picks.
fn settle_by_candidates(
    block: &Block,
    map: &InverseMap,
    target: [f64; 3],
    cost: &mut SearchCost,
    relaxed: bool,
    isa: Isa,
) -> Option<SearchOutcome> {
    let mut holding = [(Ijk::default(), [0.0f64; 3]); MAX_TIED];
    let mut nheld = 0usize;
    let (list, sub_bin) = map.listed(target);
    // Charged as box tests, all of them: the cells whose sub-bin mask
    // misses the point's are cells whose box would have rejected it.
    cost.listed += list.len() as u64;
    let mut admitted =
        list.iter().filter(|&&e| e & sub_bin != 0 && map.cell_box_admits(block, e, target));
    loop {
        // Two lane groups at a time; few points have more cells to invert.
        let mut batch = [Ijk::default(); 2 * W];
        let mut n = 0;
        for &flat in admitted.by_ref().take(batch.len()) {
            batch[n] = map.cell_at(flat);
            n += 1;
        }
        if n == 0 {
            break;
        }
        let mut results = [None; 2 * W];
        invert_cells_batch(block, &batch[..n], target, isa, &mut results);
        cost.candidates += n as u64;
        for (&cell, res) in batch[..n].iter().zip(results) {
            let Some((t, iters)) = res else { continue };
            cost.newton_iters += iters;
            if !inside(t) {
                continue;
            }
            if nheld == MAX_TIED {
                return None;
            }
            holding[nheld] = (cell, t);
            nheld += 1;
        }
    }
    let holding = &holding[..nheld];
    let Some(&(cell, t)) = holding.first() else {
        return Some(SearchOutcome::WalkedOut);
    };
    // Every holding cell must see every other across a tied face: then the
    // face-tie rule weighs the same cells from whichever it starts.
    let sees = |&(a, ta): &(Ijk, [f64; 3]), b: Ijk| {
        let (tied, n) = tied_neighbours(block, a, ta);
        tied[..n].iter().any(|&c| canonical_cell(block, c) == b)
    };
    if holding.iter().any(|a| holding.iter().any(|&(b, _)| a.0 != b && !sees(a, b))) {
        return None;
    }
    Some(resolve_containing(block, target, cell, t, cost, relaxed, isa))
}

/// The start-independent donor search every mode agrees on: a Newton walk
/// from the block-center cell, a greedy-descent restart if that fails, and
/// on 3-D revolution shells a sweep of fixed quarter-azimuth starts — a
/// center-started walk aimed at the far side of the annulus can exit
/// through the shell surface instead of walking around in `i`, and greedy
/// descent can stall on the fold.
fn canonical_search(
    block: &Block,
    target: [f64; 3],
    cost: &mut SearchCost,
    relaxed: bool,
    isa: Isa,
) -> SearchOutcome {
    let center = clamp_cell(block, center_start(block));
    let mut out = newton_walk(block, target, center, cost, relaxed, isa);
    if !matches!(out, SearchOutcome::Found(_)) {
        let near = greedy_descent(block, target, center, cost);
        out = newton_walk(block, target, near, cost, relaxed, isa);
    }
    if !matches!(out, SearchOutcome::Found(_)) && block.self_wrap_i && !block.two_d {
        let period = block.owned.dims().ni - 1;
        let h = block.halo[0];
        for q in [0usize, 1, 3] {
            let alt = clamp_cell(block, Ijk::new(h + q * period / 4, center.j, center.k));
            out = newton_walk(block, target, alt, cost, relaxed, isa);
            if !matches!(out, SearchOutcome::Found(_)) {
                let near = greedy_descent(block, target, alt, cost);
                out = newton_walk(block, target, near, cost, relaxed, isa);
            }
            if matches!(out, SearchOutcome::Found(_)) {
                break;
            }
        }
    }
    out
}

/// Polar-cap band of a periodic revolution shell: the first/last two cell
/// rings in `k` (polar angle), where azimuthal sliver cells can overlap
/// across the axis and containment is ambiguous.
fn polar_cap(block: &Block, cell: Ijk) -> bool {
    if block.two_d || !block.self_wrap_i {
        return false;
    }
    let gk = (block.owned.lo.k + cell.k).saturating_sub(block.halo[2]);
    let nk_cells = block.grid_dims.nk - 1;
    gk < 2 || gk + 2 >= nk_cells
}

/// Width of the face band (in computational coordinates) within which a
/// containing cell is ambiguous: the point also lies inside the face
/// neighbour to within the walk tolerance. Twice `TOL` so that whenever one
/// side of a shared face accepts the point, the other side's polish is
/// guaranteed to look across the face (the slack dominates re-inversion
/// noise by seven orders of magnitude).
const FACE_BAND: f64 = 2.0 * TOL;

/// Resolve a walk that has landed in a containing cell. When the point sits
/// within `FACE_BAND` of a cell face, the face neighbour contains it too
/// (to within `TOL`), so walks approaching from different sides terminate
/// in different — equally valid — cells, and may even disagree on *whether*
/// a usable donor exists (one side of the tie can have a holed stencil or a
/// halo-anchored cell). Deterministically picks the lexicographically
/// smallest acceptable cell among the original and its tied face
/// neighbours, making the donor — and the found/miss verdict — independent
/// of the walk path.
fn resolve_containing(
    block: &Block,
    target: [f64; 3],
    cell: Ijk,
    t: [f64; 3],
    cost: &mut SearchCost,
    relaxed: bool,
    isa: Isa,
) -> SearchOutcome {
    let first = accept(block, cell, t, relaxed);
    let (cands, ncand) = tied_neighbours(block, cell, t);
    if ncand == 0 {
        return first;
    }
    let mut best: Option<Donor> = match first {
        SearchOutcome::Found(d) => Some(d),
        _ => None,
    };
    let key = |c: Ijk| (c.i, c.j, c.k);
    // Invert the tied neighbours through the lane-batched Newton kernel, W
    // candidates at a time.
    let mut results = [None; 7];
    invert_cells_batch(block, &cands[..ncand], target, isa, &mut results);
    for (i, res) in results.iter().enumerate().take(ncand) {
        let Some((ct, iters)) = *res else {
            continue;
        };
        cost.newton_iters += iters;
        if !inside(ct) {
            continue;
        }
        if let SearchOutcome::Found(cd) = accept(block, cands[i], ct, relaxed) {
            if best.is_none_or(|b| key(cd.cell) < key(b.cell)) {
                best = Some(cd);
            }
        }
    }
    match best {
        Some(d) => SearchOutcome::Found(d),
        None => first,
    }
}

/// The face, edge and corner neighbours (up to 7, in local storage) that
/// `cell` shares a point at local coordinates `t` with: those across every
/// face the point sits within [`FACE_BAND`] of.
fn tied_neighbours(block: &Block, cell: Ijk, t: [f64; 3]) -> ([Ijk; 7], usize) {
    let dirs: &[usize] = if block.two_d { &[0, 1] } else { &[0, 1, 2] };
    let mut shift = [0isize; 3];
    for &ax in dirs {
        if t[ax] >= 1.0 - FACE_BAND {
            shift[ax] = 1;
        } else if t[ax] <= FACE_BAND {
            shift[ax] = -1;
        }
    }
    let mut cands = [cell; 7];
    let mut ncand = 0usize;
    if shift == [0; 3] {
        return (cands, 0);
    }
    for mask in 1u8..8 {
        let mut cand = cell;
        let mut valid = true;
        for (ax, &s) in shift.iter().enumerate() {
            if mask & (1 << ax) == 0 {
                continue;
            }
            if s == 0 {
                valid = false;
                break;
            }
            let c = cand.get(ax) as isize;
            let n = block.local_dims.get(ax) as isize;
            let mut nc = c + s;
            if nc < 0 || nc > n - 2 {
                if ax == 0 && block.self_wrap_i {
                    let period = (block.owned.dims().ni - 1) as isize;
                    let h = block.halo[0] as isize;
                    nc = (nc - h).rem_euclid(period) + h;
                } else {
                    valid = false;
                    break;
                }
            }
            cand.set(ax, nc as usize);
        }
        if !valid || cand == cell {
            continue;
        }
        cands[ncand] = cand;
        ncand += 1;
    }
    (cands, ncand)
}

/// Gather one `(cell, target)` problem into lane `l` of the SoA buffers
/// consumed by [`invert_cells_lanes`].
fn gather_lane_problem(
    block: &Block,
    l: usize,
    cell: Ijk,
    target: [f64; 3],
    corners: &mut [f64],
    targets: &mut [f64],
) {
    let kmax = if block.two_d { 1 } else { 2 };
    for dk in 0..kmax {
        for dj in 0..2 {
            for di in 0..2 {
                let c = block.coords[Ijk::new(cell.i + di, cell.j + dj, cell.k + dk)];
                let cidx = di + 2 * dj + 4 * dk;
                for (m, &cm) in c.iter().enumerate() {
                    corners[(cidx * 3 + m) * W + l] = cm;
                }
            }
        }
    }
    for (m, &tm) in target.iter().enumerate() {
        targets[m * W + l] = tm;
    }
}

/// Invert a handful of candidate cells against one target through the batched
/// Newton kernel, `W` lanes at a time (unused lanes replicate the chunk's
/// first problem and are discarded). Each entry of `results` matches what
/// scalar `invert_cell` returns for that candidate, bit for bit.
fn invert_cells_batch(
    block: &Block,
    cands: &[Ijk],
    target: [f64; 3],
    isa: Isa,
    results: &mut [Option<([f64; 3], u64)>],
) {
    let mut corners = [0.0f64; CORNERS * 3 * W];
    let mut targets = [0.0f64; 3 * W];
    let mut t_out = [0.0f64; 3 * W];
    let mut iters = [0u64; W];
    let mut okl = [true; W];
    let mut ci = 0;
    while ci < cands.len() {
        let n = (cands.len() - ci).min(W);
        for l in 0..W {
            let cell = cands[ci + l.min(n - 1)];
            gather_lane_problem(block, l, cell, target, &mut corners, &mut targets);
        }
        invert_cells_lanes(isa, block.two_d, &corners, &targets, &mut t_out, &mut iters, &mut okl);
        for l in 0..n {
            results[ci + l] =
                okl[l].then(|| (([t_out[l], t_out[W + l], t_out[2 * W + l]]), iters[l]));
        }
        ci += n;
    }
}

/// Greedy descent on cell-center distance: robust (if slow) positioning for
/// the Newton walk on strongly curved grids.
fn greedy_descent(block: &Block, target: [f64; 3], start: Ijk, cost: &mut SearchCost) -> Ijk {
    let center_dist = |c: Ijk| -> f64 {
        let (x, _) = cell_map(block, c, if block.two_d { [0.5, 0.5, 0.0] } else { [0.5; 3] });
        (x[0] - target[0]).powi(2) + (x[1] - target[1]).powi(2) + (x[2] - target[2]).powi(2)
    };
    let dirs: &[usize] = if block.two_d { &[0, 1] } else { &[0, 1, 2] };
    let mut cell = start;
    let mut best = center_dist(cell);
    let budget = block.local_dims.ni + block.local_dims.nj + block.local_dims.nk;
    for _ in 0..4 * budget {
        cost.walk_steps += 1;
        let mut improved = false;
        for &d in dirs {
            for step in [-1isize, 1] {
                let c = cell.get(d) as isize;
                let n = block.local_dims.get(d) as isize;
                let mut nc = c + step;
                if nc < 0 || nc > n - 2 {
                    if d == 0 && block.self_wrap_i {
                        let period = (block.owned.dims().ni - 1) as isize;
                        let h = block.halo[0] as isize;
                        nc = (nc - h).rem_euclid(period) + h;
                    } else {
                        continue;
                    }
                }
                let mut cand = cell;
                cand.set(d, nc as usize);
                let dist = center_dist(cand);
                if dist < best {
                    best = dist;
                    cell = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    cell
}

/// What a walk does with one inverted cell: terminate in the cell, jump,
/// or give up. Factored out of [`newton_walk`] so the lane-lockstep
/// [`walk_search_batch`] drives the identical per-step control flow.
enum StepAction {
    /// The cell contains the point: resolve at these local coords.
    Contain([f64; 3]),
    /// Jump to the adjacent cell indicated by the coordinate excess.
    Move(Ijk),
    /// Pinned at a boundary and still pointing out.
    WalkOut,
}

/// Jump toward the target by the integer part of the excess. Steps that
/// would leave local storage are clamped to the boundary cell (curved
/// grids can point the local linearization "through" a concavity); the
/// walk only fails when it is pinned at a boundary and still wants to
/// leave.
fn walk_step_action(block: &Block, cell: Ijk, t: [f64; 3]) -> StepAction {
    if inside(t) {
        return StepAction::Contain(t);
    }
    let mut moved = false;
    let mut pinned_out = false;
    let mut next = cell;
    let dirs: &[usize] = if block.two_d { &[0, 1] } else { &[0, 1, 2] };
    for &d in dirs {
        let c = cell.get(d) as isize;
        let n = block.local_dims.get(d) as isize;
        let step = if t[d] < -TOL || t[d] > 1.0 + TOL { t[d].floor() as isize } else { 0 };
        if step != 0 {
            let mut nc = c + step;
            if nc < 0 || nc > n - 2 {
                if d == 0 && block.self_wrap_i {
                    // O-grid blocks owning the full i range wrap the
                    // walk around the seam instead of walking out.
                    let period = (block.owned.dims().ni - 1) as isize;
                    let h = block.halo[0] as isize;
                    nc = (nc - h).rem_euclid(period) + h;
                } else {
                    nc = nc.clamp(0, n - 2);
                    if nc == c {
                        pinned_out = true;
                    }
                }
            }
            if nc != c {
                next.set(d, nc as usize);
                moved = true;
            }
        }
    }
    if !moved {
        if pinned_out {
            return StepAction::WalkOut;
        }
        // Numerical stall at a face: accept as inside with clamped coords.
        StepAction::Contain([t[0].clamp(0.0, 1.0), t[1].clamp(0.0, 1.0), t[2].clamp(0.0, 1.0)])
    } else {
        StepAction::Move(next)
    }
}

fn newton_walk(
    block: &Block,
    target: [f64; 3],
    start: Ijk,
    cost: &mut SearchCost,
    relaxed: bool,
    isa: Isa,
) -> SearchOutcome {
    let mut cell = clamp_cell(block, start);
    for _ in 0..MAX_WALK_STEPS {
        cost.walk_steps += 1;
        let Some((t, iters)) = invert_cell(block, cell, target) else {
            return SearchOutcome::Unusable;
        };
        cost.newton_iters += iters;
        match walk_step_action(block, cell, t) {
            StepAction::Contain(tc) => {
                return resolve_containing(block, target, cell, tc, cost, relaxed, isa);
            }
            StepAction::WalkOut => return SearchOutcome::WalkedOut,
            StepAction::Move(next) => cell = next,
        }
    }
    SearchOutcome::WalkedOut
}

/// One pending donor query of a [`walk_search_batch`] call.
#[derive(Clone, Copy, Debug)]
pub struct BatchQuery {
    pub xyz: [f64; 3],
    pub start: Ijk,
    pub relaxed: bool,
}

/// Lane-lockstep donor search over many pending query points against one
/// block: up to [`W`] walks advance side by side, each walk step inverting
/// all active lanes' cells through the batched Newton kernel; a lane that
/// terminates is refilled with the next pending query. Per query, the
/// sequence of inverted `(cell, target)` problems — and therefore the
/// outcome, the walk-step count and the Newton-iteration count — is
/// exactly what a scalar [`walk_search`] performs, so `outcomes`/`costs`
/// are bit-identical to the one-query-at-a-time path ([`walk_search_isa`]
/// with the same `inv`) for every [`Isa`].
pub fn walk_search_batch(
    block: &Block,
    inv: Option<&InverseMap>,
    queries: &[BatchQuery],
    isa: Isa,
    outcomes: &mut Vec<SearchOutcome>,
    costs: &mut Vec<SearchCost>,
) {
    outcomes.clear();
    costs.clear();
    outcomes.resize(queries.len(), SearchOutcome::Unusable);
    costs.resize(queries.len(), SearchCost::default());
    let center = clamp_cell(block, center_start(block));

    struct LaneWalk {
        qi: usize,
        cell: Ijk,
        steps_left: usize,
    }
    let mut lanes: [Option<LaneWalk>; W] = [None, None, None, None];
    let mut next_q = 0usize;
    let mut corners = [0.0f64; CORNERS * 3 * W];
    let mut targets = [0.0f64; 3 * W];
    let mut t_out = [0.0f64; 3 * W];
    let mut iters = [0u64; W];
    let mut okl = [true; W];

    // Wrap a finished front-end walk exactly as `walk_search_isa` does.
    let finish = |qi: usize, out: SearchOutcome, costs: &mut Vec<SearchCost>| {
        let q = &queries[qi];
        settle(block, inv, q.xyz, out, &mut costs[qi], q.relaxed, isa)
    };

    loop {
        // Refill idle lanes with fresh walks. Without a map, center-started
        // queries take the canonical chain directly (as the scalar mode
        // does) and never occupy a lane.
        for lane in lanes.iter_mut() {
            if lane.is_some() {
                continue;
            }
            while next_q < queries.len() {
                let qi = next_q;
                next_q += 1;
                let q = &queries[qi];
                let start = clamp_cell(block, q.start);
                if inv.is_none() && start == center {
                    outcomes[qi] = canonical_search(block, q.xyz, &mut costs[qi], q.relaxed, isa);
                } else {
                    *lane = Some(LaneWalk { qi, cell: start, steps_left: MAX_WALK_STEPS });
                    break;
                }
            }
        }
        let Some(first_active) = lanes.iter().flatten().next() else {
            break;
        };
        // Gather active lanes' problems (idle lanes replicate an active
        // problem and are discarded).
        let (fill_cell, fill_xyz) = (first_active.cell, queries[first_active.qi].xyz);
        for (l, lane) in lanes.iter().enumerate() {
            let (cell, xyz) = match lane {
                Some(w) => (w.cell, queries[w.qi].xyz),
                None => (fill_cell, fill_xyz),
            };
            gather_lane_problem(block, l, cell, xyz, &mut corners, &mut targets);
        }
        invert_cells_lanes(isa, block.two_d, &corners, &targets, &mut t_out, &mut iters, &mut okl);
        for (l, lane) in lanes.iter_mut().enumerate() {
            let Some(w) = lane.as_mut() else { continue };
            let qi = w.qi;
            let q = &queries[qi];
            costs[qi].walk_steps += 1;
            if !okl[l] {
                outcomes[qi] = finish(qi, SearchOutcome::Unusable, costs);
                *lane = None;
                continue;
            }
            costs[qi].newton_iters += iters[l];
            let t = [t_out[l], t_out[W + l], t_out[2 * W + l]];
            match walk_step_action(block, w.cell, t) {
                StepAction::Contain(tc) => {
                    let out = resolve_containing(
                        block,
                        q.xyz,
                        w.cell,
                        tc,
                        &mut costs[qi],
                        q.relaxed,
                        isa,
                    );
                    outcomes[qi] = finish(qi, out, costs);
                    *lane = None;
                }
                StepAction::WalkOut => {
                    outcomes[qi] = finish(qi, SearchOutcome::WalkedOut, costs);
                    *lane = None;
                }
                StepAction::Move(next) => {
                    w.cell = next;
                    w.steps_left -= 1;
                    if w.steps_left == 0 {
                        outcomes[qi] = finish(qi, SearchOutcome::WalkedOut, costs);
                        *lane = None;
                    }
                }
            }
        }
    }
}

/// Periodic shells store a duplicated seam column, so the cells anchored at
/// global `i` and `i ± period` are bit-exact copies of each other and a walk
/// can legitimately terminate in either. Reduces to the canonical
/// representative (anchor in `[0, period)` global) so the donor identity
/// never depends on which duplicate the walk happened to reach.
fn canonical_cell(block: &Block, mut cell: Ijk) -> Ijk {
    if block.self_wrap_i {
        let period = block.owned.dims().ni - 1;
        let h = block.halo[0];
        while cell.i >= h + period {
            cell.i -= period;
        }
        while cell.i < h {
            cell.i += period;
        }
    }
    cell
}

/// Validate an inside-cell result: donor cell must be anchored in the owned
/// region (unique ownership across ranks) and its stencil must be hole-free
/// (unless `relaxed`: then any cell with at least one clean corner passes,
/// and the interpolation renormalizes over clean corners).
fn accept(block: &Block, cell: Ijk, t: [f64; 3], relaxed: bool) -> SearchOutcome {
    let cell = canonical_cell(block, cell);
    let ow = block.owned_local();
    let anchored = cell.i >= ow.lo.i
        && cell.i < ow.hi.i
        && cell.j >= ow.lo.j
        && cell.j < ow.hi.j
        && (block.two_d || (cell.k >= ow.lo.k && cell.k < ow.hi.k));
    if !anchored {
        return SearchOutcome::WalkedOut;
    }
    let kmax = if block.two_d { 1 } else { 2 };
    let mut clean = 0usize;
    let mut total = 0usize;
    for dk in 0..kmax {
        for dj in 0..2 {
            for di in 0..2 {
                total += 1;
                let node = Ijk::new(cell.i + di, cell.j + dj, cell.k + dk);
                if block.iblank[node] != Blank::Hole {
                    clean += 1;
                }
            }
        }
    }
    if clean < total && !relaxed {
        return SearchOutcome::Unusable;
    }
    if clean == 0 {
        return SearchOutcome::Unusable;
    }
    SearchOutcome::Found(Donor {
        cell,
        loc: [t[0].clamp(0.0, 1.0), t[1].clamp(0.0, 1.0), t[2].clamp(0.0, 1.0)],
    })
}

/// Default walk start: the center of the owned region.
pub fn center_start(block: &Block) -> Ijk {
    let ow = block.owned_local();
    Ijk::new((ow.lo.i + ow.hi.i) / 2, (ow.lo.j + ow.hi.j) / 2, (ow.lo.k + ow.hi.k) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverse_map::ENTRY_CELL;
    use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::Dims;
    use overset_solver::FlowConditions;

    fn cart_block(n: usize, h: f64) -> Block {
        let d = Dims::new(n, n, n);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * h, p.j as f64 * h, p.k as f64 * h]);
        let g = CurvilinearGrid::new("c", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &fc)
    }

    /// Every axis at 0 and at 2²¹ − 1, in all eight combinations, comes back
    /// as it went in, and none of them is the empty index.
    #[test]
    fn packed_indices_round_trip_at_the_axis_edges() {
        let m = PackedIjk::MAX_AXIS;
        assert_eq!(m, (1 << 21) - 1);
        for corner in 0..8 {
            let axis = |bit: usize| if corner >> bit & 1 == 1 { m } else { 0 };
            let c = Ijk::new(axis(0), axis(1), axis(2));
            let p = PackedIjk::new(c);
            assert_eq!((p.ijk(), p.get()), (c, Some(c)), "{c:?}");
            assert_ne!(p, PackedIjk::NONE, "{c:?}");
        }
        assert_eq!(PackedIjk::NONE.get(), None);
        // Every packed index leaves the top bit clear; `NONE` sets it.
        assert_eq!(PackedIjk::new(Ijk::new(m, m, m)).0, u64::MAX >> 1);
        assert_eq!(std::mem::size_of::<CachedDonor>(), 16);
    }

    #[test]
    #[should_panic(expected = "index (3,2097152,5) does not fit in 21 bits per axis")]
    fn an_index_past_21_bits_panics_naming_it() {
        PackedIjk::new(Ijk::new(3, 1 << 21, 5));
    }

    fn annulus_block(nth: usize, nr: usize) -> Block {
        let d = Dims::new(nth, nr, 1);
        let coords = Field3::from_fn(d, |p| {
            let th = -2.0 * std::f64::consts::PI * (p.i % (nth - 1)) as f64 / (nth - 1) as f64;
            let r = 1.0 + 0.25 * p.j as f64;
            [r * th.cos(), r * th.sin(), 0.0]
        });
        let mut g = CurvilinearGrid::new("a", coords, GridKind::NearBody);
        g.periodic_i = true;
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &fc)
    }

    #[test]
    fn finds_cell_on_cartesian_block() {
        let b = cart_block(9, 0.5);
        let mut cost = SearchCost::default();
        let target = [1.3, 2.1, 0.7];
        match walk_search(&b, target, center_start(&b), &mut cost) {
            SearchOutcome::Found(d) => {
                let g = b.to_global(d.cell);
                assert_eq!(g, Ijk::new(2, 4, 1), "cell {g:?}");
                assert!((d.loc[0] - 0.6).abs() < 1e-9);
                assert!((d.loc[1] - 0.2).abs() < 1e-9);
                assert!((d.loc[2] - 0.4).abs() < 1e-9);
            }
            o => panic!("expected Found, got {o:?}"),
        }
        assert!(cost.flops() > 0);
    }

    #[test]
    fn walk_converges_from_far_corner() {
        let b = cart_block(17, 0.25);
        let mut cost = SearchCost::default();
        let ow = b.owned_local();
        let far_start = Ijk::new(ow.lo.i, ow.lo.j, ow.lo.k);
        let target = [3.9, 3.9, 3.9];
        match walk_search(&b, target, far_start, &mut cost) {
            SearchOutcome::Found(d) => {
                assert_eq!(b.to_global(d.cell), Ijk::new(15, 15, 15));
            }
            o => panic!("got {o:?}"),
        }
        // Newton jumps several cells at once: far fewer steps than distance.
        assert!(cost.walk_steps <= 12, "steps {}", cost.walk_steps);
    }

    #[test]
    fn warm_start_is_cheaper_than_cold() {
        let b = cart_block(17, 0.25);
        let target = [2.05, 2.05, 2.05];
        let mut cold = SearchCost::default();
        let ow = b.owned_local();
        walk_search(&b, target, Ijk::new(ow.lo.i, ow.lo.j, ow.lo.k), &mut cold);
        let mut warm = SearchCost::default();
        // Warm start: the true cell itself.
        let hint = b.to_local(Ijk::new(8, 8, 8));
        walk_search(&b, target, hint, &mut warm);
        assert!(warm.flops() < cold.flops(), "warm {} cold {}", warm.flops(), cold.flops());
        assert_eq!(warm.walk_steps, 1);
    }

    #[test]
    fn outside_point_walks_out() {
        let b = cart_block(9, 0.5);
        let mut cost = SearchCost::default();
        let out = walk_search(&b, [100.0, 0.0, 0.0], center_start(&b), &mut cost);
        assert_eq!(out, SearchOutcome::WalkedOut);
    }

    #[test]
    fn hole_stencil_is_unusable() {
        let mut b = cart_block(9, 0.5);
        let target = [1.3, 2.1, 0.7]; // cell (2,4,1)
        let hole = b.to_local(Ijk::new(3, 4, 1));
        b.iblank[hole] = Blank::Hole;
        let mut cost = SearchCost::default();
        let out = walk_search(&b, target, center_start(&b), &mut cost);
        assert_eq!(out, SearchOutcome::Unusable);
    }

    #[test]
    fn curvilinear_annulus_search() {
        let b = annulus_block(65, 9);
        let mut cost = SearchCost::default();
        // A point at radius 1.9, 57 degrees.
        let th = -(57.0f64.to_radians());
        let target = [1.9 * th.cos(), 1.9 * th.sin(), 0.0];
        match walk_search(&b, target, center_start(&b), &mut cost) {
            SearchOutcome::Found(d) => {
                // Verify by forward mapping.
                let (x, _) = cell_map(&b, d.cell, d.loc);
                for m in 0..3 {
                    assert!((x[m] - target[m]).abs() < 1e-8, "{x:?} vs {target:?}");
                }
            }
            o => panic!("got {o:?}"),
        }
    }

    #[test]
    fn walk_crosses_periodic_seam_both_directions() {
        // Start one cell to the right of the i-seam, target one cell to its
        // left, and vice versa: the walk must step *through* the seam (a
        // couple of wrapped steps), not all the way around the annulus.
        let b = annulus_block(65, 9);
        for (start_i, target_deg, want_i) in [(1usize, 355.0f64, 63usize), (62, 5.0, 0)] {
            let th = -(target_deg.to_radians());
            let target = [1.9 * th.cos(), 1.9 * th.sin(), 0.0];
            let mut cost = SearchCost::default();
            match walk_search(&b, target, b.to_local(Ijk::new(start_i, 4, 0)), &mut cost) {
                SearchOutcome::Found(d) => {
                    assert_eq!(b.to_global(d.cell).i, want_i, "crossing toward {target_deg} deg");
                    let (x, _) = cell_map(&b, d.cell, d.loc);
                    for m in 0..3 {
                        assert!((x[m] - target[m]).abs() < 1e-8, "{x:?} vs {target:?}");
                    }
                }
                o => panic!("toward {target_deg} deg: got {o:?}"),
            }
            // Crossing the seam takes a handful of steps; going the long way
            // around would take tens.
            assert!(cost.walk_steps < 10, "walk went the long way: {} steps", cost.walk_steps);
        }
    }

    #[test]
    fn relaxed_donor_renormalizes_partially_holed_stencil() {
        // One corner of the donor cell is a hole: strict search refuses the
        // donor, relaxed search accepts it, and interpolation renormalizes
        // the trilinear weights over the seven clean corners.
        let mut b = cart_block(9, 0.5);
        let target = [1.3, 2.1, 0.7]; // cell (2,4,1), loc (0.6, 0.2, 0.4)
        let hole = b.to_local(Ijk::new(3, 4, 1)); // corner di=1, dj=0, dk=0
        b.iblank[hole] = Blank::Hole;
        let field = |x: [f64; 3], v: usize| x[0] + 2.0 * x[1] + 3.0 * x[2] + v as f64;
        for p in b.local_dims.full_box().iter() {
            let x = b.coords[p];
            b.q.set_node(p, std::array::from_fn(|v| field(x, v)));
        }

        let mut cost = SearchCost::default();
        assert_eq!(walk_search(&b, target, center_start(&b), &mut cost), SearchOutcome::Unusable);
        let d = match walk_search_relaxed(&b, target, center_start(&b), &mut cost) {
            SearchOutcome::Found(d) => d,
            o => panic!("relaxed search failed: {o:?}"),
        };
        assert_eq!(b.to_global(d.cell), Ijk::new(2, 4, 1));

        let got = crate::interp::interpolate(&b, &d);
        // Renormalized expectation straight from the definition.
        let t = d.loc;
        let mut wsum = 0.0;
        let mut want = [0.0f64; 5];
        for dk in 0..2 {
            for dj in 0..2 {
                for di in 0..2 {
                    let node = Ijk::new(d.cell.i + di, d.cell.j + dj, d.cell.k + dk);
                    if b.iblank[node] == Blank::Hole {
                        continue;
                    }
                    let w = (if di == 0 { 1.0 - t[0] } else { t[0] })
                        * (if dj == 0 { 1.0 - t[1] } else { t[1] })
                        * (if dk == 0 { 1.0 - t[2] } else { t[2] });
                    wsum += w;
                    for (v, acc) in want.iter_mut().enumerate() {
                        *acc += w * field(b.coords[node], v);
                    }
                }
            }
        }
        assert!(wsum < 1.0 - 1e-6, "hole corner did not reduce the weight sum");
        for v in 0..5 {
            let w = want[v] / wsum;
            assert!((got[v] - w).abs() < 1e-12, "var {v}: {} vs {}", got[v], w);
        }
    }

    /// A deterministically jittered unit lattice: every interior cell is a
    /// general (non-affine) hexahedron.
    fn jittered_block(seed: u64, amp: f64) -> Block {
        let d = Dims::new(4, 4, 4);
        let coords = Field3::from_fn(d, |p| {
            let mut s = seed
                ^ (((p.i as u64) << 42) ^ ((p.j as u64) << 21) ^ p.k as u64)
                    .wrapping_mul(0x9e3779b97f4a7c15);
            let mut draw = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0
            };
            [p.i as f64 + amp * draw(), p.j as f64 + amp * draw(), p.k as f64 + amp * draw()]
        });
        let g = CurvilinearGrid::new("j", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &fc)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lane-batched trilinear Newton inversion is bit-identical to
        /// the scalar one — per lane, on arbitrary hexahedral cells and
        /// targets inside, outside and far from the cell, on every ISA.
        #[test]
        fn batched_trilinear_bit_equals_scalar(
            seed in 1u64..(1 << 60),
            amp in 0.0f64..0.35,
        ) {
            use overset_solver::{select_isa, Isa, W};
            let b = jittered_block(seed, amp);
            let ow = b.owned_local();
            // All anchored cells, plus one target per cell spanning
            // inside/outside/far cases from the same deterministic stream.
            let mut s = seed | 1;
            let mut draw = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut cases: Vec<(Ijk, [f64; 3])> = Vec::new();
            for k in ow.lo.k..ow.hi.k {
                for j in ow.lo.j..ow.hi.j {
                    for i in ow.lo.i..ow.hi.i {
                        // Anchored cells only: the far corner must exist.
                        if i + 1 >= b.local_dims.ni
                            || j + 1 >= b.local_dims.nj
                            || k + 1 >= b.local_dims.nk
                        {
                            continue;
                        }
                        let cell = Ijk::new(i, j, k);
                        let base = b.coords[cell];
                        let t =
                            [base[0] + 3.0 * draw() - 1.0, base[1] + 3.0 * draw() - 1.0, base[2] + 3.0 * draw() - 1.0];
                        cases.push((cell, t));
                    }
                }
            }
            for isa in [Isa::Scalar, select_isa()] {
                for chunk in cases.chunks(W) {
                    let mut corners = [0.0f64; CORNERS * 3 * W];
                    let mut targets = [0.0f64; 3 * W];
                    let mut t_out = [0.0f64; 3 * W];
                    let mut iters = [0u64; W];
                    let mut ok = [false; W];
                    for l in 0..W {
                        // Ragged tail lanes replicate the last real case.
                        let (cell, t) = chunk[l.min(chunk.len() - 1)];
                        gather_lane_problem(&b, l, cell, t, &mut corners, &mut targets);
                    }
                    invert_cells_lanes(isa, b.two_d, &corners, &targets, &mut t_out, &mut iters, &mut ok);
                    for (l, &(cell, t)) in chunk.iter().enumerate() {
                        let scalar = invert_cell(&b, cell, t);
                        prop_assert_eq!(ok[l], scalar.is_some(), "lane {} ok mismatch ({:?})", l, isa);
                        if let Some((st, si)) = scalar {
                            prop_assert_eq!(iters[l], si, "lane {} iters ({:?})", l, isa);
                            for m in 0..3 {
                                prop_assert_eq!(
                                    t_out[m * W + l].to_bits(),
                                    st[m].to_bits(),
                                    "lane {} coord {} ({:?})",
                                    l, m, isa
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every canonical owned-anchored cell of `b` that holds `p`: inverted
    /// to inside the walk's tolerance, the inversion mapping back onto `p`
    /// (an unconverged Newton iterate may sit in the unit cube by accident).
    fn cells_holding(b: &Block, p: [f64; 3]) -> Vec<Ijk> {
        let ow = b.owned_local();
        let d = b.local_dims;
        let khi = if b.two_d { ow.lo.k + 1 } else { ow.hi.k.min(d.nk - 1) };
        let mut held = Vec::new();
        for k in ow.lo.k..khi {
            for j in ow.lo.j..ow.hi.j.min(d.nj - 1) {
                for i in ow.lo.i..ow.hi.i.min(d.ni - 1) {
                    let cell = Ijk::new(i, j, k);
                    if canonical_cell(b, cell) != cell {
                        continue;
                    }
                    let Some((t, _)) = invert_cell(b, cell, p) else { continue };
                    let (x, dx) = cell_map(b, cell, t);
                    let size = dx.iter().flatten().fold(0.0f64, |m, v| m.max(v.abs()));
                    if inside(t) && (0..3).all(|m| (x[m] - p[m]).abs() <= 1e-6 * size) {
                        held.push(cell);
                    }
                }
            }
        }
        held
    }

    /// A xorshift stream of draws in [0, 1) and below `n`.
    struct Draw(u64);

    impl Draw {
        fn unit(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            ((self.unit() * n as f64) as usize).min(n - 1)
        }
    }

    /// The blocks the completeness property is drawn over: a jittered 3-D
    /// lattice of non-affine cells, a 2-D annulus wrapping onto itself, a
    /// 2-D Cartesian plane, a shell of revolution of the store (3-D,
    /// self-wrapping, polar caps) and its half — a periodic seam with halos
    /// where the other half begins.
    fn completeness_block(kind: usize, seed: u64) -> Block {
        use overset_grid::gen::store;
        use overset_grid::index::IndexBox;
        match kind % 5 {
            0 => jittered_block(seed | 1, 0.3),
            1 => annulus_block(33, 7),
            2 => {
                let d = Dims::new(9, 8, 1);
                let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.3, p.j as f64 * 0.2, 0.0]);
                let g = CurvilinearGrid::new("p", coords, GridKind::Background);
                Block::from_grid(
                    0,
                    &g,
                    d.full_box(),
                    [None; 6],
                    &FlowConditions::new(0.8, 0.0, 0.0),
                )
            }
            kind => {
                let shell = &store::store_system(0.15)[1];
                assert!(shell.periodic_i && !shell.dims().is_two_d());
                let d = shell.dims();
                let (owned, nbrs) = if kind == 3 {
                    (d.full_box(), [None; 6])
                } else {
                    let half = IndexBox::new(Ijk::new(0, 0, 0), Ijk::new(d.ni / 2, d.nj, d.nk));
                    (half, [Some(1), Some(1), None, None, None, None])
                };
                Block::from_grid(1, shell, owned, nbrs, &FlowConditions::new(0.8, 0.0, 0.0))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The one property all pruning by candidates rests on: whatever
        /// cell of a block holds a point — inside, on a face, a hair outside
        /// it, in a polar sliver, across the seam — is listed for the
        /// point's bin, carries the point's sub-bin in its mask and passes
        /// the box test, at the build pose and after the map has followed
        /// the block through small rigid motions. So the cells a proof
        /// inverts are all the cells there are. And the masks prune only box
        /// tests that fail: a listed cell whose box admits the point passes
        /// the sub-bin selector too, so the cells inverted do not change.
        #[test]
        fn candidate_lists_hold_every_containing_cell(
            kind in 0usize..5,
            moves in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            use overset_grid::RigidTransform;
            let mut b = completeness_block(kind, seed);
            let mut map = InverseMap::build(&b);
            let mut draw = Draw(seed | 1);
            for _ in 0..moves {
                let mut v = || 2.0 * draw.unit() - 1.0;
                let axis = if b.two_d { [0.0, 0.0, 1.0] } else { [v(), v(), v()] };
                let pivot = map.world_bounds().center();
                let t = RigidTransform::rotation_about(pivot, axis, f64::to_radians(0.8 * v()))
                    .then(&RigidTransform::translation([0.05 * v(), 0.05 * v(), 0.0]));
                if !map.advance(&t) {
                    break;
                }
                b.apply_motion(&t, 0.01);
            }
            let ow = b.owned_local();
            let d = b.local_dims;
            let cells = |lo: usize, hi: usize, n: usize| hi.min(n - 1) - lo;
            let (ci, cj) = (cells(ow.lo.i, ow.hi.i, d.ni), cells(ow.lo.j, ow.hi.j, d.nj));
            let ck = if b.two_d { 1 } else { cells(ow.lo.k, ow.hi.k, d.nk) };
            let mut held_total = 0usize;
            for n in 0..12 {
                let mut cell = Ijk::new(
                    ow.lo.i + draw.below(ci),
                    ow.lo.j + draw.below(cj),
                    ow.lo.k + draw.below(ck),
                );
                if n % 3 == 1 {
                    // The polar-cap rings and the seam column.
                    cell.k = ow.lo.k + [0, ck - 1][draw.below(2)];
                    cell.i = ow.lo.i + [0, ci - 1, draw.below(ci)][draw.below(3)];
                }
                let mut t = || match draw.below(5) {
                    0 => 0.0,
                    1 => 1.0,
                    2 => -1e-10 + draw.unit() * 2e-10,
                    _ => -0.05 + 1.1 * draw.unit(),
                };
                let t = [t(), t(), if b.two_d { 0.0 } else { t() }];
                let (p, _) = cell_map(&b, cell, t);
                let (listed, sub_bin) = (map.listed(p).0, map.sub_bin_of(p));
                for held in cells_holding(&b, p) {
                    held_total += 1;
                    let flat = d.offset(held) as u32;
                    let entry = listed.iter().find(|&&e| e & ENTRY_CELL == flat);
                    prop_assert!(
                        entry.is_some(),
                        "kind {}: cell {:?} holds {:?} and is not among the {} listed",
                        kind, held, p, listed.len()
                    );
                    prop_assert!(
                        entry.unwrap() & sub_bin != 0,
                        "kind {}: cell {:?} holds {:?} and its mask {:#04x} misses sub-bin {:#04x}",
                        kind, held, p, entry.unwrap() >> 24, sub_bin >> 24
                    );
                    prop_assert!(
                        map.cell_box_admits(&b, flat, p),
                        "kind {}: the box of cell {:?} rejects {:?}, which it holds",
                        kind, held, p
                    );
                }
            }
            prop_assert!(held_total > 0, "kind {}: no sampled point in any cell", kind);
            // Points at a corner of a cell's current box, a hair out: where
            // the box of a turned cell reaches furthest past the box it had
            // in the lattice frame, which its mask was made from.
            for _ in 0..64 {
                let cell =
                    Ijk::new(ow.lo.i + draw.below(ci), ow.lo.j + draw.below(cj), ow.lo.k + draw.below(ck));
                let mut bb = overset_grid::Aabb::EMPTY;
                for c in 0..8 {
                    let t = [c & 1, c >> 1 & 1, if b.two_d { 0 } else { c >> 2 }];
                    bb.include(cell_map(&b, cell, t.map(|t| t as f64)).0);
                }
                let e = bb.extent();
                let hair = e[0].max(e[1]).max(e[2]) / 300.0;
                let p: [f64; 3] = std::array::from_fn(|m| {
                    let corner = [bb.min[m] - hair, bb.max[m] + hair][draw.below(2)];
                    if b.two_d && m == 2 { 0.0 } else { corner }
                });
                let (listed, selector) = map.listed(p);
                for &e in listed.iter().filter(|&&e| map.cell_box_admits(&b, e, p)) {
                    prop_assert!(
                        e & selector != 0,
                        "kind {}, {} moves: the box of cell {:?} admits {:?}, its mask {:#04x} \
                         not the sub-bin {:#04x}",
                        kind, moves, map.cell_at(e), p, e >> 24, selector >> 24
                    );
                }
            }
        }
    }

    /// A point in the hollow of an O-grid a hair inside the wall: the fine
    /// mask admits it (its bin reaches wall cells), the seeded walk is pinned
    /// at the wall, and the wall cells listed for its bin, inverted, all put
    /// it outside — a final `Miss`, without the chain's centre walk, greedy
    /// descent and restarts.
    #[test]
    fn a_miss_beside_the_wall_is_proven_without_the_chain() {
        let b = annulus_block(65, 9);
        let map = InverseMap::build(&b);
        let th = -(33.3f64.to_radians());
        let p = [0.9995 * th.cos(), 0.9995 * th.sin(), 0.0];
        assert!(map.admits(p), "the mask already rejects the point");
        assert!(cells_holding(&b, p).is_empty());
        let mut first = SearchCost::default();
        let walked = newton_walk(&b, p, map.query(p), &mut first, false, Isa::Scalar);
        assert_eq!(walked, SearchOutcome::WalkedOut);

        let mut cost = SearchCost::default();
        let out = walk_search_isa(&b, p, map.query(p), &mut cost, false, Isa::Scalar, Some(&map));
        assert_eq!(out, SearchOutcome::WalkedOut);
        assert_eq!((cost.walk_steps, cost.fallbacks), (first.walk_steps, 0), "{cost:?}");
        assert!(cost.listed > 0 && cost.candidates > 0, "nothing to invert: {cost:?}");
        // What the chain spent on the same verdict.
        let mut chain = SearchCost::default();
        let out = walk_search_isa(&b, p, map.query(p), &mut chain, false, Isa::Scalar, None);
        assert!(!matches!(out, SearchOutcome::Found(_)));
        assert!(chain.walk_steps > 4 * cost.walk_steps + cost.candidates, "{chain:?} vs {cost:?}");
    }

    #[test]
    fn batch_walk_matches_sequential_scalar() {
        use overset_solver::{select_isa, Isa};
        let b = cart_block(17, 0.25);
        let ow = b.owned_local();
        // A mixed bag: interior targets from varied starts, center starts
        // (routed to the canonical search), and points outside the domain.
        let mut queries = Vec::new();
        for q in 0..23usize {
            let x = 0.11 + (q as f64 * 0.531) % 3.8;
            let y = 0.07 + (q as f64 * 0.713) % 3.8;
            let z = 0.13 + (q as f64 * 0.377) % 3.8;
            let start = if q % 5 == 0 {
                center_start(&b)
            } else {
                clamp_cell(
                    &b,
                    Ijk::new(ow.lo.i + q % 15, ow.lo.j + (3 * q) % 15, ow.lo.k + (7 * q) % 15),
                )
            };
            queries.push(BatchQuery { xyz: [x, y, z], start, relaxed: false });
        }
        queries.push(BatchQuery { xyz: [9.0, -3.0, 1.0], start: center_start(&b), relaxed: false });
        queries.push(BatchQuery {
            xyz: [-1.0, 2.0, 2.0],
            start: clamp_cell(&b, ow.lo),
            relaxed: false,
        });
        let (mut outs, mut costs) = (Vec::new(), Vec::new());
        let map = InverseMap::build(&b);
        for (isa, inv) in [
            (Isa::Scalar, None),
            (select_isa(), None),
            (Isa::Scalar, Some(&map)),
            (select_isa(), Some(&map)),
        ] {
            walk_search_batch(&b, inv, &queries, isa, &mut outs, &mut costs);
            assert_eq!(outs.len(), queries.len());
            for (q, (o, c)) in queries.iter().zip(outs.iter().zip(costs.iter())) {
                let mut sc = SearchCost::default();
                let so = walk_search_isa(&b, q.xyz, q.start, &mut sc, q.relaxed, Isa::Scalar, inv);
                let what = format!("at {:?} ({isa:?}, map {})", q.xyz, inv.is_some());
                assert_eq!(*o, so, "outcome diverged {what}");
                assert_eq!(*c, sc, "cost diverged {what}");
                // The points outside the block are proven out, not chased.
                if inv.is_some() && !matches!(o, SearchOutcome::Found(_)) {
                    assert_eq!((c.fallbacks, c.candidates), (0, 0), "{what}: {c:?}");
                }
            }
        }
    }

    #[test]
    fn two_d_block_search_stays_in_plane() {
        let d = Dims::new(11, 11, 1);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.3, p.j as f64 * 0.3, 0.0]);
        let g = CurvilinearGrid::new("p", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = Block::from_grid(0, &g, d.full_box(), [None; 6], &fc);
        let mut cost = SearchCost::default();
        match walk_search(&b, [1.0, 2.0, 0.0], center_start(&b), &mut cost) {
            SearchOutcome::Found(dn) => {
                assert_eq!(dn.cell.k, 0);
                assert_eq!(dn.loc[2], 0.0);
                let gcell = b.to_global(dn.cell);
                assert_eq!(gcell, Ijk::new(3, 6, 0));
                assert!((dn.loc[0] - 1.0 / 3.0).abs() < 1e-9);
            }
            o => panic!("got {o:?}"),
        }
    }
}
