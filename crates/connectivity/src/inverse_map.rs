//! Inverse-map acceleration structures: DCF3D's auxiliary Cartesian maps.
//!
//! DCF3D seeds its stencil-walk donor searches from auxiliary Cartesian
//! "inverse maps" instead of cold-starting every walk from the middle of the
//! grid. This module reproduces that layer for one block:
//!
//! * a **seed lattice** — a uniform Cartesian bin grid over the block's
//!   owned bounding box mapping each bin to a nearby owned cell, so a cold
//!   donor search starts O(1) cells from the target instead of half a block
//!   away ([`InverseMap::query`] replaces `center_start`),
//! * a coarse **occupancy bitmask** ([`OCC_NB`]³ bins packed into
//!   `[u64; 8]`) broadcast with the bounding boxes, so request routing can
//!   prune ranks whose *box* contains a point but whose *cells* cannot
//!   (curved grids — an O-grid annulus most of whose bounding box is empty
//!   interior — generate exactly these false positives),
//! * a **fine occupancy bitset** over the same box (up to 48³ bits, 14 KB),
//!   kept by the rank itself: [`InverseMap::admits`] settles *whether* a
//!   cell of the block can hold a point before a walk asks *where*, so a
//!   point the box admits but the cells do not costs a lattice lookup, not
//!   a failed walk through the whole canonical chain,
//! * per-bin **cell lists** on the seed lattice (CSR, `u32`): every
//!   owned-anchored cell whose box — inflated like the fine mask's — reaches
//!   the bin, so [`InverseMap::listed`] names every cell that can hold a
//!   point and a failed or ambiguous walk is settled by inverting that
//!   handful instead of re-walking the block (see `donor.rs`); each entry
//!   carries in its high byte the 2×2×2 sub-bins of its bin that the cell
//!   reaches, so a proof box-tests only the cells of the point's sub-bin,
//! * per-solid **inside/outside/boundary ternary masks** over a hole
//!   lattice, so hole cutting runs the detailed containment test only for
//!   nodes in *boundary* bins (see [`classify_solids_into`]).
//!
//! The structure is built on the cold step, after every repartition, and
//! for a moved grid whose accumulated rotation has outgrown
//! [`INCR_MAX_DIAG_GROWTH`]; small rigid motion only advances the map's pose
//! ([`InverseMap::advance`]) and static grids reuse it untouched. Builds and
//! advances are charged to the virtual-time model like any other compute, so
//! the acceleration is visible — and honest — in the paper's virtual timings.
//!
//! The build is three passes, O(cells + bins + list entries) together
//! (DESIGN.md §8 has the arguments and the costs):
//!
//! * **sweep** (`sweep_cells`): the owned cells in storage order, up to
//!   `CHUNK` at a time, their boxes and the divisions that scale them to
//!   the lattices axis-major so that they run in vector lanes. A cell's box
//!   is the union of its two `i` columns' boxes, each shared with its `i`
//!   neighbour; a bin is floored without a conversion instruction
//!   (`clamp_bin`); an axis flat across a chunk (the `k` of a 2-D block) is
//!   binned for two probe cells. Then cell by cell: the first cell whose
//!   midpoint lands in a bin seeds it, a coarse range is marked unless it is
//!   the one marked last, a fine range joins the `i` run of its neighbours
//!   or starts the next (`FineMask`), and a listed cell's box of bins is
//!   counted into a difference lattice (`ListCounts`) and kept in one word;
//! * **lists**: prefix sums turn the counts into the CSR starts, and a pass
//!   over the kept words, with no geometry, stores the entries
//!   (`store_listed`);
//! * **fill** (`fill_empty`): every empty bin takes the seed of its nearest
//!   seeded bin, the layers of a breadth-first search found on bitsets and
//!   each reached bin pulling its label from the layer before.
//!
//! Every shortcut gives the map the previous build gave, field for field:
//! min and max are exact in any order, OR is idempotent, a floor is a
//! floor, binning is monotone, and the fill's tie rule is the same. The
//! previous build is kept as the oracle of the tests (`tests::bin_cells`,
//! `tests::build_reference`).
//!
//! Every pruning decision is *conservative*: occupancy bins are marked from
//! cell bounding boxes inflated past the walk's acceptance slack (the
//! trilinear image of a cell lies inside the box of its corners), and solid
//! masks only claim Inside/Outside when convexity proves it, so connectivity
//! results (donors, weights, blanking, orphans) are bit-identical with or
//! without a map; the map-vs-none tests of `serial` and `protocol` assert
//! this.

use crate::protocol::owned_bbox;
use overset_grid::curvilinear::Solid;
use overset_grid::index::{Dims, Ijk};
use overset_grid::{Aabb, RigidTransform};
use overset_solver::Block;
use std::ops::Range;

/// Flops to bin one owned cell during the build (midpoint, bin index,
/// occupancy update).
pub const FLOPS_PER_CELL_BUILD: u64 = 12;
/// Flops to fill one empty bin from its nearest seeded neighbor.
pub const FLOPS_PER_BIN_FILL: u64 = 4;
/// Flops to enter one cell into one bin's candidate list (count, then store).
pub const FLOPS_PER_LIST_ENTRY: u64 = 2;
/// Flops to test one listed cell's corner box against a point (8 corners'
/// min / max, the inflation, 6 compares) before it is worth an inversion.
pub const FLOPS_PER_CANDIDATE_BOX: u64 = 50;
/// Flops per seed query (three scaled subtractions + clamps).
pub const FLOPS_PER_QUERY: u64 = 10;
/// Flops for the bounding-box rejection of one (solid, hole-lattice bin).
pub const FLOPS_PER_BIN_BBOX: u64 = 6;
/// Flops per convexity-based containment probe of a hole-lattice bin corner
/// (same primitive as the hole cutter's detailed per-node test).
pub const FLOPS_PER_SOLID_PROBE: u64 = 25;
/// Flops per seed query through a non-identity pose (inverse rigid
/// transform — quaternion rotate — on top of the lattice binning).
pub const FLOPS_PER_POSED_QUERY: u64 = 40;
/// Flops for one incremental pose advance: transform composition, inverse,
/// and the 8-corner world-bounds check. Charged instead of a full rebuild.
pub const FLOPS_PER_INCR_UPDATE: u64 = 200;
/// An incremental advance is rejected (forcing a full rebuild) when the
/// world-frame enclosing box of the rotated lattice grows past this factor
/// of the lattice diagonal. Pure translations never grow the box; the
/// factor corresponds to roughly 3 degrees of accumulated rotation.
pub const INCR_MAX_DIAG_GROWTH: f64 = 1.05;

/// Fine-lattice resolution cap per axis (bins, not nodes).
const MAX_FINE_BINS: usize = 48;
/// Hole-lattice resolution cap per axis. Deliberately coarse: the win is
/// skipping per-node detailed tests for whole bins, so bins must hold many
/// nodes for classification to pay for itself.
const MAX_HOLE_BINS: usize = 8;
// A hole-lattice axis's slabs fit one `u32` mask (`InverseMap::hole_slabs`).
const _: () = assert!(MAX_HOLE_BINS <= 32);
/// Coarse occupancy resolution per axis: [`OCC_NB`]³ = 512 bins = `[u64; 8]`.
pub const OCC_NB: usize = 8;
/// Bit budget of the fine occupancy mask, 2-D and 3-D alike (13.5 KB).
const MASK_MAX_BITS: usize = MAX_FINE_BINS * MAX_FINE_BINS * MAX_FINE_BINS;
/// ... and at most this many mask bins per owned cell and active axis: finer
/// bins than that resolve nothing, and a 500-cell subdomain block should not
/// carry a 14 KB mask.
const MASK_BINS_PER_CELL_AXIS: usize = 4;
/// The fine mask marks each cell's bounding box inflated by this fraction of
/// its largest extent. A donor is accepted at trilinear coordinates within
/// 10⁻⁹ of the unit cube once Newton has converged to 10⁻⁸, which puts the
/// point within ~10⁻⁸ extents of the box; the pad leaves five orders of
/// margin and still lets the mask follow a curved boundary (the coarse
/// routing mask keeps its blanket 1/8).
const MASK_PAD: f64 = 1.0 / 256.0;
/// The sub-bin masks of the cell lists mark each cell's box inflated further
/// than the lists' own box: by this fraction of its longest extent and one
/// more global epsilon. That covers the box a cell has at its *current*
/// geometry — which `InverseMap::cell_box_admits` tests — as long as the
/// map's pose has turned the block by at most [`SUB_MAX_TURN`], so the masks
/// drop only cells the box test would drop (DESIGN.md §8 has the bound).
const SUB_PAD: f64 = 1.0 / 32.0;
/// `‖R − I‖ = 2 sin(θ/2)` of the pose's rotation up to which the sub-bin
/// masks are consulted (θ ≈ 0.9°); past it every listed cell is box-tested.
const SUB_MAX_TURN: f64 = SUB_PAD / 2.0;
/// The low 24 bits of a cell-list entry: the flat offset of the cell's
/// anchor node in the block's local storage. The high byte is the entry's
/// sub-bin mask: bit `h_i + 2 h_j + 4 h_k` for the half `h_d` of the bin
/// along each axis.
pub(crate) const ENTRY_CELL: u32 = (1 << 24) - 1;

/// Occupancy bitmask words per rank ([`OCC_NB`]³ bins / 64 bits).
pub const OCC_WORDS: usize = OCC_NB * OCC_NB * OCC_NB / 64;

/// Ternary classification of one hole-lattice bin against one solid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinClass {
    /// No point of the bin can be inside the solid's padded bounding box:
    /// the detailed containment test is skipped entirely (same skip the
    /// unmasked cutter's per-node bbox pre-check would take).
    Outside,
    /// Every point of the bin is inside the solid at zero pad (convexity of
    /// the bin corners); any non-negative per-node pad can only blank more.
    Inside,
    /// Neither bound holds: run the full per-node test.
    Boundary,
}

/// Per-block inverse map: seed lattice with its cell lists + coarse and fine
/// occupancy + hole lattice.
#[derive(Clone, Debug)]
pub struct InverseMap {
    /// Physical bounds of every lattice: the block's owned bbox plus one
    /// halo layer (identical to the broadcast routing box, so occupancy
    /// bins computed by *other* ranks from the broadcast box line up with
    /// the bins marked here).
    bounds: Aabb,
    /// Fine-lattice bins per axis (≥ 1; 1 in k for 2-D blocks).
    nb: [usize; 3],
    /// The block's local storage dimensions: cells are kept as the flat
    /// offset of their anchor node in it (`u32`, a sixth of an [`Ijk`]).
    dims: Dims,
    /// Seed cell per fine bin, bin-major (i fastest).
    seeds: Vec<u32>,
    /// Candidate cells per fine bin, CSR: bin `b` lists
    /// `list_cells[list_start[b]..list_start[b + 1]]`, in ascending cell
    /// order — every owned-anchored cell whose corner box, inflated by
    /// [`MASK_PAD`] like the fine mask's, overlaps the bin. On a block that
    /// wraps onto itself in `i` the duplicate seam column is left out: its
    /// cells are bit-exact copies of the first column's. An entry is the
    /// cell ([`ENTRY_CELL`]) under the mask of the bin's 2×2×2 sub-bins that
    /// the cell's box, inflated by [`SUB_PAD`] more, reaches.
    list_start: Vec<u32>,
    list_cells: Vec<u32>,
    /// The global part of the boxes' inflation (`1e-9` of the lattice
    /// diagonal), kept for [`InverseMap::cell_box_admits`].
    diag_eps: f64,
    /// The pose has turned the block by at most [`SUB_MAX_TURN`] since the
    /// build: [`InverseMap::listed`] may prune by the sub-bin masks.
    sub_bins: bool,
    /// Coarse occupancy: bit set ⇔ some owned-anchored cell's (inflated)
    /// bounding box overlaps the bin.
    occupancy: [u64; OCC_WORDS],
    /// Fine occupancy lattice: bins per axis, and one bit per bin (bin-major
    /// like `seeds`), set ⇔ some owned-anchored cell's box, inflated by
    /// [`MASK_PAD`], overlaps the bin.
    mask_nb: [usize; 3],
    mask: Vec<u64>,
    /// Hole-lattice bins per axis for [`classify_solids_into`].
    hole_nb: [usize; 3],
    /// Flops spent building (the caller charges them to virtual time).
    build_flops: u64,
    /// Cumulative rigid motion of the block since this map was built
    /// (lattice frame → current world frame). Identity right after a
    /// build; composed by [`InverseMap::advance`] on incremental updates.
    pose: RigidTransform,
    /// Precomputed inverse of `pose` (world frame → lattice frame), applied
    /// to every query point before binning.
    inv_pose: RigidTransform,
}

/// Bin index of `x` on a `nb`-bin axis spanning `[lo, hi]`, clamped into
/// range (queries slightly outside the box land in an edge bin).
#[inline]
fn axis_bin(x: f64, lo: f64, hi: f64, nb: usize) -> usize {
    if hi <= lo {
        return 0;
    }
    unit_bin((x - lo) / (hi - lo), nb)
}

/// [`axis_bin`] of a coordinate already scaled to the axis: `u` is
/// `(x - lo) / (hi - lo)`, which every lattice over the same bounds shares.
#[inline]
fn unit_bin(u: f64, nb: usize) -> usize {
    if nb <= 1 {
        return 0;
    }
    // The cast truncates, which is `floor` from zero up, and saturates; what
    // lies below zero (or is NaN) clamps to bin 0 first. No libm call.
    ((u * nb as f64).max(0.0) as usize).min(nb - 1)
}

/// Hard per-axis bin ceiling of the adaptive allocation: a memory backstop
/// for pathological aspect ratios, far above anything the paper-scale cases
/// reach.
const MAX_AXIS_BINS: usize = 512;

/// Aspect-adaptive fine-lattice resolution: distribute the flat-cap bin
/// budget ([`MAX_FINE_BINS`] per active axis, i.e. 48³ in 3-D / 48² in 2-D)
/// across the axes in proportion to the block's physical extent — equal
/// bin *edge length* on every axis — then clamp each axis independently to
/// `[1, cells_d]` (and the [`MAX_AXIS_BINS`] backstop). A physically
/// stretched block (long chordwise, thin wall-normal) concentrates its bins
/// where its cells are; an isotropic block, or a curvilinear ring whose
/// bounding box is square, reproduces the old flat cap exactly. Clamped
/// axes do *not* hand their unused share to the others: the lattice is
/// Cartesian in physical space, so an index-space cell count says nothing
/// about how much physical resolution the remaining axes can use.
/// Deterministic: a pure function of extents and cell counts.
fn fine_bins(ext: [f64; 3], cells: [usize; 3], two_d: bool) -> [usize; 3] {
    let naxes = if two_d { 2 } else { 3 };
    equal_edge_bins(ext, (MAX_FINE_BINS as f64).powi(naxes), cells, two_d)
}

/// `budget` bins spread over the active axes in proportion to `ext` (equal
/// bin edge length), each axis rounded and clamped to `[1, cap_d]` and the
/// [`MAX_AXIS_BINS`] backstop.
fn equal_edge_bins(ext: [f64; 3], budget: f64, cap: [usize; 3], two_d: bool) -> [usize; 3] {
    let naxes: usize = if two_d { 2 } else { 3 };
    let prod: f64 = ext.iter().take(naxes).map(|e| e.max(1e-300)).product();
    // nb_d = ext_d · s with s chosen so the active axes' product fills the
    // budget (before clamping).
    let s = (budget / prod).powf(1.0 / naxes as f64);
    let mut nb = [1usize; 3];
    for d in 0..naxes {
        let want = (ext[d].max(1e-300) * s).round().clamp(1.0, MAX_AXIS_BINS as f64) as usize;
        nb[d] = want.clamp(1, cap[d]);
    }
    nb
}

/// Resolution of the fine occupancy mask: equal-edge bins like the seed
/// lattice, but sized by what a bit costs, not by what a seed costs — up to
/// [`MASK_MAX_BITS`] in all, [`MASK_BINS_PER_CELL_AXIS`] per cell and axis on
/// average, and *not* clamped to the per-axis cell counts (on a curvilinear
/// grid an index direction is no Cartesian axis, and the clamp leaves an
/// O-grid's hollow a handful of bins wide).
fn mask_bins(ext: [f64; 3], cells: [usize; 3], two_d: bool) -> [usize; 3] {
    let naxes = if two_d { 2 } else { 3 };
    let per_cell = MASK_BINS_PER_CELL_AXIS.pow(naxes);
    let budget = (cells[0] * cells[1] * cells[2] * per_cell).min(MASK_MAX_BITS);
    let mut nb = equal_edge_bins(ext, budget as f64, [MAX_AXIS_BINS; 3], two_d);
    // Rounding up can overshoot the budget by a few percent: hold the bound.
    while nb[0] * nb[1] * nb[2] > budget {
        let widest = (0..3).max_by_key(|&d| nb[d]).unwrap();
        nb[widest] -= 1;
    }
    nb
}

/// Owned cells per index direction (≥ 1; 1 in k for 2-D blocks).
fn owned_cells(block: &Block) -> [usize; 3] {
    let ow = block.owned_local();
    let cells_k = if block.two_d { 1 } else { (ow.hi.k - ow.lo.k).max(1) };
    [(ow.hi.i - ow.lo.i).max(1), (ow.hi.j - ow.lo.j).max(1), cells_k]
}

/// The box of the corner nodes (4 in 2-D, 8 in 3-D) of the cell whose
/// anchor node sits at offset `flat` of the block's local storage, and the
/// box's longest edge.
#[inline]
fn cell_box(block: &Block, flat: usize) -> (Aabb, f64) {
    let coords = block.coords.as_slice();
    let (si, sj) = (1, block.local_dims.ni);
    let sk = sj * block.local_dims.nj;
    let corners = [0, si, sj, si + sj, sk, sk + si, sk + sj, sk + si + sj];
    let mut cb = Aabb::EMPTY;
    for corner in &corners[..if block.two_d { 4 } else { 8 }] {
        cb.include(coords[flat + corner]);
    }
    let e = cb.extent();
    (cb, e[0].max(e[1]).max(e[2]))
}

impl InverseMap {
    /// Build the map for a block's current geometry. Deterministic: the
    /// same block produces bit-identical seeds and occupancy.
    pub fn build(block: &Block) -> InverseMap {
        let bounds = owned_bbox(block);
        let nb = fine_bins(bounds.extent(), owned_cells(block), block.two_d);
        Self::build_with_bins(block, bounds, nb)
    }

    /// Build over `bounds` (the block's [`owned_bbox`]) with an explicit
    /// fine-lattice resolution (tests compare the adaptive allocation
    /// against the old flat cap through this).
    fn build_with_bins(block: &Block, bounds: Aabb, nb: [usize; 3]) -> InverseMap {
        let mut swept = sweep_cells(block, &bounds, nb);
        // Fill empty bins from their nearest seeded bin. Bins far from any
        // cell — the hollow middle of an annulus — still answer with the
        // closest real cell, which is exactly the right walk start.
        let (filled, _visits) = fill_empty(nb, &mut swept.seeds);
        swept.flops += FLOPS_PER_BIN_FILL * filled;
        Self::from_seeds(block, bounds, nb, swept)
    }

    /// Last build pass: the swept and filled lattices become the map.
    fn from_seeds(block: &Block, bounds: Aabb, nb: [usize; 3], swept: Swept) -> InverseMap {
        let Swept { mut seeds, list_start, list_cells, diag_eps, occupancy, mask_nb, mask, flops } =
            swept;
        // A block with no owned cells (degenerate slivers) still gets a
        // valid map: every query answers the owned-region corner.
        let dims = block.local_dims;
        let fallback = dims.offset(block.owned_local().lo) as u32;
        for seed in seeds.iter_mut().filter(|s| **s == NO_SEED) {
            *seed = fallback;
        }
        InverseMap {
            bounds,
            nb,
            dims,
            seeds,
            list_start,
            list_cells,
            diag_eps,
            sub_bins: true,
            occupancy,
            mask_nb,
            mask,
            hole_nb: [nb[0].min(MAX_HOLE_BINS), nb[1].min(MAX_HOLE_BINS), nb[2].min(MAX_HOLE_BINS)],
            build_flops: flops,
            pose: RigidTransform::IDENTITY,
            inv_pose: RigidTransform::IDENTITY,
        }
    }

    /// Try to track a rigid motion of the block *without* rebuilding: the
    /// lattice keeps its build-time geometry and accumulates the motion as
    /// a pose; queries map world points back into the lattice frame through
    /// the inverse pose. The rigidly-moved cells sit exactly where the
    /// lattice (viewed through the pose) says they are, so seed answers
    /// stay as sharp as on the build step.
    ///
    /// Returns `false` — leaving the map untouched — when the accumulated
    /// rotation would inflate the world-frame enclosing box past
    /// [`INCR_MAX_DIAG_GROWTH`]; the caller must then rebuild from scratch.
    /// On success the caller charges [`FLOPS_PER_INCR_UPDATE`] to virtual
    /// time instead of a full build.
    pub fn advance(&mut self, t: &RigidTransform) -> bool {
        let pose = if self.pose.is_identity() { *t } else { self.pose.then(t) };
        let world = posed_bounds(&self.bounds, &pose);
        if world.diagonal() > self.bounds.diagonal().max(1e-300) * INCR_MAX_DIAG_GROWTH {
            return false;
        }
        self.inv_pose = pose.inverse();
        self.pose = pose;
        let q = pose.rotation;
        let (v2, w2) = (q.x * q.x + q.y * q.y + q.z * q.z, q.w * q.w);
        self.sub_bins = 2.0 * (v2 / (v2 + w2)).sqrt() <= SUB_MAX_TURN;
        true
    }

    /// Is the map posed at its build-time geometry (no accumulated motion)?
    pub fn pose_is_identity(&self) -> bool {
        self.pose.is_identity()
    }

    /// The accumulated pose (lattice frame → world frame).
    pub fn pose(&self) -> &RigidTransform {
        &self.pose
    }

    /// The inverse pose (world frame → lattice frame), as broadcast to
    /// other ranks for posed occupancy binning.
    pub fn inv_pose(&self) -> &RigidTransform {
        &self.inv_pose
    }

    /// World-frame routing box: the lattice bounds carried through the
    /// pose. Bit-identical to [`InverseMap::bounds`] while the pose is the
    /// identity; a conservative enclosing box of the rotated lattice
    /// otherwise.
    pub fn world_bounds(&self) -> Aabb {
        if self.pose.is_identity() {
            self.bounds
        } else {
            posed_bounds(&self.bounds, &self.pose)
        }
    }

    /// Flops one lattice lookup — a seed [`query`](Self::query) or an
    /// [`admits`](Self::admits) test — costs at the current pose (posed
    /// lookups pay for the inverse transform). Deterministic — a pure
    /// function of the map's state, never of the host.
    pub fn query_flops(&self) -> u64 {
        if self.pose.is_identity() {
            FLOPS_PER_QUERY
        } else {
            FLOPS_PER_POSED_QUERY
        }
    }

    /// Physical bounds of the lattices (the broadcast routing box).
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Flops spent by [`InverseMap::build`]; charge them to virtual time.
    pub fn build_flops(&self) -> u64 {
        self.build_flops
    }

    /// Coarse occupancy words, ready for the topology allgather.
    pub fn occupancy(&self) -> [u64; OCC_WORDS] {
        self.occupancy
    }

    /// O(1) walk seed for a target point: the seed cell of the fine bin
    /// holding `p` (points outside the bounds clamp into an edge bin).
    /// Under a non-identity pose the point is first mapped back into the
    /// lattice frame; the identity path is byte-for-byte the legacy one.
    pub fn query(&self, p: [f64; 3]) -> Ijk {
        self.dims
            .unoffset(self.seeds[bin_index(&self.bounds, self.nb, self.to_lattice(p))] as usize)
    }

    /// Every cell listed for the fine bin holding `p` (binned like
    /// [`query`](Self::query)), in ascending storage order, each entry the
    /// flat offset of its anchor node under its sub-bin mask
    /// ([`cell_at`](Self::cell_at) names it); and the selector of `p`'s
    /// sub-bin. Complete: an owned-anchored cell of the block that contains
    /// `p` to within the walk's tolerance is in the list, or is the seam
    /// duplicate of one that is — so a cell that is not listed need never be
    /// inverted for `p`. And an entry with `entry & selector == 0` is a cell
    /// whose box [`cell_box_admits`](Self::cell_box_admits) rejects `p`: its
    /// box test may be skipped. (Once the pose has turned the block by more
    /// than a degree or so the selector passes every entry.)
    pub fn listed(&self, p: [f64; 3]) -> (&[u32], u32) {
        let (b, sub) = self.locate(self.to_lattice(p));
        let selector = if self.sub_bins { sub << 24 } else { !ENTRY_CELL };
        (&self.list_cells[self.list_start[b] as usize..self.list_start[b + 1] as usize], selector)
    }

    /// The seed-lattice bin of a lattice-frame point (as [`bin_index`] bins
    /// it) and the bit of its sub-bin: the bin's halves along each axis are
    /// the bins of the lattice of twice the resolution, a point's half
    /// `unit_bin(u, 2 nb) − 2 unit_bin(u, nb)` — 0 or 1, because doubling
    /// `u · nb` is exact and the floor and the clamps respect it.
    fn locate(&self, q: [f64; 3]) -> (usize, u32) {
        let (mut b, mut half) = (0, 0);
        for d in (0..3).rev() {
            let (lo, hi, nb) = (self.bounds.min[d], self.bounds.max[d], self.nb[d]);
            let u = if hi <= lo { 0.0 } else { (q[d] - lo) / (hi - lo) };
            let bd = unit_bin(u, nb);
            let hd = unit_bin(u, 2 * nb) - 2 * bd;
            debug_assert!(hd <= 1);
            b = b * nb + bd;
            half |= hd << d;
        }
        (b, 1 << half)
    }

    /// The sub-bin selector of `p` whether or not the masks are consulted.
    #[cfg(test)]
    pub(crate) fn sub_bin_of(&self, p: [f64; 3]) -> u32 {
        self.locate(self.to_lattice(p)).1 << 24
    }

    /// The cell a list entry stands for.
    pub fn cell_at(&self, entry: u32) -> Ijk {
        self.dims.unoffset((entry & ENTRY_CELL) as usize)
    }

    /// Can the listed cell `entry` of `block` — the block at its *current*
    /// geometry — hold `p`? `false` only when `p` lies outside the box of
    /// the cell's corners inflated as the lists' and the fine mask's boxes
    /// were: a listed cell that fails this is not worth an inversion
    /// ([`FLOPS_PER_CANDIDATE_BOX`] instead of a Newton solve).
    pub fn cell_box_admits(&self, block: &Block, entry: u32, p: [f64; 3]) -> bool {
        let (cb, longest) = cell_box(block, (entry & ENTRY_CELL) as usize);
        cb.inflate(MASK_PAD * longest + self.diag_eps).contains(p)
    }

    /// Heap bytes of the lattices: (seeds, cell lists, fine mask).
    pub fn heap_bytes(&self) -> (usize, usize, usize) {
        (
            self.seeds.len() * std::mem::size_of::<u32>(),
            (self.list_start.len() + self.list_cells.len()) * std::mem::size_of::<u32>(),
            self.mask.len() * std::mem::size_of::<u64>(),
        )
    }

    /// Could a cell of this block hold `p`? `false` only when no
    /// owned-anchored cell's (slightly inflated) bounding box reaches the
    /// mask bin `p` falls in, so a donor search for `p` on this block is
    /// certain to miss and need not walk. Binned through the same inverse
    /// pose as [`query`](Self::query), points outside the bounds clamping
    /// into an edge bin; costs the same [`query_flops`](Self::query_flops).
    pub fn admits(&self, p: [f64; 3]) -> bool {
        let b = bin_index(&self.bounds, self.mask_nb, self.to_lattice(p));
        self.mask[b / 64] & (1u64 << (b % 64)) != 0
    }

    /// A world point in the lattice frame at the current pose.
    fn to_lattice(&self, p: [f64; 3]) -> [f64; 3] {
        if self.pose.is_identity() {
            p
        } else {
            self.inv_pose.apply(p)
        }
    }

    /// Hole-lattice bin index of a node coordinate (used with the classes
    /// from [`classify_solids_into`]). Lattice-frame only: hole classification
    /// is gated on an identity pose (see `holes.rs`), so no inverse
    /// transform is applied here.
    pub fn hole_bin(&self, p: [f64; 3]) -> usize {
        bin_index(&self.bounds, self.hole_nb, p)
    }

    /// Number of hole-lattice bins.
    pub fn hole_bins(&self) -> usize {
        self.hole_nb[0] * self.hole_nb[1] * self.hole_nb[2]
    }

    /// Where a solid whose bins not `Outside` span the bin ranges
    /// `lo[d]..hi[d]` can reach: a box outside of which every point lies in
    /// an `Outside` bin ([`hole_bin`](Self::hole_bin) binning it). The box of
    /// those ranges, unbounded where they touch the lattice's edge (points
    /// beyond the bounds clamp into the edge bins) and widened by a margin
    /// far above the rounding of the bin arithmetic.
    fn hole_reach(&self, lo: [usize; 3], hi: [usize; 3]) -> Aabb {
        let edge = |d: usize, at: usize, outward: f64| {
            let (min, max, n) = (self.bounds.min[d], self.bounds.max[d], self.hole_nb[d]);
            if at == 0 || at == n {
                return outward * f64::INFINITY;
            }
            let margin = 1e-9 * (min.abs() + max.abs());
            min + (max - min) / n as f64 * at as f64 + outward * margin
        };
        Aabb::new(
            std::array::from_fn(|d| edge(d, lo[d], -1.0)),
            std::array::from_fn(|d| edge(d, hi[d], 1.0)),
        )
    }

    /// Slab `i` of the hole lattice along axis `d`: the extent of its bins
    /// there (the whole axis when it has one bin).
    fn hole_slab(&self, d: usize, i: usize) -> (f64, f64) {
        let (lo, n) = (self.bounds.min[d], self.hole_nb[d]);
        let e = self.bounds.max[d] - lo;
        if n <= 1 {
            (lo, lo + e)
        } else {
            let w = e / n as f64;
            (lo + w * i as f64, lo + w * (i + 1) as f64)
        }
    }

    /// Physical box of the hole-lattice bin `(i, j, k)`.
    fn hole_bin_box(&self, at: [usize; 3]) -> Aabb {
        let slabs: [(f64, f64); 3] = std::array::from_fn(|d| self.hole_slab(d, at[d]));
        Aabb::new(slabs.map(|s| s.0), slabs.map(|s| s.1))
    }

    /// The slabs of the hole lattice that overlap `b`, one bit mask per axis
    /// (bit `i`: slab `i`), or `None` when no bin's box intersects `b`.
    /// [`Aabb::intersects`] is a conjunction over the axes, each reading
    /// only its own axis of the two boxes — the bin box's emptiness
    /// included — once `b` is not empty; so bin `(i, j, k)`'s box intersects
    /// `b` exactly when slabs `i`, `j` and `k` each do.
    fn hole_slabs(&self, b: &Aabb) -> Option<[u32; 3]> {
        if b.is_empty() {
            return None;
        }
        let mut masks = [0u32; 3];
        for (d, mask) in masks.iter_mut().enumerate() {
            for i in 0..self.hole_nb[d] {
                let (lo, hi) = self.hole_slab(d, i);
                let empty = lo > hi;
                if !empty && lo <= b.max[d] && hi >= b.min[d] {
                    *mask |= 1 << i;
                }
            }
        }
        masks.iter().all(|&m| m != 0).then_some(masks)
    }
}

/// A seed-lattice bin that no cell midpoint landed in (until the fill gives
/// it its nearest seeded bin's seed).
const NO_SEED: u32 = u32::MAX;

/// What the cell sweep leaves: the per-bin seed cell ([`NO_SEED`] where no
/// cell midpoint landed), the per-bin cell lists with the global part of
/// their boxes' inflation, the coarse occupancy mask, the fine one with its
/// resolution, and the flops spent.
struct Swept {
    seeds: Vec<u32>,
    list_start: Vec<u32>,
    list_cells: Vec<u32>,
    diag_eps: f64,
    occupancy: [u64; OCC_WORDS],
    mask_nb: [usize; 3],
    mask: Vec<u64>,
    flops: u64,
}

/// [`unit_bin`] of the product `y = u · nb` already formed, `top` being
/// `nb − 1`: clamping before the floor is the same floor and the same
/// clamps (`top` is whole), NaN included (it clamps to bin 0). The floor
/// of the clamped value, which lies in `[0, 2³¹)`, is taken without a
/// conversion instruction, so that a loop of them runs in vector lanes:
/// adding and subtracting 2⁵² rounds it to the nearest whole number `r`
/// (exactly: the sum lies in `[2⁵², 2⁵³)`, where doubles are the whole
/// numbers), one less when that rounded up; and the whole number `f` is the
/// low bits of `f + 2⁵²`.
#[inline(always)]
fn clamp_bin(y: f64, top: f64) -> i32 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let y = y.max(0.0).min(top);
    let r = (y + TWO_52) - TWO_52;
    let f = if r > y { r - 1.0 } else { r };
    (f + TWO_52).to_bits() as i32
}

/// The part of a sub-bin mask along axis `d` for the bin `at` of the cell's
/// range `(b0, b1)` on that axis, `edges` the six edge bits of a listed
/// cell's word: the halves the cell reaches, each as the mask bits of the
/// four sub-bins it holds.
#[inline]
fn sub_halves(d: usize, at: usize, (b0, b1): (usize, usize), edges: u32) -> u32 {
    const HALVES: [[u32; 2]; 3] = [[0x55, 0xAA], [0x33, 0xCC], [0x0F, 0xF0]];
    // Branch-free: the edge bits are as good as random to a predictor.
    let lower = u32::from(at > b0) | edges >> (2 * d) & 1;
    let upper = u32::from(at < b1) | edges >> (2 * d + 1) & 1;
    (HALVES[d][0] * lower) | (HALVES[d][1] * upper)
}

// A bin range end packs into `RANGE_BITS` bits.
const RANGE_BITS: u32 = 9;
const _: () = assert!(MAX_AXIS_BINS <= 1 << RANGE_BITS);

/// The bin ranges per axis of a packed word: [`RANGE_BITS`] per range end,
/// `i` first. A listed cell's word carries its six sub-bin edge bits above
/// them: bit `2d` the lower half of the first bin along `d` is reached, bit
/// `2d + 1` the upper half of the last (the halves in between always are).
#[inline]
fn unpack_ranges(w: u64) -> [(usize, usize); 3] {
    let end = |at: u32| (w >> (at * RANGE_BITS) & ((1 << RANGE_BITS) - 1)) as usize;
    [(end(0), end(1)), (end(2), end(3)), (end(4), end(5))]
}

/// A listed cell's six sub-bin edge bits (see [`unpack_ranges`]).
#[inline]
fn listed_edges(w: u64) -> u32 {
    (w >> (6 * RANGE_BITS)) as u32
}

/// The cells the sweep bins: the anchors `i0..i1` along every row, and the
/// storage offset of each row's `i = 0` node, ascending. A cell is anchored
/// at its lower-corner node, which is owned, and its far corner must exist
/// in local storage.
fn cell_rows(block: &Block) -> (Range<usize>, impl Iterator<Item = usize>) {
    let (ow, dims) = (block.owned_local(), block.local_dims);
    let ks = if block.two_d { ow.lo.k..ow.lo.k + 1 } else { ow.lo.k..ow.hi.k.min(dims.nk - 1) };
    let js = ow.lo.j..ow.hi.j.min(dims.nj - 1);
    let rows = ks.flat_map(move |k| js.clone().map(move |j| dims.ni * (j + dims.nj * k)));
    (ow.lo.i..ow.hi.i.min(dims.ni - 1), rows)
}

// A coarse occupancy word is one k-layer of 8 × 8 bins, a byte per row.
const _: () = assert!(OCC_NB == 8 && OCC_WORDS == OCC_NB);

/// Set the coarse occupancy bits of the bins in the packed ranges `w` (3
/// bits per range end, `i` first): per k-layer (a word) the same bits, the
/// `i` run repeated in the byte of every `j` row.
#[inline]
fn mark_coarse(occ: &mut [u64; OCC_WORDS], w: u32) {
    let [i0, i1, j0, j1, k0, k1] = std::array::from_fn(|at| (w >> (3 * at) & 7) as usize);
    let run = (0xFF >> (7 - i1)) & (0xFF << i0);
    let layer = (j0..=j1).fold(0u64, |w, j| w | run << (8 * j));
    for word in occ.iter_mut().take(k1 + 1).skip(k0) {
        *word |= layer;
    }
}

/// The fine mask while the sweep marks it. Every row of bins is padded to
/// whole words, so a box's `i` run has the same word masks in every row it
/// spans; the rows are packed back to back, the map's layout, at the end.
/// The boxes of consecutive cells with the same `j` and `k` ranges are
/// gathered into one `i` run before they are marked (OR is idempotent).
struct FineMask {
    nb: [usize; 3],
    row_words: usize,
    bits: Vec<u64>,
    /// The run being gathered: its `j` and `k` ranges (packed as by
    /// [`unpack_ranges`]) and its `i` range.
    run: Option<(u64, usize, usize)>,
}

impl FineMask {
    fn new(nb: [usize; 3]) -> FineMask {
        let row_words = nb[0].div_ceil(64);
        FineMask { nb, row_words, bits: vec![0; row_words * nb[1] * nb[2]], run: None }
    }

    /// Mark the bins of the packed ranges `w`: into the run when they
    /// extend it, else the run is marked and they start the next.
    #[inline]
    fn add(&mut self, w: u64) {
        let jk = w & !((1 << (2 * RANGE_BITS)) - 1);
        let [(i0, i1), ..] = unpack_ranges(w);
        match &mut self.run {
            Some((rjk, r0, r1)) if *rjk == jk && i0 <= *r1 + 1 && *r0 <= i1 + 1 => {
                (*r0, *r1) = ((*r0).min(i0), (*r1).max(i1));
            }
            _ => {
                if let Some(done) = self.run.replace((jk, i0, i1)) {
                    self.mark(done);
                }
            }
        }
    }

    fn mark(&mut self, (jk, i0, i1): (u64, usize, usize)) {
        let [_, (j0, j1), (k0, k1)] = unpack_ranges(jk);
        let (w0, w1, rw) = (i0 / 64, i1 / 64, self.row_words);
        let (first, last) = (u64::MAX << (i0 % 64), u64::MAX >> (63 - i1 % 64));
        for k in k0..=k1 {
            let plane = &mut self.bits[k * self.nb[1] * rw..];
            if w0 == w1 {
                for row in plane[j0 * rw..(j1 + 1) * rw].chunks_exact_mut(rw) {
                    row[w0] |= first & last;
                }
            } else {
                for row in plane[j0 * rw..(j1 + 1) * rw].chunks_exact_mut(rw) {
                    row[w0] |= first;
                    row[w0 + 1..w1].fill(u64::MAX);
                    row[w1] |= last;
                }
            }
        }
    }

    /// The mask in the map's layout: bin `b` at bit `b % 64` of word
    /// `b / 64`, rows back to back.
    fn into_packed(mut self) -> Vec<u64> {
        if let Some(done) = self.run.take() {
            self.mark(done);
        }
        let ni = self.nb[0];
        let mut packed = vec![0u64; (ni * self.nb[1] * self.nb[2]).div_ceil(64)];
        for (r, row) in self.bits.chunks_exact(self.row_words).enumerate() {
            for (w, &word) in row.iter().enumerate().filter(|(_, &word)| word != 0) {
                let (q, s) = ((r * ni + 64 * w) / 64, (r * ni + 64 * w) % 64);
                packed[q] |= word << s;
                if s != 0 && q + 1 < packed.len() {
                    packed[q + 1] |= word >> (64 - s);
                }
            }
        }
        packed
    }
}

/// The lists' lengths counted as a difference lattice, one node more than
/// the seed lattice per axis: a listed cell adds ±1 at the eight corners of
/// its box of bins (the corner past the box's far end along an axis takes
/// the opposite sign), and prefix sums along the three axes then give, at
/// each bin, the number of boxes that hold it. No branch and no store to an
/// address the cell stored to before, whatever the box.
struct ListCounts {
    nb: [usize; 3],
    diff: Vec<u32>,
}

impl ListCounts {
    fn new(nb: [usize; 3]) -> ListCounts {
        ListCounts { nb, diff: vec![0; (nb[0] + 1) * (nb[1] + 1) * (nb[2] + 1)] }
    }

    /// Count a cell of bin ranges `ranges`. On a lattice one bin deep in
    /// `k` the far `k` corners fall on the plane no bin reads, and are left
    /// out.
    #[inline]
    fn add(&mut self, [(i0, i1), (j0, j1), (k0, k1)]: [(usize, usize); 3]) {
        let (si, sj) = (self.nb[0] + 1, (self.nb[0] + 1) * (self.nb[1] + 1));
        let near = k0 * sj + j0 * si;
        let (di, dj, dk) = (i1 + 1 - i0, (j1 + 1 - j0) * si, (k1 + 1 - k0) * sj);
        let at = near + i0;
        for (corner, sign) in [(0, 1u32), (di, u32::MAX), (dj, u32::MAX), (di + dj, 1)] {
            self.diff[at + corner] = self.diff[at + corner].wrapping_add(sign);
            if self.nb[2] > 1 {
                let far = &mut self.diff[at + dk + corner];
                *far = far.wrapping_sub(sign);
            }
        }
    }

    /// The counts, bin `b`'s at `b + 1` of a vector one longer than the
    /// lattice.
    fn into_counts(mut self) -> Vec<u32> {
        let [ni, nj, nk] = self.nb;
        let (si, sj) = (ni + 1, (ni + 1) * (nj + 1));
        for row in self.diff.chunks_exact_mut(si) {
            for i in 1..si {
                row[i] = row[i].wrapping_add(row[i - 1]);
            }
        }
        for plane in self.diff.chunks_exact_mut(sj) {
            for at in si..sj {
                plane[at] = plane[at].wrapping_add(plane[at - si]);
            }
        }
        for at in sj..self.diff.len() {
            self.diff[at] = self.diff[at].wrapping_add(self.diff[at - sj]);
        }
        // Room for `store_listed`'s spare fill positions.
        let mut counts = Vec::with_capacity(ni * nj * nk + 1 + SPARE_SLOTS);
        counts.resize(ni * nj * nk + 1, 0);
        for k in 0..nk {
            for j in 0..nj {
                let (from, to) = (k * sj + j * si, (k * nj + j) * ni + 1);
                counts[to..to + ni].copy_from_slice(&self.diff[from..from + ni]);
            }
        }
        counts
    }
}

/// The sub-bin masks of a listed cell's corner bins, by the cell's key:
/// its six sub-bin edge bits, then per axis whether its range spans two
/// bins. Byte `a + 2c + 4e` is the mask of the bin `a`, `c`, `e` past the
/// range's first along `i`, `j`, `k` — [`sub_halves`] of each axis, ANDed.
const CORNER_MASKS: [u64; 512] = corner_masks();

const fn corner_masks() -> [u64; 512] {
    const HALVES: [[u64; 2]; 3] = [[0x55, 0xAA], [0x33, 0xCC], [0x0F, 0xF0]];
    let mut table = [0u64; 512];
    let mut key = 0;
    while key < 512 {
        // Per axis, the halves of the first bin and of the second: the first
        // has its lower half at the lower edge, its upper half when the
        // range goes on or at the upper edge; the second, its lower half and
        // its upper half at the upper edge.
        let mut ends = [[0u64; 2]; 3];
        let mut d = 0;
        while d < 3 {
            let (low, high, two) = (key >> (2 * d) & 1, key >> (2 * d + 1) & 1, key >> (6 + d) & 1);
            let [lower, upper] = HALVES[d];
            ends[d][0] = (lower * low as u64) | (upper * (two | high) as u64);
            ends[d][1] = (lower | (upper * high as u64)) * two as u64;
            d += 1;
        }
        let mut corner = 0;
        while corner < 8 {
            let mask = ends[0][corner & 1] & ends[1][corner >> 1 & 1] & ends[2][corner >> 2];
            table[key] |= mask << (8 * corner);
            corner += 1;
        }
        key += 1;
    }
    table
}

/// Store one listed cell, entry `cell` with the sub-bin masks of its word
/// `w`, at the fill position (`next[b + 1]`) of every bin it reaches, and
/// move those on. The cells of the paper systems reach at most two bins per
/// axis: their bins are the corners that the axes spanning two bins allow,
/// and [`CORNER_MASKS`] gives the masks.
#[inline]
fn store_listed(list: &mut [u32], next: &mut [u32], nb: [usize; 3], cell: u32, w: u64) {
    let ranges = unpack_ranges(w);
    let edges = listed_edges(w);
    let [ri, rj, rk] = ranges;
    let [di, dj, dk] = [ri.1.wrapping_sub(ri.0), rj.1.wrapping_sub(rj.0), rk.1.wrapping_sub(rk.0)];
    if (di | dj | dk) > 1 {
        // Along `i` only the ends of the range can miss a half.
        let (first, last) = (sub_halves(0, ri.0, ri, edges), sub_halves(0, ri.1, ri, edges));
        for k in rk.0..=rk.1 {
            let mk = sub_halves(2, k, rk, edges);
            for j in rj.0..=rj.1 {
                let mjk = mk & sub_halves(1, j, rj, edges);
                let row = (k * nb[1] + j) * nb[0] + 1;
                for i in ri.0..=ri.1 {
                    let mi = if i == ri.0 {
                        first
                    } else if i == ri.1 {
                        last
                    } else {
                        0xFF
                    };
                    let slot = &mut next[row + i];
                    list[*slot as usize] = cell | (mjk & mi) << 24;
                    *slot += 1;
                }
            }
        }
        return;
    }
    let span = di | dj << 1 | dk << 2;
    let masks = CORNER_MASKS[edges as usize | span << 6];
    let b = (rk.0 * nb[1] + rj.0) * nb[0] + ri.0 + 1;
    let (sj, sk) = (nb[0], nb[0] * nb[1]);
    let step = [0, 1, sj, sj + 1, sk, sk + 1, sk + sj, sk + sj + 1];
    // All eight corners (four on a lattice one bin deep in `k`) without a
    // branch: a corner past the box stores into the spare entry and moves
    // on a spare fill position of its own.
    let (spare_entry, spare_next) = (list.len() - 1, next.len() - SPARE_SLOTS);
    let corners = if nb[2] > 1 { &step[..] } else { &step[..4] };
    for (corner, &step) in corners.iter().enumerate() {
        let reached = corner & !span == 0;
        let at = if reached { b + step } else { spare_next + corner };
        let slot = next[at];
        let entry = cell | ((masks >> (8 * corner) & 0xFF) as u32) << 24;
        list[if reached { slot as usize } else { spare_entry }] = entry;
        next[at] = slot + 1;
    }
}

/// Fill positions past the lists' starts that [`store_listed`] moves for the
/// corners a cell's box does not reach, one per corner.
const SPARE_SLOTS: usize = 8;

/// The sweep's view of the lattices: their shared bounds, per axis, and the
/// constants the binning of a cell reads.
struct SweepAxes {
    /// `bounds.min` and `bounds.max − bounds.min` per axis; a coordinate is
    /// scaled as `(x − lo) / span`, the division [`axis_bin`] makes, and to
    /// 0 on a `flat` axis (`max ≤ min`), as `axis_bin` bins it.
    lo: [f64; 3],
    span: [f64; 3],
    flat: [bool; 3],
    /// The coarse mask's axes of no extent, which it marks whole.
    coarse_whole: [bool; 3],
    /// The reciprocal extent (0 on an axis of none), for the list boxes'
    /// widening in lattice units.
    per_extent: [f64; 3],
    /// The global part of every box's inflation.
    diag_eps: f64,
    /// Bins per axis of the seed lattice and of the fine mask, and the seed
    /// lattice's strides.
    nb: [usize; 3],
    mask_nb: [usize; 3],
    stride: [u32; 3],
}

/// Cells that the sweep boxes and bins at once (from one row or several).
const CHUNK: usize = 32;
const _: () = assert!(CHUNK % 4 == 0);

/// Up to [`CHUNK`] consecutive cells of the sweep, axis-major, so that the box
/// arithmetic and its divisions run in vector lanes: each cell's corner box
/// and longest edge, then what binning it leaves — the seed bin, and the
/// packed bin ranges on the coarse mask (3 bits per end), the fine mask and
/// the seed lattice with the sub-bin edges ([`unpack_ranges`]).
struct Chunk {
    /// The cells held, at most [`CHUNK`]: each one's anchor offset, and
    /// whether it enters the lists.
    len: usize,
    cell: [u32; CHUNK],
    lists: [bool; CHUNK],
    lo: [[f64; CHUNK]; 3],
    hi: [[f64; CHUNK]; 3],
    longest: [f64; CHUNK],
    seed: [u32; CHUNK],
    coarse: [u32; CHUNK],
    fine: [u64; CHUNK],
    listed: [u64; CHUNK],
    /// Scratch of the binning, one axis at a time.
    axis: AxisParts,
}

impl Chunk {
    /// Append the `len` cells anchored at offsets `at..at + len` of
    /// `coords` (no more than the chunk has room for), `sj` (and `sk` in
    /// 3-D) the storage strides, the first `listed` of them entering the
    /// lists. A cell's box is the union of its two `i` columns' boxes —
    /// nodes `(j, k)`, `(j + 1, k)` and in 3-D `(j, k + 1)`, `(j + 1, k + 1)`
    /// — each shared with an `i` neighbour: min and max are exact in any
    /// order.
    fn push_run(
        &mut self,
        coords: &[[f64; 3]],
        at: usize,
        len: usize,
        strides: (usize, Option<usize>),
        listed: usize,
    ) {
        let (sj, sk) = strides;
        let (mut col_lo, mut col_hi) = ([[0.0; CHUNK + 1]; 3], [[0.0; CHUNK + 1]; 3]);
        for c in 0..=len {
            let mut b = Aabb::EMPTY;
            b.include(coords[at + c]);
            b.include(coords[at + c + sj]);
            if let Some(sk) = sk {
                b.include(coords[at + c + sk]);
                b.include(coords[at + c + sk + sj]);
            }
            for (d, (lo, hi)) in col_lo.iter_mut().zip(&mut col_hi).enumerate() {
                (lo[c], hi[c]) = (b.min[d], b.max[d]);
            }
        }
        let first = self.len;
        for (d, (lo, hi)) in col_lo.iter().zip(&col_hi).enumerate() {
            let cells = lo[..=len].windows(2).zip(hi[..=len].windows(2));
            for (c, (lo, hi)) in (first..).zip(cells) {
                self.lo[d][c] = lo[0].min(lo[1]);
                self.hi[d][c] = hi[0].max(hi[1]);
            }
        }
        for c in first..first + len {
            let e: [f64; 3] = std::array::from_fn(|d| self.hi[d][c] - self.lo[d][c]);
            self.longest[c] = e[0].max(e[1]).max(e[2]);
            self.cell[c] = (at + c - first) as u32;
            self.lists[c] = c - first < listed;
        }
        self.len += len;
    }

    /// Bin the boxed cells ([`bin_axis`] along each axis), packing the
    /// three axes' parts. An axis along which every cell of the chunk is flat
    /// at one coordinate (the `k` of a 2-D block) is binned for two cells
    /// only — that coordinate with no longest edge, and with the chunk's
    /// longest: every part of a cell's binning is monotone in its longest
    /// edge at a fixed coordinate, so when the two agree, every cell of the
    /// chunk gets their parts.
    fn bin(&mut self, m: usize, ax: &SweepAxes) {
        let Chunk { lo, hi, longest, seed, coarse, fine, listed, axis, .. } = self;
        (*seed, *coarse, *fine, *listed) = ([0; CHUNK], [0; CHUNK], [0; CHUNK], [0; CHUNK]);
        let pair_bits = 2 * RANGE_BITS as usize;
        for d in 0..3 {
            let at = lo[d][0];
            let flat = (0..m).all(|c| lo[d][c] == at && hi[d][c] == at);
            let widest = longest[..m].iter().try_fold(0.0f64, |l, &x| (x >= 0.0).then(|| l.max(x)));
            let shared = match widest {
                Some(widest) if flat => {
                    let mut ends = [0.0; CHUNK];
                    ends[1] = widest;
                    bin_axis(ax, d, 2, &[at; CHUNK], &[at; CHUNK], &ends, axis);
                    axis.same(0, 1)
                }
                _ => false,
            };
            if shared {
                axis.spread(0);
            } else {
                bin_axis(ax, d, m, &lo[d], &hi[d], longest, axis);
            }
            for c in 0..m {
                seed[c] += ax.stride[d] * axis.seed[c];
                coarse[c] |= axis.coarse[c] << (6 * d);
                fine[c] |= axis.fine[c] << (pair_bits * d);
                listed[c] |=
                    axis.listed[c] << (pair_bits * d) | axis.edges[c] << (3 * pair_bits + 2 * d);
            }
        }
    }
}

/// One axis's part of a chunk's binning, per cell: the seed bin, the coarse
/// range (3 bits per end), the fine range and the list range ([`RANGE_BITS`]
/// per end), and the list range's two sub-bin edge bits; and the scaled
/// midpoint, coarse box and fine box they are binned from.
#[derive(Default)]
struct AxisParts {
    units: [[f64; CHUNK]; 5],
    seed: [u32; CHUNK],
    coarse: [u32; CHUNK],
    fine: [u64; CHUNK],
    listed: [u64; CHUNK],
    edges: [u64; CHUNK],
}

impl AxisParts {
    fn same(&self, a: usize, b: usize) -> bool {
        (self.seed[a], self.coarse[a], self.fine[a], self.listed[a], self.edges[a])
            == (self.seed[b], self.coarse[b], self.fine[b], self.listed[b], self.edges[b])
    }

    /// Every cell's parts those of cell `a`.
    fn spread(&mut self, a: usize) {
        self.seed = [self.seed[a]; CHUNK];
        self.coarse = [self.coarse[a]; CHUNK];
        self.fine = [self.fine[a]; CHUNK];
        self.listed = [self.listed[a]; CHUNK];
        self.edges = [self.edges[a]; CHUNK];
    }
}

/// Bin `m` cells along axis `d`, from their boxes' ends `lo`, `hi` and their
/// longest edges: the scaled midpoint on the seed lattice; the box inflated
/// by an eighth of its longest edge plus `diag_eps` on the coarse mask;
/// inflated by [`MASK_PAD`] of it plus `diag_eps` on the fine mask and the
/// seed lattice, with the sub-bin edges of the box [`SUB_PAD`] wider still.
/// Each step runs over the `m` cells rounded up to whole vector lanes (what
/// lies past them is binned and never read).
fn bin_axis(
    ax: &SweepAxes,
    d: usize,
    m: usize,
    lo: &[f64; CHUNK],
    hi: &[f64; CHUNK],
    longest: &[f64; CHUNK],
    out: &mut AxisParts,
) {
    let m = m.next_multiple_of(4).min(CHUNK);
    let [mid, coarse_lo, coarse_hi, fine_lo, fine_hi] = &mut out.units;
    if ax.flat[d] {
        // Every coordinate scales to 0; an axis of no extent the coarse mask
        // marks whole (no extent is a flat axis).
        for unit in [&mut *mid, &mut *coarse_lo, &mut *coarse_hi, &mut *fine_lo, &mut *fine_hi] {
            unit.fill(0.0);
        }
        if ax.coarse_whole[d] {
            coarse_hi.fill(f64::INFINITY);
        }
    } else {
        let (l, s) = (ax.lo[d], ax.span[d]);
        for c in 0..m {
            let (lo, hi, longest) = (lo[c], hi[c], longest[c]);
            mid[c] = (0.5 * (lo + hi) - l) / s;
            let pad = 0.125 * longest + ax.diag_eps;
            coarse_lo[c] = (lo - pad - l) / s;
            coarse_hi[c] = (hi + pad - l) / s;
            let pad = MASK_PAD * longest + ax.diag_eps;
            fine_lo[c] = (lo - pad - l) / s;
            fine_hi[c] = (hi + pad - l) / s;
        }
    }
    let (occ, n, nm) = (OCC_NB as f64, ax.nb[d] as f64, ax.mask_nb[d] as f64);
    for c in 0..m {
        let ends = clamp_bin(coarse_lo[c] * occ, occ - 1.0)
            | clamp_bin(coarse_hi[c] * occ, occ - 1.0) << 3;
        out.coarse[c] = ends as u32;
    }
    // The list box `SUB_PAD` wider for the sub-bin masks, in lattice units
    // (no division: the margin dwarfs rounding). A half is reached when the
    // widened end passes its middle.
    let (widen, top) = ((SUB_PAD, ax.diag_eps, ax.per_extent[d] * n), n - 1.0);
    for c in 0..m {
        let (y0, y1) = (fine_lo[c] * n, fine_hi[c] * n);
        let (b0, b1) = (clamp_bin(y0, top), clamp_bin(y1, top));
        let w = (widen.0 * longest[c] + widen.1) * widen.2;
        out.edges[c] =
            u64::from(y0 - w < f64::from(b0) + 0.5) | u64::from(y1 + w >= f64::from(b1) + 0.5) << 1;
        out.listed[c] = b0 as u64 | (b1 as u64) << RANGE_BITS;
    }
    if ax.nb[d] == 1 && ax.mask_nb[d] == 1 {
        // One bin on both lattices: the seed and fine ranges are 0.
        (out.seed, out.fine) = ([0; CHUNK], [0; CHUNK]);
        return;
    }
    for c in 0..m {
        out.seed[c] = clamp_bin(mid[c] * n, top) as u32;
        out.fine[c] = clamp_bin(fine_lo[c] * nm, nm - 1.0) as u64
            | (clamp_bin(fine_hi[c] * nm, nm - 1.0) as u64) << RANGE_BITS;
    }
}

/// First build pass: bin every owned-anchored cell of `block` into the
/// `nb` seed lattice and its cell lists, the coarse occupancy lattice and
/// the fine occupancy lattice over `bounds`. Chunk by chunk ([`Chunk`], the
/// cells in storage order), then cell by cell: a cell seeds the bin of its
/// midpoint if it is the first there; a coarse range is marked only when it
/// is not the last one marked; the fine ranges of consecutive cells are
/// gathered into one `i` run of the same `j` and `k` ranges before they are
/// marked (OR is idempotent); and a listed cell is counted into the lists'
/// lengths and its word kept. A second pass, with no geometry, stores the
/// entries.
fn sweep_cells(block: &Block, bounds: &Aabb, nb: [usize; 3]) -> Swept {
    let dims = block.local_dims;
    assert!(dims.count() <= 1 << 24, "block of {dims:?} overflows the lists' 24-bit cell offsets");
    let nbins = nb[0] * nb[1] * nb[2];
    let mut seeds = vec![NO_SEED; nbins];
    let mut occupancy = [0u64; OCC_WORDS];
    let mut flops = 0u64;
    let mut counts = ListCounts::new(nb);
    let mut listed: Vec<u64> = Vec::with_capacity(block.owned_local().count());
    let extent = bounds.extent();
    let mask_nb = mask_bins(extent, owned_cells(block), block.two_d);
    assert!(
        nb.iter().chain(&mask_nb).all(|&n| (1..=MAX_AXIS_BINS).contains(&n)),
        "lattices of {nb:?} and {mask_nb:?} bins overflow the packed bin ranges"
    );
    let ax = SweepAxes {
        lo: bounds.min,
        span: extent,
        flat: std::array::from_fn(|d| bounds.max[d] <= bounds.min[d]),
        coarse_whole: extent.map(|e| e <= 0.0),
        per_extent: extent.map(|e| if e > 0.0 { 1.0 / e } else { 0.0 }),
        // Acceptance slack: the walk accepts trilinear coordinates in
        // [-TOL, 1+TOL] and Newton can accept before full convergence, so
        // both occupancy masks and the lists take each cell's bounding box
        // inflated past that slack — pruning must never drop a rank, reject
        // a point or leave out a cell that could answer.
        diag_eps: 1e-9 * bounds.diagonal().max(1.0),
        nb,
        mask_nb,
        stride: [1, nb[0] as u32, (nb[0] * nb[1]) as u32],
    };
    let mut mask = FineMask::new(ax.mask_nb);
    // A block that wraps onto itself stores the seam column twice: the
    // lists leave its cells out.
    let list_end =
        if block.self_wrap_i { block.halo[0] + block.owned.dims().ni - 1 } else { usize::MAX };
    let coords = block.coords.as_slice();
    let (sj, sk) = (dims.ni, (!block.two_d).then_some(dims.ni * dims.nj));

    let (cells, rows) = cell_rows(block);
    let mut chunk = Chunk {
        len: 0,
        cell: [0; CHUNK],
        lists: [false; CHUNK],
        lo: [[0.0; CHUNK]; 3],
        hi: [[0.0; CHUNK]; 3],
        longest: [0.0; CHUNK],
        seed: [0; CHUNK],
        coarse: [0; CHUNK],
        fine: [0; CHUNK],
        listed: [0; CHUNK],
        axis: AxisParts::default(),
    };
    let mut last_coarse = u32::MAX;
    let mut sweep_chunk = |chunk: &mut Chunk| {
        let m = std::mem::take(&mut chunk.len);
        chunk.bin(m, &ax);
        flops += FLOPS_PER_CELL_BUILD * m as u64;
        for c in 0..m {
            // Seed the fine bin holding the cell midpoint (first-write-wins;
            // the row-major sweep is deterministic).
            let seed = &mut seeds[chunk.seed[c] as usize];
            *seed = if *seed == NO_SEED { chunk.cell[c] } else { *seed };
            if chunk.coarse[c] != last_coarse {
                last_coarse = chunk.coarse[c];
                mark_coarse(&mut occupancy, last_coarse);
            }
            mask.add(chunk.fine[c]);
            if chunk.lists[c] {
                counts.add(unpack_ranges(chunk.listed[c]));
                listed.push(chunk.listed[c]);
            }
        }
    };
    for row in rows {
        let mut i = cells.start;
        while i < cells.end {
            let len = (CHUNK - chunk.len).min(cells.end - i);
            chunk.push_run(coords, row + i, len, (sj, sk), list_end.saturating_sub(i));
            if chunk.len == CHUNK {
                sweep_chunk(&mut chunk);
            }
            i += len;
        }
    }
    sweep_chunk(&mut chunk);
    let mask = mask.into_packed();

    let mut list_start = counts.into_counts();
    // Counts (of bin `b` at `b + 1`) to starts, shifted one down: every
    // entry filled in moves its bin's slot `b + 1` on by one, from the
    // bin's start to its end — the next bin's start, where CSR wants it.
    let mut start = 0u32;
    for slot in list_start[1..].iter_mut() {
        start += std::mem::replace(slot, start);
    }
    let entries = start as usize;
    flops += FLOPS_PER_LIST_ENTRY * entries as u64;
    // One spare entry, and spare fill positions, for `store_listed`.
    let mut list_cells = vec![0u32; entries + 1];
    list_start.resize(nbins + 1 + SPARE_SLOTS, 0);
    // The listed cells again, in sweep order: the words give their ranges.
    let (cells, rows) = cell_rows(block);
    let mut listed = listed.into_iter();
    for row in rows {
        for i in cells.start..cells.end.min(list_end) {
            let w = listed.next().expect("one word per listed cell");
            store_listed(&mut list_cells, &mut list_start, nb, (row + i) as u32, w);
        }
    }
    list_cells.truncate(entries);
    list_start.truncate(nbins + 1);
    Swept {
        seeds,
        list_start,
        list_cells,
        diag_eps: ax.diag_eps,
        occupancy,
        mask_nb: ax.mask_nb,
        mask,
        flops,
    }
}

/// [`fill_empty`]'s distance of a bin it has not reached (yet).
const FAR: u16 = u16::MAX;

/// Second build pass: give every bin of the `nb` lattice whose seed is
/// [`NO_SEED`] the seed of its nearest seeded bin — minimum Chebyshev
/// distance, ties to the lowest flat index. Returns how many bins that
/// filled (none on a lattice with no seeded bin, which keeps `NO_SEED`
/// throughout) and how many bins the search read (tests bound it: the fill
/// must stay linear).
///
/// A layered multi-source breadth-first search over the 26-neighbourhood,
/// whose hop count *is* the Chebyshev distance on a full lattice. Layer `r`
/// takes `label(b) = min label(n)` over `b`'s neighbours `n` in layer
/// `r − 1`, a seeded bin labelled by its own flat index. That is exact:
/// stepping from `b` one bin toward a nearest seeded bin `f`, on every axis
/// where they differ, reaches a neighbour at distance exactly `r − 1` from
/// `f` that can be no closer to anything else, and conversely every nearest
/// seeded bin of such a neighbour is at distance `≤ r` from `b` — so `b`'s
/// nearest set is the union of theirs.
///
/// Layer `r` is found on bitsets, 64 bins a word: layer `r − 1` dilated by
/// one bin along each axis in turn ([`Dilation`]), less every bin reached
/// before. Each of its bins then pulls its label — the minimum over its
/// neighbours that are in layer `r − 1`, taken without a branch — so a
/// bin's neighbourhood is read once, when it is reached. The labels are
/// kept in the empty bins' own seed slots and resolved at the end: a label
/// names a seeded bin, whose seed no layer overwrites.
fn fill_empty(nb: [usize; 3], seeds: &mut [u32]) -> (u64, u64) {
    let nbins = seeds.len();
    assert_eq!(nbins, nb[0] * nb[1] * nb[2], "a seed per bin of {nb:?}");
    assert!(nbins < NO_SEED as usize, "inverse-map lattice of {nbins} bins overflows u32 labels");
    assert!(nb.iter().all(|&n| n < FAR as usize), "lattice of {nb:?} bins overflows the layers");
    let [ni, nj, nk] = nb;
    let mut dist: Vec<u16> = seeds.iter().map(|&s| if s == NO_SEED { FAR } else { 0 }).collect();
    let words = nbins.div_ceil(64);
    // The layer, the bins not reached yet, and two sets of scratch.
    let mut sets = vec![0u64; 4 * words];
    let (layer, rest) = sets.split_at_mut(words);
    let (open, rest) = rest.split_at_mut(words);
    let (grown, tmp) = rest.split_at_mut(words);
    for (b, &d) in dist.iter().enumerate() {
        layer[b / 64] |= u64::from(d == 0) << (b % 64);
        open[b / 64] |= u64::from(d != 0) << (b % 64);
    }
    let dilation = Dilation::new(nb);
    let mut col = vec![0u32; ni];
    let (mut visits, mut r) = (0u64, 0u16);
    while layer.iter().any(|&w| w != 0) && open.iter().any(|&w| w != 0) {
        r += 1;
        dilation.apply(layer, grown, tmp);
        for ((next, open), &grown) in layer.iter_mut().zip(open.iter_mut()).zip(&*grown) {
            *next = grown & *open;
            *open &= !*next;
        }
        // Label the layer's bins run by run of each row of the lattice.
        for (k, j) in (0..nk).flat_map(|k| (0..nj).map(move |j| (k, j))) {
            let first = (k * nj + j) * ni;
            let mut run: Option<(usize, usize)> = None;
            let words = layer.iter().enumerate().take((first + ni).div_ceil(64)).skip(first / 64);
            for (w, &word) in words {
                let mut bits = word & in_range(w, first, first + ni);
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize - first;
                    bits &= bits - 1;
                    match &mut run {
                        Some((_, end)) if *end + 1 == i => *end = i,
                        _ => {
                            if let Some(done) = run.replace((i, i)) {
                                visits += pull_run(nb, done, (j, k), r, &mut dist, seeds, &mut col);
                            }
                        }
                    }
                }
            }
            if let Some(done) = run {
                visits += pull_run(nb, done, (j, k), r, &mut dist, seeds, &mut col);
            }
        }
    }
    let mut filled = 0u64;
    for (b, &d) in dist.iter().enumerate() {
        // Branch-free: a bin not filled copies its own slot.
        let empty = d != 0 && d != FAR;
        seeds[b] = seeds[if empty { seeds[b] as usize } else { b }];
        filled += u64::from(empty);
    }
    (filled, visits)
}

/// The bits of word `w` that stand for bins `first..end`.
#[inline]
fn in_range(w: usize, first: usize, end: usize) -> u64 {
    let (lo, hi) = ((w * 64).max(first), (w * 64 + 64).min(end));
    if lo >= hi {
        0
    } else {
        (u64::MAX >> (64 - (hi - lo))) << (lo - w * 64)
    }
}

/// Give the bins `a..=b` of row `(j, k)` of the `nb` lattice, reached in
/// layer `r`, their labels: each the minimum over its neighbours in layer
/// `r − 1` of theirs (a seeded bin's flat index at `r = 1`, the label in its
/// seed slot after). The minimum over a bin's 27-bin neighbourhood is the
/// minimum over its three columns of the minimum over each column's nine
/// bins, and neighbours in a run share columns: the run reads the `b − a +
/// 3` columns around it once (fewer at the row's ends), at most 27 bins per
/// bin of it. `col` is scratch, one slot per bin of a row. Returns the bins
/// read.
#[inline]
fn pull_run(
    nb: [usize; 3],
    (a, b): (usize, usize),
    (j, k): (usize, usize),
    r: u16,
    dist: &mut [u16],
    seeds: &mut [u32],
    col: &mut [u32],
) -> u64 {
    let (c0, c1) = (a.saturating_sub(1), (b + 1).min(nb[0] - 1));
    let col = &mut col[c0..=c1];
    col.fill(u32::MAX);
    let mut visits = 0;
    for kk in k.saturating_sub(1)..=(k + 1).min(nb[2] - 1) {
        for jj in j.saturating_sub(1)..=(j + 1).min(nb[1] - 1) {
            let row = (kk * nb[1] + jj) * nb[0];
            let near = row + c0..row + c1 + 1;
            visits += col.len() as u64;
            for ((m, n), (&d, &seed)) in
                col.iter_mut().zip(near.clone()).zip(dist[near.clone()].iter().zip(&seeds[near]))
            {
                let of = if r == 1 { n as u32 } else { seed };
                *m = (*m).min(if d == r - 1 { of } else { u32::MAX });
            }
        }
    }
    let row = (k * nb[1] + j) * nb[0];
    for i in a..=b {
        let window = &col[i.saturating_sub(1).max(c0) - c0..=(i + 1).min(c1) - c0];
        let label = window.iter().fold(u32::MAX, |m, &x| m.min(x));
        (dist[row + i], seeds[row + i]) = (r, label);
    }
    visits
}

/// Dilation by one bin along every axis of a lattice's bitset (bin `b` at
/// bit `b % 64` of word `b / 64`): a set bit spreads to its neighbours
/// along `i`, then `j`, then `k` — a shift of the whole set by the axis's
/// stride each way, less the bits that a shift carries across a row's (or
/// plane's) end into the next.
struct Dilation {
    /// The strides along `i`, `j` and `k`.
    strides: [usize; 3],
    /// The bins at the low end and at the high end of `i`, then of `j`:
    /// four sets of `words` words.
    ends: Vec<u64>,
    words: usize,
    bins: usize,
}

impl Dilation {
    fn new([ni, nj, nk]: [usize; 3]) -> Dilation {
        let bins = ni * nj * nk;
        let words = bins.div_ceil(64);
        let mut ends = vec![0u64; 4 * words];
        // The bins at an axis's ends: the runs of `stride` bins that start
        // every `stride · n` bins (the high end `stride · (n − 1)` later).
        for (set, (stride, n)) in ends.chunks_exact_mut(2 * words).zip([(1, ni), (ni, nj)]) {
            let (low, high) = set.split_at_mut(words);
            for from in (0..bins).step_by(stride * n) {
                for b in from..from + stride {
                    low[b / 64] |= 1 << (b % 64);
                    let b = b + stride * (n - 1);
                    high[b / 64] |= 1 << (b % 64);
                }
            }
        }
        Dilation { strides: [1, ni, ni * nj], ends, words, bins }
    }

    /// `out` = `set` dilated; `tmp` is scratch of the same length.
    fn apply(&self, set: &[u64], out: &mut [u64], tmp: &mut [u64]) {
        let [si, sj, sk] = self.strides.map(|s| s as isize);
        let end = |at: usize| &self.ends[at * self.words..(at + 1) * self.words];
        // Up by a stride: a bit landing at an axis's low end came from the
        // high end of the row (plane) before. Down: the other way round.
        tmp.copy_from_slice(set);
        or_shifted(tmp, set, si, end(0));
        or_shifted(tmp, set, -si, end(1));
        self.clip(tmp);
        out.copy_from_slice(tmp);
        or_shifted(out, tmp, sj, end(2));
        or_shifted(out, tmp, -sj, end(3));
        self.clip(out);
        tmp.copy_from_slice(out);
        or_shifted(tmp, out, sk, &[]);
        or_shifted(tmp, out, -sk, &[]);
        self.clip(tmp);
        out.copy_from_slice(tmp);
    }

    /// Clear the bits past the last bin.
    fn clip(&self, set: &mut [u64]) {
        if let (Some(last), 1..) = (set.last_mut(), self.bins % 64) {
            *last &= u64::MAX >> (64 - self.bins % 64);
        }
    }
}

/// `out |= (set shifted up by s bits) & !cut` (`cut` empty: nothing cut;
/// `s` negative: shifted down). Bits shifted past either end are dropped.
fn or_shifted(out: &mut [u64], set: &[u64], s: isize, cut: &[u64]) {
    let n = set.len() as isize;
    let (q, r) = (s.div_euclid(64), s.rem_euclid(64) as u32);
    for w in 0..n {
        let from = |x: isize| if (0..n).contains(&x) { set[x as usize] } else { 0 };
        let mut v = from(w - q) << r;
        if r != 0 {
            v |= from(w - q - 1) >> (64 - r);
        }
        if let Some(&c) = cut.get(w as usize) {
            v &= !c;
        }
        out[w as usize] |= v;
    }
}

/// Flattened fine/hole-lattice bin index of a point (row-major, i fastest).
fn bin_index(bounds: &Aabb, nb: [usize; 3], p: [f64; 3]) -> usize {
    let bi = axis_bin(p[0], bounds.min[0], bounds.max[0], nb[0]);
    let bj = axis_bin(p[1], bounds.min[1], bounds.max[1], nb[1]);
    let bk = axis_bin(p[2], bounds.min[2], bounds.max[2], nb[2]);
    (bk * nb[1] + bj) * nb[0] + bi
}

/// Enclosing world-frame box of `bounds` carried through `pose`: the AABB
/// of the 8 transformed corners. Conservative for every interior point
/// (rigid maps are affine).
fn posed_bounds(bounds: &Aabb, pose: &RigidTransform) -> Aabb {
    let mut world = Aabb::EMPTY;
    for ci in 0..8 {
        let c = [
            if ci & 1 == 0 { bounds.min[0] } else { bounds.max[0] },
            if ci & 2 == 0 { bounds.min[1] } else { bounds.max[1] },
            if ci & 4 == 0 { bounds.min[2] } else { bounds.max[2] },
        ];
        world.include(pose.apply(c));
    }
    world
}

/// Posed variant of [`occupancy_admits`] for the receive side of the
/// routing broadcast: map the world point into the sender's lattice frame
/// through its broadcast inverse pose, then test against the *lattice* box
/// the occupancy bits were marked in. The identity path is bit-identical
/// to [`occupancy_admits`].
pub fn occupancy_admits_posed(
    occ: &[u64; OCC_WORDS],
    lat_box: &Aabb,
    inv_pose: &RigidTransform,
    p: [f64; 3],
) -> bool {
    let q = if inv_pose.is_identity() { p } else { inv_pose.apply(p) };
    occupancy_admits(occ, lat_box, q)
}

/// Does the occupancy mask (broadcast alongside `rank_box`) admit `p`?
/// All-ones masks (ranks running without a map) admit everything.
pub fn occupancy_admits(occ: &[u64; OCC_WORDS], rank_box: &Aabb, p: [f64; 3]) -> bool {
    let bi = axis_bin(p[0], rank_box.min[0], rank_box.max[0], OCC_NB);
    let bj = axis_bin(p[1], rank_box.min[1], rank_box.max[1], OCC_NB);
    let bk = axis_bin(p[2], rank_box.min[2], rank_box.max[2], OCC_NB);
    let bit = (bk * OCC_NB + bj) * OCC_NB + bi;
    occ[bit / 64] & (1u64 << (bit % 64)) != 0
}

/// The all-ones occupancy mask: what a rank broadcasts when it runs without
/// an inverse map (admits every point — pruning disabled).
pub const OCC_ALL: [u64; OCC_WORDS] = [u64::MAX; OCC_WORDS];

/// Classify every hole-lattice bin of `inv` against each solid in `solids`
/// into `classes` (one `Vec<BinClass>` per solid, bin-major), and put in
/// `reach`, in solid order, the box each solid that is not `Outside`
/// everywhere can reach (`InverseMap::hole_reach`). `pad_hint` must be the same
/// padded-bbox inflation the unmasked cutter uses, so an `Outside` verdict
/// reproduces its bounding-box rejection exactly.
///
/// A bin is `Outside` when its box misses the solid's padded box, which
/// happens exactly when one of its three slabs does (`InverseMap::hole_slabs`):
/// the slabs are tested once per solid, the bins they leave are filled
/// `Outside` at once, and only the bins in the product of the overlapping
/// slabs take the probes. The charge is still that of testing every bin's
/// box, [`FLOPS_PER_BIN_BBOX`] each, plus the probes taken. Returns the
/// flops. The outer vector is resized to the solid count and the inner
/// per-bin vectors keep their capacity, so a steady-state
/// re-classification allocates nothing.
pub fn classify_solids_into(
    inv: &InverseMap,
    solids: &[Solid],
    pad_hint: f64,
    classes: &mut Vec<Vec<BinClass>>,
    reach: &mut Vec<Aabb>,
) -> u64 {
    let (nb, nbins) = (inv.hole_nb, inv.hole_bins());
    let mut flops = 0u64;
    classes.truncate(solids.len());
    while classes.len() < solids.len() {
        classes.push(Vec::new());
    }
    reach.clear();
    for (s, per_bin) in solids.iter().zip(classes.iter_mut()) {
        flops += nbins as u64 * FLOPS_PER_BIN_BBOX;
        per_bin.clear();
        per_bin.resize(nbins, BinClass::Outside);
        let Some(masks) = inv.hole_slabs(&s.bbox().inflate(pad_hint)) else { continue };
        let lo = masks.map(|m| m.trailing_zeros() as usize);
        let hi = masks.map(|m| (u32::BITS - m.leading_zeros()) as usize);
        for bk in lo[2]..hi[2] {
            for bj in lo[1]..hi[1] {
                for bi in lo[0]..hi[0] {
                    let at = [bi, bj, bk];
                    if (0..3).any(|d| masks[d] >> at[d] & 1 == 0) {
                        continue;
                    }
                    // Inside needs every corner (and the center, to guard the
                    // degenerate flat bins of 2-D blocks) contained at zero
                    // pad; every solid shape is convex, so the whole bin
                    // follows.
                    let bb = inv.hole_bin_box(at);
                    let mut probes = 1u64;
                    let mut inside = s.contains(bb.center(), 0.0);
                    if inside {
                        'corners: for ci in 0..8 {
                            let c = [
                                if ci & 1 == 0 { bb.min[0] } else { bb.max[0] },
                                if ci & 2 == 0 { bb.min[1] } else { bb.max[1] },
                                if ci & 4 == 0 { bb.min[2] } else { bb.max[2] },
                            ];
                            probes += 1;
                            if !s.contains(c, 0.0) {
                                inside = false;
                                break 'corners;
                            }
                        }
                    }
                    flops += probes * FLOPS_PER_SOLID_PROBE;
                    per_bin[(bk * nb[1] + bj) * nb[0] + bi] =
                        if inside { BinClass::Inside } else { BinClass::Boundary };
                }
            }
        }
        reach.push(inv.hole_reach(lo, hi));
    }
    flops
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::donor::{walk_search, SearchCost, SearchOutcome};
    use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::{Dims, IndexBox};
    use overset_solver::FlowConditions;

    // The cell sweep this module shipped before the row sweep, frozen as the
    // oracle `build_reference` runs: every cell boxed from its eight corners,
    // every coarse range and fine range marked, a 16-byte record per listed
    // cell and an optional seed per bin.

    /// What the first build pass leaves: the per-bin seed cell (`None` where no
    /// cell midpoint landed), the per-bin cell lists with the global part of
    /// their boxes' inflation, the coarse occupancy mask, the fine one with its
    /// resolution, and the flops spent.
    struct Binned {
        seeds: Vec<Option<u32>>,
        list_start: Vec<u32>,
        list_cells: Vec<u32>,
        diag_eps: f64,
        occupancy: [u64; OCC_WORDS],
        mask_nb: [usize; 3],
        mask: Vec<u64>,
        flops: u64,
    }

    /// `cell_box` scaled to `bounds`, per axis `(min, max)` (a flat axis of
    /// `bounds` scales everything to 0): computed once per box, it bins on any
    /// lattice over `bounds` exactly as [`axis_bin`] would.
    #[inline]
    fn unit_box(bounds: &Aabb, cell_box: &Aabb) -> [(f64, f64); 3] {
        std::array::from_fn(|d| {
            let (lo, hi) = (bounds.min[d], bounds.max[d]);
            if hi <= lo {
                return (0.0, 0.0);
            }
            ((cell_box.min[d] - lo) / (hi - lo), (cell_box.max[d] - lo) / (hi - lo))
        })
    }

    /// The inclusive range of `nb`-lattice bins per axis that a [`unit_box`]
    /// reaches.
    #[inline]
    fn bin_ranges(unit: &[(f64, f64); 3], nb: [usize; 3]) -> [(usize, usize); 3] {
        std::array::from_fn(|d| (unit_bin(unit[d].0, nb[d]), unit_bin(unit[d].1, nb[d])))
    }

    /// The bins of the `nb` lattice that a cell's list box `fine` (a
    /// [`unit_box`]) reaches — the ranges [`bin_ranges`] gives — and which
    /// halves at the ends of those ranges the box reaches once widened by `widen`
    /// (in units of the lattice's extent) per axis `d`: bit `2d` the lower half
    /// of the first bin, bit `2d + 1` the upper half of the last. The widened box
    /// reaches every other half of the range, so these six bits are the cell's
    /// masks in all its bins. (A half is reached when the widened end passes its
    /// middle; the widening dwarfs the rounding of that test.)
    #[inline]
    fn list_bins(
        fine: &[(f64, f64); 3],
        widen: [f64; 3],
        nb: [usize; 3],
    ) -> ([(usize, usize); 3], u32) {
        let (mut ranges, mut edges) = ([(0, 0); 3], 0);
        for d in 0..3 {
            let n = nb[d] as f64;
            let (lo, hi) = (fine[d].0 * n, fine[d].1 * n);
            // `unit_bin` on the products already formed (in `i32`: a lattice
            // axis has at most `MAX_AXIS_BINS` bins, and the clamps agree).
            let bin = |y: f64| (y.max(0.0) as i32).min(nb[d] as i32 - 1);
            let (b0, b1) = (bin(lo), bin(hi));
            ranges[d] = (b0 as usize, b1 as usize);
            edges |= u32::from(lo - widen[d] * n < f64::from(b0) + 0.5) << (2 * d);
            edges |= u32::from(hi + widen[d] * n >= f64::from(b1) + 0.5) << (2 * d + 1);
        }
        (ranges, edges)
    }

    /// Call `f` with the flat index of every bin in `ranges`, row by row.
    #[inline]
    fn for_bins_in(ranges: [(usize, usize); 3], nb: [usize; 3], mut f: impl FnMut(usize)) {
        let [(i0, i1), (j0, j1), (k0, k1)] = ranges;
        for k in k0..=k1 {
            for j in j0..=j1 {
                let row = (k * nb[1] + j) * nb[0];
                for b in row + i0..=row + i1 {
                    f(b);
                }
            }
        }
    }

    /// First build pass: bin every owned-anchored cell of `block` into the
    /// `nb` seed lattice and its cell lists, the coarse occupancy lattice and
    /// the fine occupancy lattice over `bounds`.
    fn bin_cells(block: &Block, bounds: &Aabb, nb: [usize; 3]) -> Binned {
        let ow = block.owned_local();
        let dims = block.local_dims;
        assert!(
            dims.count() <= 1 << 24,
            "block of {dims:?} overflows the lists' 24-bit cell offsets"
        );
        let mask_nb = mask_bins(bounds.extent(), owned_cells(block), block.two_d);
        let nbins = nb[0] * nb[1] * nb[2];
        let mut seeds: Vec<Option<u32>> = vec![None; nbins];
        let mut occupancy = [0u64; OCC_WORDS];
        let mut mask = vec![0u64; (mask_nb[0] * mask_nb[1] * mask_nb[2]).div_ceil(64)];
        let mut flops = 0u64;
        // The lists are filled once their lengths are known: the sweep counts
        // each bin's entries and keeps every listed cell's bin ranges, and its
        // sub-bin edges in the high byte of its offset.
        let mut list_start = vec![0u32; nbins + 1];
        let mut listed: Vec<(u32, [(u16, u16); 3])> = Vec::with_capacity(ow.count());

        // Acceptance slack: the walk accepts trilinear coordinates in
        // [-TOL, 1+TOL] and Newton can accept before full convergence, so
        // both occupancy masks and the lists take each cell's bounding box
        // inflated past that slack — pruning must never drop a rank, reject a
        // point or leave out a cell that could answer.
        let diag_eps = 1e-9 * bounds.diagonal().max(1.0);
        // A block that wraps onto itself stores the seam column twice.
        let seam = block.self_wrap_i.then(|| block.halo[0] + block.owned.dims().ni - 1);
        let per_extent: [f64; 3] = bounds.extent().map(|e| if e > 0.0 { 1.0 / e } else { 0.0 });

        let kmax_anchor = if block.two_d { ow.lo.k + 1 } else { ow.hi.k };
        for k in ow.lo.k..kmax_anchor {
            for j in ow.lo.j..ow.hi.j {
                for i in ow.lo.i..ow.hi.i {
                    // Cells are anchored at their lower-corner node; the far
                    // corner must exist in local storage.
                    if i + 1 >= dims.ni || j + 1 >= dims.nj || (!block.two_d && k + 1 >= dims.nk) {
                        continue;
                    }
                    let flat = dims.offset(Ijk::new(i, j, k));
                    flops += FLOPS_PER_CELL_BUILD;
                    let (cb, longest) = cell_box(block, flat);
                    let flat = flat as u32;
                    // Seed the fine bin holding the cell midpoint
                    // (first-write-wins; the row-major sweep is deterministic).
                    let b = bin_index(bounds, nb, cb.center());
                    if seeds[b].is_none() {
                        seeds[b] = Some(flat);
                    }
                    // Conservative occupancy: the cell box inflated by an eighth
                    // (coarse mask) or a 256th (fine mask, lists) of its own
                    // extent plus a global epsilon.
                    mark_occupancy(&mut occupancy, bounds, &cb.inflate(0.125 * longest + diag_eps));
                    let fine = unit_box(bounds, &cb.inflate(MASK_PAD * longest + diag_eps));
                    mark_mask(&mut mask, mask_nb, &fine);
                    if seam.is_some_and(|s| i >= s) {
                        continue;
                    }
                    // The list box `SUB_PAD` wider for the sub-bin masks, in
                    // lattice units (no division: the margin dwarfs rounding).
                    let widen = per_extent.map(|r| (SUB_PAD * longest + diag_eps) * r);
                    let (ranges, edges) = list_bins(&fine, widen, nb);
                    for_bins_in(ranges, nb, |b| list_start[b + 1] += 1);
                    listed
                        .push((flat | edges << 24, ranges.map(|(lo, hi)| (lo as u16, hi as u16))));
                }
            }
        }
        // Counts (of bin `b` at `b + 1`) to starts, shifted one down: every
        // entry filled in moves its bin's slot `b + 1` on by one, from the
        // bin's start to its end — the next bin's start, where CSR wants it.
        let mut start = 0u32;
        for slot in list_start[1..].iter_mut() {
            start += std::mem::replace(slot, start);
        }
        let entries = start as usize;
        flops += FLOPS_PER_LIST_ENTRY * entries as u64;
        let mut list_cells = vec![0u32; entries];
        for (packed, ranges) in listed {
            let (flat, edges) = (packed & ENTRY_CELL, packed >> 24);
            let [ri, rj, rk] = ranges.map(|(lo, hi)| (lo as usize, hi as usize));
            // Along `i` only the ends of the range can miss a half.
            let (first, last) = (sub_halves(0, ri.0, ri, edges), sub_halves(0, ri.1, ri, edges));
            for k in rk.0..=rk.1 {
                let mk = sub_halves(2, k, rk, edges);
                for j in rj.0..=rj.1 {
                    let mjk = mk & sub_halves(1, j, rj, edges);
                    let row = (k * nb[1] + j) * nb[0] + 1;
                    let mut put = |b: usize, mask: u32| {
                        let slot = &mut list_start[row + b];
                        list_cells[*slot as usize] = flat | mask << 24;
                        *slot += 1;
                    };
                    put(ri.0, mjk & first);
                    for i in ri.0 + 1..ri.1 {
                        put(i, mjk);
                    }
                    if ri.1 > ri.0 {
                        put(ri.1, mjk & last);
                    }
                }
            }
        }
        Binned { seeds, list_start, list_cells, diag_eps, occupancy, mask_nb, mask, flops }
    }

    /// [`nearest_filled_reference`]'s answer for every bin of a lattice with
    /// no filled bin.
    const NO_BIN: u32 = u32::MAX;

    /// Give every empty bin the seed of its `nearest` filled bin (as answered by
    /// [`nearest_filled`]); returns how many bins that filled.
    fn fill_from(seeds: &mut [Option<u32>], nearest: &[u32]) -> u64 {
        let mut filled = 0u64;
        for (b, &f) in nearest.iter().enumerate() {
            if f != NO_BIN && f as usize != b {
                seeds[b] = seeds[f as usize];
                filled += 1;
            }
        }
        filled
    }

    fn unflatten(b: usize, nb: [usize; 3]) -> (usize, usize, usize) {
        let bi = b % nb[0];
        let bj = (b / nb[0]) % nb[1];
        let bk = b / (nb[0] * nb[1]);
        (bi, bj, bk)
    }

    /// Set every coarse occupancy bit whose bin overlaps `cell_box`.
    fn mark_occupancy(occ: &mut [u64; OCC_WORDS], bounds: &Aabb, cell_box: &Aabb) {
        let ext = bounds.extent();
        let range = |d: usize| -> (usize, usize) {
            if ext[d] <= 0.0 {
                return (0, OCC_NB - 1);
            }
            let lo = axis_bin(cell_box.min[d], bounds.min[d], bounds.max[d], OCC_NB);
            let hi = axis_bin(cell_box.max[d], bounds.min[d], bounds.max[d], OCC_NB);
            (lo, hi)
        };
        let (i0, i1) = range(0);
        let (j0, j1) = range(1);
        let (k0, k1) = range(2);
        for k in k0..=k1 {
            for j in j0..=j1 {
                for i in i0..=i1 {
                    let bit = (k * OCC_NB + j) * OCC_NB + i;
                    occ[bit / 64] |= 1u64 << (bit % 64);
                }
            }
        }
    }

    /// Set every fine-mask bit whose bin overlaps the [`unit_box`] `unit`: per
    /// (j, k) row of bins one contiguous run of bits, set a word at a time.
    fn mark_mask(bits: &mut [u64], nb: [usize; 3], unit: &[(f64, f64); 3]) {
        let [(i0, i1), (j0, j1), (k0, k1)] = bin_ranges(unit, nb);
        for k in k0..=k1 {
            for j in j0..=j1 {
                let row = (k * nb[1] + j) * nb[0];
                let (first, last) = (row + i0, row + i1);
                let (wf, wl) = (first / 64, last / 64);
                let from_first = u64::MAX << (first % 64);
                let upto_last = u64::MAX >> (63 - last % 64);
                if wf == wl {
                    bits[wf] |= from_first & upto_last;
                } else {
                    bits[wf] |= from_first;
                    bits[wf + 1..wl].fill(u64::MAX);
                    bits[wl] |= upto_last;
                }
            }
        }
    }

    fn cart_block(n: usize, h: f64) -> Block {
        let d = Dims::new(n, n, n);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * h, p.j as f64 * h, p.k as f64 * h]);
        let g = CurvilinearGrid::new("c", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &fc)
    }

    fn annulus_block(nth: usize, nr: usize) -> Block {
        annulus_block_from(nth, nr, 1.0)
    }

    fn annulus_block_from(nth: usize, nr: usize, r0: f64) -> Block {
        let d = Dims::new(nth, nr, 1);
        let coords = Field3::from_fn(d, |p| {
            let th = -2.0 * std::f64::consts::PI * (p.i % (nth - 1)) as f64 / (nth - 1) as f64;
            let r = r0 + 0.25 * p.j as f64;
            [r * th.cos(), r * th.sin(), 0.0]
        });
        let mut g = CurvilinearGrid::new("a", coords, GridKind::NearBody);
        g.periodic_i = true;
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &fc)
    }

    #[test]
    fn query_seeds_land_one_step_from_the_target() {
        let b = cart_block(17, 0.25);
        let inv = InverseMap::build(&b);
        assert!(inv.build_flops() > 0);
        // Every interior cell midpoint must be found from its seed in very
        // few walk steps (the whole point of the map).
        for (i, j, k) in [(2usize, 3usize, 4usize), (15, 1, 8), (8, 14, 2)] {
            let target =
                [(i as f64 + 0.5) * 0.25, (j as f64 + 0.5) * 0.25, (k as f64 + 0.5) * 0.25];
            let mut cost = SearchCost::default();
            match walk_search(&b, target, inv.query(target), &mut cost) {
                SearchOutcome::Found(d) => {
                    assert_eq!(b.to_global(d.cell), Ijk::new(i, j, k));
                }
                o => panic!("expected Found, got {o:?}"),
            }
            assert!(cost.walk_steps <= 2, "walk from seed took {} steps", cost.walk_steps);
        }
    }

    #[test]
    fn seeded_walk_is_cheaper_than_center_start() {
        let b = cart_block(33, 0.125);
        let inv = InverseMap::build(&b);
        let target = [0.3, 3.8, 0.2];
        let mut cold = SearchCost::default();
        walk_search(&b, target, crate::donor::center_start(&b), &mut cold);
        let mut seeded = SearchCost::default();
        walk_search(&b, target, inv.query(target), &mut seeded);
        assert!(
            seeded.flops() < cold.flops(),
            "seeded {} vs cold {}",
            seeded.flops(),
            cold.flops()
        );
    }

    /// A physically stretched 2-D block — the wake/boundary-layer shape of
    /// the airfoil system: long in x, thin in y.
    fn stretched_block(nx: usize, ny: usize, hx: f64, hy: f64) -> Block {
        let d = Dims::new(nx, ny, 1);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * hx, p.j as f64 * hy, 0.0]);
        let g = CurvilinearGrid::new("w", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &fc)
    }

    #[test]
    fn high_aspect_block_walks_fewer_steps_with_identical_donors() {
        // Aspect 16:1 — under the flat 48/axis cap every x-bin held > 5
        // cells while the y-bins were finer than the cells; proportional
        // allocation moves that wasted y budget onto x.
        let b = stretched_block(257, 17, 0.05, 0.05);
        let adaptive = InverseMap::build(&b);
        assert!(
            adaptive.nb[0] > MAX_FINE_BINS,
            "long axis should outgrow the old flat cap, got {:?}",
            adaptive.nb
        );
        assert!(adaptive.nb[1] < 17, "thin axis should give up bins: {:?}", adaptive.nb);
        // Exactly what the old flat per-axis cap produced for this block.
        let flat = InverseMap::build_with_bins(&b, owned_bbox(&b), [MAX_FINE_BINS, 17, 1]);
        let (mut adaptive_steps, mut flat_steps) = (0u64, 0u64);
        for q in 0..500 {
            // Generic interior points (off any cell face) along the block.
            let x = 0.13 + (q as f64 * 0.0251) % 12.5;
            let y = 0.03 + (q as f64 * 0.0173) % 0.75;
            let p = [x, y, 0.0];
            let mut ca = SearchCost::default();
            let oa = walk_search(&b, p, adaptive.query(p), &mut ca);
            let mut cf = SearchCost::default();
            let of = walk_search(&b, p, flat.query(p), &mut cf);
            assert!(matches!(oa, SearchOutcome::Found(_)), "lost a donor at {p:?}: {oa:?}");
            assert_eq!(oa, of, "donor must not depend on the seed lattice at {p:?}");
            adaptive_steps += ca.walk_steps;
            flat_steps += cf.walk_steps;
        }
        assert!(
            adaptive_steps < flat_steps,
            "adaptive lattice should walk less: {adaptive_steps} vs flat {flat_steps}"
        );
        // A curvilinear ring's bounding box is square: the adaptive
        // allocation must reproduce the old flat cap exactly there (no
        // regression on O-grids — extent proportionality is physical, not
        // index-space).
        let ring = InverseMap::build(&annulus_block_from(257, 3, 2.5));
        assert_eq!(ring.nb, [MAX_FINE_BINS, 3, 1]);
    }

    #[test]
    fn occupancy_admits_every_contained_point_and_prunes_the_annulus_hollow() {
        // Thin annulus r ∈ [2.5, 3]: most of its bounding box is hollow —
        // the false-positive shape occupancy pruning exists for.
        let b = annulus_block_from(65, 3, 2.5);
        let inv = InverseMap::build(&b);
        let occ = inv.occupancy();
        let bounds = inv.bounds();
        // Any point actually inside some cell must be admitted
        // (conservativeness: pruning never loses a donor).
        for (r, th_deg) in [(2.55, 13.0), (2.7, 250.0), (2.9, 117.0), (2.95, 359.0)] {
            let th = -f64::to_radians(th_deg);
            let p = [r * th.cos(), r * th.sin(), 0.0];
            assert!(occupancy_admits(&occ, &bounds, p), "pruned a real donor point {p:?}");
            assert!(inv.admits(p), "fine mask rejected a real donor point {p:?}");
        }
        // The hollow center of the annulus is inside the bbox but holds no
        // cells: occupancy must prune it.
        assert!(bounds.contains([0.0, 0.0, 0.0]));
        assert!(!occupancy_admits(&occ, &bounds, [0.0, 0.0, 0.0]));
        // The fine mask follows the ring where the 8³ one cannot: inside the
        // inner radius, and outside the outer one (3.25: the cells anchored
        // at the outermost owned nodes reach one halo layer further).
        for r in [0.0, 2.0, 3.6] {
            let p = [r * 0.6, -r * 0.8, 0.0];
            assert!(bounds.contains(p) && !inv.admits(p), "fine mask admitted r = {r}");
        }
        // The all-ones mask admits everything.
        assert!(occupancy_admits(&OCC_ALL, &bounds, [0.0, 0.0, 0.0]));
    }

    #[test]
    fn annulus_queries_seed_near_the_target_angle() {
        let b = annulus_block(65, 9);
        let inv = InverseMap::build(&b);
        for th_deg in [10.0f64, 95.0, 181.0, 340.0] {
            let th = -th_deg.to_radians();
            let target = [1.6 * th.cos(), 1.6 * th.sin(), 0.0];
            let mut cost = SearchCost::default();
            match walk_search(&b, target, inv.query(target), &mut cost) {
                SearchOutcome::Found(_) => {}
                o => panic!("{th_deg} deg: {o:?}"),
            }
            assert!(cost.walk_steps <= 8, "{th_deg} deg took {} steps", cost.walk_steps);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let b = annulus_block(33, 7);
        let a = InverseMap::build(&b);
        let c = InverseMap::build(&b);
        assert_eq!(a.seeds, c.seeds);
        assert_eq!((&a.list_start, &a.list_cells), (&c.list_start, &c.list_cells));
        assert_eq!(a.occupancy, c.occupancy);
        assert_eq!(a.build_flops, c.build_flops);
    }

    #[test]
    fn pose_advance_tracks_translation_in_lattice_frame() {
        let b = cart_block(17, 0.25);
        let mut inv = InverseMap::build(&b);
        assert!(inv.pose_is_identity());
        assert_eq!(inv.query_flops(), FLOPS_PER_QUERY);
        // Probe at cell midpoints (bin interiors, robust to FP rounding).
        let probes: Vec<[f64; 3]> = [(2usize, 3usize, 4usize), (15, 1, 8), (8, 14, 2)]
            .iter()
            .map(|&(i, j, k)| {
                [(i as f64 + 0.5) * 0.25, (j as f64 + 0.5) * 0.25, (k as f64 + 0.5) * 0.25]
            })
            .collect();
        let legacy: Vec<Ijk> = probes.iter().map(|&p| inv.query(p)).collect();
        let bounds = inv.bounds();
        let shift = [3.0, -1.5, 0.75];
        assert!(inv.advance(&RigidTransform::translation(shift)));
        assert!(!inv.pose_is_identity());
        assert_eq!(inv.query_flops(), FLOPS_PER_POSED_QUERY);
        // A world point that moved with the block seeds the same cell the
        // unmoved point seeded before the advance.
        for (p, want) in probes.iter().zip(&legacy) {
            let moved = [p[0] + shift[0], p[1] + shift[1], p[2] + shift[2]];
            assert_eq!(inv.query(moved), *want);
        }
        // The routing box followed the motion; the lattice box did not.
        let wb = inv.world_bounds();
        for (d, sh) in shift.iter().enumerate() {
            assert!((wb.min[d] - (bounds.min[d] + sh)).abs() < 1e-12);
            assert!((wb.max[d] - (bounds.max[d] + sh)).abs() < 1e-12);
        }
        assert_eq!(inv.bounds().min, bounds.min);
    }

    #[test]
    fn pose_advance_rejects_large_rotation_and_leaves_map_untouched() {
        let b = cart_block(17, 0.25);
        let mut inv = InverseMap::build(&b);
        let big = RigidTransform::rotation_about(
            inv.bounds().center(),
            [0.0, 0.0, 1.0],
            f64::to_radians(10.0),
        );
        assert!(!inv.advance(&big));
        assert!(inv.pose_is_identity());
        assert_eq!(inv.world_bounds().min, inv.bounds().min);
    }

    #[test]
    fn pose_accumulates_small_rotations_until_growth_threshold() {
        let b = cart_block(17, 0.25);
        let mut inv = InverseMap::build(&b);
        let step = RigidTransform::rotation_about(
            inv.bounds().center(),
            [0.0, 0.0, 1.0],
            f64::to_radians(1.0),
        );
        let mut accepted = 0;
        while inv.advance(&step) {
            accepted += 1;
            assert!(accepted < 90, "growth threshold never tripped");
        }
        // A cube trips the 5% diagonal-growth threshold near 5 degrees.
        assert!((2..=8).contains(&accepted), "accepted {accepted} one-degree steps");
        // After rejection the pose still holds the last accepted rotation.
        assert!(!inv.pose_is_identity());
    }

    #[test]
    fn posed_occupancy_matches_identity_path_and_tracks_motion() {
        let b = annulus_block_from(65, 3, 2.5);
        let mut inv = InverseMap::build(&b);
        let occ = inv.occupancy();
        let bounds = inv.bounds();
        let id = RigidTransform::IDENTITY;
        for (r, th_deg) in [(2.55, 13.0), (2.9, 117.0)] {
            let th = -f64::to_radians(th_deg);
            let p = [r * th.cos(), r * th.sin(), 0.0];
            assert_eq!(
                occupancy_admits_posed(&occ, &bounds, &id, p),
                occupancy_admits(&occ, &bounds, p)
            );
        }
        // Translate the annulus far from the origin: the hollow center
        // moves with it, and the posed test must follow.
        let shift = [100.0, 0.0, 0.0];
        assert!(inv.advance(&RigidTransform::translation(shift)));
        let inv_pose = *inv.inv_pose();
        assert!(!occupancy_admits_posed(&occ, &bounds, &inv_pose, [100.0, 0.0, 0.0]));
        assert!(!inv.admits([100.0, 0.0, 0.0]));
        let th = -f64::to_radians(13.0);
        let p = [100.0 + 2.55 * th.cos(), 2.55 * th.sin(), 0.0];
        assert!(occupancy_admits_posed(&occ, &bounds, &inv_pose, p));
        assert!(inv.admits(p));
    }

    #[test]
    fn solid_classification_is_consistent_with_brute_force() {
        let b = cart_block(21, 0.2); // covers [0,4]^3
        let inv = InverseMap::build(&b);
        let solid = Solid::Ellipsoid { center: [2.0, 2.0, 2.0], radii: [1.3, 1.1, 1.2] };
        let mut classes = Vec::new();
        assert!(classify_solids_into(&inv, &[solid], 0.1, &mut classes, &mut Vec::new()) > 0);
        let classes = &classes[0];
        let mut counts = [0usize; 3];
        for (bin, cls) in classes.iter().enumerate() {
            let (i, j, k) = unflatten(bin, inv.hole_nb);
            let bb = inv.hole_bin_box([i, j, k]);
            counts[match cls {
                BinClass::Outside => 0,
                BinClass::Inside => 1,
                BinClass::Boundary => 2,
            }] += 1;
            // Probe a grid of points in the bin; Inside bins must contain
            // all of them (pad 0) and Outside bins must reject all of them
            // even with the per-node pad bound.
            for pi in 0..3 {
                for pj in 0..3 {
                    for pk in 0..3 {
                        let p = [
                            bb.min[0] + (bb.max[0] - bb.min[0]) * pi as f64 / 2.0,
                            bb.min[1] + (bb.max[1] - bb.min[1]) * pj as f64 / 2.0,
                            bb.min[2] + (bb.max[2] - bb.min[2]) * pk as f64 / 2.0,
                        ];
                        match cls {
                            BinClass::Inside => assert!(solid.contains(p, 0.0), "{p:?}"),
                            BinClass::Outside => {
                                assert!(!solid.bbox().inflate(0.1).contains(p), "{p:?}")
                            }
                            BinClass::Boundary => {}
                        }
                    }
                }
            }
        }
        // A solid well inside the block yields all three classes.
        assert!(counts[0] > 0 && counts[1] > 0 && counts[2] > 0, "{counts:?}");
    }

    /// The fill this module shipped before the layered search: for every
    /// empty bin, scan every filled bin in ascending flat order and keep the
    /// first at minimum Chebyshev distance. O(empty × filled); kept as the
    /// reference [`fill_empty`] must agree with bin for bin.
    fn nearest_filled_reference(nb: [usize; 3], filled: &[bool]) -> Vec<u32> {
        let sources: Vec<usize> = (0..filled.len()).filter(|&b| filled[b]).collect();
        (0..filled.len())
            .map(|b| {
                if filled[b] {
                    return b as u32;
                }
                let (bi, bj, bk) = unflatten(b, nb);
                let mut best: Option<(usize, usize)> = None;
                for &fb in &sources {
                    let (fi, fj, fk) = unflatten(fb, nb);
                    let d = fi.abs_diff(bi).max(fj.abs_diff(bj)).max(fk.abs_diff(bk));
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, fb));
                    }
                }
                best.map_or(NO_BIN, |(_, fb)| fb as u32)
            })
            .collect()
    }

    /// [`InverseMap::build_with_bins`] as this module shipped it before the
    /// row sweep: the frozen sweep, then the reference fill.
    fn build_reference(block: &Block, bounds: Aabb, nb: [usize; 3]) -> InverseMap {
        let mut binned = bin_cells(block, &bounds, nb);
        let filled: Vec<bool> = binned.seeds.iter().map(Option::is_some).collect();
        let nearest = nearest_filled_reference(nb, &filled);
        binned.flops += FLOPS_PER_BIN_FILL * fill_from(&mut binned.seeds, &nearest);
        let Binned { seeds, list_start, list_cells, diag_eps, occupancy, mask_nb, mask, flops } =
            binned;
        let seeds = seeds.into_iter().map(|s| s.unwrap_or(NO_SEED)).collect();
        let swept =
            Swept { seeds, list_start, list_cells, diag_eps, occupancy, mask_nb, mask, flops };
        InverseMap::from_seeds(block, bounds, nb, swept)
    }

    /// [`owned_bbox`] as it was before it read rows: node by node.
    fn owned_bbox_reference(block: &Block) -> Aabb {
        let mut bb = Aabb::EMPTY;
        let ow = block.owned_local();
        let grown = overset_grid::IndexBox::new(
            Ijk::new(
                ow.lo.i.saturating_sub(1),
                ow.lo.j.saturating_sub(1),
                ow.lo.k.saturating_sub(usize::from(block.halo[2] > 0)),
            ),
            Ijk::new(
                (ow.hi.i + 1).min(block.local_dims.ni),
                (ow.hi.j + 1).min(block.local_dims.nj),
                (ow.hi.k + usize::from(block.halo[2] > 0)).min(block.local_dims.nk),
            ),
        );
        for p in grown.iter() {
            bb.include(block.coords[p]);
        }
        bb.inflate(1e-9 * bb.diagonal().max(1.0))
    }

    /// The fill's nearest seeded bin for every bin of a lattice whose bins
    /// `is_filled` names seeded ([`NO_BIN`] throughout when none is), and the
    /// bins it read: [`fill_empty`] on seeds that are the bins' own indices.
    fn nearest_filled(nb: [usize; 3], is_filled: impl Fn(usize) -> bool) -> (Vec<u32>, u64) {
        let nbins = nb[0] * nb[1] * nb[2];
        let mut seeds: Vec<u32> =
            (0..nbins).map(|b| if is_filled(b) { b as u32 } else { NO_SEED }).collect();
        let (_, visits) = fill_empty(nb, &mut seeds);
        (seeds, visits)
    }

    /// Deterministic fill patterns for the fill tests. Shapes 0-2 are random
    /// at 1 %, 50 % and 99 % density; then all-empty, all-filled, one filled
    /// corner bin, and a hollow shell (only the lattice's outer layer filled).
    fn fill_pattern(nb: [usize; 3], shape: usize, seed: u64) -> Vec<bool> {
        let nbins = nb[0] * nb[1] * nb[2];
        let mut state = seed | 1;
        let mut coin = |percent: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % 100 < percent
        };
        (0..nbins)
            .map(|b| match shape {
                0 => coin(1),
                1 => coin(50),
                2 => coin(99),
                3 => false,
                4 => true,
                5 => b == [0, nbins - 1][seed as usize % 2],
                _ => {
                    let (i, j, k) = unflatten(b, nb);
                    [(i, nb[0]), (j, nb[1]), (k, nb[2])]
                        .iter()
                        .any(|&(x, n)| n > 2 && (x == 0 || x == n - 1))
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The layered search picks the reference scan's winner for every
        /// bin, on 3-D, 2-D (`nb = 1` axes) and single-bin lattices.
        #[test]
        fn fill_picks_the_reference_winner_for_every_bin(
            ni in 1usize..13, nj in 1usize..13, nk in 1usize..13,
            shape in 0usize..7, seed in 0u64..1u64 << 32,
        ) {
            let nb = [ni, nj, nk];
            let filled = fill_pattern(nb, shape, seed);
            let (got, visits) = nearest_filled(nb, |b| filled[b]);
            let want = nearest_filled_reference(nb, &filled);
            let diff = (0..filled.len()).find(|&b| got[b] != want[b]);
            proptest::prop_assert!(
                diff.is_none(),
                "bin {:?} of {:?} (shape {}, seed {}): got {:?}, reference {:?}",
                diff, nb, shape, seed, diff.map(|b| got[b]), diff.map(|b| want[b])
            );
            proptest::prop_assert!(visits <= 27 * filled.len() as u64);
        }
    }

    /// Host-clock-free complexity guard: on the largest fine lattice the
    /// allocation can produce in 3-D, at 1 %, 50 % and 99 % fill, the search
    /// examines at most each bin's 27-bin neighbourhood once — a quadratic
    /// fill cannot come back unseen.
    #[test]
    fn fill_visits_stay_linear_in_the_lattice() {
        let nb = [MAX_FINE_BINS; 3];
        let nbins = (nb[0] * nb[1] * nb[2]) as u64;
        for shape in 0..3 {
            let filled = fill_pattern(nb, shape, 0x9e3779b97f4a7c15);
            let (nearest, visits) = nearest_filled(nb, |b| filled[b]);
            assert!(nearest.iter().all(|&f| filled[f as usize]));
            assert!(visits <= 27 * nbins, "shape {shape}: {visits} visits over {nbins} bins");
        }
    }

    /// Whole-map equality against the frozen reference build on every grid
    /// of the three paper systems — at the scales the tests use and at the
    /// benchmark's (store ×0.55, airfoil ×1.0) — as whole-grid blocks and
    /// under an 18-rank static partition, and on store ×0.55's 256-rank one:
    /// every field the same (the `Debug` text, floats included, and the
    /// named fields for a readable failure), hence the same walk starts,
    /// list verdicts and virtual clocks.
    #[test]
    fn builds_equal_the_reference_on_every_paper_grid() {
        use overset_balance::{fit_np_to_dims_min, static_balance, Partition};
        use overset_grid::gen::{airfoil, delta_wing, store};
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut empty_bins = 0usize;
        for (grids, counts) in [
            (store::store_system(0.3), &[1, 18][..]),
            (store::store_system(0.55), &[1, 18, 256][..]),
            (airfoil::airfoil_system(0.5), &[1, 18][..]),
            (airfoil::airfoil_system(1.0), &[1, 18][..]),
            (delta_wing::delta_wing_system(0.1), &[1, 18][..]),
        ] {
            let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
            let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
            let min_widths: Vec<[usize; 3]> =
                grids.iter().map(|g| if g.periodic_i { [2, 1, 1] } else { [1, 1, 1] }).collect();
            for &p in counts {
                let np = if p == 1 {
                    vec![1; grids.len()]
                } else {
                    let balanced = static_balance(&sizes, p).unwrap();
                    fit_np_to_dims_min(&sizes, &dims, &balanced.np, &min_widths).unwrap()
                };
                let part = Partition::build(&dims, &np);
                for (rank, a) in part.ranks.iter().enumerate() {
                    let g = &grids[a.grid];
                    let nbrs = part.neighbors_of(rank, g.periodic_i);
                    let block = Block::from_grid(a.grid, g, a.boxx, nbrs, &fc);
                    let m = InverseMap::build(&block);
                    let r = build_reference(&block, m.bounds, m.nb);
                    let what = format!("{} rank {rank} of {}", g.name, part.ranks.len());
                    let bits = |b: Aabb| [b.min, b.max].map(|v| v.map(f64::to_bits));
                    assert_eq!(bits(m.bounds), bits(owned_bbox_reference(&block)), "{what}");
                    assert_eq!(m.seeds, r.seeds, "seeds: {what}");
                    assert!(m.list_start == r.list_start && m.list_cells == r.list_cells, "{what}");
                    assert_eq!(m.occupancy, r.occupancy, "occupancy: {what}");
                    assert_eq!((m.nb, m.hole_nb), (r.nb, r.hole_nb), "lattices: {what}");
                    assert_eq!((m.mask_nb, &m.mask), (r.mask_nb, &r.mask), "fine mask: {what}");
                    assert_eq!(m.diag_eps.to_bits(), r.diag_eps.to_bits(), "diag_eps: {what}");
                    assert_eq!(m.sub_bins, r.sub_bins, "sub_bins: {what}");
                    assert_eq!(m.build_flops, r.build_flops, "build_flops: {what}");
                    assert_eq!(format!("{m:?}"), format!("{r:?}"), "{what}");
                    // CSR over the seed lattice, a list ascending, and short:
                    // a cell's box reaches the few bins around it, so the
                    // lists hold some ten entries per cell whatever the cut.
                    assert_eq!(m.list_start.len(), m.seeds.len() + 1, "{what}");
                    assert_eq!(
                        *m.list_start.last().unwrap() as usize,
                        m.list_cells.len(),
                        "{what}"
                    );
                    for bin in m.list_start.windows(2) {
                        let list = &m.list_cells[bin[0] as usize..bin[1] as usize];
                        let cells = |c: &[u32]| c[0] & ENTRY_CELL < c[1] & ENTRY_CELL;
                        assert!(list.windows(2).all(cells), "unsorted list: {what}");
                        // A listed cell's box reaches its bin: some sub-bin.
                        assert!(list.iter().all(|e| e >> 24 != 0), "empty mask: {what}");
                    }
                    let cells: usize = owned_cells(&block).iter().product();
                    assert!(m.list_cells.len() <= 16 * cells, "{what}");
                    assert_eq!(m.heap_bytes().0, 4 * m.seeds.len(), "a seed is a u32: {what}");
                    // At most 48³ bits, and at most 64 per cell: cutting a
                    // grid over more ranks does not multiply its mask.
                    assert!(m.mask.len() * 64 < MASK_MAX_BITS.min(64 * cells) + 64, "{what}");
                    let binned = bin_cells(&block, &m.bounds, m.nb).seeds;
                    empty_bins += binned.iter().filter(|s| s.is_none()).count();
                }
            }
        }
        // The systems must actually exercise the fill.
        assert!(empty_bins > 10_000, "only {empty_bins} empty bins filled");
    }

    /// A random block for [`random_blocks_build_the_reference_map`]: `shape`
    /// 0 a stretched and sheared 3-D box, 1 the same in 2-D, 2 a shell (3-D)
    /// or ring (2-D, `k` of one node) that wraps onto itself in `i`, seam
    /// column and all. Axes of `n[d]` nodes (2: one cell, a sliver), the
    /// owned box the whole grid or, for the open shapes, a piece of it.
    fn random_block(shape: usize, n: [usize; 3], seed: u64, piece: bool) -> Block {
        let mut h = seed | 1;
        let mut rand = || {
            h = (h ^ (h >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ 0x94d0_49bb;
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        let two_d = shape == 1 || (shape == 2 && rand() < 0.5);
        let d = Dims::new(n[0], n[1], if two_d { 1 } else { n[2] });
        // Per axis a geometric stretch, and shears of `x` along `j` and `k`.
        let (growth, spacing) = ([0; 3].map(|_| 0.6 + 1.2 * rand()), [0; 3].map(|_| 0.01 + rand()));
        let shear = [2.0 * rand() - 1.0, 2.0 * rand() - 1.0];
        let jitter: Vec<f64> = (0..3 * d.count()).map(|_| 0.2 * rand() - 0.1).collect();
        let along =
            |a: usize, i: usize| (0..i).map(|s| spacing[a] * growth[a].powi(s as i32)).sum::<f64>();
        let (r0, r1) = (0.2 + rand(), 0.3 + 2.0 * rand());
        let coords = Field3::from_fn(d, |p| {
            let off = 3 * d.offset(p);
            let (x, y, z) = (along(0, p.i), along(1, p.j), along(2, p.k));
            if shape == 2 {
                // Node ni − 1 is node 0 again: the seam column, bit for bit.
                let th = 2.0 * std::f64::consts::PI * (p.i % (d.ni - 1)) as f64 / (d.ni - 1) as f64;
                let r = r0 + r1 * y / along(1, d.nj - 1).max(1e-3);
                [r * th.cos(), r * th.sin(), z]
            } else {
                let jit = |a: usize| jitter[off + a] * spacing[a];
                [x + shear[0] * y + shear[1] * z + jit(0), y + jit(1), z + jit(2)]
            }
        });
        let mut g = CurvilinearGrid::new("random", coords, GridKind::NearBody);
        g.periodic_i = shape == 2;
        let owned = if piece && shape != 2 {
            let cut = |n: usize, r: f64, s: f64| {
                let lo = (r * (n - 1) as f64) as usize;
                (lo, (lo + 1 + (s * (n - lo) as f64) as usize).min(n))
            };
            let [(i0, i1), (j0, j1), (k0, k1)] =
                [0, 1, 2].map(|a| cut([d.ni, d.nj, d.nk][a], rand(), rand()));
            IndexBox::new(Ijk::new(i0, j0, k0), Ijk::new(i1, j1, k1))
        } else {
            d.full_box()
        };
        Block::from_grid(0, &g, owned, [None; 6], &FlowConditions::new(0.8, 0.0, 0.0))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The row sweep and the bitset fill against the frozen reference on
        /// random blocks ([`random_block`]): stretched and sheared, 2-D and
        /// 3-D, wrapping onto themselves in `i`, slivers of one cell, whole
        /// grids and pieces; on the lattice `build` picks, on a single bin,
        /// and on a random one. Every field of the map equal.
        #[test]
        fn random_blocks_build_the_reference_map(
            shape in 0usize..3,
            n in proptest::prelude::prop::array::uniform3(2usize..11),
            seed in 1u64..(1 << 60),
            piece in 0usize..2,
            lattice in 0usize..3,
            nb in proptest::prelude::prop::array::uniform3(1usize..20),
        ) {
            let block = random_block(shape, n, seed, piece == 1);
            let bounds = owned_bbox(&block);
            let nb = match lattice {
                0 => fine_bins(bounds.extent(), owned_cells(&block), block.two_d),
                1 => [1, 1, 1],
                _ => [nb[0], nb[1], if block.two_d { 1 } else { nb[2] }],
            };
            let m = InverseMap::build_with_bins(&block, bounds, nb);
            let r = build_reference(&block, bounds, nb);
            let what = format!("shape {shape}, nodes {n:?}, piece {piece}, lattice {nb:?}");
            proptest::prop_assert_eq!(&m.seeds, &r.seeds, "seeds: {}", what);
            proptest::prop_assert!(m.list_start == r.list_start, "list starts: {}", what);
            proptest::prop_assert!(m.list_cells == r.list_cells, "list entries: {}", what);
            proptest::prop_assert_eq!(m.occupancy, r.occupancy, "occupancy: {}", what);
            proptest::prop_assert!(m.mask == r.mask, "fine mask: {}", what);
            proptest::prop_assert_eq!(m.build_flops, r.build_flops, "flops: {}", what);
            proptest::prop_assert_eq!(format!("{m:?}"), format!("{r:?}"), "{}", what);
        }
    }

    #[test]
    fn two_d_block_map_works() {
        let d = Dims::new(11, 11, 1);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.3, p.j as f64 * 0.3, 0.0]);
        let g = CurvilinearGrid::new("p", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = Block::from_grid(0, &g, d.full_box(), [None; 6], &fc);
        let inv = InverseMap::build(&b);
        let target = [1.0, 2.0, 0.0];
        let mut cost = SearchCost::default();
        match walk_search(&b, target, inv.query(target), &mut cost) {
            SearchOutcome::Found(dn) => assert_eq!(b.to_global(dn.cell), Ijk::new(3, 6, 0)),
            o => panic!("{o:?}"),
        }
        assert!(cost.walk_steps <= 2);
    }

    /// The classification this module shipped before it tested slabs: every
    /// bin's box against the solid's padded box, then the probes. The oracle
    /// of [`classify_solids_into`] (and of the cutter's reference).
    pub(crate) fn classify_solids_reference(
        inv: &InverseMap,
        solids: &[Solid],
        pad_hint: f64,
        classes: &mut Vec<Vec<BinClass>>,
    ) -> u64 {
        let mut flops = 0u64;
        classes.clear();
        for s in solids {
            let padded = s.bbox().inflate(pad_hint);
            let mut per_bin = Vec::new();
            for b in 0..inv.hole_bins() {
                flops += FLOPS_PER_BIN_BBOX;
                let (i, j, k) = unflatten(b, inv.hole_nb);
                let bb = inv.hole_bin_box([i, j, k]);
                if !bb.intersects(&padded) {
                    per_bin.push(BinClass::Outside);
                    continue;
                }
                let mut probes = 1u64;
                let mut inside = s.contains(bb.center(), 0.0);
                if inside {
                    for ci in 0..8 {
                        let c = [
                            if ci & 1 == 0 { bb.min[0] } else { bb.max[0] },
                            if ci & 2 == 0 { bb.min[1] } else { bb.max[1] },
                            if ci & 4 == 0 { bb.min[2] } else { bb.max[2] },
                        ];
                        probes += 1;
                        if !s.contains(c, 0.0) {
                            inside = false;
                            break;
                        }
                    }
                }
                flops += probes * FLOPS_PER_SOLID_PROBE;
                per_bin.push(if inside { BinClass::Inside } else { BinClass::Boundary });
            }
            classes.push(per_bin);
        }
        flops
    }

    /// The reach of a solid the way the cutter found it before: a rescan of
    /// its classes for the index box of the bins not `Outside`.
    fn hole_reach_reference(inv: &InverseMap, classes: &[BinClass]) -> Option<Aabb> {
        let (mut lo, mut hi) = ([usize::MAX; 3], [0usize; 3]);
        for (b, _) in classes.iter().enumerate().filter(|(_, &c)| c != BinClass::Outside) {
            let (i, j, k) = unflatten(b, inv.hole_nb);
            for (d, at) in [i, j, k].into_iter().enumerate() {
                lo[d] = lo[d].min(at);
                hi[d] = hi[d].max(at + 1);
            }
        }
        (lo[0] != usize::MAX).then(|| inv.hole_reach(lo, hi))
    }

    /// The maps [`slab_classes_equal_per_bin_classes`] classifies against:
    /// Cartesian lattices with one bin along `i` (a block far thinner in `x`
    /// than in `y` and `z`) or along `k` (2-D), every grid of the three
    /// paper systems whole, and last every block of the store system
    /// (×0.55) under its 256-rank static partition.
    fn slab_oracle_maps() -> &'static [InverseMap] {
        use overset_balance::{fit_np_to_dims_min, static_balance, Partition};
        use overset_grid::gen::{airfoil, delta_wing, store};
        static MAPS: std::sync::OnceLock<Vec<InverseMap>> = std::sync::OnceLock::new();
        MAPS.get_or_init(|| {
            let fc = FlowConditions::new(0.8, 0.0, 0.0);
            let mut maps = Vec::new();
            for d in [Dims::new(3, 9, 9), Dims::new(9, 9, 1)] {
                let coords = Field3::from_fn(d, |p| [p.i as f64 * 1e-3, p.j as f64, p.k as f64]);
                let g = CurvilinearGrid::new("thin", coords, GridKind::Background);
                let m = InverseMap::build(&Block::from_grid(0, &g, d.full_box(), [None; 6], &fc));
                assert!(m.hole_nb.contains(&1), "{:?}", m.hole_nb);
                maps.push(m);
            }
            for grids in [
                airfoil::airfoil_system(0.3),
                delta_wing::delta_wing_system(0.2),
                store::store_system(0.3),
            ] {
                for g in &grids {
                    let block = Block::from_grid(0, g, g.dims().full_box(), [None; 6], &fc);
                    maps.push(InverseMap::build(&block));
                }
            }
            let grids = store::store_system(0.55);
            let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
            let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
            let min_widths: Vec<[usize; 3]> =
                grids.iter().map(|g| if g.periodic_i { [2, 1, 1] } else { [1, 1, 1] }).collect();
            let balanced = static_balance(&sizes, 256).unwrap();
            let np = fit_np_to_dims_min(&sizes, &dims, &balanced.np, &min_widths).unwrap();
            let part = Partition::build(&dims, &np);
            for (rank, a) in part.ranks.iter().enumerate() {
                let g = &grids[a.grid];
                let nbrs = part.neighbors_of(rank, g.periodic_i);
                maps.push(InverseMap::build(&Block::from_grid(a.grid, g, a.boxx, nbrs, &fc)));
            }
            maps
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The slab classification against the per-bin one on
        /// [`slab_oracle_maps`]: every `Solid` kind far from the lattice,
        /// straddling its edge and inside it, at pads of 0, a typical one, a
        /// huge one and NaN, solids whose padded box is empty and one that
        /// is a bin's box exactly. Classes,
        /// flops and reach boxes must be the reference's, cold and with
        /// recycled buffers.
        #[test]
        fn slab_classes_equal_per_bin_classes(seed in 1u64..(1 << 60), pick in 0usize..1 << 20) {
            let maps = slab_oracle_maps();
            // The 256-rank maps are most of the set; the rest are visited as
            // often as those together.
            let m = &maps[pick / 2 % if pick % 2 == 0 { maps.len() - 256 } else { maps.len() }];
            let mut h = seed;
            let mut rand = || {
                h = (h ^ (h >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d;
                (h >> 11) as f64 / (1u64 << 53) as f64
            };
            let (lo, ext, diag) = (m.bounds.min, m.bounds.extent(), m.bounds.diagonal());
            // Two empty boxes — the infinite one, and a small inside-out one
            // that a slab spans — and one bin's own box: at pad 0 its
            // neighbours' slabs touch it to the bit.
            let at = std::array::from_fn(|d| (rand() * m.hole_nb[d] as f64) as usize);
            let c: [f64; 3] = std::array::from_fn(|d| lo[d] + ext[d] * rand());
            let inside_out = Aabb::new(
                std::array::from_fn(|d| c[d] + 0.01 * ext[d]),
                std::array::from_fn(|d| c[d] - 0.01 * ext[d]),
            );
            let mut solids = vec![
                Solid::Slab { aabb: Aabb::EMPTY },
                Solid::Slab { aabb: inside_out },
                Solid::Slab { aabb: m.hole_bin_box(at) },
            ];
            for place in 0..3 {
                for kind in 0..4 {
                    let size = diag * (0.02 + 0.6 * rand());
                    let mut c: [f64; 3] = std::array::from_fn(|d| lo[d] + ext[d] * rand());
                    match place {
                        0 => c[0] += 10.0 * diag + ext[0],
                        1 => {
                            let d = (rand() * 3.0) as usize;
                            c[d] = if rand() < 0.5 { lo[d] } else { lo[d] + ext[d] };
                        }
                        _ => {}
                    }
                    let r: [f64; 3] = std::array::from_fn(|_| size * (0.2 + rand()));
                    let th = 6.0 * rand();
                    let axes = [[th.cos(), th.sin(), 0.0], [-th.sin(), th.cos(), 0.0], [0.0, 0.0, 1.0]];
                    solids.push(match kind {
                        0 => Solid::Ellipsoid { center: c, radii: r },
                        1 => Solid::Cylinder {
                            p0: c,
                            p1: std::array::from_fn(|d| c[d] + axes[0][d] * r[0]),
                            radius: r[1],
                        },
                        2 => Solid::Slab { aabb: Aabb::new(
                            std::array::from_fn(|d| c[d] - r[d]),
                            std::array::from_fn(|d| c[d] + r[d]),
                        ) },
                        _ => Solid::OrientedSlab { center: c, axes, half: r },
                    });
                }
            }
            let (mut classes, mut reach) = (Vec::new(), Vec::new());
            for pad in [0.0, diag * 0.01, diag * 1e6, f64::NAN] {
                let mut want = Vec::new();
                let want_flops = classify_solids_reference(m, &solids, pad, &mut want);
                let want_reach: Vec<Aabb> =
                    want.iter().filter_map(|c| hole_reach_reference(m, c)).collect();
                for round in 0..2 {
                    let flops = classify_solids_into(m, &solids, pad, &mut classes, &mut reach);
                    let what = format!("pad {pad:e}, hole lattice {:?}, round {round}", m.hole_nb);
                    proptest::prop_assert_eq!(flops, want_flops, "flops: {}", what);
                    proptest::prop_assert!(classes == want, "classes: {}", what);
                    let bits = |b: &[Aabb]| -> Vec<[u64; 6]> {
                        b.iter().map(|b| {
                            let [x, y, z] = b.min.map(f64::to_bits);
                            let [u, v, w] = b.max.map(f64::to_bits);
                            [x, y, z, u, v, w]
                        }).collect()
                    };
                    proptest::prop_assert_eq!(bits(&reach), bits(&want_reach), "reach: {}", what);
                }
            }
        }
    }
}
