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
//!   handful instead of re-walking the block (see `donor.rs`),
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
//! The build is three passes, O(cells + bins + list entries) together: bin
//! every owned cell (first cell to land in a bin seeds it; every bin its box
//! reaches lists it), fill every empty bin from its nearest seeded bin
//! (`nearest_filled`), and resolve the seeds into the final lattice.
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
    /// cells are bit-exact copies of the first column's.
    list_start: Vec<u32>,
    list_cells: Vec<u32>,
    /// The global part of the boxes' inflation (`1e-9` of the lattice
    /// diagonal), kept for [`InverseMap::cell_box_admits`].
    diag_eps: f64,
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
        let mut binned = bin_cells(block, &bounds, nb);

        // Fill empty bins from their nearest seeded bin. Bins far from any
        // cell — the hollow middle of an annulus — still answer with the
        // closest real cell, which is exactly the right walk start. (Scoped:
        // the search's scratch is freed before the final lattice exists.)
        let filled = {
            let (nearest, _visits) = nearest_filled(nb, |b| binned.seeds[b].is_some());
            fill_from(&mut binned.seeds, &nearest)
        };
        binned.flops += FLOPS_PER_BIN_FILL * filled;

        Self::from_seeds(block, bounds, nb, binned)
    }

    /// Last build pass: resolve the per-bin seeds into the final lattice.
    fn from_seeds(block: &Block, bounds: Aabb, nb: [usize; 3], binned: Binned) -> InverseMap {
        let Binned { seeds, list_start, list_cells, diag_eps, occupancy, mask_nb, mask, flops } =
            binned;
        // A block with no owned cells (degenerate slivers) still gets a
        // valid map: every query answers the owned-region corner.
        let dims = block.local_dims;
        let fallback = dims.offset(block.owned_local().lo) as u32;
        InverseMap {
            bounds,
            nb,
            dims,
            seeds: seeds.into_iter().map(|s| s.unwrap_or(fallback)).collect(),
            list_start,
            list_cells,
            diag_eps,
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
    /// [`query`](Self::query)), in ascending storage order, each as the flat
    /// offset of its anchor node ([`cell_at`](Self::cell_at) names it).
    /// Complete: an owned-anchored cell of the block that contains `p` to
    /// within the walk's tolerance is in the list, or is the seam duplicate
    /// of one that is — so a cell that is not listed need never be inverted
    /// for `p`.
    pub fn listed(&self, p: [f64; 3]) -> &[u32] {
        let b = bin_index(&self.bounds, self.nb, self.to_lattice(p));
        &self.list_cells[self.list_start[b] as usize..self.list_start[b + 1] as usize]
    }

    /// The cell a list entry stands for.
    pub fn cell_at(&self, flat: u32) -> Ijk {
        self.dims.unoffset(flat as usize)
    }

    /// Can the listed cell `flat` of `block` — the block at its *current*
    /// geometry — hold `p`? `false` only when `p` lies outside the box of
    /// the cell's corners inflated as the lists' and the fine mask's boxes
    /// were: a listed cell that fails this is not worth an inversion
    /// ([`FLOPS_PER_CANDIDATE_BOX`] instead of a Newton solve).
    pub fn cell_box_admits(&self, block: &Block, flat: u32, p: [f64; 3]) -> bool {
        let (cb, longest) = cell_box(block, flat as usize);
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

    /// Physical box of one hole-lattice bin.
    fn hole_bin_box(&self, b: usize) -> Aabb {
        let (bi, bj, bk) = unflatten(b, self.hole_nb);
        let ext = self.bounds.extent();
        let f = |lo: f64, e: f64, n: usize, i: usize| -> (f64, f64) {
            if n <= 1 {
                (lo, lo + e)
            } else {
                let w = e / n as f64;
                (lo + w * i as f64, lo + w * (i + 1) as f64)
            }
        };
        let (x0, x1) = f(self.bounds.min[0], ext[0], self.hole_nb[0], bi);
        let (y0, y1) = f(self.bounds.min[1], ext[1], self.hole_nb[1], bj);
        let (z0, z1) = f(self.bounds.min[2], ext[2], self.hole_nb[2], bk);
        Aabb::new([x0, y0, z0], [x1, y1, z1])
    }
}

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
    assert!(dims.count() < u32::MAX as usize, "block of {dims:?} overflows u32 cell indices");
    let mask_nb = mask_bins(bounds.extent(), owned_cells(block), block.two_d);
    let nbins = nb[0] * nb[1] * nb[2];
    let mut seeds: Vec<Option<u32>> = vec![None; nbins];
    let mut occupancy = [0u64; OCC_WORDS];
    let mut mask = vec![0u64; (mask_nb[0] * mask_nb[1] * mask_nb[2]).div_ceil(64)];
    let mut flops = 0u64;
    // The lists are filled once their lengths are known: the sweep counts
    // each bin's entries and keeps every listed cell's bin ranges.
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
                let ranges = bin_ranges(&fine, nb);
                for_bins_in(ranges, nb, |b| list_start[b + 1] += 1);
                listed.push((flat, ranges.map(|(lo, hi)| (lo as u16, hi as u16))));
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
    for (flat, ranges) in listed {
        for_bins_in(ranges.map(|(lo, hi)| (lo as usize, hi as usize)), nb, |b| {
            list_cells[list_start[b + 1] as usize] = flat;
            list_start[b + 1] += 1;
        });
    }
    Binned { seeds, list_start, list_cells, diag_eps, occupancy, mask_nb, mask, flops }
}

/// [`nearest_filled`]'s answer for every bin of a lattice with no filled bin.
const NO_BIN: u32 = u32::MAX;

/// Second build pass: for every bin of the `nb` lattice, the flat index of
/// its nearest filled bin — minimum Chebyshev distance, ties to the lowest
/// flat index; a filled bin answers itself. Also returns the number of bins
/// the search examined (tests bound it: the fill must stay linear).
///
/// A layered multi-source breadth-first search over the 26-neighbourhood,
/// whose hop count *is* the Chebyshev distance on a full lattice. Layer `r`
/// takes `label(b) = min label(n)` over `b`'s neighbours `n` in layer
/// `r − 1`. That is exact: stepping from `b` one bin toward a nearest filled
/// bin `f`, on every axis where they differ, reaches a neighbour at distance
/// exactly `r − 1` from `f` that can be no closer to anything else, and
/// conversely every nearest filled bin of such a neighbour is at distance
/// `≤ r` from `b` — so `b`'s nearest set is the union of theirs. Each bin
/// expands once: O(bins), against O(empty × filled) for a scan.
fn nearest_filled(nb: [usize; 3], is_filled: impl Fn(usize) -> bool) -> (Vec<u32>, u64) {
    let nbins = nb[0] * nb[1] * nb[2];
    assert!(nbins < NO_BIN as usize, "inverse-map lattice of {nbins} bins overflows u32 labels");
    let mut label = vec![NO_BIN; nbins];
    let mut dist = vec![NO_BIN; nbins];
    let mut frontier: Vec<u32> = Vec::new();
    for b in 0..nbins {
        if is_filled(b) {
            label[b] = b as u32;
            dist[b] = 0;
            frontier.push(b as u32);
        }
    }
    let mut next: Vec<u32> = Vec::new();
    let mut visits = 0u64;
    let mut r = 0u32;
    while !frontier.is_empty() {
        r += 1;
        for &f in &frontier {
            let lf = label[f as usize];
            let (bi, bj, bk) = unflatten(f as usize, nb);
            let (i0, i1) = (bi.saturating_sub(1), (bi + 1).min(nb[0] - 1));
            for k in bk.saturating_sub(1)..=(bk + 1).min(nb[2] - 1) {
                for j in bj.saturating_sub(1)..=(bj + 1).min(nb[1] - 1) {
                    let row = (k * nb[1] + j) * nb[0];
                    visits += (i1 - i0 + 1) as u64;
                    for n in row + i0..=row + i1 {
                        if dist[n] == NO_BIN {
                            dist[n] = r;
                            label[n] = lf;
                            next.push(n as u32);
                        } else if dist[n] == r && lf < label[n] {
                            label[n] = lf;
                        }
                    }
                }
            }
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
    (label, visits)
}

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

/// Flattened fine/hole-lattice bin index of a point (row-major, i fastest).
fn bin_index(bounds: &Aabb, nb: [usize; 3], p: [f64; 3]) -> usize {
    let bi = axis_bin(p[0], bounds.min[0], bounds.max[0], nb[0]);
    let bj = axis_bin(p[1], bounds.min[1], bounds.max[1], nb[1]);
    let bk = axis_bin(p[2], bounds.min[2], bounds.max[2], nb[2]);
    (bk * nb[1] + bj) * nb[0] + bi
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
/// into `classes` (one `Vec<BinClass>` per solid, bin-major). `pad_hint`
/// must be the same padded-bbox inflation the unmasked cutter uses, so an
/// `Outside` verdict reproduces its bounding-box rejection exactly. Returns
/// the flops spent. The outer vector is resized to the solid count and the
/// inner per-bin vectors keep their capacity, so a steady-state
/// re-classification allocates nothing.
pub fn classify_solids_into(
    inv: &InverseMap,
    solids: &[Solid],
    pad_hint: f64,
    classes: &mut Vec<Vec<BinClass>>,
) -> u64 {
    let nbins = inv.hole_bins();
    let mut flops = 0u64;
    classes.truncate(solids.len());
    while classes.len() < solids.len() {
        classes.push(Vec::new());
    }
    for (s, per_bin) in solids.iter().zip(classes.iter_mut()) {
        let padded = s.bbox().inflate(pad_hint);
        per_bin.clear();
        for b in 0..nbins {
            flops += FLOPS_PER_BIN_BBOX;
            let bb = inv.hole_bin_box(b);
            if !bb.intersects(&padded) {
                per_bin.push(BinClass::Outside);
                continue;
            }
            // Inside needs every corner (and the center, to guard the
            // degenerate flat bins of 2-D blocks) contained at zero pad;
            // every solid shape is convex, so the whole bin follows.
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
            per_bin.push(if inside { BinClass::Inside } else { BinClass::Boundary });
        }
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::donor::{walk_search, SearchCost, SearchOutcome};
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
        assert!(classify_solids_into(&inv, &[solid], 0.1, &mut classes) > 0);
        let classes = &classes[0];
        let mut counts = [0usize; 3];
        for (bin, cls) in classes.iter().enumerate() {
            let bb = inv.hole_bin_box(bin);
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
    /// reference [`nearest_filled`] must agree with bin for bin.
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

    /// [`InverseMap::build_with_bins`] with the reference fill in place of
    /// the layered search; every other pass is the production one.
    fn build_reference(block: &Block, bounds: Aabb, nb: [usize; 3]) -> InverseMap {
        let mut binned = bin_cells(block, &bounds, nb);
        let filled: Vec<bool> = binned.seeds.iter().map(Option::is_some).collect();
        let nearest = nearest_filled_reference(nb, &filled);
        binned.flops += FLOPS_PER_BIN_FILL * fill_from(&mut binned.seeds, &nearest);
        InverseMap::from_seeds(block, bounds, nb, binned)
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

    /// Whole-map equality against the reference build on every grid of the
    /// three paper systems, as whole-grid blocks and under an 18-rank
    /// static partition: the same seeds, occupancy, lattices and flop charge,
    /// hence the same walk starts and virtual clocks.
    #[test]
    fn builds_equal_the_reference_on_every_paper_grid() {
        use overset_balance::{fit_np_to_dims_min, static_balance, Partition};
        use overset_grid::gen::{airfoil, delta_wing, store};
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut empty_bins = 0usize;
        for grids in [
            store::store_system(0.3),
            airfoil::airfoil_system(0.5),
            delta_wing::delta_wing_system(0.1),
        ] {
            let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
            let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
            let min_widths: Vec<[usize; 3]> =
                grids.iter().map(|g| if g.periodic_i { [2, 1, 1] } else { [1, 1, 1] }).collect();
            let balanced = static_balance(&sizes, 18).unwrap();
            let np18 = fit_np_to_dims_min(&sizes, &dims, &balanced.np, &min_widths).unwrap();
            for np in [vec![1; grids.len()], np18] {
                let part = Partition::build(&dims, &np);
                for (rank, a) in part.ranks.iter().enumerate() {
                    let g = &grids[a.grid];
                    let nbrs = part.neighbors_of(rank, g.periodic_i);
                    let block = Block::from_grid(a.grid, g, a.boxx, nbrs, &fc);
                    let m = InverseMap::build(&block);
                    let r = build_reference(&block, m.bounds, m.nb);
                    let what = format!("{} rank {rank} of {}", g.name, part.ranks.len());
                    assert_eq!(m.seeds, r.seeds, "seeds: {what}");
                    assert!(m.list_start == r.list_start && m.list_cells == r.list_cells, "{what}");
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
                        assert!(list.windows(2).all(|c| c[0] < c[1]), "unsorted list: {what}");
                    }
                    let cells: usize = owned_cells(&block).iter().product();
                    assert!(m.list_cells.len() <= 16 * cells, "{what}");
                    assert_eq!(m.heap_bytes().0, 4 * m.seeds.len(), "a seed is a u32: {what}");
                    assert_eq!(m.occupancy, r.occupancy, "occupancy: {what}");
                    assert_eq!((m.nb, m.hole_nb), (r.nb, r.hole_nb), "lattices: {what}");
                    assert_eq!((m.mask_nb, &m.mask), (r.mask_nb, &r.mask), "fine mask: {what}");
                    // At most 48³ bits, and at most 64 per cell: cutting a
                    // grid over more ranks does not multiply its mask.
                    let cells: usize = owned_cells(&block).iter().product();
                    assert!(m.mask.len() * 64 < MASK_MAX_BITS.min(64 * cells) + 64, "{what}");
                    assert_eq!(m.build_flops, r.build_flops, "build_flops: {what}");
                    let binned = bin_cells(&block, &m.bounds, m.nb).seeds;
                    empty_bins += binned.iter().filter(|s| s.is_none()).count();
                }
            }
        }
        // The systems must actually exercise the fill.
        assert!(empty_bins > 10_000, "only {empty_bins} empty bins filled");
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
}
