//! Hole cutting and fringe (inter-grid boundary point) identification.
//!
//! "Holes are cut in grids which intersect solid surfaces": every node of a
//! block lying inside another grid's solid geometry is blanked. Field nodes
//! adjacent to holes become *hole fringe* points, and the nodes of
//! `OversetOuter` boundary patches become *outer-boundary* points; both sets
//! are the inter-grid boundary points (IGBPs) whose values DCF3D supplies by
//! interpolation each step.

use crate::arena::ConnArena;
use crate::donor::PackedIjk;
use crate::inverse_map::{classify_solids_into, BinClass, InverseMap};
use crate::kernels::containment_lanes;
use overset_grid::curvilinear::{BcKind, Solid};
use overset_grid::index::Ijk;
use overset_grid::Aabb;
use overset_solver::{Blank, Block, Isa, W};

/// Safety pad (in local cell widths) around solids when blanking.
pub const HOLE_PAD_CELLS: f64 = 0.25;

/// Number of fringe layers at overset outer boundaries (single fringe, as
/// was common in the paper's era; the JST stencil degrades gracefully to
/// second differences beside interpolated data).
pub const OUTER_FRINGE_LAYERS: usize = 1;

/// Flops per (node, solid) bounding-box pre-check — and per node for the
/// masked cutter's bin lookup, which replaces those checks.
pub const FLOPS_PER_NODE_BBOX: u64 = 4;
/// Flops per detailed containment test (nodes inside a solid's box).
pub const FLOPS_PER_DETAILED_TEST: u64 = 25;

/// One IGBP on a block: its local node, in one packed word. Its position is
/// the block's coordinate there, read when the search needs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Igbp(PackedIjk);

impl Igbp {
    /// The IGBP at local node `node`.
    pub(crate) fn new(node: Ijk) -> Self {
        Igbp(PackedIjk::new(node))
    }

    /// The local node.
    pub fn node(self) -> Ijk {
        self.0.ijk()
    }

    /// The physical position on `block`, the block the IGBP was found on.
    pub fn xyz(self, block: &Block) -> [f64; 3] {
        block.coords[self.node()]
    }

    /// The packed node: the donor cache's key.
    pub(crate) fn packed(self) -> PackedIjk {
        self.0
    }
}

/// Re-cut holes and identify fringe points on a block against the solids of
/// *other* grids. Returns (IGBP list, estimated flops).
///
/// The cut starts over on the block's *owned* nodes, every one reset to
/// `Field` first. Halo nodes keep the blanking they have — nothing carries
/// `iblank` across a subdomain face yet (the open halo-blanking item of
/// ROADMAP.md) — and the fringe test reads them as they are.
///
/// With an inverse map, the map's hole lattice is classified per solid
/// (inside / outside / boundary) once, and the per-node detailed containment
/// test runs only for nodes in *boundary* bins. Blanking is bit-identical to
/// the unmasked cutter (`inv = None`) — only the flop charge changes.
///
/// The host visits only the nodes a solid can reach: the padded solid boxes
/// (no map), or the hole-lattice bins some solid does not classify `Outside`
/// (map). Any other node is neither cut nor charged differently from its
/// neighbours — its per-solid box checks all fail, or its bin resolves every
/// solid to `Outside` — so one box test passes it over, and the flop charge
/// still pays for it what the per-node sweep charged: `FLOPS_PER_NODE_BBOX`
/// per solid and node plus one per node, or with a map the node's bin
/// lookup. The virtual clock keeps the full sweep; the host does not.
///
/// The block's IGBPs replace the contents of `igbps`, in storage order;
/// the caller keeps the list, and its capacity, between cuts. A fresh arena
/// gives the same answer with cold buffers. Returns the flop charge.
///
/// An inverse map with a non-identity pose is ignored here: solid masks
/// are classified in the map's *lattice* frame, and re-deriving them
/// through the pose is not bit-safe against the unmasked cutter's
/// world-frame verdicts. A recently-moved grid therefore pays the
/// unmasked per-node cost until its next full rebuild re-anchors the
/// lattice — blanking stays bit-identical throughout.
pub fn cut_holes_and_find_fringe(
    block: &mut Block,
    solids: &[(usize, Solid)],
    inv: Option<&InverseMap>,
    arena: &mut ConnArena,
    igbps: &mut Vec<Igbp>,
) -> u64 {
    let inv = inv.filter(|m| m.pose_is_identity());
    let ow = block.owned_local();
    let d = block.local_dims;
    let isa = arena.isa;
    let ConnArena { foreign_solids, solid_boxes, bin_classes, reach_boxes, .. } = arena;

    foreign_solids.clear();
    foreign_solids.extend(solids.iter().filter(|(g, _)| *g != block.grid_id).map(|(_, s)| *s));
    let has_solids = !foreign_solids.is_empty();
    let mut flops = 0u64;
    // Where a solid can reach (and with a map, its hole-lattice classes).
    let mut classes: Option<&[Vec<BinClass>]> = None;
    let mut reach: &[Aabb] = &[];
    if has_solids {
        // Pad boxes by the largest plausible pad once.
        let probe =
            Ijk::new((ow.lo.i + ow.hi.i) / 2, (ow.lo.j + ow.hi.j) / 2, (ow.lo.k + ow.hi.k) / 2);
        let at = d.offset(probe);
        let pad_hint = HOLE_PAD_CELLS * local_spacing(block.coords.as_slice(), d.ni, probe.i, at);
        let pad_hint = pad_hint * 4.0;
        solid_boxes.clear();
        solid_boxes.extend(foreign_solids.iter().map(|s| s.bbox().inflate(pad_hint)));
        // With an inverse map, classify its hole lattice against each solid
        // once; whole bins then resolve without per-node detailed tests.
        reach = match inv {
            Some(m) => {
                flops +=
                    classify_solids_into(m, foreign_solids, pad_hint, bin_classes, reach_boxes);
                classes = Some(bin_classes);
                &reach_boxes[..]
            }
            None => &solid_boxes[..],
        };
    }
    let hull = reach.iter().fold(Aabb::EMPTY, |h, b| h.union(b));

    // One pass over the owned rows: reset them, and cut the nodes a solid
    // reaches, `W` at a time.
    let (coords, iblank) = (block.coords.as_slice(), block.iblank.as_mut_slice());
    let mut lanes = Lanes::new(isa, foreign_solids, solid_boxes, classes);
    let mut reached = 0usize;
    for k in ow.lo.k..ow.hi.k {
        for j in ow.lo.j..ow.hi.j {
            let row = d.offset(Ijk::new(0, j, k));
            iblank[row + ow.lo.i..row + ow.hi.i].fill(Blank::Field);
            if !has_solids {
                continue;
            }
            for i in ow.lo.i..ow.hi.i {
                let x = coords[row + i];
                if !reaches(&hull, reach, x) {
                    continue;
                }
                reached += 1;
                let l = lanes.n;
                lanes.nodes[l] = row + i;
                for (m, &xm) in x.iter().enumerate() {
                    lanes.xs[m * W + l] = xm;
                }
                lanes.pads[l] = HOLE_PAD_CELLS * local_spacing(coords, d.ni, i, row + i);
                lanes.bins[l] = inv.map_or(0, |m| m.hole_bin(x));
                lanes.n += 1;
                if lanes.n == W {
                    flops += lanes.cut(iblank);
                }
            }
        }
    }
    flops += lanes.cut(iblank);
    if has_solids {
        // The nodes passed over, charged as the per-node sweep charged them.
        let per_node = match classes {
            Some(_) => FLOPS_PER_NODE_BBOX,
            None => FLOPS_PER_NODE_BBOX * (1 + foreign_solids.len() as u64),
        };
        flops += (ow.count() - reached) as u64 * per_node;
    }

    // Outer-boundary fringe: layers of faces carrying OversetOuter patches,
    // row by row.
    for face in 0..6 {
        if block.face_bc[face] != Some(BcKind::OversetOuter) {
            continue;
        }
        let b = block.layer_box(face, OUTER_FRINGE_LAYERS, false);
        let iblank = block.iblank.as_mut_slice();
        for k in b.lo.k..b.hi.k {
            for j in b.lo.j..b.hi.j {
                let row = d.offset(Ijk::new(0, j, k));
                for x in &mut iblank[row + b.lo.i..row + b.hi.i] {
                    if *x != Blank::Hole {
                        *x = Blank::Fringe;
                    }
                }
            }
        }
    }

    // Hole fringe — field nodes with a hole neighbour (6-connectivity,
    // in-plane for 2-D blocks) — and the IGBPs, every fringe node, in one
    // pass. (A node turned fringe here is no hole to the nodes after it.)
    let iblank = block.iblank.as_mut_slice();
    let (sj, sk) = (d.ni, d.ni * d.nj);
    igbps.clear();
    for k in ow.lo.k..ow.hi.k {
        let (k_lo, k_hi) = (!block.two_d && k > 0, !block.two_d && k + 1 < d.nk);
        for j in ow.lo.j..ow.hi.j {
            let (j_lo, j_hi) = (j > 0, j + 1 < d.nj);
            let row = d.offset(Ijk::new(0, j, k));
            for i in ow.lo.i..ow.hi.i {
                let o = row + i;
                if has_solids && iblank[o] == Blank::Field {
                    let hole = |q: usize| iblank[q] == Blank::Hole;
                    if (i > 0 && hole(o - 1))
                        || (i + 1 < d.ni && hole(o + 1))
                        || (j_lo && hole(o - sj))
                        || (j_hi && hole(o + sj))
                        || (k_lo && hole(o - sk))
                        || (k_hi && hole(o + sk))
                    {
                        iblank[o] = Blank::Fringe;
                    }
                }
                if iblank[o] == Blank::Fringe {
                    igbps.push(Igbp::new(Ijk::new(i, j, k)));
                }
            }
        }
    }
    flops
}

/// Is `x` in some box of `reach` (`hull`: their union)? A NaN coordinate is
/// no evidence of being outside: such a node is cut like any other.
#[inline]
fn reaches(hull: &Aabb, reach: &[Aabb], x: [f64; 3]) -> bool {
    let outside = |b: &Aabb| (0..3).any(|d| x[d] < b.min[d] || x[d] > b.max[d]);
    !outside(hull) && reach.iter().any(|b| !outside(b))
}

/// The solids a block is cut against, and up to `W` of its reached nodes —
/// one per SIMD lane — waiting to be cut together.
struct Lanes<'a> {
    isa: Isa,
    solids: &'a [Solid],
    /// The solids' padded boxes.
    boxes: &'a [Aabb],
    /// With a map, the solids' hole-lattice classes.
    classes: Option<&'a [Vec<BinClass>]>,
    /// Flat storage offsets of the nodes.
    nodes: [usize; W],
    /// Coordinate `m` of lane `l` at `m * W + l`.
    xs: [f64; 3 * W],
    /// The nodes' hole pads.
    pads: [f64; W],
    /// The nodes' hole-lattice bins (read with `classes` only).
    bins: [usize; W],
    /// Lanes filled.
    n: usize,
}

impl<'a> Lanes<'a> {
    fn new(
        isa: Isa,
        solids: &'a [Solid],
        boxes: &'a [Aabb],
        classes: Option<&'a [Vec<BinClass>]>,
    ) -> Self {
        Lanes {
            isa,
            solids,
            boxes,
            classes,
            nodes: [0; W],
            xs: [0.0; 3 * W],
            pads: [0.0; W],
            bins: [0; W],
            n: 0,
        }
    }

    /// Cut the filled lanes, blank their holes in `iblank`, empty the lanes
    /// and return the flops. Per-lane masks replay the scalar per-node loop —
    /// bin-class skips, box pre-check, detailed test, first-hit break — so
    /// the verdicts *and* the flop charges are those of testing one node at
    /// a time, for every `Isa`. The box pre-check runs per node first, and a
    /// solid whose box holds no lane costs no containment call.
    fn cut(&mut self, iblank: &mut [Blank]) -> u64 {
        let n = std::mem::take(&mut self.n);
        if n == 0 {
            return 0;
        }
        // Idle lanes replicate lane 0 (their results are masked out).
        for l in n..W {
            for m in 0..3 {
                self.xs[m * W + l] = self.xs[m * W];
            }
            self.pads[l] = self.pads[0];
        }
        // One charge per node: the per-solid loop overhead (unmasked) or the
        // hole-lattice bin lookup (masked).
        let mut flops = n as u64 * FLOPS_PER_NODE_BBOX;
        let mut hole = [false; W];
        let mut alive = [false; W];
        alive[..n].fill(true);
        for (si, (s, bb)) in self.solids.iter().zip(self.boxes).enumerate() {
            let mut in_box = [false; W];
            for l in 0..n {
                if !alive[l] {
                    continue;
                }
                if let Some(c) = self.classes {
                    match c[si][self.bins[l]] {
                        // No point of this bin reaches the padded box: the
                        // unmasked cutter's bbox pre-check would skip too —
                        // without its per-solid flops.
                        BinClass::Outside => continue,
                        // Whole bin inside at zero pad; any per-node pad ≥ 0
                        // only blanks more: verdict certain.
                        BinClass::Inside => {
                            hole[l] = true;
                            alive[l] = false;
                            continue;
                        }
                        BinClass::Boundary => {}
                    }
                }
                flops += FLOPS_PER_NODE_BBOX;
                in_box[l] = bb.contains([self.xs[l], self.xs[W + l], self.xs[2 * W + l]]);
            }
            if in_box.contains(&true) {
                let (mut inb, mut ins) = ([false; W], [false; W]);
                containment_lanes(self.isa, s, bb, &self.xs, &self.pads, &mut inb, &mut ins);
                for l in 0..n {
                    if in_box[l] {
                        flops += FLOPS_PER_DETAILED_TEST;
                        if ins[l] {
                            hole[l] = true;
                            alive[l] = false;
                        }
                    }
                }
            }
            if !alive.contains(&true) {
                break;
            }
        }
        for l in 0..n {
            if hole[l] {
                iblank[self.nodes[l]] = Blank::Hole;
            }
        }
        flops
    }
}

/// Distance from the node at `i` (flat offset `at`) of a row to its `+i`
/// neighbour, or its `−i` one at the row's end.
fn local_spacing(coords: &[[f64; 3]], ni: usize, i: usize, at: usize) -> f64 {
    let (a, b) = (coords[at], coords[if i + 1 < ni { at + 1 } else { at - 1 }]);
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverse_map::tests::classify_solids_reference;
    use overset_grid::curvilinear::{BoundaryPatch, CurvilinearGrid, Face, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::Dims;
    use overset_solver::FlowConditions;

    /// The cutter on a fresh arena.
    fn cut(
        block: &mut Block,
        solids: &[(usize, Solid)],
        inv: Option<&InverseMap>,
    ) -> (Vec<Igbp>, u64) {
        let mut igbps = Vec::new();
        let flops =
            cut_holes_and_find_fringe(block, solids, inv, &mut ConnArena::new(), &mut igbps);
        (igbps, flops)
    }

    fn bg_block(n: usize, outer_overset: bool) -> Block {
        let d = Dims::new(n, n, 1);
        let h = 4.0 / (n - 1) as f64;
        let coords = Field3::from_fn(d, |p| [-2.0 + h * p.i as f64, -2.0 + h * p.j as f64, 0.0]);
        let mut g = CurvilinearGrid::new("bg", coords, GridKind::Background);
        if outer_overset {
            g.patches = Face::ALL[..4]
                .iter()
                .map(|&f| BoundaryPatch { face: f, kind: BcKind::OversetOuter })
                .collect();
        }
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        Block::from_grid(1, &g, d.full_box(), [None; 6], &fc)
    }

    #[test]
    fn solid_cuts_hole_with_fringe_ring() {
        let mut b = bg_block(21, false);
        let solids = vec![(0usize, Solid::Ellipsoid { center: [0.0; 3], radii: [0.7, 0.7, 10.0] })];
        let (igbps, flops) = cut(&mut b, &solids, None);
        assert!(flops > 0);
        // Center is a hole.
        let c = b.to_local(Ijk::new(10, 10, 0));
        assert_eq!(b.iblank[c], Blank::Hole);
        // Holes exist, fringe ring surrounds them.
        let holes = b.owned_local().iter().filter(|&p| b.iblank[p] == Blank::Hole).count();
        assert!(holes > 4, "holes = {holes}");
        assert!(!igbps.is_empty());
        // Every fringe node touches a hole.
        for ig in &igbps {
            let p = ig.node();
            let mut touches = false;
            for dir in 0..2 {
                for d in [-1isize, 1] {
                    let mut q = p;
                    q.set(dir, (q.get(dir) as isize + d) as usize);
                    if b.iblank[q] == Blank::Hole {
                        touches = true;
                    }
                }
            }
            assert!(touches, "fringe {p:?} not adjacent to a hole");
        }
    }

    #[test]
    fn own_solids_do_not_cut_own_grid() {
        let mut b = bg_block(11, false);
        // Solid belongs to grid 1 == block's own grid.
        let solids = vec![(1usize, Solid::Ellipsoid { center: [0.0; 3], radii: [0.7, 0.7, 10.0] })];
        let (igbps, _) = cut(&mut b, &solids, None);
        assert!(igbps.is_empty());
        for p in b.owned_local().iter() {
            assert_eq!(b.iblank[p], Blank::Field);
        }
    }

    #[test]
    fn outer_boundary_becomes_fringe() {
        let mut b = bg_block(11, true);
        let (igbps, _) = cut(&mut b, &[], None);
        // Single fringe on all 4 edges of an 11x11 grid: 11^2 - 9^2 = 40.
        assert_eq!(igbps.len(), 40);
        let ow = b.owned_local();
        assert_eq!(b.iblank[Ijk::new(ow.lo.i, ow.lo.j + 5, 0)], Blank::Fringe);
        assert_eq!(b.iblank[Ijk::new(ow.lo.i + 5, ow.lo.j + 5, 0)], Blank::Field);
    }

    #[test]
    fn recut_resets_previous_state() {
        let mut b = bg_block(15, false);
        let near = vec![(0usize, Solid::Ellipsoid { center: [0.0; 3], radii: [0.7, 0.7, 10.0] })];
        cut(&mut b, &near, None);
        let before: usize = b.owned_local().iter().filter(|&p| b.iblank[p] == Blank::Hole).count();
        assert!(before > 0);
        // Solid moves away: holes must vanish.
        let far =
            vec![(0usize, Solid::Ellipsoid { center: [50.0, 0.0, 0.0], radii: [0.7, 0.7, 10.0] })];
        let (igbps, _) = cut(&mut b, &far, None);
        let after: usize = b.owned_local().iter().filter(|&p| b.iblank[p] == Blank::Hole).count();
        assert_eq!(after, 0);
        assert!(igbps.is_empty());
    }

    #[test]
    fn masked_cut_matches_unmasked_bitwise() {
        // 2-D background block against two foreign solids: blanking, fringe
        // and IGBPs must be bit-identical with and without the mask.
        let mut a = bg_block(41, false);
        let mut b = bg_block(41, false);
        let solids = vec![
            (0usize, Solid::Ellipsoid { center: [0.3, -0.2, 0.0], radii: [0.8, 0.6, 10.0] }),
            (
                0usize,
                Solid::Slab { aabb: overset_grid::Aabb::new([-1.8, 1.0, -1.0], [-0.9, 1.9, 1.0]) },
            ),
        ];
        let inv = InverseMap::build(&a);
        let (ia, _) = cut(&mut a, &solids, Some(&inv));
        let (ib, _) = cut(&mut b, &solids, None);
        assert_eq!(ia, ib);
        for p in a.owned_local().iter() {
            assert_eq!(a.iblank[p], b.iblank[p], "blanking differs at {p:?}");
        }
    }

    #[test]
    fn masked_cut_is_cheaper_on_3d_blocks() {
        let d = Dims::new(33, 33, 33);
        let h = 4.0 / 32.0;
        let coords = Field3::from_fn(d, |p| {
            [-2.0 + h * p.i as f64, -2.0 + h * p.j as f64, -2.0 + h * p.k as f64]
        });
        let g = CurvilinearGrid::new("bg3", coords, GridKind::Background);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut a = Block::from_grid(1, &g, d.full_box(), [None; 6], &fc);
        let mut b = Block::from_grid(1, &g, d.full_box(), [None; 6], &fc);
        let solids = vec![
            (0usize, Solid::Ellipsoid { center: [0.0; 3], radii: [1.2, 1.0, 1.1] }),
            (0usize, Solid::Ellipsoid { center: [0.8, 0.6, -0.4], radii: [0.9, 1.1, 0.8] }),
        ];
        let inv = InverseMap::build(&a);
        let (ia, fa) = cut(&mut a, &solids, Some(&inv));
        let (ib, fb) = cut(&mut b, &solids, None);
        assert_eq!(ia, ib);
        for p in a.owned_local().iter() {
            assert_eq!(a.iblank[p], b.iblank[p]);
        }
        assert!(fa < fb, "masked cut {fa} flops vs unmasked {fb}");
    }

    #[test]
    fn moving_solid_shifts_the_hole() {
        let mut b = bg_block(21, false);
        let s0 =
            vec![(0usize, Solid::Ellipsoid { center: [-0.5, 0.0, 0.0], radii: [0.5, 0.5, 10.0] })];
        cut(&mut b, &s0, None);
        let left_hole = b.iblank[b.to_local(Ijk::new(7, 10, 0))] == Blank::Hole;
        let s1 =
            vec![(0usize, Solid::Ellipsoid { center: [0.5, 0.0, 0.0], radii: [0.5, 0.5, 10.0] })];
        cut(&mut b, &s1, None);
        let right_hole = b.iblank[b.to_local(Ijk::new(13, 10, 0))] == Blank::Hole;
        assert!(left_hole && right_hole);
        assert_ne!(b.iblank[b.to_local(Ijk::new(7, 10, 0))], Blank::Hole);
    }

    /// The cutter this module shipped before it visited only the nodes a
    /// solid reaches: every owned node padded, binned and tested against
    /// every foreign solid, `W` nodes at a time, then a scan for the hole
    /// fringe and one for the IGBPs. The reference the cutter must agree with
    /// bit for bit: blanking, IGBP list, flop charge.
    fn cut_holes_reference(
        block: &mut Block,
        solids: &[(usize, Solid)],
        inv: Option<&InverseMap>,
        isa: Isa,
    ) -> (Vec<Igbp>, u64) {
        fn local_spacing(block: &Block, p: Ijk) -> f64 {
            let d = block.local_dims;
            let q = if p.i + 1 < d.ni {
                Ijk::new(p.i + 1, p.j, p.k)
            } else {
                Ijk::new(p.i - 1, p.j, p.k)
            };
            let (a, b) = (block.coords[p], block.coords[q]);
            ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
        }
        let inv = inv.filter(|m| m.pose_is_identity());
        let ow = block.owned_local();
        for p in ow.iter() {
            block.iblank[p] = Blank::Field;
        }
        let foreign_solids: Vec<Solid> =
            solids.iter().filter(|(g, _)| *g != block.grid_id).map(|(_, s)| *s).collect();
        let mut flops = 0u64;
        if !foreign_solids.is_empty() {
            let probe =
                Ijk::new((ow.lo.i + ow.hi.i) / 2, (ow.lo.j + ow.hi.j) / 2, (ow.lo.k + ow.hi.k) / 2);
            let pad_hint = HOLE_PAD_CELLS * local_spacing(block, probe) * 4.0;
            let solid_boxes: Vec<Aabb> =
                foreign_solids.iter().map(|s| s.bbox().inflate(pad_hint)).collect();
            let mut bin_classes = Vec::new();
            let classes: Option<&[Vec<BinClass>]> = if let Some(m) = inv {
                flops += classify_solids_reference(m, &foreign_solids, pad_hint, &mut bin_classes);
                Some(&bin_classes)
            } else {
                None
            };
            let mut nodes = [Ijk::new(0, 0, 0); W];
            let mut xs = [0.0f64; 3 * W];
            let mut pads = [0.0f64; W];
            let mut bins = [None; W];
            let mut n_chunk = 0usize;
            let mut it = ow.iter();
            loop {
                match it.next() {
                    Some(p) => {
                        let x = block.coords[p];
                        nodes[n_chunk] = p;
                        for (m, &xm) in x.iter().enumerate() {
                            xs[m * W + n_chunk] = xm;
                        }
                        pads[n_chunk] = HOLE_PAD_CELLS * local_spacing(block, p);
                        bins[n_chunk] = inv.map(|m| m.hole_bin(x));
                        n_chunk += 1;
                        if n_chunk < W {
                            continue;
                        }
                    }
                    None => {
                        if n_chunk == 0 {
                            break;
                        }
                        for l in n_chunk..W {
                            for m in 0..3 {
                                xs[m * W + l] = xs[m * W];
                            }
                            pads[l] = pads[0];
                        }
                    }
                }
                flops += n_chunk as u64 * FLOPS_PER_NODE_BBOX;
                let mut hole = [false; W];
                let mut alive = [false; W];
                for a in alive.iter_mut().take(n_chunk) {
                    *a = true;
                }
                let mut inb = [false; W];
                let mut ins = [false; W];
                for (si, (s, bb)) in foreign_solids.iter().zip(solid_boxes.iter()).enumerate() {
                    let mut test = [false; W];
                    let mut any = false;
                    for l in 0..n_chunk {
                        if !alive[l] {
                            continue;
                        }
                        if let (Some(c), Some(b)) = (&classes, bins[l]) {
                            match c[si][b] {
                                BinClass::Outside => continue,
                                BinClass::Inside => {
                                    hole[l] = true;
                                    alive[l] = false;
                                    continue;
                                }
                                BinClass::Boundary => {}
                            }
                        }
                        flops += FLOPS_PER_NODE_BBOX;
                        test[l] = true;
                        any = true;
                    }
                    if any {
                        containment_lanes(isa, s, bb, &xs, &pads, &mut inb, &mut ins);
                        for l in 0..n_chunk {
                            if !test[l] || !inb[l] {
                                continue;
                            }
                            flops += FLOPS_PER_DETAILED_TEST;
                            if ins[l] {
                                hole[l] = true;
                                alive[l] = false;
                            }
                        }
                    }
                    if !alive.iter().any(|&a| a) {
                        break;
                    }
                }
                for l in 0..n_chunk {
                    if hole[l] {
                        block.iblank[nodes[l]] = Blank::Hole;
                    }
                }
                if n_chunk < W {
                    break;
                }
                n_chunk = 0;
            }
        }
        let mut fringe_nodes = Vec::new();
        if !foreign_solids.is_empty() {
            for p in ow.iter() {
                if block.iblank[p] != Blank::Field {
                    continue;
                }
                let mut near_hole = false;
                for &dir in block.active_dirs() {
                    for d in [-1isize, 1] {
                        let c = p.get(dir) as isize + d;
                        if c < 0 || c as usize >= block.local_dims.get(dir) {
                            continue;
                        }
                        let mut q = p;
                        q.set(dir, c as usize);
                        if block.iblank[q] == Blank::Hole {
                            near_hole = true;
                        }
                    }
                }
                if near_hole {
                    fringe_nodes.push(p);
                }
            }
        }
        for &p in fringe_nodes.iter() {
            block.iblank[p] = Blank::Fringe;
        }
        for face in 0..6 {
            if block.face_bc[face] != Some(BcKind::OversetOuter) {
                continue;
            }
            let layers = block.layer_box(face, OUTER_FRINGE_LAYERS, false);
            for p in layers.iter() {
                if block.iblank[p] != Blank::Hole {
                    block.iblank[p] = Blank::Fringe;
                }
            }
        }
        let mut igbps = Vec::new();
        for p in ow.iter() {
            if block.iblank[p] == Blank::Fringe {
                igbps.push(Igbp::new(p));
            }
        }
        (igbps, flops)
    }

    /// The blocks of a paper system the cutter is checked on, each with the
    /// grid it belongs to: every grid whole; every periodic grid cut in two
    /// halves in `i`, so that a block boundary lies on the seam; the 18-rank
    /// static partition.
    fn oracle_blocks(grids: &[CurvilinearGrid]) -> Vec<(usize, Block)> {
        use overset_balance::{fit_np_to_dims_min, static_balance, Partition};
        use overset_grid::index::IndexBox;
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let mut blocks = Vec::new();
        let min_widths: Vec<[usize; 3]> =
            grids.iter().map(|g| if g.periodic_i { [2, 1, 1] } else { [1, 1, 1] }).collect();
        let balanced = static_balance(&sizes, 18).unwrap();
        let np18 = fit_np_to_dims_min(&sizes, &dims, &balanced.np, &min_widths).unwrap();
        for np in [vec![1; grids.len()], np18] {
            let part = Partition::build(&dims, &np);
            for (rank, a) in part.ranks.iter().enumerate() {
                let g = &grids[a.grid];
                let nbrs = part.neighbors_of(rank, g.periodic_i);
                blocks.push((a.grid, Block::from_grid(a.grid, g, a.boxx, nbrs, &fc)));
            }
        }
        for (gi, g) in grids.iter().enumerate().filter(|(_, g)| g.periodic_i) {
            let d = g.dims();
            let half = d.ni / 2;
            for (lo, hi, other) in [(0, half, 1), (half, d.ni, 0)] {
                let owned = IndexBox::new(Ijk::new(lo, 0, 0), Ijk::new(hi, d.nj, d.nk));
                let nbrs = [Some(other), Some(other), None, None, None, None];
                blocks.push((gi, Block::from_grid(gi, g, owned, nbrs, &fc)));
            }
        }
        blocks
    }

    /// The cutter against [`cut_holes_reference`] over four moving steps of
    /// the three paper systems (store ×0.3, delta wing ×0.4, airfoil ×0.3),
    /// every block of [`oracle_blocks`], with its map and without one: the
    /// maps are built on the first step (identity pose), advanced on the
    /// second and fourth (the movers' maps posed), and rebuilt on the third
    /// (the movers' maps at the identity again, at moved geometry). Blanking
    /// of every local node, the IGBP list — order, nodes, coordinate bits —
    /// and the flop charge must be the reference's.
    #[test]
    fn cutter_agrees_with_the_per_node_sweep_on_the_paper_systems() {
        use crate::context::MapSlot;
        use overset_comm::MetricsRegistry;
        use overset_grid::gen::{airfoil, delta_wing, store};
        use overset_grid::RigidTransform;
        let drop = RigidTransform::translation([0.0, 0.0, -0.004])
            .then(&RigidTransform::rotation_about(store::STORE_CARRIAGE, [0.0, 1.0, 0.0], 1e-3));
        let descent = RigidTransform::translation([0.0, 0.0, -0.064 * 0.02]);
        let pitch =
            RigidTransform::rotation_about([0.25, 0.0, 0.0], [0.0, 0.0, 1.0], f64::to_radians(0.1));
        let isa = overset_solver::select_isa();
        let mut arena = ConnArena { isa, ..ConnArena::default() };
        let mut got = Vec::new();
        let (mut posed, mut masked, mut cut_nodes) = (0usize, 0usize, 0usize);
        for (name, grids, movers, step) in [
            ("store", store::store_system(0.3), &store::STORE_GRID_IDS[..], &drop),
            ("delta wing", delta_wing::delta_wing_system(0.4), &[0, 1, 2][..], &descent),
            ("airfoil", airfoil::airfoil_system(0.3), &[0][..], &pitch),
        ] {
            let mut solids: Vec<(usize, Solid)> = grids
                .iter()
                .enumerate()
                .flat_map(|(g, grid)| grid.solids.iter().map(move |s| (g, *s)))
                .collect();
            let mut blocks = oracle_blocks(&grids);
            let mut slots: Vec<MapSlot> = blocks.iter().map(|_| MapSlot::default()).collect();
            for n in 0..4 {
                for (g, s) in solids.iter_mut() {
                    if movers.contains(g) {
                        *s = s.transformed(step);
                    }
                }
                for ((g, block), slot) in blocks.iter_mut().zip(slots.iter_mut()) {
                    if movers.contains(g) {
                        block.apply_motion(step, 0.01);
                        slot.note_motion(step);
                        if n == 2 {
                            slot.invalidate();
                        }
                    }
                    slot.refresh(block, &mut MetricsRegistry::new());
                }
                for (b, ((g, block), slot)) in blocks.iter_mut().zip(&slots).enumerate() {
                    let map = slot.map();
                    posed += usize::from(map.is_some_and(|m| !m.pose_is_identity()));
                    for inv in [map, None] {
                        masked += usize::from(inv.is_some_and(|m| m.pose_is_identity()));
                        let (want, want_flops) = cut_holes_reference(block, &solids, inv, isa);
                        let want_iblank = block.iblank.as_slice().to_vec();
                        let got_flops =
                            cut_holes_and_find_fringe(block, &solids, inv, &mut arena, &mut got);
                        let what = format!(
                            "{name} step {n}, block {b} of grid {g}, map {}",
                            inv.map_or("none", |m| if m.pose_is_identity() {
                                "at identity"
                            } else {
                                "posed"
                            })
                        );
                        assert!(block.iblank.as_slice() == want_iblank, "{what}: blanking");
                        assert_eq!(got.len(), want.len(), "{what}: IGBPs");
                        assert!(got == want, "{what}: IGBPs");
                        assert_eq!(got_flops, want_flops, "{what}: flops");
                        let holes = want_iblank.iter().filter(|&&b| b == Blank::Hole).count();
                        cut_nodes += holes;
                    }
                }
            }
        }
        // Every path ran, and cut something.
        assert!(posed > 0 && masked > 0 && cut_nodes > 0, "{posed} {masked} {cut_nodes}");
    }
}
