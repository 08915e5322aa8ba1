//! What a rank keeps between timesteps, and the DCF3D step itself.
//!
//! A rank owns a list of [`RankBlock`]s — each a block with its wall
//! geometry, its inverse map and the map's lifecycle ([`MapSlot`]) and its
//! restart donor cache — one [`Connectivity`] (the [`ConnArena`] with the
//! lane ISA) and one flow workspace for all of its blocks. [`Connectivity::step`] is the paper's per-timestep
//! sequence over that list: map refresh → hole cut / IGBP identification →
//! donor search and interpolation. It charges its work to the caller's
//! [`Comm`] and emits the `conn.*` counters and `conn/*` spans; the driver
//! only tells a block when it moved or was rebuilt.

use crate::arena::ConnArena;
use crate::donor::PackedIjk;
use crate::holes::{cut_holes_and_find_fringe, Igbp};
use crate::inverse_map::{InverseMap, FLOPS_PER_INCR_UPDATE};
use crate::protocol::{connect_distributed, DonorCache, RankRoute, Topology};
use overset_comm::metrics::Counter;
use overset_comm::{Comm, MetricsRegistry, WorkClass};
use overset_grid::curvilinear::Solid;
use overset_grid::{Ijk, RigidTransform};
use overset_solver::{select_isa, Block, WallGeometry};

/// One block's inverse map and its lifecycle: built lazily, kept across
/// steps, brought up to date only after the block moved, dropped when the
/// block is rebuilt.
#[derive(Default)]
pub struct MapSlot {
    map: Option<InverseMap>,
    /// Rigid motion applied to the block since the map was last brought up
    /// to date — the candidate for an incremental [`InverseMap::advance`].
    pending: Option<RigidTransform>,
}

impl MapSlot {
    /// The map, if one has been built.
    pub fn map(&self) -> Option<&InverseMap> {
        self.map.as_ref()
    }

    /// Does the next [`MapSlot::refresh`] have work to do?
    pub fn is_dirty(&self) -> bool {
        self.map.is_none() || self.pending.is_some()
    }

    /// The block moved by `t`; motions noted before the next refresh
    /// compose. Identity / below-epsilon motion (on the scale of the map's
    /// lattice box; with no map yet, only the exact identity) does not dirty
    /// the slot — a pointless full rebuild would follow.
    pub fn note_motion(&mut self, t: &RigidTransform) {
        let negligible = match &self.map {
            Some(m) => t.is_negligible_for(&m.bounds()),
            None => t.is_identity(),
        };
        if !negligible {
            self.pending = Some(match &self.pending {
                Some(prev) => prev.then(t),
                None => *t,
            });
        }
    }

    /// The block was rebuilt over a different region: the map is stale, and
    /// any pending motion refers to the old map's lattice.
    pub fn invalidate(&mut self) {
        *self = Self::default();
    }

    /// Bring the map up to date with `block`, count the update in
    /// `conn.invmap.{incr,build}` and return its flops (0 for a clean slot).
    /// The pending motion is first offered to [`InverseMap::advance`], which
    /// refuses when the accumulated pose would inflate the world routing box
    /// past its threshold; a full build follows then, and whenever there is
    /// no map yet.
    pub fn refresh(&mut self, block: &Block, metrics: &mut MetricsRegistry) -> u64 {
        if !self.is_dirty() {
            return 0;
        }
        let advanced = match (self.map.as_mut(), self.pending.as_ref()) {
            (Some(m), Some(t)) => m.advance(t),
            _ => false,
        };
        self.pending = None;
        if advanced {
            metrics.inc(Counter::ConnInvmapIncr);
            FLOPS_PER_INCR_UPDATE
        } else {
            let m = InverseMap::build(block);
            metrics.inc(Counter::ConnInvmapBuild);
            let flops = m.build_flops();
            self.map = Some(m);
            flops
        }
    }
}

/// One block of a rank and everything the rank keeps for it between
/// steps, so that a rank is one list, not four. The flow workspace is not
/// among them: blocks are stepped one after the other, and the rank keeps
/// one for all of them.
pub struct RankBlock {
    /// The block's id in the partition: its subdomain. Search hierarchies
    /// resolve to ids, donor caches and the routing table name blocks by id.
    pub id: usize,
    pub block: Block,
    /// Wall geometry, when the block's grid has a wall (turbulence model).
    pub wall: Option<WallGeometry>,
    pub(crate) slot: MapSlot,
    pub(crate) cache: DonorCache,
    /// This step's IGBPs, refilled by every hole cut (the list keeps its
    /// capacity between steps).
    pub(crate) igbps: Vec<Igbp>,
    /// This step's routing entry of the block.
    pub(crate) route: RankRoute,
    /// Interpolated fringe values, applied when the search is over: 48
    /// bytes each, sized per step from the IGBP count.
    pub(crate) writes: Vec<(PackedIjk, [f64; 5])>,
}

impl RankBlock {
    /// A block with nothing cached: no map, no donors.
    pub fn new(id: usize, block: Block, wall: Option<WallGeometry>) -> Self {
        RankBlock {
            id,
            block,
            wall,
            slot: MapSlot::default(),
            cache: DonorCache::new(),
            igbps: Vec::new(),
            route: RankRoute::NOWHERE,
            writes: Vec::new(),
        }
    }

    /// The block moved by `t`.
    pub fn note_motion(&mut self, t: &RigidTransform) {
        self.slot.note_motion(t);
    }

    /// Bytes the block keeps for the donor search: its donor cache, IGBP
    /// list and deferred writes, capacity × record size.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::arena::bytes;
        self.cache.heap_bytes() + bytes(&self.igbps) + bytes(&self.writes)
    }

    /// The partition changed and the block was rebuilt over another region:
    /// the map is stale, but cached donor cells survive — only the blocks
    /// owning them changed, so `owner` (donor grid, donor cell → block)
    /// remaps them instead of cold-restarting the connectivity solution.
    pub fn rebuilt(
        &mut self,
        block: Block,
        wall: Option<WallGeometry>,
        owner: impl Fn(usize, Ijk) -> usize,
    ) {
        self.block = block;
        self.wall = wall;
        self.slot.invalidate();
        self.cache.remap_blocks(owner);
    }
}

/// One rank's connectivity state for a whole run.
pub struct Connectivity {
    restart: bool,
    arena: ConnArena,
}

impl Connectivity {
    /// A cold context on the host's lane ISA. With `restart` (nth-level
    /// restart) the donor caches survive between steps; without it every
    /// step searches from scratch.
    pub fn new(restart: bool) -> Self {
        Connectivity { restart, arena: ConnArena { isa: select_isa(), ..ConnArena::default() } }
    }

    /// One connectivity solution for this rank's blocks, whose halo state
    /// must be freshly exchanged.
    pub fn step(
        &mut self,
        blocks: &mut [RankBlock],
        solids: &[(usize, Solid)],
        topo: &Topology,
        comm: &mut Comm,
    ) {
        if blocks.iter().any(|rb| rb.slot.is_dirty()) {
            let t_map = comm.now();
            let flops: u64 =
                blocks.iter_mut().map(|rb| rb.slot.refresh(&rb.block, comm.metrics_mut())).sum();
            comm.compute(flops, WorkClass::Search);
            comm.trace_complete("conn", "invmap_build", t_map, &[]);
        }
        let t_cut = comm.now();
        let mut hole_flops = 0u64;
        for rb in blocks.iter_mut() {
            hole_flops += cut_holes_and_find_fringe(
                &mut rb.block,
                solids,
                rb.slot.map(),
                &mut self.arena,
                &mut rb.igbps,
            );
            if !self.restart {
                rb.cache.clear();
            }
        }
        comm.compute(hole_flops, WorkClass::Search);
        comm.trace_complete("conn", "hole_cut", t_cut, &[]);
        connect_distributed(blocks, topo, comm, &mut self.arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::Dims;
    use overset_solver::FlowConditions;

    fn cart_block() -> Block {
        let d = Dims::new(9, 9, 9);
        let coords =
            Field3::from_fn(d, |p| [p.i as f64 * 0.25, p.j as f64 * 0.25, p.k as f64 * 0.25]);
        let g = CurvilinearGrid::new("c", coords, GridKind::Background);
        Block::from_grid(0, &g, d.full_box(), [None; 6], &FlowConditions::new(0.8, 0.0, 0.0))
    }

    /// (`conn.invmap.build`, `conn.invmap.incr`).
    fn counts(m: &MetricsRegistry) -> (u64, u64) {
        (m.get(Counter::ConnInvmapBuild), m.get(Counter::ConnInvmapIncr))
    }

    /// A slot whose map was just built for `cart_block()`.
    fn built_slot(block: &Block, m: &mut MetricsRegistry) -> MapSlot {
        let mut slot = MapSlot::default();
        assert!(slot.is_dirty() && slot.map().is_none());
        let flops = slot.refresh(block, m);
        assert!(flops > 0 && flops == slot.map().unwrap().build_flops());
        assert_eq!(counts(m), (1, 0));
        slot
    }

    #[test]
    fn refreshing_a_clean_slot_is_free() {
        let b = cart_block();
        let mut m = MetricsRegistry::new();
        let mut slot = built_slot(&b, &mut m);
        assert!(!slot.is_dirty());
        assert_eq!(slot.refresh(&b, &mut m), 0);
        assert_eq!(counts(&m), (1, 0));
    }

    #[test]
    fn negligible_motion_does_not_dirty_the_slot() {
        let b = cart_block();
        let mut m = MetricsRegistry::new();
        let mut slot = built_slot(&b, &mut m);
        slot.note_motion(&RigidTransform::IDENTITY);
        let tiny = RigidTransform::translation([1e-15, 0.0, 0.0]);
        assert!(!tiny.is_identity());
        slot.note_motion(&tiny);
        assert!(!slot.is_dirty());
        assert_eq!(slot.refresh(&b, &mut m), 0);
        assert_eq!(counts(&m), (1, 0));
        assert!(slot.map().unwrap().pose_is_identity());
    }

    #[test]
    fn small_motions_compose_into_one_advance() {
        let b = cart_block();
        let mut m = MetricsRegistry::new();
        let mut slot = built_slot(&b, &mut m);
        let t1 = RigidTransform::translation([0.01, 0.0, 0.0]);
        let t2 = RigidTransform::rotation_about([1.0; 3], [0.0, 0.0, 1.0], f64::to_radians(0.5));
        slot.note_motion(&t1);
        slot.note_motion(&t2);
        assert!(slot.is_dirty());
        assert_eq!(slot.refresh(&b, &mut m), FLOPS_PER_INCR_UPDATE);
        assert_eq!(counts(&m), (1, 1));
        assert_eq!(*slot.map().unwrap().pose(), t1.then(&t2));
        assert!(!slot.is_dirty());
    }

    #[test]
    fn a_pose_past_the_growth_threshold_falls_back_to_a_full_build() {
        let b = cart_block();
        let mut m = MetricsRegistry::new();
        let mut slot = built_slot(&b, &mut m);
        let center = slot.map().unwrap().bounds().center();
        // 10 degrees about the box centre inflates the enclosing box well
        // past `INCR_MAX_DIAG_GROWTH`.
        slot.note_motion(&RigidTransform::rotation_about(
            center,
            [0.0, 0.0, 1.0],
            f64::to_radians(10.0),
        ));
        let flops = slot.refresh(&b, &mut m);
        assert_eq!(flops, slot.map().unwrap().build_flops());
        assert_ne!(flops, FLOPS_PER_INCR_UPDATE);
        assert_eq!(counts(&m), (2, 0));
        assert!(slot.map().unwrap().pose_is_identity() && !slot.is_dirty());
    }

    #[test]
    fn invalidate_drops_map_and_pending_pose() {
        let b = cart_block();
        let mut m = MetricsRegistry::new();
        let mut slot = built_slot(&b, &mut m);
        slot.note_motion(&RigidTransform::translation([0.01, 0.0, 0.0]));
        slot.invalidate();
        assert!(slot.map().is_none() && slot.is_dirty());
        // The pending motion went with the map: the next refresh builds at
        // the identity pose instead of advancing.
        assert_eq!(slot.refresh(&b, &mut m), slot.map().unwrap().build_flops());
        assert_eq!(counts(&m), (2, 0));
        assert!(slot.map().unwrap().pose_is_identity());
    }
    /// A donor as both caches can name it: (grid, global cell, relaxed).
    type DonorId = (usize, [usize; 3], bool);

    /// Four solutions of a paper system whose `movers` take one rigid step
    /// before each (the driver's motion → connectivity order): the protocol
    /// on one rank owning every grid whole against [`connect_serial`], both
    /// with maps and restart. Returns, per point whose donor or fringe value
    /// differs after some step, a line naming it and both answers, the
    /// number of relaxed donors the oracle held over all steps, and the
    /// protocol's [`conn.serviced`, `conn.candidates.tested`,
    /// `conn.chain.fallbacks`].
    fn protocol_vs_oracle(
        name: &str,
        grids: &[CurvilinearGrid],
        order: &[Vec<usize>],
        movers: &[usize],
        step: &RigidTransform,
    ) -> (Vec<String>, u64, [u64; 3]) {
        use crate::serial::tests::{painted_whole_blocks, tagged_solids};
        use crate::serial::{connect_serial, SerialCache};
        use overset_comm::{MachineModel, Universe};
        let out = Universe::builder().machine(&MachineModel::modern()).run(|comm| {
            let topo = Topology {
                blocks_of_grid: (0..grids.len()).map(|g| g..g + 1).collect(),
                rank_of_block: vec![0; grids.len()],
                search_order: order.to_vec(),
            };
            let mut solids = tagged_solids(grids);
            let mut mine: Vec<RankBlock> = painted_whole_blocks(grids)
                .into_iter()
                .enumerate()
                .map(|(g, b)| RankBlock::new(g, b, None))
                .collect();
            let mut conn = Connectivity::new(true);
            let mut blocks = painted_whole_blocks(grids);
            let mut slots: Vec<MapSlot> = grids.iter().map(|_| MapSlot::default()).collect();
            let (mut cache, mut arena) = (SerialCache::new(), ConnArena::new());
            let (mut differing, mut oracle_relaxed) = (Vec::new(), 0);
            for n in 0..4 {
                for (g, s) in solids.iter_mut() {
                    if movers.contains(g) {
                        *s = s.transformed(step);
                    }
                }
                for &g in movers {
                    mine[g].block.apply_motion(step, 0.01);
                    mine[g].note_motion(step);
                    blocks[g].apply_motion(step, 0.01);
                    slots[g].note_motion(step);
                }
                conn.step(&mut mine, &solids, &topo, comm);
                for (slot, b) in slots.iter_mut().zip(&blocks) {
                    slot.refresh(b, &mut MetricsRegistry::new());
                }
                let s = connect_serial(&mut blocks, order, &solids, &mut cache, &slots, &mut arena);
                assert!(s.igbps > 0 && s.resolved > 0, "{name} step {n}: {s:?}");
                oracle_relaxed += s.relaxed_donors;

                for (g, (rb, b)) in mine.iter().zip(&blocks).enumerate() {
                    assert!(
                        rb.block.iblank.as_slice() == b.iblank.as_slice(),
                        "{name} {n}: iblank"
                    );
                    let ours = |node: &Ijk| -> Option<DonorId> {
                        let &(block, d) = rb.cache.map.get(&PackedIjk::new(*node))?;
                        assert_eq!(block, d.grid, "a grid is one block here");
                        let c = d.cell.ijk();
                        Some((d.grid as usize, [c.i, c.j, c.k], d.relaxed))
                    };
                    let theirs = |node: &Ijk| -> Option<DonorId> {
                        let d = cache.map.get(&(g, PackedIjk::new(*node)))?;
                        let c = blocks[d.grid as usize].to_global(d.cell.ijk());
                        Some((d.grid as usize, [c.i, c.j, c.k], d.relaxed))
                    };
                    for node in b.local_dims.iter() {
                        let same_value = rb.block.q.node(node).map(f64::to_bits)
                            == b.q.node(node).map(f64::to_bits);
                        if ours(&node) != theirs(&node) || !same_value {
                            differing.push(format!(
                                "{name} step {n} grid {g} node {node:?}: protocol {:?}, oracle \
                                 {:?}, value {}",
                                ours(&node),
                                theirs(&node),
                                if same_value { "equal" } else { "differs" }
                            ));
                        }
                    }
                }
            }
            let m = comm.metrics();
            let proofs =
                [Counter::ConnServiced, Counter::ConnCandidatesTested, Counter::ConnChainFallbacks];
            (differing, oracle_relaxed, proofs.map(|c| m.get(c)))
        });
        out.into_iter().next().unwrap().result
    }
    /// The protocol on one rank and the serial oracle agree donor for donor
    /// (grid, cell, relaxed flag) and fringe value bit for bit over moving
    /// steps of the three paper systems — or this test names every point
    /// that differs. Where the two are known to part (a failed relaxed warm
    /// start: `protocol::tests::after_a_failed_relaxed_warm_start_…`) does
    /// not show in these steps, though the 3-D systems hold relaxed donors.
    #[test]
    fn one_rank_protocol_agrees_with_the_serial_oracle_on_the_paper_systems() {
        use overset_grid::gen::{airfoil, delta_wing, store};
        let pitch =
            RigidTransform::rotation_about([0.25, 0.0, 0.0], [0.0, 0.0, 1.0], f64::to_radians(0.1));
        let descent = RigidTransform::translation([0.0, 0.0, -0.064 * 0.02]);
        let drop = RigidTransform::translation([0.0, 0.0, -0.004])
            .then(&RigidTransform::rotation_about(store::STORE_CARRIAGE, [0.0, 1.0, 0.0], 1e-3));
        let airfoil = (airfoil::airfoil_system(0.3), airfoil::airfoil_search_order());
        let wing = (delta_wing::delta_wing_system(0.4), delta_wing::delta_wing_search_order());
        let store = (store::store_system(0.3), store::store_search_order());
        for (name, (grids, order), movers, step) in [
            ("airfoil", &airfoil, &[0][..], &pitch),
            ("delta wing", &wing, &[0, 1, 2][..], &descent),
            ("store", &store, &store::STORE_GRID_IDS[..], &drop),
        ] {
            let (differing, oracle_relaxed, [serviced, tested, fallbacks]) =
                protocol_vs_oracle(name, grids, order, movers, step);
            assert!(differing.is_empty(), "{}", differing.join("\n"));
            assert_eq!(oracle_relaxed > 0, name != "airfoil", "{name}: relaxed donors");
            // Whole 3-D grids wrap onto themselves: the shells' axes and the
            // wing O-grids' folds past the tip hold points in cells apart,
            // and those alone — about 2 % of the searches at this coarse
            // scale, fewer on finer grids — still go to the canonical chain.
            // Plane grids have no such place.
            assert_eq!(tested > 0, name != "airfoil", "{name}: {tested} candidates inverted");
            assert!(30 * fallbacks <= serviced, "{name}: {fallbacks} of {serviced} to the chain");
            assert_eq!(fallbacks > 0, name != "airfoil", "{name}: {fallbacks} chain fallbacks");
        }
    }

    /// The store ×0.3 over `steps` steps, each after a rigid drop of the
    /// store grids (the driver's motion → connectivity order), on `nranks`
    /// ranks: one rank holding every grid whole, or the grids statically
    /// partitioned. Per step, per rank, what `probe` reads of the rank's
    /// connectivity state after the step.
    fn store_drop<T: Send>(
        nranks: usize,
        steps: usize,
        probe: impl Fn(&Connectivity, &[RankBlock]) -> T + Sync,
    ) -> Vec<Vec<T>> {
        use crate::serial::tests::{painted_whole_blocks, tagged_solids};
        use overset_balance::{fit_np_to_dims_min, static_balance, Partition};
        use overset_comm::{MachineModel, Universe};
        use overset_grid::gen::store;
        let grids = store::store_system(0.3);
        let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let min_widths: Vec<[usize; 3]> =
            grids.iter().map(|g| if g.periodic_i { [2, 1, 1] } else { [1, 1, 1] }).collect();
        let whole = nranks == 1;
        let np =
            if whole { vec![1; grids.len()] } else { static_balance(&sizes, nranks).unwrap().np };
        let part =
            Partition::build(&dims, &fit_np_to_dims_min(&sizes, &dims, &np, &min_widths).unwrap());
        let topo = Topology {
            blocks_of_grid: (0..grids.len()).map(|g| part.ranks_of_grid(g)).collect(),
            rank_of_block: if whole { vec![0; grids.len()] } else { (0..nranks).collect() },
            search_order: store::store_search_order(),
        };
        let drop = RigidTransform::translation([0.0, 0.0, -0.004])
            .then(&RigidTransform::rotation_about(store::STORE_CARRIAGE, [0.0, 1.0, 0.0], 1e-3));
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(nranks).machine(&MachineModel::modern()).run(|comm| {
            let mut mine: Vec<RankBlock> = if whole {
                painted_whole_blocks(&grids)
                    .into_iter()
                    .enumerate()
                    .map(|(g, b)| RankBlock::new(g, b, None))
                    .collect()
            } else {
                let a = &part.ranks[comm.rank()];
                let nbrs = part.neighbors_of(comm.rank(), grids[a.grid].periodic_i);
                let block = Block::from_grid(a.grid, &grids[a.grid], a.boxx, nbrs, &fc);
                vec![RankBlock::new(comm.rank(), block, None)]
            };
            let mut solids = tagged_solids(&grids);
            let mut conn = Connectivity::new(true);
            (0..steps)
                .map(|_| {
                    for (g, s) in solids.iter_mut() {
                        if store::STORE_GRID_IDS.contains(g) {
                            *s = s.transformed(&drop);
                        }
                    }
                    for rb in mine.iter_mut() {
                        if store::STORE_GRID_IDS.contains(&rb.block.grid_id) {
                            rb.block.apply_motion(&drop, 0.01);
                            rb.note_motion(&drop);
                        }
                    }
                    conn.step(&mut mine, &solids, &topo, comm);
                    probe(&conn, &mine)
                })
                .collect::<Vec<T>>()
        });
        let mut ranks: Vec<_> = out.into_iter().map(|o| o.result.into_iter()).collect();
        (0..steps).map(|_| ranks.iter_mut().map(|r| r.next().unwrap()).collect()).collect()
    }

    /// A rank keeps the search buffers of one step's working set: over
    /// twelve steps of the store ×0.3 on 18 ranks, the request and answer
    /// buffers parked on all ranks after the last step take no more bytes
    /// than after the third. (Pools that hand any parked buffer to any
    /// sender, which then grows it, ratchet up every step instead.)
    #[test]
    fn the_search_buffers_stop_growing() {
        let steps = 12;
        let parked = store_drop(18, steps, |conn, _| {
            let ConnArena { req_pool, ans_pool, .. } = &conn.arena;
            req_pool.parked_bytes() + ans_pool.parked_bytes()
        });
        let total: Vec<usize> = parked.iter().map(|ranks| ranks.iter().sum()).collect();
        assert!(total[2] > 0, "no search traffic: {total:?}");
        assert!(total[steps - 1] <= total[2], "parked search bytes grew, per step: {total:?}");
    }

    /// What the donor search keeps per fringe point — the arena's lists and
    /// pools, the donor caches, the IGBP lists and the deferred writes,
    /// capacity × record size, inverse maps aside — stays within a bound on
    /// every step of the store ×0.3: 280 bytes per IGBP on one rank holding
    /// every grid, 440 on 18 ranks, whose message pools hold about 135 of
    /// it. (Records naming nodes by `Ijk`, a second pending list and lists
    /// grown by doubling took 540–670 and 710–880 here.)
    #[test]
    fn donor_search_bookkeeping_fits_its_fringe_points() {
        for (nranks, bound) in [(1, 280), (18, 440)] {
            let per_step = store_drop(nranks, 8, |conn, mine| {
                let held: usize = mine.iter().map(RankBlock::heap_bytes).sum();
                let igbps: usize = mine.iter().map(|rb| rb.igbps.len()).sum();
                (conn.arena.heap_bytes() + held, igbps)
            });
            let per_igbp: Vec<usize> = (per_step.iter())
                .map(|ranks| {
                    let bytes: usize = ranks.iter().map(|r| r.0).sum();
                    bytes / ranks.iter().map(|r| r.1).sum::<usize>().max(1)
                })
                .collect();
            assert!(
                per_igbp.iter().all(|&b| b <= bound),
                "{nranks} rank(s): bytes per IGBP per step {per_igbp:?}, bound {bound}"
            );
        }
    }
}
