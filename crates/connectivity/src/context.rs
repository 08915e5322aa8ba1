//! The per-run connectivity contexts: what the DCF3D step keeps between
//! timesteps, and the step itself.
//!
//! A [`Connectivity`] is one rank's state — the [`ConnArena`] (with the lane
//! ISA), the rank's inverse map and its lifecycle ([`MapSlot`]), the restart
//! donor cache — and [`Connectivity::step`] is the paper's per-timestep
//! sequence: map refresh → hole cut / IGBP identification → donor search
//! and interpolation. [`SerialConnectivity`] is the single-address-space
//! counterpart with one map slot per grid. Both charge their work to the
//! caller's [`Comm`] and emit the `conn.*` counters and `conn/*` spans; the
//! driver only tells them when a grid moved or the partition changed.

use crate::arena::ConnArena;
use crate::holes::cut_holes_and_find_fringe;
use crate::inverse_map::{InverseMap, FLOPS_PER_INCR_UPDATE};
use crate::protocol::{connect_distributed, DonorCache, Topology};
use crate::serial::{connect_serial, SerialCache};
use overset_comm::metrics::Counter;
use overset_comm::trace::ArgVal;
use overset_comm::{Comm, MetricsRegistry, WorkClass};
use overset_grid::curvilinear::Solid;
use overset_grid::{Ijk, RigidTransform};
use overset_solver::{select_isa, Block};

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

/// A cold arena on the host's lane ISA.
fn host_arena() -> ConnArena {
    ConnArena { isa: select_isa(), ..ConnArena::default() }
}

/// One rank's connectivity state for a whole run.
pub struct Connectivity {
    restart: bool,
    arena: ConnArena,
    slot: MapSlot,
    cache: DonorCache,
}

impl Connectivity {
    /// A cold context. With `restart` (nth-level restart) the donor cache
    /// survives between steps; without it every step searches from scratch.
    pub fn new(restart: bool) -> Self {
        let (slot, cache) = Default::default();
        Connectivity { restart, arena: host_arena(), slot, cache }
    }

    /// This rank's block moved by `t`.
    pub fn note_motion(&mut self, t: &RigidTransform) {
        self.slot.note_motion(t);
    }

    /// The partition changed and this rank's block was rebuilt: the map is
    /// stale, but cached donor cells survive — only their owning ranks
    /// changed, so `owner` (donor grid, donor cell → rank) remaps them
    /// instead of cold-restarting the whole connectivity solution.
    pub fn repartitioned(&mut self, owner: impl Fn(usize, Ijk) -> usize) {
        self.slot.invalidate();
        self.cache.remap_ranks(owner);
    }

    /// One connectivity solution for this rank's block, whose halo state
    /// must be freshly exchanged.
    pub fn step(
        &mut self,
        block: &mut Block,
        solids: &[(usize, Solid)],
        topo: &Topology,
        comm: &mut Comm,
    ) {
        if self.slot.is_dirty() {
            let t_map = comm.now();
            let flops = self.slot.refresh(block, comm.metrics_mut());
            comm.compute(flops as f64, WorkClass::Search);
            comm.trace_complete("conn", "invmap_build", t_map, &[]);
        }
        let inv = self.slot.map();
        let t_cut = comm.now();
        let (igbps, hole_flops) = cut_holes_and_find_fringe(block, solids, inv, &mut self.arena);
        comm.compute(hole_flops as f64, WorkClass::Search);
        comm.trace_complete("conn", "hole_cut", t_cut, &[]);
        if !self.restart {
            self.cache.clear();
        }
        connect_distributed(block, &igbps, topo, &mut self.cache, comm, inv, &mut self.arena);
        self.arena.recycle_igbps(igbps);
    }
}

/// The serial counterpart of [`Connectivity`]: every grid resident as one
/// whole block, one map slot per grid.
pub struct SerialConnectivity {
    restart: bool,
    arena: ConnArena,
    slots: Vec<MapSlot>,
    cache: SerialCache,
}

impl SerialConnectivity {
    /// A cold context for `ngrids` grids; `restart` as for [`Connectivity`].
    pub fn new(ngrids: usize, restart: bool) -> Self {
        let slots = (0..ngrids).map(|_| MapSlot::default()).collect();
        SerialConnectivity { restart, arena: host_arena(), slots, cache: SerialCache::new() }
    }

    /// Grid `grid` moved by `t`.
    pub fn note_motion(&mut self, grid: usize, t: &RigidTransform) {
        self.slots[grid].note_motion(t);
    }

    /// One connectivity solution over all grids (`blocks[g]` is grid `g`),
    /// charged and traced like [`Connectivity::step`]: map refresh, hole
    /// cut, then the donor search (`conn/connect`).
    pub fn step(
        &mut self,
        blocks: &mut [Block],
        search_order: &[Vec<usize>],
        solids: &[(usize, Solid)],
        comm: &mut Comm,
    ) {
        if !self.restart {
            self.cache.clear();
        }
        let t_map = comm.now();
        let flops: u64 = self
            .slots
            .iter_mut()
            .zip(blocks.iter())
            .map(|(slot, block)| slot.refresh(block, comm.metrics_mut()))
            .sum();
        comm.compute(flops as f64, WorkClass::Search);
        if flops > 0 {
            comm.trace_complete("conn", "invmap_build", t_map, &[]);
        }
        let stats = connect_serial(
            blocks,
            search_order,
            solids,
            &mut self.cache,
            &self.slots,
            &mut self.arena,
        );
        let t_cut = comm.now();
        comm.compute(stats.hole_flops as f64, WorkClass::Search);
        comm.trace_complete("conn", "hole_cut", t_cut, &[]);
        let t_conn = comm.now();
        comm.compute(stats.flops as f64, WorkClass::Search);
        comm.trace_complete(
            "conn",
            "connect",
            t_conn,
            &[("igbps", ArgVal::U64(stats.igbps as u64))],
        );
        let m = comm.metrics_mut();
        m.add(Counter::ConnIgbps, stats.igbps as u64);
        // The one processor services every search it issues.
        m.add(Counter::ConnServiced, stats.igbps as u64);
        m.add(Counter::ConnOrphans, stats.orphans as u64);
        m.add(Counter::ConnWalkSteps, stats.walk_steps);
        m.add(Counter::ConnWalkStepsMiss, stats.walk_steps_miss);
        m.add(Counter::ConnPrefilterRejects, stats.prefilter_rejects);
        m.add(Counter::ConnDonorsRelaxed, stats.relaxed_donors);
        if stats.warm_attempts > 0 {
            // Same names the distributed protocol feeds: a failed warm
            // start re-walks the IGBP's whole hierarchy.
            m.add(Counter::ConnCacheHit, stats.warm_hits);
            m.add(Counter::ConnCacheMiss, stats.warm_attempts - stats.warm_hits);
        }
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
}
