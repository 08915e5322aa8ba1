//! Serial domain-connectivity solution: all component grids resident in one
//! address space (one block per grid), every IGBP searched on its own, one
//! scalar walk at a time. No run takes this path — a single-processor run is
//! the distributed protocol on one rank — it is the independent reference
//! that protocol is tested against.

use crate::arena::ConnArena;
use crate::context::MapSlot;
use crate::donor::{
    center_start, walk_search_isa, CachedDonor, Donor, PackedIjk, SearchCost, SearchOutcome,
};
use crate::holes::{cut_holes_and_find_fringe, Igbp};
use crate::interp::interpolate;
use overset_grid::curvilinear::Solid;
use overset_grid::Aabb;
use overset_solver::Block;
use std::collections::HashMap;

/// Donor cache for nth-level restart, serial form: per (grid, packed fringe
/// node) → its donor, the cell in that grid's local indices. The same
/// record as the per-rank [`crate::DonorCache`]'s.
#[derive(Clone, Debug, Default)]
pub struct SerialCache {
    pub(crate) map: HashMap<(usize, PackedIjk), CachedDonor>,
}

impl SerialCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Statistics of one serial connectivity solution.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialConnStats {
    pub igbps: usize,
    pub resolved: usize,
    pub orphans: usize,
    pub walk_steps: u64,
    /// Of `walk_steps`, those of searches that returned no donor.
    pub walk_steps_miss: u64,
    /// Hierarchy candidates a map's fine occupancy mask rejected, so that
    /// no walk was started on them.
    pub prefilter_rejects: u64,
    /// Of `resolved`, the donors held under relaxed acceptance.
    pub relaxed_donors: u64,
    /// Warm restarts attempted: IGBPs that had a cached donor to start at.
    pub warm_attempts: u64,
    /// Warm restarts that found the donor straight from the cached cell,
    /// under the acceptance it was cached with; the rest fell through to
    /// the hierarchy search.
    pub warm_hits: u64,
}

impl SerialConnStats {
    /// Account for one finished walk.
    fn charge(&mut self, cost: &SearchCost, out: &SearchOutcome) {
        self.walk_steps += cost.walk_steps;
        if !matches!(out, SearchOutcome::Found(_)) {
            self.walk_steps_miss += cost.walk_steps;
        }
    }
}

/// Re-establish domain connectivity serially:
/// 1. cut holes / find fringe on every grid,
/// 2. for each IGBP, search its grid's hierarchy list for a donor (warm
///    started from the cache when possible),
/// 3. interpolate and impose the fringe values.
///
/// `maps[g]` is the slot of grid `g`'s inverse map, refreshed for
/// `blocks[g]`'s current geometry; `&[]` runs without maps. With maps, hole
/// cutting is masked by each map's ternary solid lattice, a grid whose
/// bounding box holds a point but whose fine occupancy mask does not is
/// passed over without a walk, and cold donor searches start from the map's
/// O(1) seed instead of the donor grid's center. Results (blanking, donors,
/// orphans, fringe values) are identical with or without maps — only the
/// work and its flop charge drop.
///
/// The hole cutter works on the caller's [`ConnArena`]; results are
/// bit-identical with a fresh or warm arena.
pub fn connect_serial(
    blocks: &mut [Block],
    search_order: &[Vec<usize>],
    solids: &[(usize, Solid)],
    cache: &mut SerialCache,
    maps: &[MapSlot],
    arena: &mut ConnArena,
) -> SerialConnStats {
    let ngrids = blocks.len();
    assert_eq!(search_order.len(), ngrids);
    assert!(maps.is_empty() || maps.len() == ngrids);
    let map_of = |g: usize| maps.get(g).and_then(MapSlot::map);
    let mut stats = SerialConnStats::default();

    // Phase 1: hole cutting and fringe identification.
    let igbps_per_grid: Vec<Vec<Igbp>> = blocks
        .iter_mut()
        .enumerate()
        .map(|(g, b)| {
            let mut igbps = Vec::new();
            cut_holes_and_find_fringe(b, solids, map_of(g), arena, &mut igbps);
            igbps
        })
        .collect();

    // Donor-grid bounding boxes for cheap rejection.
    let bboxes: Vec<Aabb> = blocks
        .iter()
        .map(|b| {
            let bb = Aabb::from_points(b.coords.as_slice().iter());
            bb.inflate(1e-9 * bb.diagonal().max(1.0))
        })
        .collect();
    let mut writes = Vec::new();
    let isa = arena.isa;

    // Phase 2/3: search and interpolate. Interpolated values are buffered
    // and applied after every IGBP is resolved, so each donor reads the
    // pre-connectivity state — answers cannot depend on the order in which
    // fringe points happen to resolve.
    for g in 0..ngrids {
        let igbps = &igbps_per_grid[g];
        stats.igbps += igbps.len();
        for ig in igbps.iter() {
            let (key, xyz) = ((g, ig.packed()), ig.xyz(&blocks[g]));
            // Donor grid, donor, and whether the relaxed pass found it.
            let mut found: Option<(usize, Donor, bool)> = None;

            // Warm start at the cached donor, under the acceptance it was
            // cached with.
            if let Some(&CachedDonor { cell, grid, relaxed }) = cache.map.get(&key) {
                let (dg, cell) = (grid as usize, cell.ijk());
                let mut cost = SearchCost::default();
                stats.warm_attempts += 1;
                let out =
                    walk_search_isa(&blocks[dg], xyz, cell, &mut cost, relaxed, isa, map_of(dg));
                stats.charge(&cost, &out);
                if let SearchOutcome::Found(d) = out {
                    stats.warm_hits += 1;
                    found = Some((dg, d, relaxed));
                }
            }

            // Hierarchy search: strict pass, then a relaxed last-resort
            // pass (donors with holes in the stencil, weights renormalized).
            for relaxed in [false, true] {
                if found.is_some() {
                    break;
                }
                for &dg in &search_order[g] {
                    if !bboxes[dg].contains(xyz) {
                        continue;
                    }
                    let start = match map_of(dg) {
                        Some(m) => {
                            if !m.admits(xyz) {
                                stats.prefilter_rejects += 1;
                                continue;
                            }
                            m.query(xyz)
                        }
                        None => center_start(&blocks[dg]),
                    };
                    let mut cost = SearchCost::default();
                    let out = walk_search_isa(
                        &blocks[dg],
                        xyz,
                        start,
                        &mut cost,
                        relaxed,
                        isa,
                        map_of(dg),
                    );
                    stats.charge(&cost, &out);
                    if let SearchOutcome::Found(d) = out {
                        found = Some((dg, d, relaxed));
                        break;
                    }
                }
            }

            match found {
                Some((dg, d, relaxed)) => {
                    let value = interpolate(&blocks[dg], &d);
                    writes.push((g, ig.node(), value));
                    let donor =
                        CachedDonor { cell: PackedIjk::new(d.cell), grid: dg as u32, relaxed };
                    cache.map.insert(key, donor);
                    stats.resolved += 1;
                    stats.relaxed_donors += u64::from(relaxed);
                }
                None => {
                    // Orphan: keep the previous value.
                    cache.map.remove(&key);
                    stats.orphans += 1;
                }
            }
        }
    }
    for (g, node, value) in writes {
        blocks[g].q.set_node(node, value);
    }
    stats
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use overset_comm::metrics::Counter;
    use overset_comm::MetricsRegistry;
    use overset_grid::curvilinear::{BcKind, BoundaryPatch, CurvilinearGrid, Face, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::{Dims, Ijk};
    use overset_grid::RigidTransform;
    use overset_solver::{Blank, FlowConditions};

    /// Two overlapping 2-D Cartesian grids: a fine inner grid with overset
    /// outer boundaries embedded in a coarse background.
    fn two_grid_system() -> Vec<Block> {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        // Inner: [1, 3]^2 with h = 0.125.
        let di = Dims::new(17, 17, 1);
        let ci = Field3::from_fn(di, |p| [1.0 + 0.125 * p.i as f64, 1.0 + 0.125 * p.j as f64, 0.0]);
        let mut gi = CurvilinearGrid::new("inner", ci, GridKind::NearBody);
        gi.patches = Face::ALL[..4]
            .iter()
            .map(|&f| BoundaryPatch { face: f, kind: BcKind::OversetOuter })
            .collect();
        // Outer: [0, 4]^2 with h = 0.25.
        let do_ = Dims::new(17, 17, 1);
        let co = Field3::from_fn(do_, |p| [0.25 * p.i as f64, 0.25 * p.j as f64, 0.0]);
        let mut go = CurvilinearGrid::new("outer", co, GridKind::Background);
        go.patches = Face::ALL[..4]
            .iter()
            .map(|&f| BoundaryPatch { face: f, kind: BcKind::Farfield })
            .collect();
        vec![
            Block::from_grid(0, &gi, di.full_box(), [None; 6], &fc),
            Block::from_grid(1, &go, do_.full_box(), [None; 6], &fc),
        ]
    }

    /// The map-less solution on a fresh arena.
    fn connect(
        blocks: &mut [Block],
        order: &[Vec<usize>],
        solids: &[(usize, Solid)],
        cache: &mut SerialCache,
    ) -> SerialConnStats {
        connect_serial(blocks, order, solids, cache, &[], &mut ConnArena::new())
    }

    fn order() -> Vec<Vec<usize>> {
        vec![vec![1], vec![0]]
    }

    #[test]
    fn fringe_values_interpolated_from_background() {
        let mut blocks = two_grid_system();
        // Paint the background with a linear field; garbage on inner fringe.
        let bg = &mut blocks[1];
        for p in bg.local_dims.iter().collect::<Vec<_>>() {
            let [x, y, _] = bg.coords[p];
            bg.q.set_node(p, [1.0 + x + 2.0 * y, 0.0, 0.0, 0.0, 1.0]);
        }
        let mut cache = SerialCache::new();
        let stats = connect(&mut blocks, &order(), &[], &mut cache);
        assert!(stats.igbps > 0);
        assert_eq!(stats.orphans, 0, "stats: {stats:?}");
        // Check an inner outer-boundary node got the background value.
        let node = blocks[0].to_local(Ijk::new(0, 8, 0)); // at (1.0, 2.0)
        let q = blocks[0].q.node(node);
        assert!((q[0] - (1.0 + 1.0 + 4.0)).abs() < 1e-10, "q0 = {}", q[0]);
    }

    #[test]
    fn second_pass_uses_cache_and_is_cheaper() {
        let mut blocks = two_grid_system();
        let mut cache = SerialCache::new();
        let s1 = connect(&mut blocks, &order(), &[], &mut cache);
        assert!(!cache.is_empty());
        let s2 = connect(&mut blocks, &order(), &[], &mut cache);
        assert_eq!(s1.igbps, s2.igbps);
        // The cold pass has nothing to warm-start from; on static grids
        // every cached donor is found again from its own cell.
        assert_eq!((s1.warm_attempts, s1.warm_hits), (0, 0));
        assert_eq!(s2.warm_attempts, s1.resolved as u64);
        assert_eq!(s2.warm_hits, s2.warm_attempts);
        assert!(
            s2.walk_steps < s1.walk_steps / 2,
            "restart not effective: {} vs {}",
            s2.walk_steps,
            s1.walk_steps
        );
    }

    /// One solution's restart census, as either driver can report it.
    #[derive(Debug)]
    pub(crate) struct RestartCensus {
        pub resolved: u64,
        pub relaxed_donors: u64,
        pub warm_attempts: u64,
        pub warm_hits: u64,
        pub walk_steps: u64,
        pub walk_steps_miss: u64,
    }

    /// A solid of the inner grid that blanks exactly the background node at
    /// (1, 2), on the inner grid's outer boundary: every background cell
    /// around the inner fringe points next to it has that hole in its
    /// stencil, so their only donors are relaxed ones.
    pub(crate) fn holed_stencil_solids() -> Vec<(usize, Solid)> {
        vec![(0, Solid::Ellipsoid { center: [1.0, 2.0, 0.0], radii: [0.1, 0.1, 10.0] })]
    }

    /// The cold and the following warm solution of a static system in which
    /// some fringe point's only donor has a holed stencil — the one
    /// assertion that pins the serial and the per-rank cache: the donor is
    /// found relaxed, stays relaxed, and is found again from its own cell.
    pub(crate) fn assert_relaxed_donors_restart_warm(cold: &RestartCensus, warm: &RestartCensus) {
        assert!(cold.relaxed_donors > 0, "no holed-stencil donor in the fixture: {cold:?}");
        assert_eq!((cold.warm_attempts, cold.warm_hits), (0, 0), "{cold:?}");
        assert_eq!(warm.relaxed_donors, cold.relaxed_donors, "{warm:?}");
        assert_eq!(warm.warm_attempts, cold.resolved, "{warm:?}");
        // A relaxed donor warm-started strictly is refused at its own cell.
        assert_eq!(warm.warm_hits, warm.warm_attempts, "{warm:?}");
        let hit_steps = warm.walk_steps - warm.walk_steps_miss;
        assert!(hit_steps <= 3 * warm.warm_hits, "warm hits walked: {warm:?}");
    }

    #[test]
    fn relaxed_donor_is_a_warm_hit_on_the_next_step() {
        let mut blocks = two_grid_system();
        let mut cache = SerialCache::new();
        let census = |s: &SerialConnStats| RestartCensus {
            resolved: s.resolved as u64,
            relaxed_donors: s.relaxed_donors,
            warm_attempts: s.warm_attempts,
            warm_hits: s.warm_hits,
            walk_steps: s.walk_steps,
            walk_steps_miss: s.walk_steps_miss,
        };
        let cold = connect(&mut blocks, &order(), &holed_stencil_solids(), &mut cache);
        let warm = connect(&mut blocks, &order(), &holed_stencil_solids(), &mut cache);
        assert_relaxed_donors_restart_warm(&census(&cold), &census(&warm));
    }

    #[test]
    fn solid_hole_fringe_resolved_on_background() {
        let mut blocks = two_grid_system();
        // A solid owned by grid 0 cuts the background grid.
        let solids =
            vec![(0usize, Solid::Ellipsoid { center: [2.0, 2.0, 0.0], radii: [0.4, 0.4, 10.0] })];
        let mut cache = SerialCache::new();
        let stats = connect(&mut blocks, &order(), &solids, &mut cache);
        // Background has a hole with fringe; those fringes find donors on
        // the fine inner grid (which covers [1,3]^2).
        let bg_holes = blocks[1]
            .owned_local()
            .iter()
            .filter(|&p| blocks[1].iblank[p] == overset_solver::Blank::Hole)
            .count();
        assert!(bg_holes > 0);
        assert_eq!(stats.orphans, 0, "{stats:?}");
    }

    #[test]
    fn moving_inner_grid_updates_connectivity() {
        let mut blocks = two_grid_system();
        let mut cache = SerialCache::new();
        connect(&mut blocks, &order(), &[], &mut cache);
        let n0 = cache.len();
        // Move the inner grid; donors must re-resolve.
        let t = overset_grid::RigidTransform::translation([0.05, 0.02, 0.0]);
        blocks[0].apply_motion(&t, 0.1);
        let stats = connect(&mut blocks, &order(), &[], &mut cache);
        assert_eq!(stats.orphans, 0);
        assert!(cache.len() >= n0);
    }

    #[test]
    fn maps_reduce_walk_work_with_same_resolution() {
        let mut a = two_grid_system();
        let mut b = two_grid_system();
        let mut ca = SerialCache::new();
        let mut cb = SerialCache::new();
        let sa = connect(&mut a, &order(), &[], &mut ca);
        let maps: Vec<MapSlot> = b
            .iter()
            .map(|blk| {
                let mut slot = MapSlot::default();
                slot.refresh(blk, &mut overset_comm::MetricsRegistry::new());
                slot
            })
            .collect();
        let sb = connect_serial(&mut b, &order(), &[], &mut cb, &maps, &mut ConnArena::new());
        assert_eq!(sa.igbps, sb.igbps);
        assert_eq!(sa.resolved, sb.resolved);
        assert_eq!(sa.orphans, sb.orphans);
        assert!(
            sb.walk_steps < sa.walk_steps,
            "seeded {} vs cold {} walk steps",
            sb.walk_steps,
            sa.walk_steps
        );
    }

    /// One leg of the paper-system comparison, with its own copy of the run
    /// state. Leg 0 is the map-less reference on a fresh arena per step; legs
    /// 1 and 2 refresh one `MapSlot` per grid and keep their arena, leg 2
    /// invalidating every dirty slot first so each motion costs a full build
    /// (what the production refresh does only past its growth threshold).
    struct Leg {
        blocks: Vec<Block>,
        slots: Vec<MapSlot>,
        cache: SerialCache,
        arena: ConnArena,
        metrics: MetricsRegistry,
    }

    /// Every grid of a system as one whole block, with a position-dependent
    /// state, so that a different donor or weight shows up in the
    /// interpolated fringe values.
    pub(crate) fn painted_whole_blocks(grids: &[CurvilinearGrid]) -> Vec<Block> {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let part = overset_balance::Partition::build(&dims, &vec![1; grids.len()]);
        (0..grids.len())
            .map(|g| {
                let nbrs = part.neighbors_of(g, grids[g].periodic_i);
                let mut b = Block::from_grid(g, &grids[g], dims[g].full_box(), nbrs, &fc);
                for p in b.local_dims.iter() {
                    let [x, y, z] = b.coords[p];
                    b.q.set_node(p, [1.0 + 0.1 * x, 0.2 * y, 0.3 * z, x * y, 2.0 + z]);
                }
                b
            })
            .collect()
    }

    /// Every grid's solids, tagged with the owning grid.
    pub(crate) fn tagged_solids(grids: &[CurvilinearGrid]) -> Vec<(usize, Solid)> {
        grids
            .iter()
            .enumerate()
            .flat_map(|(g, grid)| grid.solids.iter().map(move |s| (g, *s)))
            .collect()
    }

    fn bits(b: &Block) -> impl Iterator<Item = u64> + '_ {
        b.q.as_slice().iter().map(|v| v.to_bits())
    }

    /// A leg's answer for every point that was an IGBP of some step so far:
    /// its donor as (grid, global cell, relaxed) — `None` for an orphan —
    /// and the bits of its fringe value.
    type Answers = std::collections::BTreeMap<(usize, [usize; 3]), (Option<DonorId>, [u64; 5])>;
    type DonorId = (usize, [usize; 3], bool);

    fn answers(leg: &Leg, asked: &std::collections::HashSet<(usize, PackedIjk)>) -> Answers {
        let donor = |key: &(usize, PackedIjk)| -> Option<DonorId> {
            let d = leg.cache.map.get(key)?;
            let c = leg.blocks[d.grid as usize].to_global(d.cell.ijk());
            Some((d.grid as usize, [c.i, c.j, c.k], d.relaxed))
        };
        asked
            .iter()
            .map(|key| {
                let (g, n) = (key.0, key.1.ijk());
                ((g, [n.i, n.j, n.k]), (donor(key), leg.blocks[g].q.node(n).map(f64::to_bits)))
            })
            .collect()
    }

    /// Five connectivity solutions of a paper system whose `movers` take one
    /// small rigid step before each (the driver's motion → connectivity
    /// order), on all three legs in lockstep: leg 0 settles every failed or
    /// polar-band walk by the canonical chain, legs 1 and 2 from their maps'
    /// cell lists.
    fn paper_system_legs_agree(
        name: &str,
        grids: &[CurvilinearGrid],
        order: &[Vec<usize>],
        movers: &[usize],
        step: &RigidTransform,
    ) {
        let mut legs: Vec<Leg> = (0..3)
            .map(|_| Leg {
                blocks: painted_whole_blocks(grids),
                slots: grids.iter().map(|_| MapSlot::default()).collect(),
                cache: SerialCache::new(),
                arena: ConnArena::new(),
                metrics: MetricsRegistry::new(),
            })
            .collect();
        let mut solids = tagged_solids(grids);
        let mut asked = std::collections::HashSet::new();
        for n in 0..5 {
            for (g, s) in solids.iter_mut() {
                if movers.contains(g) {
                    *s = s.transformed(step);
                }
            }
            let mut stats = Vec::new();
            for (l, leg) in legs.iter_mut().enumerate() {
                for &g in movers {
                    leg.blocks[g].apply_motion(step, 0.01);
                    leg.slots[g].note_motion(step);
                }
                let maps: &[MapSlot] = if l == 0 {
                    leg.arena = ConnArena::new();
                    &[]
                } else {
                    for (slot, b) in leg.slots.iter_mut().zip(&leg.blocks) {
                        if l == 2 && slot.is_dirty() {
                            slot.invalidate();
                        }
                        slot.refresh(b, &mut leg.metrics);
                    }
                    &leg.slots
                };
                let Leg { blocks, cache, arena, .. } = leg;
                stats.push(connect_serial(blocks, order, &solids, cache, maps, arena));
            }
            let (plain, a) = (&legs[0], &stats[0]);
            assert!(a.igbps > 0 && a.resolved > 0, "{name} step {n}: {a:?}");
            for l in 1..3 {
                let what = format!("{name} step {n} leg {l}");
                let b = &stats[l];
                for (pb, lb) in plain.blocks.iter().zip(&legs[l].blocks) {
                    assert!(pb.iblank.as_slice() == lb.iblank.as_slice(), "{what}: iblank");
                }
                // Point by point: a point whose donor or value differs is
                // named with both answers.
                if l == 1 {
                    for (g, b) in plain.blocks.iter().enumerate() {
                        let ow = b.owned_local();
                        asked.extend(
                            ow.iter()
                                .filter(|&p| b.iblank[p] == Blank::Fringe)
                                .map(|p| (g, PackedIjk::new(p))),
                        );
                    }
                    asked.extend(plain.cache.map.keys().copied());
                }
                let (chain, listed) = (answers(plain, &asked), answers(&legs[l], &asked));
                let differing: Vec<String> = chain
                    .iter()
                    .zip(&listed)
                    .filter(|(c, m)| c != m)
                    .map(|(c, m)| {
                        format!(
                            "grid {} node {:?}: chain {:?}, maps {:?}",
                            c.0 .0, c.0 .1, c.1, m.1
                        )
                    })
                    .collect();
                assert!(differing.is_empty(), "{what}:\n{}", differing.join("\n"));
                assert_eq!(
                    (
                        a.igbps,
                        a.resolved,
                        a.orphans,
                        a.relaxed_donors,
                        a.warm_attempts,
                        a.warm_hits
                    ),
                    (
                        b.igbps,
                        b.resolved,
                        b.orphans,
                        b.relaxed_donors,
                        b.warm_attempts,
                        b.warm_hits
                    ),
                    "{what}: census"
                );
                for (pb, lb) in plain.blocks.iter().zip(&legs[l].blocks) {
                    assert!(bits(pb).eq(bits(lb)), "{what}: state off the fringe");
                }
                assert!(plain.cache.map == legs[l].cache.map, "{what}: donor cache");
                // The mask spares walks that find nothing, the seeds shorten
                // the rest, and what a walk leaves open the lists settle
                // without walking: never more walk work, and less on the cold
                // step (every IGBP searches its hierarchy) and on any step
                // with a polar-band donor or a failed warm start.
                assert_eq!(a.prefilter_rejects, 0, "{what}: no map, no mask");
                assert!(b.walk_steps_miss <= a.walk_steps_miss, "{what}: {b:?} vs {a:?}");
                assert!(b.walk_steps <= a.walk_steps, "{what}: {b:?} vs {a:?}");
                if n == 0 {
                    assert!(b.prefilter_rejects > 0, "{what}: the mask never fired");
                    assert!(b.walk_steps_miss < a.walk_steps_miss, "{what}: {b:?} vs {a:?}");
                    assert!(b.walk_steps < a.walk_steps, "{what}: {b:?} vs {a:?}");
                }
            }
        }
        // One build per grid on the cold step, then one pose advance per
        // mover per moved step — or, rebuilding, that many more builds
        // (store: 16 + 40 against 56, as EXPERIMENTS.md records).
        let counts = |l: usize| {
            let m = &legs[l].metrics;
            (m.get(Counter::ConnInvmapBuild), m.get(Counter::ConnInvmapIncr))
        };
        let (ng, moved) = (grids.len() as u64, 4 * movers.len() as u64);
        assert_eq!(counts(1), (ng, moved), "{name}: incremental");
        assert_eq!(counts(2), (ng + moved, 0), "{name}: full rebuilds");
    }

    /// The two off-paths the drivers no longer take — no inverse maps (every
    /// open search settled by the canonical chain) with a cold arena every
    /// step, and a full map rebuild per motion — give the answers of the
    /// production path (maps advanced incrementally, open searches settled
    /// from their cell lists, one arena) bit for bit on the paper's store,
    /// delta-wing and airfoil systems: every IGBP's donor (grid, cell,
    /// relaxed), the orphan census, every fringe value.
    #[test]
    fn paper_systems_agree_without_maps_and_with_full_rebuilds() {
        use overset_grid::gen::{airfoil, delta_wing, store};
        let drop = RigidTransform::translation([0.0, 0.0, -0.004])
            .then(&RigidTransform::rotation_about(store::STORE_CARRIAGE, [0.0, 1.0, 0.0], 1e-3));
        paper_system_legs_agree(
            "store",
            &store::store_system(0.3),
            &store::store_search_order(),
            &store::STORE_GRID_IDS,
            &drop,
        );
        let pitch =
            RigidTransform::rotation_about([0.25, 0.0, 0.0], [0.0, 0.0, 1.0], f64::to_radians(0.1));
        paper_system_legs_agree(
            "airfoil",
            &airfoil::airfoil_system(0.5),
            &airfoil::airfoil_search_order(),
            &[0],
            &pitch,
        );
        let descent = RigidTransform::translation([0.0, 0.0, -0.064 * 0.02]);
        paper_system_legs_agree(
            "delta wing",
            &delta_wing::delta_wing_system(0.4),
            &delta_wing::delta_wing_search_order(),
            &[0, 1, 2],
            &descent,
        );
    }

    #[test]
    fn orphan_when_no_grid_contains_point() {
        let mut blocks = two_grid_system();
        // Restrict the search so the inner grid's fringe finds nothing.
        let bad_order = vec![vec![], vec![0]];
        let mut cache = SerialCache::new();
        let stats = connect(&mut blocks, &bad_order, &[], &mut cache);
        assert!(stats.orphans > 0);
    }
}
