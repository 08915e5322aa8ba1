//! The distributed donor-search protocol (Barszcz's DCF3D parallelization).
//!
//! Per timestep, after hole cutting and fringe identification:
//!
//! 1. every rank broadcasts the bounding box of its owned region (the
//!    "bounding box information ... broadcast globally"),
//! 2. each rank consults its grids' hierarchical search lists and the boxes
//!    to decide which block to ask for each IGBP,
//! 3. a pending IGBP's request goes to *every* admitted candidate block of
//!    its current hierarchy level at once; every rank services the requests
//!    for its blocks (the *donor search* — step 3 of Fig. 3, the dominant
//!    and load-imbalanced cost), interpolates, and replies,
//! 4. of a level's replies the first `Found` in candidate order (nearest
//!    routing-box centre first, block id as tie-break) wins — the donor the
//!    paper's forwarding across processor boundaries would have reached —
//!    and a level that answers all-`Miss` hands the point to the next
//!    non-empty level of the hierarchy, then once through the hierarchy
//!    with relaxed donor acceptance, then to the orphans.
//!
//! A rank owns a list of blocks. A request for a block of another rank
//! travels as a message; what the blocks of one rank ask of each other is
//! served in place by the same kernel, at the cost of the walk alone. (A
//! rank with one block has no such neighbour. No hierarchy can have a block
//! ask itself — `build_topology` rejects one that names its own grid — but
//! a donor cache gone stale in a repartition still can, and that request
//! travels like any other.)
//!
//! "nth-level restart": each block caches its fringe points' donors
//! (block + global donor cell) and sends the next step's first request
//! straight there with a warm-start hint.
//!
//! The protocol runs in deterministic rounds (an allgather of per-rank send
//! counts opens each round) so virtual times are bit-reproducible; the
//! paper's asynchronous overlap is retained within a round — a rank services
//! everything it received before waiting on its own replies. A round visits
//! a whole hierarchy level, so the loop ends by quiescence within
//! `round_bound` rounds whatever the rank count; passing the bound is a
//! bug and aborts the run.

use crate::arena::{make_room, ConnArena, WalkScratch, WALK_SLICE};
use crate::context::RankBlock;
use crate::donor::{
    center_start, walk_search_batch, BatchQuery, CachedDonor, PackedIjk, SearchOutcome,
};
use crate::interp::{interpolate, FLOPS_PER_INTERP};
use crate::inverse_map::{occupancy_admits_posed, InverseMap, OCC_ALL, OCC_WORDS};
use overset_comm::metrics::Counter;
use overset_comm::trace::ArgVal;
use overset_comm::{Comm, WorkClass};
use overset_grid::index::Ijk;
use overset_grid::{Aabb, RigidTransform};
use overset_solver::{Block, Isa};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Message tag base for connectivity traffic (distinct from solver tags).
const TAG_BASE: u64 = 10_000;

/// Global, rank-replicated description of the partition, needed for routing.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Block ids (the partition's subdomains) of each grid: consecutive
    /// ranges, grid 0's first.
    pub blocks_of_grid: Vec<std::ops::Range<usize>>,
    /// The rank owning each block. A rank's blocks have consecutive ids.
    pub rank_of_block: Vec<usize>,
    /// Hierarchical donor-search lists per grid.
    pub search_order: Vec<Vec<usize>>,
}

impl Topology {
    /// The component grid block `b` is a subdomain of.
    pub fn grid_of_block(&self, b: usize) -> usize {
        self.blocks_of_grid.partition_point(|blocks| blocks.end <= b)
    }
}

/// Per-block donor cache for nth-level restart: fringe node → (donor block,
/// its donor, the cell in *global* donor-grid indices). An entry is 32
/// bytes: the packed node, the block as `u32` and a `CachedDonor` — an
/// `Ijk` key and `usize` fields took 72.
#[derive(Clone, Debug, Default)]
pub struct DonorCache {
    pub(crate) map: HashMap<PackedIjk, (u32, CachedDonor), BuildHasherDefault<NodeHasher>>,
}

/// The donor cache's hash of a packed node: one multiply (the "Fx" step),
/// rotated so that the product's well-mixed high bits pick the bucket —
/// its low bits see only the node's `i`. Deterministic and a few cycles:
/// the keys are a block's own node indices, nothing an adversary picks, so
/// SipHash's flood resistance buys nothing here. No answer depends on the
/// map's iteration order: the protocol only looks entries up.
#[derive(Default)]
pub(crate) struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }
}

impl DonorCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidate everything (restart off).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Remap donor *blocks* after a repartition: the cached donor cells are
    /// still geometrically valid; only the block owning them changed.
    /// `owner` maps (donor grid, donor cell anchor) to the new block. Far
    /// cheaper than re-searching everything from scratch.
    pub fn remap_blocks(&mut self, owner: impl Fn(usize, Ijk) -> usize) {
        for (block, donor) in self.map.values_mut() {
            *block = owner(donor.grid as usize, donor.cell.ijk()) as u32;
        }
    }

    /// Bytes the cache holds: capacity × entry size.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.map.capacity() * std::mem::size_of::<(PackedIjk, (u32, CachedDonor))>()
    }
}

/// One search request: 40 bytes in memory, [`REQ_POINT_BYTES`] on the
/// modelled wire.
#[derive(Clone, Copy)]
pub(crate) struct ReqPoint {
    id: u32,
    xyz: [f64; 3],
    /// Warm-start hint: donor cell in global donor-grid indices, or
    /// [`PackedIjk::NONE`].
    hint: PackedIjk,
    /// Last-resort pass: accept donors whose stencil touches holes.
    relaxed: bool,
}

const REQ_POINT_BYTES: usize = 44;

/// A block's answer to one request: the interpolated value and the donor
/// cell in global donor-grid indices, or a miss, whose cell is
/// [`PackedIjk::NONE`]. 48 bytes in memory, [`ANSWER_BYTES`] on the
/// modelled wire.
#[derive(Clone, Copy)]
pub(crate) struct Answer {
    value: [f64; 5],
    cell: PackedIjk,
}

impl Answer {
    const MISS: Answer = Answer { value: [0.0; 5], cell: PackedIjk::NONE };

    fn is_miss(&self) -> bool {
        self.cell == PackedIjk::NONE
    }
}

const ANSWER_BYTES: usize = 68;

/// One block's entry in the routing broadcast: the world-frame box requests
/// are routed by, the lattice box its occupancy bits were marked in, and the
/// inverse pose mapping world points back into that lattice. For static
/// blocks (and blocks without a map) the pose is the identity and
/// `world == lat`, reproducing the legacy box+occupancy routing exactly.
#[derive(Clone, Copy)]
pub(crate) struct RankRoute {
    world: Aabb,
    lat: Aabb,
    inv_pose: RigidTransform,
    occ: [u64; OCC_WORDS],
}

impl RankRoute {
    /// Admits no point: a block's entry before its first search.
    pub(crate) const NOWHERE: RankRoute = RankRoute {
        world: Aabb::EMPTY,
        lat: Aabb::EMPTY,
        inv_pose: RigidTransform::IDENTITY,
        occ: [0; OCC_WORDS],
    };

    /// This step's entry for `block`: its inverse map's boxes, pose and
    /// coarse occupancy mask; without a map, its bounding box and an
    /// all-ones mask.
    fn of(block: &Block, inv: Option<&InverseMap>) -> RankRoute {
        match inv {
            Some(m) => RankRoute {
                world: m.world_bounds(),
                lat: m.bounds(),
                inv_pose: *m.inv_pose(),
                occ: m.occupancy(),
            },
            None => {
                let bb = owned_bbox(block);
                RankRoute { world: bb, lat: bb, inv_pose: RigidTransform::IDENTITY, occ: OCC_ALL }
            }
        }
    }

    /// Could this block's cells possibly contain `p`? Conservative: `false`
    /// only when the routing box or the (pose-corrected) occupancy mask
    /// proves no cell can hold the point.
    #[inline]
    fn admits(&self, p: [f64; 3]) -> bool {
        self.world.contains(p) && occupancy_admits_posed(&self.occ, &self.lat, &self.inv_pose, p)
    }
}

/// Modelled size of one routing broadcast entry: world box + lattice box
/// (6 f64 each), flattened inverse pose (10 f64), occupancy words.
const ROUTE_BYTES: usize = 48 + 48 + 80 + 8 * OCC_WORDS;

/// Pending state of one unresolved IGBP during the round loop: 32 bytes.
/// `Copy`, and candidate blocks live as a range into the arena's flat
/// `cand_pool` — the per-IGBP candidate vector was the dominant per-step
/// allocation.
#[derive(Clone, Copy)]
pub(crate) struct Pending {
    /// The IGBP: its index in the list of the asking block, …
    igbp: u32,
    /// … and that block's index among this rank's blocks.
    blk: u32,
    /// Index into the search hierarchy of the asking block's grid
    /// ([`CACHED`] when trying the cached donor first).
    level: u32,
    /// Start of this IGBP's candidate blocks in the arena `cand_pool`: the
    /// blocks of the level that admit the point, in order of preference.
    cand_start: u32,
    /// Number of candidate blocks in the range; every one is asked in the
    /// same round.
    cand_len: u32,
    /// The cached donor cell, [`PackedIjk::NONE`] past the cached level.
    hint: PackedIjk,
    /// Second sweep through the hierarchy with relaxed donor acceptance.
    relaxed: bool,
}

/// A pending point's level while it asks its cached donor: the one before
/// the hierarchy's first.
const CACHED: u32 = u32::MAX;

impl Pending {
    /// The candidate blocks of the current level, most preferred first.
    fn candidates<'a>(&self, cand_pool: &'a [u32]) -> &'a [u32] {
        &cand_pool[self.cand_start as usize..][..self.cand_len as usize]
    }
}

/// Best reply to a pending request so far in a round: the position of the
/// answering block among the request's candidates and its answer, or
/// [`NO_DONOR`] while every reply was a miss.
pub(crate) type BestReply = (u32, Answer);

const NO_DONOR: BestReply = (u32::MAX, Answer::MISS);

/// Rounds within which the search is quiescent by construction: one for the
/// cached donors, then one per level of the longest hierarchy, strict and
/// relaxed. Independent of the rank count.
fn round_bound(topo: &Topology) -> usize {
    1 + 2 * topo.search_order.iter().map(Vec::len).max().unwrap_or(0)
}

/// Where an IGBP's candidates come from: the hierarchies, and a routing
/// entry for every block — this rank's own read in place, the others from
/// the gathered table, which holds one entry per rank. (The wire names no
/// block, so a rank that others ask owns exactly one.)
struct Routing<'a> {
    topo: &'a Topology,
    me: usize,
    remote: &'a [RankRoute],
}

impl Routing<'_> {
    fn route<'b>(&'b self, b: usize, mine: &'b [RankBlock]) -> &'b RankRoute {
        let rank = self.topo.rank_of_block[b];
        if rank == self.me {
            &mine[b - mine[0].id].route
        } else {
            &self.remote[rank]
        }
    }
}

/// Run the distributed connectivity solution for this rank's blocks.
///
/// Preconditions, per block: holes cut and its IGBPs identified (see
/// [`crate::holes`]), its inverse map — if it has one — built for the
/// block's *current* geometry, and its halo state freshly exchanged (donor
/// stencils near subdomain edges read halo values).
///
/// With a map, cold donor searches on a block start from the map's O(1)
/// seed instead of the block center, and the map's coarse occupancy mask
/// rides along with the bounding-box broadcast so candidate routing prunes
/// blocks whose boxes contain a point but whose cells cannot. Donors,
/// weights and orphans are identical with or without the map — pruning only
/// removes blocks that would certainly answer Miss. A block without a map
/// broadcasts an all-ones mask and cold-starts from the center.
///
/// The arena only changes *where* scratch collections get their memory —
/// the protocol, its message traffic, and every flop charge are identical
/// whether the arena is fresh or warm, so states and virtual times are
/// bit-identical across the two; a persistent arena just drops the
/// steady-state transient-allocation count to near zero.
pub fn connect_distributed(
    blocks: &mut [RankBlock],
    topo: &Topology,
    comm: &mut Comm,
    arena: &mut ConnArena,
) {
    let me = comm.rank();
    // Does block `b` answer this rank's requests in place?
    let siblings = blocks.len() > 1;
    let in_place = |b: usize| siblings && topo.rank_of_block[b] == me;
    debug_assert!(blocks.iter().zip(blocks[0].id..).all(|(rb, id)| rb.id == id));
    debug_assert!(!siblings || comm.size() == 1, "one routing entry travels per rank");
    let igbps: usize = blocks.iter().map(|rb| rb.igbps.len()).sum();
    // The records name IGBPs and blocks by `u32`.
    assert!(
        u32::try_from(igbps.max(topo.rank_of_block.len())).is_ok(),
        "rank {me}: {igbps} IGBPs on {} blocks overflow the search records",
        topo.rank_of_block.len()
    );
    let t_conn = comm.now();
    arena.begin_protocol(topo.rank_of_block.len(), igbps);
    let isa = arena.isa;
    let bound = round_bound(topo);
    #[cfg(test)]
    let bound = arena.short_bound.unwrap_or(bound);
    let ConnArena {
        pending,
        cand_pool,
        outgoing,
        sent_to,
        best,
        req_pool,
        ans_pool,
        count_row,
        walk,
        ..
    } = arena;

    // 1. Broadcast routing info. A block with a map broadcasts its lattice
    //    box (so every receiver bins points into exactly the lattice the
    //    occupancy bits were marked on), the world-frame routing box, and
    //    the inverse pose that maps world points back into the lattice;
    //    while the pose is the identity — always, for static grids — the
    //    two boxes coincide and routing is exactly the legacy behavior.
    for rb in blocks.iter_mut() {
        rb.route = RankRoute::of(&rb.block, rb.slot.map());
        make_room(&mut rb.writes, rb.igbps.len());
    }
    let routes = comm.allgather(blocks[0].route, ROUTE_BYTES);
    let routing = Routing { topo, me, remote: &routes };

    // 2. Seed pending requests: cached donors first, hierarchy otherwise.
    let mut orphans = 0u64;
    for (blk, rb) in blocks.iter().enumerate() {
        for (idx, ig) in rb.igbps.iter().enumerate() {
            let mut p = Pending {
                igbp: idx as u32,
                blk: blk as u32,
                level: CACHED,
                cand_start: cand_pool.len() as u32,
                cand_len: 0,
                hint: PackedIjk::NONE,
                relaxed: false,
            };
            if let Some(&(block, CachedDonor { cell, relaxed, .. })) =
                rb.cache.map.get(&ig.packed())
            {
                cand_pool.push(block);
                p.cand_len = 1;
                p.hint = cell;
                p.relaxed = relaxed;
            } else if !next_level(&mut p, cand_pool, ig.xyz(&rb.block), &routing, blocks) {
                // No block of any grid admits the point: an orphan at once.
                orphans += 1;
                continue;
            }
            pending.push(p);
        }
    }
    let first_requests = pending.len() as u64;

    // 3. Round loop. Interpolated values are buffered and applied only
    //    after the loop: every donor block then serves from its
    //    pre-connectivity state, so an answer cannot depend on which round
    //    a request happens to arrive in — which is what lets a level's
    //    candidates be asked side by side instead of one after the other
    //    (and keeps values equal to the last bit with and without the map,
    //    whose occupancy pruning shifts arrival rounds).
    let mut round = 0usize;
    let mut relaxed_donors = 0u64;
    let mut requests = 0u64;
    loop {
        let active: usize = comm.allreduce_sum_usize(pending.len());
        if active == 0 {
            break;
        }
        assert!(
            round < bound,
            "rank {me}: donor search still has {} requests pending here ({active} on all ranks) \
             after round {round}, the hierarchy bound",
            pending.len()
        );

        // Count the requests per destination block: every candidate of a
        // pending point's level gets one. This rank's count row stays its
        // own: the collective gets a shared handle to it and every rank
        // reads the columns of its blocks, `all_counts[src][block]`, from
        // the gathered rows, so nothing is copied and steady-state rounds
        // allocate no count storage. Refilling the row in place is sound
        // because the allreduce that opened this round completed only after
        // every rank had dropped its view of the previous round's rows.
        let row = count_row.get_or_insert_with(Default::default);
        let counts = Arc::get_mut(row).expect("a view of last round's counts is still alive");
        counts.clear();
        counts.resize(outgoing.len(), 0);
        for p in pending.iter() {
            for &dst in p.candidates(cand_pool) {
                counts[dst as usize] += 1;
            }
            requests += u64::from(p.cand_len);
        }
        // Then build the lists, each in a buffer of its count, identifying
        // a request by the point's slot in `pending`.
        for (out, &n) in outgoing.iter_mut().zip(counts.iter()) {
            if n > 0 {
                *out = req_pool.take(n as usize);
            }
        }
        for (slot, p) in pending.iter().enumerate() {
            let rb = &blocks[p.blk as usize];
            let xyz = rb.igbps[p.igbp as usize].xyz(&rb.block);
            for &dst in p.candidates(cand_pool) {
                outgoing[dst as usize].push(ReqPoint {
                    id: slot as u32,
                    xyz,
                    hint: p.hint,
                    relaxed: p.relaxed,
                });
            }
        }
        let all_counts = comm.allgather(Arc::clone(row), 4 * outgoing.len());

        // Send the requests for other ranks' blocks. Each request carries
        // an empty reply buffer of its length from the requester's answer
        // pool, and the servicer sends both buffers back with the reply —
        // every vector makes a full round trip home, so pool balance is
        // independent of how asymmetric the request traffic is (a rank that
        // only *asks* would otherwise bleed its buffers to the ranks that
        // *serve*, reallocating every round). The list leaves its slot with
        // the send: a block this rank stops asking holds no capacity.
        let tag_req = TAG_BASE + 2 * round as u64;
        let tag_rep = tag_req + 1;
        sent_to.clear();
        for (dst, out) in outgoing.iter_mut().enumerate() {
            if out.is_empty() || in_place(dst) {
                continue;
            }
            let nbytes = out.len() * REQ_POINT_BYTES;
            let reply_buf: Vec<(u32, Answer)> = ans_pool.take(out.len());
            comm.send(topo.rank_of_block[dst], tag_req, (std::mem::take(out), reply_buf), nbytes);
            sent_to.push(dst);
        }

        // Service the requests for this rank's blocks, in rank and block
        // order (deterministic): its own in place, the others' as they
        // arrive. Of the donors a level's candidates find, each pending
        // point keeps the one from its most preferred candidate — the donor
        // that asking them one after the other would have taken. (`best`
        // has had room for every IGBP of the rank since the step began:
        // no round grows it.)
        best.clear();
        best.resize(pending.len(), NO_DONOR);
        for (src, counts) in all_counts.iter().enumerate() {
            for rb in blocks.iter() {
                let n_in = counts[rb.id] as usize;
                if n_in == 0 {
                    continue;
                }
                let t_serve = comm.now();
                let local = siblings && src == me;
                let (mut pts, mut answers): (Vec<ReqPoint>, Vec<(u32, Answer)>) = if local {
                    (std::mem::take(&mut outgoing[rb.id]), ans_pool.take(n_in))
                } else {
                    comm.recv(src, tag_req)
                };
                assert_eq!(pts.len(), n_in);
                serve(rb, isa, &mut pts, &mut answers, walk, comm);
                if local {
                    // (The request list is let go: a rank that holds a whole
                    // system would keep every request of it resident.)
                    keep_best(rb.id as u32, &answers, pending, cand_pool, best);
                    ans_pool.put(answers);
                } else {
                    // Hand both buffers back to their owner (the request
                    // vector emptied: its capacity, not its contents,
                    // travels home).
                    pts.clear();
                    comm.send(src, tag_rep, (pts, answers), n_in * ANSWER_BYTES);
                }
                comm.trace_complete(
                    "conn",
                    "serve",
                    t_serve,
                    &[("src", ArgVal::U64(src as u64)), ("points", ArgVal::U64(n_in as u64))],
                );
            }
        }

        drop(all_counts);

        // Collect the replies of the other ranks.
        for &dst in sent_to.iter() {
            let (reqv, answers): (Vec<ReqPoint>, Vec<(u32, Answer)>) =
                comm.recv(topo.rank_of_block[dst], tag_rep);
            req_pool.put(reqv);
            keep_best(dst as u32, &answers, pending, cand_pool, best);
            ans_pool.put(answers);
        }
        // Resolve the round: the points still open move up to the front of
        // the list, in order, and the list ends after them.
        let mut open = 0;
        for slot in 0..pending.len() {
            let (mut p, (pos, ans)) = (pending[slot], best[slot]);
            let rb = &mut blocks[p.blk as usize];
            let ig = rb.igbps[p.igbp as usize];
            if !ans.is_miss() {
                if p.level == CACHED {
                    comm.metrics_mut().inc(Counter::ConnCacheHit);
                }
                let from = p.candidates(cand_pool)[pos as usize];
                rb.writes.push((ig.packed(), ans.value));
                let donor = CachedDonor {
                    cell: ans.cell,
                    grid: topo.grid_of_block(from as usize) as u32,
                    relaxed: p.relaxed,
                };
                rb.cache.map.insert(ig.packed(), (from, donor));
                relaxed_donors += u64::from(p.relaxed);
                continue;
            }
            // The whole level missed: on to the next one that admits the
            // point; after the strict hierarchy is exhausted, sweep it once
            // more with relaxed donor acceptance before giving up.
            if p.level == CACHED {
                comm.metrics_mut().inc(Counter::ConnCacheMiss);
            }
            p.hint = PackedIjk::NONE;
            let xyz = ig.xyz(&rb.block);
            if next_level(&mut p, cand_pool, xyz, &routing, blocks) {
                pending[open] = p;
                open += 1;
            } else {
                orphans += 1;
                blocks[p.blk as usize].cache.map.remove(&ig.packed());
            }
        }
        pending.truncate(open);
        round += 1;
    }
    req_pool.end_step();
    ans_pool.end_step();

    for rb in blocks.iter_mut() {
        for &(node, value) in rb.writes.iter() {
            rb.block.q.set_node(node.ijk(), value);
        }
    }

    let m = comm.metrics_mut();
    m.add(Counter::ConnIgbps, igbps as u64);
    m.add(Counter::ConnOrphans, orphans);
    m.add(Counter::ConnDonorsRelaxed, relaxed_donors);
    m.add(Counter::ConnRounds, round as u64);
    m.add(Counter::ConnForwards, requests - first_requests);
    comm.trace_complete(
        "conn",
        "connect",
        t_conn,
        &[("igbps", ArgVal::U64(igbps as u64)), ("rounds", ArgVal::U64(round as u64))],
    );
}

/// Serve one batch of search requests on a block: walk, interpolate, push an
/// answer per request in request order, charge the work and feed the service
/// counters.
///
/// A cold request the fine occupancy mask of the block's map rejects is
/// answered with a miss at once; the rest, compacted to the front of `pts`,
/// walk, [`WALK_SLICE`] at a time. Lane-lockstep donor search over each
/// slice: up to W pending points walk side by side, one SIMD lane each.
/// Outcomes and per-point costs are bit-identical to searching the points
/// one at a time with the scalar code.
fn serve(
    rb: &RankBlock,
    isa: Isa,
    pts: &mut [ReqPoint],
    answers: &mut Vec<(u32, Answer)>,
    walk: &mut WalkScratch,
    comm: &mut Comm,
) {
    let (block, inv) = (&rb.block, rb.slot.map());
    let n_in = pts.len();
    comm.metrics_mut().add(Counter::ConnServiced, n_in as u64);
    let mut service_flops = 0u64;
    let (mut steps, mut miss_steps, mut rejects) = (0u64, 0u64, 0u64);
    let (mut tested, mut fallbacks) = (0u64, 0u64);
    // Cold searches: no walk when no cell can hold the point (posed
    // lookups charge for the inverse transform).
    let mut walking = 0;
    for i in 0..n_in {
        let pt = pts[i];
        if let (None, Some(m)) = (pt.hint.get(), inv) {
            service_flops += m.query_flops();
            if !m.admits(pt.xyz) {
                rejects += 1;
                answers.push((pt.id, Answer::MISS));
                continue;
            }
        }
        pts[walking] = pt;
        walking += 1;
    }
    let WalkScratch { queries, outcomes, costs } = walk;
    let longest = walking.min(WALK_SLICE);
    make_room(queries, longest);
    make_room(outcomes, longest);
    make_room(costs, longest);
    for slice in pts[..walking].chunks(WALK_SLICE) {
        queries.clear();
        queries.extend(slice.iter().map(|pt| {
            let start = match (pt.hint.get(), inv) {
                // Warm restart hint beats everything.
                (Some(gc), _) => clamp_to_local_cell(block, gc),
                // Cold search: the O(1) inverse-map seed near the target.
                (None, Some(m)) => {
                    service_flops += m.query_flops();
                    m.query(pt.xyz)
                }
                // Legacy cold start from the block center.
                (None, None) => center_start(block),
            };
            BatchQuery { xyz: pt.xyz, start, relaxed: pt.relaxed }
        }));
        walk_search_batch(block, inv, queries, isa, outcomes, costs);
        for (pt, (out, cost)) in slice.iter().zip(outcomes.iter().zip(costs.iter())) {
            steps += cost.walk_steps;
            tested += cost.candidates;
            fallbacks += cost.fallbacks;
            service_flops += cost.flops();
            let ans = match out {
                SearchOutcome::Found(d) => {
                    service_flops += FLOPS_PER_INTERP;
                    let cell = PackedIjk::new(block.to_global(d.cell));
                    Answer { value: interpolate(block, d), cell }
                }
                _ => {
                    miss_steps += cost.walk_steps;
                    Answer::MISS
                }
            };
            answers.push((pt.id, ans));
        }
    }
    comm.compute(service_flops, WorkClass::Search);
    let m = comm.metrics_mut();
    m.add(Counter::ConnWalkSteps, steps);
    m.add(Counter::ConnWalkStepsMiss, miss_steps);
    m.add(Counter::ConnPrefilterRejects, rejects);
    m.add(Counter::ConnCandidatesTested, tested);
    m.add(Counter::ConnChainFallbacks, fallbacks);
}

/// Fold the answers of block `from` into the round's best replies: a donor
/// replaces the one kept so far when `from` stands earlier among the
/// request's candidates.
fn keep_best(
    from: u32,
    answers: &[(u32, Answer)],
    pending: &[Pending],
    cand_pool: &[u32],
    best: &mut [BestReply],
) {
    for &(id, a) in answers {
        if a.is_miss() {
            continue;
        }
        let asked = pending[id as usize].candidates(cand_pool);
        let pos = asked.iter().position(|&b| b == from).expect("reply from a block not asked");
        let slot = &mut best[id as usize];
        if (pos as u32) < slot.0 {
            *slot = (pos as u32, a);
        }
    }
}

/// Move `p` on to the next level of its grid's hierarchy that has a
/// candidate block for it (`usize::MAX`, the cached donor, is followed by
/// the first level), wrapping once from the strict into the relaxed sweep.
/// `false` when the relaxed sweep is exhausted too: the point is an orphan.
fn next_level(
    p: &mut Pending,
    cand_pool: &mut Vec<u32>,
    xyz: [f64; 3],
    routing: &Routing<'_>,
    mine: &[RankBlock],
) -> bool {
    let levels = &routing.topo.search_order[mine[p.blk as usize].block.grid_id];
    let mut level = p.level.wrapping_add(1) as usize;
    loop {
        if level >= levels.len() {
            if p.relaxed {
                return false;
            }
            p.relaxed = true;
            level = 0;
            continue;
        }
        p.cand_start = cand_pool.len() as u32;
        push_candidates(cand_pool, xyz, &routing.topo.blocks_of_grid[levels[level]], routing, mine);
        p.cand_len = cand_pool.len() as u32 - p.cand_start;
        if p.cand_len > 0 {
            p.level = level as u32;
            return true;
        }
        level += 1;
    }
}

/// Append the candidate blocks for one IGBP on one grid of its hierarchy:
/// the grid's `blocks` whose bounding boxes contain the point — and whose
/// occupancy masks admit it, pruning blocks whose *box* overlaps but whose
/// *cells* cannot hold the point (the hollow of an O-grid) — nearest
/// bounding box center first (deterministic block-id tie-break). Proximity
/// ordering makes the first candidate almost always the owner, and it is
/// the order of preference among several donors found in one round.
fn push_candidates(
    cand_pool: &mut Vec<u32>,
    xyz: [f64; 3],
    blocks: &std::ops::Range<usize>,
    routing: &Routing<'_>,
    mine: &[RankBlock],
) {
    let start = cand_pool.len();
    let admitting = blocks.clone().filter(|&b| routing.route(b, mine).admits(xyz));
    cand_pool.extend(admitting.map(|b| b as u32));
    let dist2 = |b: u32| -> f64 {
        let c = routing.route(b as usize, mine).world.center();
        (c[0] - xyz[0]).powi(2) + (c[1] - xyz[1]).powi(2) + (c[2] - xyz[2]).powi(2)
    };
    // Strict total order (distance, then block id), so the unstable sort is
    // deterministic and allocation-free.
    cand_pool[start..]
        .sort_unstable_by(|&a, &b| dist2(a).partial_cmp(&dist2(b)).unwrap().then(a.cmp(&b)));
}

/// Bounding box of a block's owned region *plus one halo layer of nodes*:
/// any point whose containing cell is anchored at an owned node lies within
/// this box (the cell's far corners are at most one layer outside the owned
/// nodes, and the halo carries real neighbor geometry). Without the halo
/// layer, points in boundary cells of stretched grids would be routed
/// nowhere.
///
/// The rows of nodes are read two nodes (six coordinates) at a time, into
/// six running minima and maxima that vector lanes can keep; min and max
/// are exact in any order (but for a zero's sign, which the inflation
/// removes).
pub fn owned_bbox(block: &Block) -> Aabb {
    let ow = block.owned_local();
    let ld = block.local_dims;
    let k_halo = usize::from(block.halo[2] > 0);
    let (i0, i1) = (ow.lo.i.saturating_sub(1), (ow.hi.i + 1).min(ld.ni));
    let coords = block.coords.as_slice();
    let (mut lo, mut hi) = ([f64::INFINITY; 6], [f64::NEG_INFINITY; 6]);
    for k in ow.lo.k.saturating_sub(k_halo)..(ow.hi.k + k_halo).min(ld.nk) {
        for j in ow.lo.j.saturating_sub(1)..(ow.hi.j + 1).min(ld.nj) {
            let row = ld.ni * (j + ld.nj * k);
            let pairs = coords[row + i0..row + i1].as_flattened().chunks_exact(6);
            let odd = pairs.remainder();
            for pair in pairs {
                for t in 0..6 {
                    lo[t] = lo[t].min(pair[t]);
                    hi[t] = hi[t].max(pair[t]);
                }
            }
            for (t, &x) in odd.iter().enumerate() {
                lo[t] = lo[t].min(x);
                hi[t] = hi[t].max(x);
            }
        }
    }
    let bb = Aabb::new(
        std::array::from_fn(|d| lo[d].min(lo[d + 3])),
        std::array::from_fn(|d| hi[d].max(hi[d + 3])),
    );
    bb.inflate(1e-9 * bb.diagonal().max(1.0))
}

/// Convert a global donor-grid cell hint to a local cell on this block,
/// clamped into local storage (the hint may point slightly off this rank's
/// region after motion or when the cache predates a repartition).
fn clamp_to_local_cell(block: &Block, global_cell: Ijk) -> Ijk {
    let h = block.halo;
    let lo = block.owned.lo;
    let ld = block.local_dims;
    let map1 = |g: usize, lo: usize, h: usize, n: usize| -> usize {
        (g as isize + h as isize - lo as isize).clamp(0, n as isize - 2) as usize
    };
    Ijk::new(
        map1(global_cell.i, lo.i, h[0], ld.ni),
        map1(global_cell.j, lo.j, h[1], ld.nj),
        map1(global_cell.k, lo.k, h[2], ld.nk.max(2)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holes::Igbp;
    use overset_comm::{MachineModel, MetricsRegistry, Universe};
    use overset_grid::curvilinear::{
        BcKind, BoundaryPatch, CurvilinearGrid, Face, GridKind, Solid,
    };
    use overset_grid::field::Field3;
    use overset_grid::index::{Dims, IndexBox};
    use overset_solver::FlowConditions;

    fn inner_grid() -> CurvilinearGrid {
        let di = Dims::new(17, 17, 1);
        let ci = Field3::from_fn(di, |p| [1.0 + 0.125 * p.i as f64, 1.0 + 0.125 * p.j as f64, 0.0]);
        let mut gi = CurvilinearGrid::new("inner", ci, GridKind::NearBody);
        gi.patches = Face::ALL[..4]
            .iter()
            .map(|&f| BoundaryPatch { face: f, kind: BcKind::OversetOuter })
            .collect();
        gi
    }

    fn outer_grid() -> CurvilinearGrid {
        let do_ = Dims::new(17, 17, 1);
        let co = Field3::from_fn(do_, |p| [0.25 * p.i as f64, 0.25 * p.j as f64, 0.0]);
        let mut go = CurvilinearGrid::new("outer", co, GridKind::Background);
        go.patches = Face::ALL[..4]
            .iter()
            .map(|&f| BoundaryPatch { face: f, kind: BcKind::Farfield })
            .collect();
        go
    }

    /// 3 ranks, a block each: rank 0 owns the inner grid; ranks 1-2 split
    /// the outer grid.
    fn topo() -> Topology {
        Topology {
            blocks_of_grid: vec![0..1, 1..3],
            rank_of_block: vec![0, 1, 2],
            search_order: vec![vec![1], vec![0]],
        }
    }

    fn build_block(rank: usize, fc: &FlowConditions) -> Block {
        match rank {
            0 => {
                let g = inner_grid();
                Block::from_grid(0, &g, g.dims().full_box(), [None; 6], fc)
            }
            1 => {
                let g = outer_grid();
                let owned = IndexBox::new(Ijk::new(0, 0, 0), Ijk::new(9, 17, 1));
                Block::from_grid(1, &g, owned, [None, Some(2), None, None, None, None], fc)
            }
            _ => {
                let g = outer_grid();
                let owned = IndexBox::new(Ijk::new(9, 0, 0), Ijk::new(17, 17, 1));
                Block::from_grid(1, &g, owned, [Some(1), None, None, None, None, None], fc)
            }
        }
    }

    fn paint_linear(b: &mut Block) {
        for p in b.local_dims.iter() {
            let [x, y, _] = b.coords[p];
            b.q.set_node(p, [1.0 + x + 2.0 * y, 0.0, 0.0, 0.0, 1.0]);
        }
    }

    /// Block `id` of the fixture, painted, with no map and nothing cached.
    fn rank_block(id: usize, fc: &FlowConditions) -> RankBlock {
        let mut block = build_block(id, fc);
        paint_linear(&mut block);
        RankBlock::new(id, block, None)
    }

    /// What `f` added to this rank's counters: the `conn.*` tally a run
    /// reads (a solution's resolved points are `conn.igbps − conn.orphans`).
    fn tally(comm: &mut Comm, f: impl FnOnce(&mut Comm)) -> MetricsRegistry {
        let before = comm.metrics().clone();
        f(comm);
        let mut added = MetricsRegistry::new();
        for c in Counter::ALL {
            added.add(c, comm.metrics().get(c) - before.get(c));
        }
        added
    }

    /// One solution for the one block of this rank: the unmasked cutter on
    /// a fresh arena, then the protocol on `topo` and `arena`. Returns the
    /// solution's tally.
    fn solve(
        rb: &mut RankBlock,
        solids: &[(usize, Solid)],
        topo: &Topology,
        comm: &mut Comm,
        arena: &mut ConnArena,
    ) -> MetricsRegistry {
        let cutter = &mut ConnArena::new();
        crate::holes::cut_holes_and_find_fringe(&mut rb.block, solids, None, cutter, &mut rb.igbps);
        tally(comm, |comm| connect_distributed(std::slice::from_mut(rb), topo, comm, arena))
    }

    /// `solve` with no solids, on the fixture's topology and a fresh arena.
    fn connect(rb: &mut RankBlock, comm: &mut Comm) -> MetricsRegistry {
        solve(rb, &[], &topo(), comm, &mut ConnArena::new())
    }

    #[test]
    fn distributed_resolution_matches_interpolant() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(|comm| {
            let mut rb = rank_block(comm.rank(), &fc);
            if comm.rank() == 0 {
                // Garbage on the inner fringe.
                rb.block = build_block(0, &fc);
            }
            let stats = connect(&mut rb, comm);
            // Verify resolved fringe values against the analytic field.
            let mut max_err = 0.0f64;
            for ig in &rb.igbps {
                let (q, [x, y, _]) = (rb.block.q.node(ig.node()), ig.xyz(&rb.block));
                let expect = 1.0 + x + 2.0 * y;
                max_err = max_err.max((q[0] - expect).abs());
            }
            (stats, max_err)
        });
        let (s0, err0) = &out[0].result;
        let igbps = s0.get(Counter::ConnIgbps);
        assert!(igbps > 0);
        assert_eq!(s0.get(Counter::ConnOrphans), 0, "every IGBP resolved");
        assert!(*err0 < 1e-10, "interp err {err0}");
        // The two outer ranks serviced the inner grid's requests.
        let serviced = |r: usize| out[r].result.0.get(Counter::ConnServiced);
        assert!(serviced(1) + serviced(2) >= igbps);
    }

    #[test]
    fn restart_reduces_walk_steps_and_rounds_stay_bounded() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(|comm| {
            let mut rb = rank_block(comm.rank(), &fc);
            let s1 = connect(&mut rb, comm);
            let s2 = connect(&mut rb, comm);
            (s1, s2)
        });
        // Walk work on the servicing ranks drops with warm hints.
        let cold: u64 = out.iter().map(|o| o.result.0.get(Counter::ConnWalkSteps)).sum();
        let warm: u64 = out.iter().map(|o| o.result.1.get(Counter::ConnWalkSteps)).sum();
        assert!(warm < cold, "restart not effective: {warm} vs {cold}");
        // Warm pass resolves in a single round.
        let rounds = |s: &MetricsRegistry| s.get(Counter::ConnRounds);
        assert!(rounds(&out[0].result.1) <= rounds(&out[0].result.0));
    }

    /// The serial cache's relaxed-donor assertion through the per-rank
    /// cache: same system, same solid, same helper.
    #[test]
    fn relaxed_donor_is_a_warm_hit_on_the_next_step() {
        use crate::serial::tests::{
            assert_relaxed_donors_restart_warm, holed_stencil_solids, RestartCensus,
        };
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(|comm| {
            let mut rb = rank_block(comm.rank(), &fc);
            (0..2)
                .map(|_| {
                    solve(&mut rb, &holed_stencil_solids(), &topo(), comm, &mut ConnArena::new())
                })
                .collect::<Vec<_>>()
        });
        // A solution's census: its tallies summed over the ranks.
        let census = |step: usize| {
            let regs: Vec<_> = out.iter().map(|o| o.result[step].clone()).collect();
            let t = MetricsRegistry::aggregate(&regs);
            RestartCensus {
                resolved: t.get(Counter::ConnIgbps) - t.get(Counter::ConnOrphans),
                relaxed_donors: t.get(Counter::ConnDonorsRelaxed),
                warm_attempts: t.get(Counter::ConnCacheHit) + t.get(Counter::ConnCacheMiss),
                warm_hits: t.get(Counter::ConnCacheHit),
                walk_steps: t.get(Counter::ConnWalkSteps),
                walk_steps_miss: t.get(Counter::ConnWalkStepsMiss),
            }
        };
        assert_relaxed_donors_restart_warm(&census(0), &census(1));
    }

    /// What each side does after a *failed relaxed* warm start, pinned: the
    /// protocol re-enters the hierarchy still relaxed (nothing resets the
    /// pending point's flag, and `next_level` then skips the strict sweep),
    /// so the new donor is held relaxed although its stencil is clean;
    /// `connect_serial` restarts with the strict sweep and holds it strict.
    /// The donor cell is the same; flag and `conn.donors.relaxed` are not.
    /// Aligning the two moves parallel clocks (a relaxed warm start accepts
    /// what a strict one refuses): when that is done, this test fails —
    /// rewrite it to assert equality.
    ///
    /// The cold solution holds the inner fringe points beside the hole
    /// relaxed, on the left outer block; then the inner grid jumps past the
    /// seam, so that their warm starts fail there and the right block, the
    /// next of the hierarchy, has them in cells with clean stencils.
    #[test]
    fn after_a_failed_relaxed_warm_start_the_protocol_stays_relaxed_and_the_oracle_does_not() {
        use crate::serial::tests::holed_stencil_solids;
        use crate::serial::{connect_serial, SerialCache};
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let jump = RigidTransform::translation([1.3, 0.0, 0.0]);
        let topo = split_topo([1, 2]);

        // The protocol: per step, rank 0's relaxed donors as (node [i, j],
        // block, global cell [i, j]).
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(|comm| {
            let mut rb = rank_block(comm.rank(), &fc);
            let mut relaxed = Vec::new();
            for step in 0..2 {
                if step == 1 && comm.rank() == 0 {
                    rb.block.apply_motion(&jump, 0.1);
                }
                solve(&mut rb, &holed_stencil_solids(), &topo, comm, &mut ConnArena::new());
                let held = rb.cache.map.iter().filter(|(_, (_, donor))| donor.relaxed);
                let held = held.map(|(n, &(b, d))| (n.ijk(), b as usize, d.cell.ijk()));
                let mut held: Vec<_> = held.map(|(n, b, c)| ([n.i, n.j], b, [c.i, c.j])).collect();
                held.sort_unstable();
                relaxed.push(held);
            }
            relaxed
        });
        let protocol = &out[0].result;

        // The oracle, the outer halves posing as grids 1 and 2.
        let mut blocks: Vec<Block> = (0..3).map(|r| rank_block(r, &fc).block).collect();
        let mut cache = SerialCache::new();
        let mut oracle = Vec::new();
        for step in 0..2 {
            if step == 1 {
                blocks[0].apply_motion(&jump, 0.1);
            }
            let s = connect_serial(
                &mut blocks,
                &topo.search_order,
                &holed_stencil_solids(),
                &mut cache,
                &[],
                &mut ConnArena::new(),
            );
            oracle.push(s.relaxed_donors);
        }
        let oracle_donor = |node: [usize; 2]| {
            let d = cache.map[&(0, PackedIjk::new(Ijk::new(node[0], node[1], 0)))];
            let cell = blocks[d.grid as usize].to_global(d.cell.ijk());
            (d.grid as usize, [cell.i, cell.j], d.relaxed)
        };

        // Cold: the same points held relaxed, all on the left block.
        assert!(!protocol[0].is_empty());
        assert!(protocol[0].iter().all(|&(_, block, _)| block == 1), "{:?}", protocol[0]);
        assert_eq!(oracle[0], protocol[0].len() as u64);
        // After the jump: the protocol holds the same points relaxed on the
        // right block; the oracle holds none relaxed, and those points
        // strict in the very same cells.
        let nodes = |held: &[([usize; 2], usize, [usize; 2])]| -> Vec<_> {
            held.iter().map(|&(node, ..)| node).collect()
        };
        assert_eq!(nodes(&protocol[1]), nodes(&protocol[0]));
        assert_eq!(oracle[1], 0);
        for &(node, block, cell) in &protocol[1] {
            assert_eq!((block, cell, false), oracle_donor(node), "node {node:?}");
        }
    }

    /// The fixture with each outer rank posing as a grid of its own, so
    /// that `order` — the inner grid's hierarchy over them — decides which
    /// outer rank is asked first: what asking candidates one after the
    /// other looks like.
    fn split_topo(order: [usize; 2]) -> Topology {
        Topology {
            blocks_of_grid: vec![0..1, 1..2, 2..3],
            rank_of_block: vec![0, 1, 2],
            search_order: vec![order.to_vec(), vec![0], vec![0]],
        }
    }

    /// Rank 0 asks for a donor for the one point `xyz`: the rounds it took,
    /// the rank that gave the donor, and the requests sent after the first.
    fn lone_request(topo: Topology, xyz: [f64; 3]) -> (u64, Option<usize>, u64) {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(move |comm| {
            let mut rb = rank_block(comm.rank(), &fc);
            let node = Ijk::new(0, 0, 0);
            rb.igbps = if comm.rank() == 0 { vec![Igbp::new(node)] } else { vec![] };
            // (Rank 0's block serves no request here: the node may stand
            // anywhere.)
            rb.block.coords[node] = xyz;
            let arena = &mut ConnArena::new();
            connect_distributed(std::slice::from_mut(&mut rb), &topo, comm, arena);
            let donor_rank =
                rb.cache.map.get(&PackedIjk::new(node)).map(|&(block, _)| block as usize);
            let m = comm.metrics();
            (m.get(Counter::ConnRounds), donor_rank, m.get(Counter::ConnForwards))
        });
        out[0].result
    }

    /// A point in the halo strip both outer ranks' boxes cover, nearer to
    /// rank 2's box centre but held only by a cell of rank 1: asked one
    /// after the other, rank 2 misses first; asked side by side, rank 1's
    /// donor is there in the first round.
    #[test]
    fn the_farther_rank_of_a_level_answers_in_the_first_round() {
        let p = [2.125, 1.5, 0.0];
        assert_eq!(lone_request(split_topo([1, 2]), p), (1, Some(1), 0));
        assert_eq!(lone_request(split_topo([2, 1]), p), (2, Some(1), 1), "rank 2 holds it too?");
        assert_eq!(lone_request(topo(), p), (1, Some(1), 1));
    }

    /// A point on the seam between the outer ranks is in a cell of each:
    /// whichever is asked first finds it. Asked side by side, the donor of
    /// the nearer box centre (rank 2) is kept, the one asking in order of
    /// preference would have stopped at.
    #[test]
    fn of_two_donors_in_one_round_the_nearer_rank_wins() {
        let p = [2.25, 1.5, 0.0];
        assert_eq!(lone_request(split_topo([1, 2]), p), (1, Some(1), 0));
        assert_eq!(lone_request(split_topo([2, 1]), p), (1, Some(2), 0));
        assert_eq!(lone_request(topo(), p), (1, Some(2), 1));
    }

    /// One solution of the holed-stencil fixture (some inner fringe points
    /// have only a relaxed donor, on rank 1) with rank 1 as the *last* level
    /// of the inner grid's hierarchy: per rank its tally.
    fn relaxed_on_the_last_level(comm: &mut Comm, arena: &mut ConnArena) -> MetricsRegistry {
        use crate::serial::tests::holed_stencil_solids;
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut rb = rank_block(comm.rank(), &fc);
        solve(&mut rb, &holed_stencil_solids(), &split_topo([2, 1]), comm, arena)
    }

    #[test]
    fn relaxed_only_donor_on_the_last_level_is_found_within_the_bound() {
        let out = Universe::builder()
            .ranks(3)
            .machine(&MachineModel::modern())
            .run(|comm| relaxed_on_the_last_level(comm, &mut ConnArena::new()));
        let regs: Vec<_> = out.iter().map(|o| o.result.clone()).collect();
        let agg = MetricsRegistry::aggregate(&regs);
        assert!(agg.get(Counter::ConnDonorsRelaxed) > 0);
        // (The hole's own fringe on rank 1 reaches outside the inner grid.)
        assert_eq!(out[0].result.get(Counter::ConnOrphans), 0);
        for (rank, o) in out.iter().enumerate() {
            let rounds = o.result.get(Counter::ConnRounds);
            // Rank 2 does not admit the points next to the hole: they go
            // straight to level 1, strict, then once more, relaxed.
            assert_eq!(rounds, 2, "rank {rank}");
            assert!(rounds as usize <= round_bound(&split_topo([2, 1])));
        }
    }

    /// The loop has no other exit than quiescence: a run that needs more
    /// rounds than its bound stops the universe, naming rank, round and the
    /// requests left.
    #[test]
    fn passing_the_round_bound_aborts_the_run() {
        let err = Universe::builder()
            .ranks(3)
            .machine(&MachineModel::modern())
            .try_run(|comm| relaxed_on_the_last_level(comm, &mut ConnArena::with_short_bound(1)))
            .unwrap_err();
        match err {
            overset_comm::OversetError::RankPanicked { message, .. } => {
                assert!(message.contains("after round 1, the hierarchy bound"), "{message}");
                assert!(message.contains("requests pending here"), "{message}");
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    /// `conn.forwards` counts every request point sent after an IGBP's
    /// first, so with every IGBP routed somewhere the points serviced are
    /// the IGBPs plus the forwards — over the cold step (fringe points in
    /// the strip both outer boxes cover are sent to both) and the warm one
    /// (one request each, to the cached donor).
    #[test]
    fn serviced_points_are_first_requests_plus_forwards() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(|comm| {
            let mut rb = rank_block(comm.rank(), &fc);
            (0..2).map(|_| connect(&mut rb, comm)).collect::<Vec<_>>()
        });
        let sum =
            |step: usize, c: Counter| -> u64 { out.iter().map(|o| o.result[step].get(c)).sum() };
        let (igbps, orphans, serviced, forwards) = (
            Counter::ConnIgbps,
            Counter::ConnOrphans,
            Counter::ConnServiced,
            Counter::ConnForwards,
        );
        assert_eq!(sum(0, orphans) + sum(1, orphans), 0);
        assert!(sum(0, forwards) > 0);
        assert_eq!(sum(0, serviced), sum(0, igbps) + sum(0, forwards));
        assert_eq!(sum(1, forwards), 0, "a warm step forwards nothing");
        assert_eq!(sum(1, serviced), sum(1, igbps));
    }

    #[test]
    fn deterministic_virtual_times() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let run = || {
            Universe::builder().ranks(3).machine(&MachineModel::ibm_sp2()).run(|comm| {
                connect(&mut rank_block(comm.rank(), &fc), comm);
                comm.now()
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result.to_bits(), y.result.to_bits());
        }
    }

    /// Four solutions on this rank of the fixture; before each, the inner
    /// grid and the solid it carries (which cuts a hole in the outer grid)
    /// take a small step. `map`: cut and search with this rank's inverse
    /// map, refreshed per cut, or with `None`. `warm`: one arena for all
    /// cuts, or a fresh one per cut. Returns the per-cut tallies, the answers
    /// in named sections (per-cut census; then, after the last cut, blanking,
    /// state bits, and the sorted donor-cache entries as rows of fringe node,
    /// block, grid, global donor cell, relaxed), the final virtual clock, and
    /// `conn.candidates.tested` / `conn.chain.fallbacks`.
    /// (Without `map` the slot is never refreshed: the block has none, and
    /// every search a walk leaves open goes to the canonical chain.)
    fn moved_cuts(comm: &mut Comm, map: bool, warm: bool) -> MovedCuts {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut rb = rank_block(comm.rank(), &fc);
        let step = RigidTransform::translation([0.03, 0.02, 0.0]);
        // The second solid blanks, in the first cuts, the outer node on the
        // inner grid's boundary: the inner fringe points beside it land in
        // cells with a holed stencil, searches a walk leaves open.
        let mut solids =
            vec![(0usize, Solid::Ellipsoid { center: [2.0, 2.0, 0.0], radii: [0.4, 0.4, 10.0] })];
        solids.extend(crate::serial::tests::holed_stencil_solids());
        let mut arena = ConnArena::new();
        let (mut stats, mut census) = (Vec::new(), Vec::new());
        for _ in 0..4 {
            for (_, solid) in solids.iter_mut() {
                *solid = solid.transformed(&step);
            }
            if comm.rank() == 0 {
                rb.block.apply_motion(&step, 0.1);
                rb.note_motion(&step);
            }
            if !warm {
                arena = ConnArena::new();
            }
            if map {
                rb.slot.refresh(&rb.block, comm.metrics_mut());
            }
            crate::holes::cut_holes_and_find_fringe(
                &mut rb.block,
                &solids,
                rb.slot.map(),
                &mut arena,
                &mut rb.igbps,
            );
            let s = tally(comm, |comm| {
                connect_distributed(std::slice::from_mut(&mut rb), &topo(), comm, &mut arena)
            });
            let (igbps, orphans) = (s.get(Counter::ConnIgbps), s.get(Counter::ConnOrphans));
            census.extend([igbps, igbps - orphans, orphans]);
            stats.push(s);
        }
        let iblank = rb.block.iblank.as_slice().iter().map(|&b| b as u64).collect();
        let state = rb.block.q.as_slice().iter().map(|v| v.to_bits()).collect();
        let mut donors: Vec<_> = rb
            .cache
            .map
            .iter()
            .map(|(n, &(r, CachedDonor { cell, grid, relaxed }))| {
                let (n, c) = (n.ijk(), cell.ijk());
                [n.i, n.j, n.k, r as usize, grid as usize, c.i, c.j, c.k, relaxed as usize]
            })
            .collect();
        donors.sort_unstable();
        let donors = donors.iter().flatten().map(|&n| n as u64).collect();
        let answers = vec![
            ("census [igbps, resolved, orphans] per cut".to_string(), 3, census),
            ("iblank".to_string(), 1, iblank),
            ("state bits per node".to_string(), 5, state),
            ("donors [node ijk, block, grid, cell ijk, relaxed]".to_string(), 9, donors),
        ];
        let m = comm.metrics();
        let proofs = (m.get(Counter::ConnCandidatesTested), m.get(Counter::ConnChainFallbacks));
        (stats, answers, comm.now(), proofs)
    }

    /// Named sections of answers, each a flat list of fixed-width rows.
    type Answers = Vec<(String, usize, Vec<u64>)>;
    type MovedCuts = (Vec<MetricsRegistry>, Answers, f64, (u64, u64));

    /// The first row two answer sets differ in, with both versions of it.
    fn first_difference(a: &Answers, b: &Answers) -> Option<String> {
        for ((name, width, va), (_, _, vb)) in a.iter().zip(b) {
            if va.len() != vb.len() {
                return Some(format!("{name}: {} vs {} entries", va.len(), vb.len()));
            }
            let rows = va.chunks(*width).zip(vb.chunks(*width)).enumerate();
            if let Some((row, (ra, rb))) = rows.into_iter().find(|(_, (ra, rb))| ra != rb) {
                return Some(format!("{name}, row {row}: {ra:?} vs {rb:?}"));
            }
        }
        None
    }

    /// The off-paths the driver no longer takes — `inv = None` (the chain
    /// settles every open search), a cold arena per step — against its own
    /// (map and its cell lists, one warm arena): identical censuses,
    /// blanking, fringe values and donor caches on every rank, the first
    /// differing row named with both versions; the arena moves no virtual
    /// clock and no counter; the map only cuts walk work.
    #[test]
    fn map_and_arena_change_work_never_answers() {
        let run = |map: bool, warm: bool| {
            Universe::builder()
                .ranks(3)
                .machine(&MachineModel::ibm_sp2())
                .run(move |comm| moved_cuts(comm, map, warm))
        };
        let legs = [run(false, false), run(false, true), run(true, false), run(true, true)];
        for (rank, reference) in legs[0].iter().enumerate() {
            let of = |leg: usize| &legs[leg][rank].result;
            // The inner grid's outer boundary and the fringe of the hole in
            // its middle all found donors (the small hole on its boundary
            // has fringe points outside it: orphans of rank 1).
            let census = &reference.result.1[0].2;
            assert!(census.chunks(3).all(|c| c[0] > 0), "rank {rank}: {census:?}");
            assert!(rank == 1 || census.chunks(3).all(|c| c[2] == 0), "rank {rank}: {census:?}");
            for leg in 1..4 {
                let differs = first_difference(&of(0).1, &of(leg).1);
                assert!(differs.is_none(), "rank {rank}, leg 0 vs leg {leg}: {}", differs.unwrap());
            }
            // Cold vs warm arena at fixed `inv`: the same protocol to the bit.
            for (cold, warm) in [(0, 1), (2, 3)] {
                let (c, w) = (of(cold), of(warm));
                assert_eq!(c.2.to_bits(), w.2.to_bits(), "rank {rank}: clock, legs {cold}/{warm}");
                assert!(c.0 == w.0, "rank {rank}: counters, legs {cold}/{warm}");
            }
        }
        let walks = |leg: usize| -> u64 {
            legs[leg].iter().flat_map(|o| &o.result.0).map(|s| s.get(Counter::ConnWalkSteps)).sum()
        };
        assert!(walks(3) < walks(0), "map did not cut walk steps: {} vs {}", walks(3), walks(0));
        // Without a map every open search is the chain's; with one, the
        // lists' — and on plane grids no point sits in cells apart.
        let proofs = |leg: usize| -> (u64, u64) {
            legs[leg].iter().fold((0, 0), |(t, f), o| (t + o.result.3 .0, f + o.result.3 .1))
        };
        assert_eq!((proofs(0), proofs(1)), ((0, 0), (0, 0)));
        assert!(proofs(2).0 > 0 && proofs(2) == proofs(3), "{:?} vs {:?}", proofs(2), proofs(3));
        assert_eq!(proofs(3).1, 0);
    }

    #[test]
    fn metrics_registry_matches_protocol_stats_across_ranks() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder().ranks(3).machine(&MachineModel::modern()).run(|comm| {
            let mut rb = rank_block(comm.rank(), &fc);
            let s1 = connect(&mut rb, comm);
            let s2 = connect(&mut rb, comm);
            (s1, s2)
        });
        // Per-rank: the registry's serviced counter is exactly the sum of
        // the per-step tallies — one source of truth for I(p).
        let serviced = |s: &MetricsRegistry| s.get(Counter::ConnServiced);
        for o in &out {
            let expect = serviced(&o.result.0) + serviced(&o.result.1);
            assert_eq!(o.metrics.get(Counter::ConnServiced), expect);
        }
        // Cross-rank aggregation sums counters and merges histograms.
        let regs: Vec<MetricsRegistry> = out.iter().map(|o| o.metrics.clone()).collect();
        let agg = MetricsRegistry::aggregate(&regs);
        let total: u64 = out.iter().map(|o| serviced(&o.result.0) + serviced(&o.result.1)).sum();
        assert!(total > 0);
        assert_eq!(agg.get(Counter::ConnServiced), total);
        // The warm second pass produced cache hits on the requesting rank.
        assert!(agg.get(Counter::ConnCacheHit) > 0);
        assert!(agg.cache_hit_rate().unwrap() > 0.5);
    }

    #[test]
    fn service_load_concentrates_on_overlap_owner() {
        // Rank 1 owns the left half of the outer grid; the inner grid sits
        // at [1,3]^2, so both outer ranks serve, but rank 0 serves nothing
        // (no outer fringe reaches into the inner grid's bbox...
        // actually outer grid has Farfield edges: no IGBPs of its own).
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let out = Universe::builder()
            .ranks(3)
            .machine(&MachineModel::modern())
            .run(|comm| connect(&mut rank_block(comm.rank(), &fc), comm));
        let (igbps, serviced) = (Counter::ConnIgbps, Counter::ConnServiced);
        assert_eq!(out[1].result.get(igbps) + out[2].result.get(igbps), 0);
        assert_eq!(out[0].result.get(serviced), 0);
        assert!(out[1].result.get(serviced) > 0);
        assert!(out[2].result.get(serviced) > 0);
    }

    /// The per-point records of the search, in bytes: a node or cell is one
    /// word, counts and list positions `u32`.
    #[test]
    fn search_records_are_as_small_as_what_they_hold() {
        use std::mem::size_of;
        assert_eq!(size_of::<Igbp>(), 8);
        assert_eq!(size_of::<Pending>(), 32);
        assert_eq!(size_of::<ReqPoint>(), 40);
        assert_eq!(size_of::<Answer>(), 48);
        assert_eq!(size_of::<BestReply>(), 56);
        assert_eq!(size_of::<(PackedIjk, (u32, CachedDonor))>(), 32, "donor-cache entry");
        assert_eq!(size_of::<(PackedIjk, [f64; 5])>(), 48, "deferred write");
    }
}
