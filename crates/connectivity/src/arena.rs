//! Per-rank connectivity arena: step-scoped scratch that is reset, not
//! freed.
//!
//! Every collection the connectivity phase allocates per step — the pending
//! list, flattened candidate lists, per-destination request buffers, reply
//! slots, the hole cutter's solid boxes — lives here and keeps its capacity
//! across steps (the deferred q-writes stay with their block, on its
//! `RankBlock`). The driver owns one [`ConnArena`] per rank
//! for the whole run; steady-state connectivity steps then perform
//! near-zero transient allocations, which the exact alloc gate in
//! `repro compare` pins (docs/OBSERVABILITY.md, "Arena allocation").
//!
//! The records are as small as what they hold. A node or cell is one packed
//! word, a count or list position a `u32`: a pending point takes 32 bytes
//! and a round's best reply 56, and there is one pending list, compacted in
//! place as points resolve. The pending and best lists are sized once per
//! step from the rank's IGBP count, which bounds both, so no round grows
//! them (see `make_room`); and the service walks its batch `WALK_SLICE`
//! points at a time, so the walk scratch stays under 43 KiB whatever the
//! batch. On the store ×0.55 after 12 steps the donor search kept 723 bytes
//! per IGBP on one rank and 904 on 18, inverse maps aside; it keeps 253 and
//! 392 (EXPERIMENTS.md, *Donor-search records that fit*).
//!
//! The arena changes nothing about *what* the protocol computes: the same
//! code path runs whether the arena is fresh (allocating on first use) or
//! warm (reusing capacity), so states, walk outcomes and virtual times are
//! bit-identical with a cold arena every step — only host-side allocation
//! counts differ. `protocol::tests::map_and_arena_change_work_never_answers`
//! asserts exactly this.

use crate::donor::{BatchQuery, SearchCost, SearchOutcome};
use crate::inverse_map::BinClass;
use crate::protocol::{Answer, BestReply, Pending, ReqPoint};
use overset_comm::VecPool;
use overset_grid::curvilinear::Solid;
use overset_grid::Aabb;
use overset_solver::Isa;
use std::sync::Arc;

/// Reusable scratch for one rank's connectivity work (distributed protocol
/// and hole cutting). Construction allocates nothing; scratch collections
/// are cleared, never shrunk, between steps, and the message-buffer pools
/// keep at most one step's working set.
#[derive(Default)]
pub struct ConnArena {
    /// Lane ISA carrying the batched donor-search and containment kernels.
    /// Defaults to [`Isa::Scalar`]; the connectivity contexts set it to
    /// what the host supports. Results are bit-identical either way — the
    /// ISA only changes host speed. Lives on the arena (not a process
    /// global) so tests can run both ISAs side by side in one process.
    pub isa: Isa,

    // -- distributed protocol scratch --
    /// Unresolved IGBPs in the current round; the reply-collection pass
    /// compacts the ones still open to its front.
    pub(crate) pending: Vec<Pending>,
    /// Flattened candidate-block storage: every `Pending` holds a
    /// (start, len) range into this pool instead of its own vector. This
    /// removes the per-IGBP allocation that dominated the old profile.
    pub(crate) cand_pool: Vec<u32>,
    /// Per-destination-block request lists (outer vec sized to the block
    /// count of the partition). A list is taken from `req_pool` at its
    /// round's count and leaves its slot with the send, so between rounds
    /// every slot is empty and holds no capacity.
    pub(crate) outgoing: Vec<Vec<ReqPoint>>,
    /// Blocks of other ranks this rank sent requests to in the current
    /// round.
    pub(crate) sent_to: Vec<usize>,
    /// Per round, parallel to `pending`: the donor from the most preferred
    /// candidate block that found one.
    pub(crate) best: Vec<BestReply>,
    /// Recycled request buffers: request vectors home from their round
    /// trip are parked here and reused for later rounds' sends. What a
    /// step leaves idle goes at its end.
    pub(crate) req_pool: VecPool<ReqPoint>,
    /// Recycled answer buffers, symmetric to `req_pool`.
    pub(crate) ans_pool: VecPool<(u32, Answer)>,
    /// This rank's per-destination-block request counts. Each round's allgather
    /// is handed a shared handle to the row, and the row is refilled in
    /// place once every rank has dropped its view of the previous round.
    /// `None` until the first round, so construction stays allocation-free.
    pub(crate) count_row: Option<Arc<Vec<u32>>>,
    /// A round bound below the hierarchy's, to force the abort.
    #[cfg(test)]
    pub(crate) short_bound: Option<usize>,

    // -- hole-cutting scratch --
    /// Foreign solids (other grids') for the containment tests.
    pub(crate) foreign_solids: Vec<Solid>,
    /// Padded bounding boxes, parallel to `foreign_solids`.
    pub(crate) solid_boxes: Vec<Aabb>,
    /// Per-solid hole-lattice classifications of the masked cutter (outer
    /// len = number of foreign solids; inner vecs keep their capacity).
    pub(crate) bin_classes: Vec<Vec<BinClass>>,
    /// Where the masked cutter's solids reach: per solid, the box of its
    /// hole-lattice bins not classified `Outside`.
    pub(crate) reach_boxes: Vec<Aabb>,

    /// Batched donor-search scratch.
    pub(crate) walk: WalkScratch,
}

/// Points the service walks at once: the length of [`WalkScratch`]'s lists.
/// Walk outcomes and costs do not depend on how a batch is sliced.
pub(crate) const WALK_SLICE: usize = 256;

/// Scratch of the lane-lockstep donor search over one slice of a service
/// batch.
#[derive(Default)]
pub(crate) struct WalkScratch {
    /// Pending query points.
    pub(crate) queries: Vec<BatchQuery>,
    /// Per-query outcomes.
    pub(crate) outcomes: Vec<SearchOutcome>,
    /// Per-query walk costs, parallel to `outcomes`.
    pub(crate) costs: Vec<SearchCost>,
}

impl ConnArena {
    /// An empty arena. Allocation-free: every buffer starts with zero
    /// capacity and grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena whose protocol aborts after `rounds` rounds.
    #[cfg(test)]
    pub(crate) fn with_short_bound(rounds: usize) -> Self {
        ConnArena { short_bound: Some(rounds), ..Self::default() }
    }

    /// Reset the distributed-protocol scratch for a new step of `igbps`
    /// fringe points on this rank. Capacities survive; the pending and best
    /// lists grow, once, when they cannot hold every point; the outer
    /// `outgoing` vector is (re)sized to `nblocks` empty slots.
    pub(crate) fn begin_protocol(&mut self, nblocks: usize, igbps: usize) {
        make_room(&mut self.pending, igbps);
        make_room(&mut self.best, igbps);
        self.cand_pool.clear();
        self.sent_to.clear();
        self.outgoing.clear();
        self.outgoing.resize_with(nblocks, Vec::new);
    }

    /// Bytes the arena holds: capacity × record size over its lists and
    /// the buffers its pools park.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let WalkScratch { queries, outcomes, costs } = &self.walk;
        bytes(&self.pending)
            + bytes(&self.cand_pool)
            + bytes(&self.outgoing)
            + self.outgoing.iter().map(bytes).sum::<usize>()
            + bytes(&self.sent_to)
            + bytes(&self.best)
            + self.req_pool.parked_bytes()
            + self.ans_pool.parked_bytes()
            + self.count_row.as_ref().map_or(0, |row| bytes(row))
            + bytes(&self.foreign_solids)
            + bytes(&self.solid_boxes)
            + bytes(&self.bin_classes)
            + self.bin_classes.iter().map(bytes).sum::<usize>()
            + bytes(&self.reach_boxes)
            + bytes(queries)
            + bytes(outcomes)
            + bytes(costs)
    }
}

/// Bytes `v` holds: capacity × record size.
#[cfg(test)]
pub(crate) fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Empty `v` and make room for `n` records in it. A list too short is freed
/// and allocated again at `n` and an eighth: it neither doubles nor copies,
/// and a fringe that creeps up by a few points a step as a body moves does
/// not reallocate it every step.
pub(crate) fn make_room<T>(v: &mut Vec<T>, n: usize) {
    v.clear();
    if v.capacity() < n {
        *v = Vec::new();
        v.reserve_exact(n + n / 8);
    }
}
