//! Counting global allocator with per-rank, per-phase attribution.
//!
//! Every crate in the workspace links `overset-comm`, so the
//! [`#[global_allocator]`](CountingAlloc) registered here observes every heap
//! allocation in every binary and test. Attribution works through a
//! thread-local `Ctx` holding a raw pointer to the current rank's
//! [`RankAllocCounters`] plus the current [`Phase`]:
//!
//! - `runtime::run_ranks` installs the context at rank start and clears it
//!   when the rank body returns (or unwinds), so allocator bookkeeping never
//!   outlives the counters it points at.
//! - `Comm::switch_phase` keeps the context's phase in sync with the RAII
//!   `PhaseGuard`s.
//! - the M:N scheduler saves/restores the full context across every coroutine
//!   switch (`sched::run_coro`), so a rank resumed on the same worker thread
//!   after another rank ran there still charges its own counters.
//! - the process transport runs `run_ranks` inside each child, so child-side
//!   counters are attributed identically and travel back to the parent inside
//!   `RankOutput` on `Done`.
//!
//! ## Determinism contract
//!
//! Per-phase **allocation counts and byte totals are order-invariant sums**:
//! for deterministic rank code they are bit-identical run to run, which makes
//! them a gateable host-cost proxy (`repro compare` checks them exactly).
//! Two caveats keep that true:
//!
//! - Runtime-internal allocations whose count depends on *host* timing
//!   (mailbox queue growth, rendezvous buffers, out-of-order pending lists)
//!   are excluded via `suspend` guards around the comm runtime's internals.
//!   Only allocations made by rank code (and deterministic observability
//!   paths) are attributed.
//! - **Peak bytes depend on allocation order**, which legitimately varies
//!   with thread interleaving. Peaks are surfaced as advisory data in the
//!   report's `host` section and are never gated.
//!
//! Counts may legitimately differ between transports or scheduler modes
//! (different code paths run); only same-configuration run-to-run equality is
//! guaranteed.

use crate::stats::{Phase, NUM_PHASES};
use crate::wire::{Wire, WireError, WireReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-rank allocation counters. One instance per rank per run, shared
/// between the rank's `Comm` and the thread-local allocator context.
///
/// All counters use relaxed atomics: a rank executes on exactly one OS
/// thread at a time (1:1 threads, M:N pinned coroutines, or a child
/// process), so there is no cross-thread contention on a single instance —
/// atomics only make the unsynchronized read from `Comm::finish` defined.
#[derive(Debug)]
pub struct RankAllocCounters {
    allocs: [AtomicU64; NUM_PHASES],
    bytes: [AtomicU64; NUM_PHASES],
    frees: [AtomicU64; NUM_PHASES],
    freed_bytes: [AtomicU64; NUM_PHASES],
    cur_bytes: AtomicI64,
    peak_bytes: AtomicI64,
}

impl Default for RankAllocCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl RankAllocCounters {
    pub const fn new() -> Self {
        RankAllocCounters {
            allocs: [const { AtomicU64::new(0) }; NUM_PHASES],
            bytes: [const { AtomicU64::new(0) }; NUM_PHASES],
            frees: [const { AtomicU64::new(0) }; NUM_PHASES],
            freed_bytes: [const { AtomicU64::new(0) }; NUM_PHASES],
            cur_bytes: AtomicI64::new(0),
            peak_bytes: AtomicI64::new(0),
        }
    }

    /// Deterministic (gateable) part of the counters: per-phase allocation
    /// counts and byte totals.
    pub fn snapshot(&self) -> AllocSnapshot {
        let mut s = AllocSnapshot::default();
        for p in 0..NUM_PHASES {
            s.allocs[p] = self.allocs[p].load(Ordering::Relaxed);
            s.bytes[p] = self.bytes[p].load(Ordering::Relaxed);
        }
        s
    }

    /// Full totals including free counts and the (order-dependent, advisory)
    /// peak of net attributed bytes.
    pub fn totals(&self) -> AllocTotals {
        let mut t = AllocTotals::default();
        for p in 0..NUM_PHASES {
            t.allocs[p] = self.allocs[p].load(Ordering::Relaxed);
            t.bytes[p] = self.bytes[p].load(Ordering::Relaxed);
            t.frees[p] = self.frees[p].load(Ordering::Relaxed);
            t.freed_bytes[p] = self.freed_bytes[p].load(Ordering::Relaxed);
        }
        t.peak_bytes = self.peak_bytes.load(Ordering::Relaxed).max(0) as u64;
        t
    }
}

/// Deterministic per-phase counters used for step differencing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: [u64; NUM_PHASES],
    pub bytes: [u64; NUM_PHASES],
}

/// End-of-run allocation totals for one rank, carried in `RankOutput`.
///
/// `allocs`/`bytes`/`frees`/`freed_bytes` are deterministic for
/// deterministic rank code; `peak_bytes` is order-dependent and advisory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocTotals {
    pub allocs: [u64; NUM_PHASES],
    pub bytes: [u64; NUM_PHASES],
    pub frees: [u64; NUM_PHASES],
    pub freed_bytes: [u64; NUM_PHASES],
    pub peak_bytes: u64,
}

impl AllocTotals {
    pub fn total_allocs(&self) -> u64 {
        self.allocs.iter().sum()
    }
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

impl Wire for AllocTotals {
    fn encode(&self, out: &mut Vec<u8>) {
        self.allocs.encode(out);
        self.bytes.encode(out);
        self.frees.encode(out);
        self.freed_bytes.encode(out);
        self.peak_bytes.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AllocTotals {
            allocs: Wire::decode(r)?,
            bytes: Wire::decode(r)?,
            frees: Wire::decode(r)?,
            freed_bytes: Wire::decode(r)?,
            peak_bytes: Wire::decode(r)?,
        })
    }
}

/// Thread-local attribution context. `Copy` + const-init `Cell` so the
/// allocator's fast path never allocates, never drops, and never trips TLS
/// destructor recursion.
#[derive(Clone, Copy)]
pub(crate) struct Ctx {
    /// Target counters; null = unattributed (allocation not counted).
    counters: *const RankAllocCounters,
    /// Current phase index (< NUM_PHASES).
    phase: u8,
    /// Suspension depth; > 0 means runtime-internal allocations are skipped.
    suspend: u32,
}

impl Ctx {
    const EMPTY: Ctx = Ctx { counters: ptr::null(), phase: Phase::Other as u8, suspend: 0 };
}

thread_local! {
    static CTX: Cell<Ctx> = const { Cell::new(Ctx::EMPTY) };
}

/// Opaque saved context, swapped across M:N coroutine switches.
#[derive(Clone, Copy)]
pub(crate) struct SavedCtx(Ctx);

impl SavedCtx {
    pub(crate) const EMPTY: SavedCtx = SavedCtx(Ctx::EMPTY);
}

/// Install attribution for the current thread. The caller must keep
/// `counters` alive (and call [`clear`]) before dropping the `Arc`.
pub(crate) fn install(counters: &Arc<RankAllocCounters>, phase: Phase) {
    let _ = CTX.try_with(|c| {
        c.set(Ctx { counters: Arc::as_ptr(counters), phase: phase as u8, suspend: 0 })
    });
}

/// Stop attributing allocations on the current thread.
pub(crate) fn clear() {
    let _ = CTX.try_with(|c| c.set(Ctx::EMPTY));
}

/// Keep the context's phase in sync with `Comm::switch_phase`.
pub(crate) fn set_phase(phase: Phase) {
    let _ = CTX.try_with(|c| {
        let mut ctx = c.get();
        ctx.phase = phase as u8;
        c.set(ctx);
    });
}

/// Swap in a previously saved context, returning the current one.
/// Used by the M:N scheduler around every coroutine switch.
pub(crate) fn swap_ctx(new: SavedCtx) -> SavedCtx {
    CTX.try_with(|c| SavedCtx(c.replace(new.0))).unwrap_or(SavedCtx::EMPTY)
}

/// RAII guard suppressing attribution for runtime-internal allocations whose
/// count depends on host timing (mailbox growth, rendezvous buffers, ...).
/// Nests; must stay on the thread that created it (it is `!Send` via the
/// raw-pointer-free but thread-local semantics — not enforced by the type
/// system, callers are module-internal).
pub(crate) struct SuspendGuard(());

pub(crate) fn suspend() -> SuspendGuard {
    let _ = CTX.try_with(|c| {
        let mut ctx = c.get();
        ctx.suspend += 1;
        c.set(ctx);
    });
    SuspendGuard(())
}

impl Drop for SuspendGuard {
    fn drop(&mut self) {
        let _ = CTX.try_with(|c| {
            let mut ctx = c.get();
            ctx.suspend = ctx.suspend.saturating_sub(1);
            c.set(ctx);
        });
    }
}

/// Map a raw context phase byte onto a counter slot. In-range values index
/// their own bucket; anything out of range is an *unknown* phase and is
/// attributed to `Phase::Other` explicitly — not silently folded into
/// whichever real phase happens to sit last in the enum.
#[inline]
pub(crate) fn phase_slot(raw: u8) -> usize {
    let p = raw as usize;
    if p < NUM_PHASES {
        p
    } else {
        Phase::Other as usize
    }
}

#[inline]
fn record_alloc(size: usize) {
    let _ = CTX.try_with(|c| {
        let ctx = c.get();
        if ctx.counters.is_null() || ctx.suspend > 0 {
            return;
        }
        // SAFETY: non-null counters pointers are installed from a live Arc
        // and cleared (install/clear/swap_ctx) before that Arc can be
        // dropped; see runtime::run_ranks.
        let rc = unsafe { &*ctx.counters };
        let p = phase_slot(ctx.phase);
        rc.allocs[p].fetch_add(1, Ordering::Relaxed);
        rc.bytes[p].fetch_add(size as u64, Ordering::Relaxed);
        let cur = rc.cur_bytes.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        rc.peak_bytes.fetch_max(cur, Ordering::Relaxed);
    });
}

#[inline]
fn record_free(size: usize) {
    let _ = CTX.try_with(|c| {
        let ctx = c.get();
        if ctx.counters.is_null() || ctx.suspend > 0 {
            return;
        }
        // SAFETY: as in record_alloc.
        let rc = unsafe { &*ctx.counters };
        let p = phase_slot(ctx.phase);
        rc.frees[p].fetch_add(1, Ordering::Relaxed);
        rc.freed_bytes[p].fetch_add(size as u64, Ordering::Relaxed);
        rc.cur_bytes.fetch_sub(size as i64, Ordering::Relaxed);
    });
}

/// System-allocator wrapper counting every heap operation against the
/// current thread's attribution context.
pub struct CountingAlloc;

// SAFETY: defers all allocation to `System`; bookkeeping never allocates
// (const-init Cell thread-locals, atomic adds only).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        record_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record_free(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

/// The workspace-wide counting allocator. Living in `overset-comm` puts it in
/// every downstream binary and test without further opt-in.
#[global_allocator]
static GLOBAL_COUNTING_ALLOC: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_allocations_are_not_counted() {
        clear();
        let c = Arc::new(RankAllocCounters::new());
        let before = c.snapshot();
        let v = vec![0u8; 4096];
        std::hint::black_box(&v);
        drop(v);
        assert_eq!(c.snapshot(), before);
    }

    #[test]
    fn attribution_lands_on_current_phase() {
        let c = Arc::new(RankAllocCounters::new());
        install(&c, Phase::Connectivity);
        let v = vec![0u8; 1024];
        std::hint::black_box(&v);
        set_phase(Phase::Flow);
        let w = vec![0u8; 2048];
        std::hint::black_box(&w);
        clear();
        drop(v);
        drop(w);
        let s = c.snapshot();
        let conn = Phase::Connectivity as usize;
        let flow = Phase::Flow as usize;
        assert!(s.allocs[conn] >= 1, "connectivity alloc missing: {s:?}");
        assert!(s.bytes[conn] >= 1024);
        assert!(s.allocs[flow] >= 1, "flow alloc missing: {s:?}");
        assert!(s.bytes[flow] >= 2048);
        let t = c.totals();
        assert!(t.peak_bytes >= 3072, "peak too small: {}", t.peak_bytes);
        // Frees happened after clear(): not attributed.
        assert_eq!(t.frees.iter().sum::<u64>(), 0);
    }

    #[test]
    fn suspend_guard_skips_counting() {
        let c = Arc::new(RankAllocCounters::new());
        install(&c, Phase::Other);
        let before = c.snapshot();
        {
            let _g = suspend();
            let v = vec![0u8; 512];
            std::hint::black_box(&v);
            {
                let _g2 = suspend(); // nested
                let w = vec![0u8; 512];
                std::hint::black_box(&w);
            }
        }
        let mid = c.snapshot();
        let v = vec![0u8; 64];
        std::hint::black_box(&v);
        clear();
        assert_eq!(mid, before, "suspended allocations were counted");
        let after = c.snapshot();
        assert!(after.allocs[Phase::Other as usize] > mid.allocs[Phase::Other as usize]);
    }

    #[test]
    fn saved_ctx_swap_round_trips() {
        let c = Arc::new(RankAllocCounters::new());
        install(&c, Phase::Motion);
        let saved = swap_ctx(SavedCtx::EMPTY);
        // Unattributed while swapped out.
        let v = vec![0u8; 256];
        std::hint::black_box(&v);
        let none = c.snapshot();
        assert_eq!(none.allocs[Phase::Motion as usize], 0);
        let empty = swap_ctx(saved);
        let w = vec![0u8; 256];
        std::hint::black_box(&w);
        clear();
        let _ = empty;
        let s = c.snapshot();
        assert!(s.allocs[Phase::Motion as usize] >= 1);
        assert!(s.bytes[Phase::Motion as usize] >= 256);
    }

    #[test]
    fn out_of_range_phase_routes_to_other() {
        // In-range phases map to their own bucket.
        for p in 0..NUM_PHASES {
            assert_eq!(phase_slot(p as u8), p);
        }
        // The public API (`install`/`set_phase`) can only produce in-range
        // values, but the raw context byte could hold anything; unknown
        // phases must land in Other, not in the last real bucket.
        for raw in [NUM_PHASES as u8, 7, 100, 200, u8::MAX] {
            assert_eq!(phase_slot(raw), Phase::Other as usize);
        }
    }

    #[test]
    fn alloc_totals_wire_round_trip() {
        let tot = AllocTotals {
            allocs: [1; NUM_PHASES],
            bytes: [2; NUM_PHASES],
            frees: [3; NUM_PHASES],
            freed_bytes: [4; NUM_PHASES],
            peak_bytes: 99,
        };
        let bytes = tot.to_wire_bytes();
        assert_eq!(AllocTotals::from_wire_bytes(&bytes).unwrap(), tot);
    }
}
