//! M:N cooperative scheduling: many virtual ranks on a bounded worker pool.
//!
//! Each virtual rank runs on its own coroutine stack. Wherever a rank would
//! block on host synchronization (a `recv` with no matching message, a
//! collective rendezvous, `end_step`), it *yields* back to the worker thread
//! hosting it instead of blocking the OS thread, so a 512–4096-rank universe
//! runs on a handful of cores. Ranks are pinned to workers
//! (`rank % nworkers`): a rank's coroutine only ever executes on its owner,
//! and waking rank `r` means enqueueing `r` on the owner's inbox.
//!
//! The context switch is a hand-rolled x86-64 System V stackful switch (the
//! build environment has no coroutine crates): callee-saved registers are
//! pushed on the suspending stack, stack pointers swapped, and the resuming
//! stack's registers popped. Unwinding never crosses the switch boundary —
//! the runtime wraps every rank body in `catch_unwind` *inside* the
//! coroutine, and [`coro_main`] aborts the process if a panic somehow
//! escapes that net.
//!
//! None of this affects virtual time: receives are (src, tag)-addressed and
//! collective results are rank-indexed, so clocks are bit-identical to the
//! rank-per-thread mode regardless of interleaving.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Coroutine stack size (matches the Rust default thread stack; a multiple
/// of 16 so the top stays aligned).
const STACK_SIZE: usize = 2 * 1024 * 1024;

/// Is the M:N scheduler available on this target? The context switch is
/// x86-64-only; elsewhere the builder falls back to rank-per-thread.
pub(crate) const MN_AVAILABLE: bool = cfg!(target_arch = "x86_64");

// ---- context switch (x86-64 System V) ----------------------------------

#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    // overset_ctx_switch(save: *mut *mut u8 [rdi], restore_rsp: *mut u8 [rsi])
    //
    // Saves the callee-saved register file and stack pointer of the calling
    // context into `*save`, then resumes the context whose saved stack
    // pointer is `restore_rsp`. Returns (in the resumed context) to whoever
    // suspended it — or, for a fresh stack, "returns" into
    // `overset_ctx_entry`, which calls `coro_main(r12)`.
    ".hidden overset_ctx_switch",
    ".global overset_ctx_switch",
    ".p2align 4",
    "overset_ctx_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".hidden overset_ctx_entry",
    ".global overset_ctx_entry",
    ".p2align 4",
    "overset_ctx_entry:",
    "mov rdi, r12",
    "call r13",
    "ud2",
);

#[cfg(target_arch = "x86_64")]
extern "C" {
    fn overset_ctx_switch(save: *mut *mut u8, restore_rsp: *mut u8);
    /// Never called from Rust — its address seeds fresh coroutine stacks.
    fn overset_ctx_entry();
}

#[cfg(not(target_arch = "x86_64"))]
unsafe fn overset_ctx_switch(_save: *mut *mut u8, _restore_rsp: *mut u8) {
    unreachable!("M:N scheduling is x86-64 only (MN_AVAILABLE is false)");
}

// ---- coroutine stacks ---------------------------------------------------

struct StackMem {
    ptr: *mut u8,
    layout: std::alloc::Layout,
}

impl StackMem {
    fn new() -> StackMem {
        // Pages are committed lazily by the OS, so a big virtual reservation
        // per rank is cheap.
        let layout = std::alloc::Layout::from_size_align(STACK_SIZE, 16).expect("stack layout");
        let ptr = unsafe { std::alloc::alloc(layout) };
        assert!(!ptr.is_null(), "coroutine stack allocation failed ({STACK_SIZE} bytes)");
        StackMem { ptr, layout }
    }

    fn top(&self) -> *mut u8 {
        unsafe { self.ptr.add(self.layout.size()) }
    }
}

impl Drop for StackMem {
    fn drop(&mut self) {
        unsafe { std::alloc::dealloc(self.ptr, self.layout) }
    }
}

/// One virtual rank's coroutine: its stack, its saved stack pointer while
/// suspended, and the task it runs. Owned by exactly one worker; never
/// migrates, so the raw pointers inside are single-threaded at any moment.
pub(crate) struct Coro {
    stack: StackMem,
    /// Saved stack pointer while suspended; null until the first resume
    /// seeds the entry frame (the `Coro` must be at its final address when
    /// the frame captures `self`, so seeding is deferred out of `new`).
    rsp: *mut u8,
    task: Option<Box<dyn FnOnce() + Send + 'static>>,
    /// This rank's allocator-attribution context while suspended. Saved and
    /// restored around every switch so a mid-phase yield never leaks the
    /// next coroutine's allocations into this rank's counters (or vice
    /// versa) — see [`crate::alloc`].
    alloc_ctx: crate::alloc::SavedCtx,
    pub(crate) finished: bool,
    pub(crate) rank: usize,
}

// The raw pointers are private to the owning worker thread.
unsafe impl Send for Coro {}

impl Coro {
    pub(crate) fn new(rank: usize, task: Box<dyn FnOnce() + Send + 'static>) -> Coro {
        Coro {
            stack: StackMem::new(),
            rsp: std::ptr::null_mut(),
            task: Some(task),
            alloc_ctx: crate::alloc::SavedCtx::EMPTY,
            finished: false,
            rank,
        }
    }
}

/// Entry point executed on a fresh coroutine stack (reached through
/// `overset_ctx_entry` with `c` in `r12`). Never returns: after the task
/// completes it marks the coroutine finished and yields forever (a wake
/// aimed at a finished rank resumes the loop, which immediately yields
/// back).
#[cfg(target_arch = "x86_64")]
unsafe extern "C" fn coro_main(c: *mut Coro) {
    let task = (*c).task.take().expect("coroutine resumed before seeding");
    // The runtime catches rank-body panics inside `task`; if one still
    // escapes, unwinding must not reach the assembly frame below us.
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
        eprintln!("[overset-comm] fatal: panic escaped a virtual-rank task");
        std::process::abort();
    }
    (*c).finished = true;
    loop {
        mn_yield();
    }
}

/// Where a yielding coroutine saves itself and finds its hosting worker.
#[derive(Clone, Copy)]
struct YieldTarget {
    /// Slot for the coroutine's stack pointer (`&mut coro.rsp`).
    save: *mut *mut u8,
    /// The worker's saved stack pointer, written by the switch into the
    /// coroutine (points at a local in [`run_coro`]'s frame).
    worker_rsp: *const *mut u8,
}

thread_local! {
    static YIELD: std::cell::Cell<Option<YieldTarget>> = const { std::cell::Cell::new(None) };
}

/// Suspend the current virtual rank and return control to its worker.
/// Must only be called from inside a coroutine (the runtime guarantees
/// this: only M:N-mode comm waits and `end_step` reach it).
pub(crate) fn mn_yield() {
    let t = YIELD.with(|y| y.get()).expect("mn_yield outside a virtual-rank coroutine");
    unsafe { overset_ctx_switch(t.save, *t.worker_rsp) };
}

/// Resume `coro` until it yields or finishes. `coro` must be owned by the
/// calling worker and not currently running.
unsafe fn run_coro(coro: *mut Coro) {
    if (*coro).rsp.is_null() {
        // First resume: seed the stack with a frame that "returns" into
        // `overset_ctx_entry` with callee-saved registers r12 = coro,
        // r13 = coro_main. Slot order matches the pop sequence in
        // `overset_ctx_switch`: r15 r14 r13 r12 rbx rbp, then `ret`.
        #[cfg(target_arch = "x86_64")]
        {
            let sp = (*coro).stack.top().sub(7 * 8) as *mut usize;
            sp.add(0).write(0); // r15
            sp.add(1).write(0); // r14
            sp.add(2).write(coro_main as *const () as usize); // r13
            sp.add(3).write(coro as usize); // r12
            sp.add(4).write(0); // rbx
            sp.add(5).write(0); // rbp
            sp.add(6).write(overset_ctx_entry as *const () as usize); // return address
            (*coro).rsp = sp as *mut u8;
        }
    }
    let mut worker_rsp: *mut u8 = std::ptr::null_mut();
    let save = std::ptr::addr_of_mut!((*coro).rsp);
    YIELD.with(|y| y.set(Some(YieldTarget { save, worker_rsp: &worker_rsp })));
    // Swap in the coroutine's allocator-attribution context for the duration
    // of its slice; the worker's own context (normally empty) is held across
    // the switch and restored — with the coroutine's current context saved
    // back into it — when the coroutine yields or finishes.
    let worker_ctx = crate::alloc::swap_ctx((*coro).alloc_ctx);
    overset_ctx_switch(&mut worker_rsp, *save);
    (*coro).alloc_ctx = crate::alloc::swap_ctx(worker_ctx);
    YIELD.with(|y| y.set(None));
}

// ---- worker pool --------------------------------------------------------

struct Inbox {
    q: Mutex<Vec<usize>>,
    cv: Condvar,
}

/// Wakeup fabric shared by the runtime and the workers: per-worker inboxes
/// of global rank indices. Waking a rank enqueues it on its owner's inbox;
/// the owner drains the inbox whenever it runs out of ready coroutines.
/// Spurious wakes are harmless — every parked rank re-checks its predicate
/// on resume — so wake-before-park races resolve to an extra resume, never
/// a lost wakeup.
pub(crate) struct MnShared {
    inboxes: Vec<Inbox>,
    nworkers: usize,
}

impl MnShared {
    pub(crate) fn new(nworkers: usize) -> MnShared {
        assert!(nworkers >= 1);
        MnShared {
            inboxes: (0..nworkers)
                .map(|_| Inbox { q: Mutex::new(Vec::new()), cv: Condvar::new() })
                .collect(),
            nworkers,
        }
    }

    pub(crate) fn nworkers(&self) -> usize {
        self.nworkers
    }

    /// Make rank `rank` runnable again on its owning worker.
    pub(crate) fn wake(&self, rank: usize) {
        let ib = &self.inboxes[rank % self.nworkers];
        ib.q.lock().expect("inbox poisoned").push(rank);
        ib.cv.notify_one();
    }
}

/// A worker's main loop: run every owned coroutine that is ready, park on
/// the inbox when none are, exit when all owned coroutines finished.
/// `coros` holds this worker's ranks in ascending rank order (rank
/// `widx + k·nworkers` at index `k`), which is also the initial run order —
/// part of keeping M:N behavior deterministic enough to debug, even though
/// virtual time never depends on it.
pub(crate) fn worker_loop(
    widx: usize,
    shared: &MnShared,
    mut coros: Vec<Coro>,
    watchdog: Option<Duration>,
) {
    let nw = shared.nworkers;
    let mut live = coros.len();
    let mut ready: VecDeque<usize> = (0..coros.len()).collect();
    let base = coros.as_mut_ptr();
    while live > 0 {
        while let Some(li) = ready.pop_front() {
            let c = unsafe { base.add(li) };
            debug_assert_eq!(
                unsafe { (*c).rank } % nw,
                widx,
                "coroutine scheduled on the wrong worker"
            );
            if unsafe { (*c).finished } {
                continue; // late wake aimed at a completed rank
            }
            unsafe { run_coro(c) };
            if unsafe { (*c).finished } {
                live -= 1;
            }
        }
        if live == 0 {
            break;
        }
        let ib = &shared.inboxes[widx];
        let mut q = ib.q.lock().expect("inbox poisoned");
        loop {
            if !q.is_empty() {
                ready.extend(q.drain(..).map(|r| {
                    debug_assert_eq!(r % nw, widx, "rank {r} woken on wrong worker");
                    r / nw
                }));
                break;
            }
            match watchdog {
                None => q = ib.cv.wait(q).expect("inbox poisoned"),
                Some(period) => {
                    let (g, to) = ib.cv.wait_timeout(q, period).expect("inbox poisoned");
                    q = g;
                    if to.timed_out() {
                        eprintln!(
                            "[overset-comm watchdog] worker {widx} idle with {live} unfinished \
                             virtual ranks parked"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn coroutine_switches_roundtrip() {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        let mut coros = vec![Coro::new(
            0,
            Box::new(move || {
                for _ in 0..3 {
                    n2.fetch_add(1, Ordering::SeqCst);
                    mn_yield();
                }
            }),
        )];
        let c = coros.as_mut_ptr();
        for expect in 1..=3 {
            unsafe { run_coro(c) };
            assert_eq!(n.load(Ordering::SeqCst), expect);
            assert!(!coros[0].finished);
        }
        unsafe { run_coro(c) };
        assert!(coros[0].finished);
        assert_eq!(n.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn worker_runs_interleaved_coroutines() {
        // Two coroutines on one worker appending to a shared log across
        // yields: the worker must interleave them via self-wakes.
        let log = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::new(MnShared::new(1));
        let coros: Vec<Coro> = (0..2)
            .map(|rank| {
                let log = Arc::clone(&log);
                let shared = Arc::clone(&shared);
                Coro::new(
                    rank,
                    Box::new(move || {
                        for round in 0..3 {
                            log.lock().unwrap().push((rank, round));
                            shared.wake(rank); // self-wake: round-robin yield
                            mn_yield();
                        }
                    }),
                )
            })
            .collect();
        worker_loop(0, &shared, coros, None);
        let got = log.lock().unwrap().clone();
        assert_eq!(got.len(), 6);
        // Strict alternation: each rank's rounds in order, interleaved.
        assert_eq!(got, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
    }
}
