//! The rank runtime: a MIMD distributed-memory message-passing environment
//! in which each rank owns only its own data, exchanging typed messages
//! through per-rank mailboxes, with a deterministic *virtual clock* per
//! rank driven by a [`MachineModel`].
//!
//! Two scheduler modes execute the ranks:
//!
//! * **1:1 (default)** — one OS thread per rank; blocking waits park on a
//!   condvar.
//! * **M:N** ([`UniverseBuilder::max_threads`]) — ranks run as cooperative
//!   coroutines multiplexed onto a bounded worker pool, yielding back to
//!   their worker at every communication point (`recv` with no matching
//!   message, collective rendezvous, [`Comm::end_step`]). This is how a
//!   512–4096-rank universe runs on a handful of host cores.
//!
//! Virtual-time rules:
//!
//! * `compute(flops, class)` advances the local clock by `flops / rate`,
//! * `send` charges the sender a CPU overhead and stamps the message with
//!   its (virtual) send time; the message becomes available at
//!   `send_time + latency + bytes/bandwidth`,
//! * `recv` advances the local clock to at least the arrival time,
//! * collectives synchronize every clock to the round maximum plus a
//!   log₂(P) collective cost.
//!
//! Determinism: all protocols in this workspace receive from explicit
//! (source, tag) pairs or collectives, never "whichever message lands
//! first", so virtual times are bit-reproducible run to run regardless of
//! wall-clock thread scheduling — and bit-identical between the two
//! scheduler modes for the same configuration.
//!
//! Failure handling: each operation has one form, and a protocol violation
//! (a type mismatch, a receive from a rank that has finished, a mixed-type
//! collective) panics where it is found. A panic in a rank body is caught
//! on that rank. The first one to arrive wakes every peer blocked in a
//! communication call, and each woken peer unwinds without a word: no panic
//! report, nothing recorded. The run returns [`OversetError::RankPanicked`]
//! naming the lowest-numbered rank that failed on its own and the
//! statistics phase it was in, whatever the host's timing
//! ([`UniverseBuilder::try_run`] surfaces it as an error;
//! [`UniverseBuilder::run`] re-raises it).
//!
//! Observability: every rank carries a [`MetricsRegistry`] (always on;
//! counters are cheap) and an optional virtual-time [`Tracer`]
//! (zero-cost-when-disabled). Phase attribution is RAII-scoped through
//! [`Comm::phase`] — see [`PhaseGuard`].

use crate::alloc::{self, AllocTotals, RankAllocCounters};
use crate::error::OversetError;
use crate::flight::{FlightRecorder, StepRecord};
use crate::machine::{MachineModel, WorkClass};
use crate::metrics::{Counter, Hist, MetricsRegistry};
use crate::sched;
use crate::stats::{Phase, NUM_PHASES};
use crate::trace::{ArgVal, TraceConfig, TraceEvent, Tracer};
use std::any::Any;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

struct Envelope {
    src: usize,
    tag: u64,
    /// Virtual time at which the message is fully available at the receiver.
    arrival: f64,
    /// Logical payload size, carried so the receiver's trace span can report
    /// the same `bytes` the sender charged.
    bytes: usize,
    /// The sent value, downcast to `T` at the receive site.
    payload: Box<dyn Any + Send>,
}

/// Marker published in place of a gathered vector when ranks contributed
/// mixed types to one collective round.
struct CollPoison;

/// Unwind payload of a rank woken because a peer failed. Raised with
/// `resume_unwind`, so the panic hook does not report it, and `rank_main`
/// records nothing for it.
struct PeerFailed;

/// Leave the rank body silently: a peer has failed and the universe is
/// shutting down. The caller holds no runtime lock.
fn unwind_for_peer() -> ! {
    std::panic::resume_unwind(Box::new(PeerFailed))
}

/// Deadlock watchdog period: set `OVERSET_COMM_WATCHDOG=<seconds>` to make
/// every blocking wait (point-to-point recv, collective rendezvous, idle
/// M:N workers) report to stderr when it has been stuck longer than the
/// period. Diagnostic only — the wait then resumes; virtual time is
/// unaffected. A value that does not parse as a positive number of seconds
/// disables the watchdog with a one-time stderr warning (it used to be
/// silently ignored, which hid typos exactly when a hang investigation
/// needed the watchdog most).
fn watchdog_period() -> Option<std::time::Duration> {
    static PERIOD: std::sync::OnceLock<Option<std::time::Duration>> = std::sync::OnceLock::new();
    *PERIOD.get_or_init(|| {
        let raw = std::env::var("OVERSET_COMM_WATCHDOG").ok()?;
        match raw.parse::<f64>() {
            Ok(secs) if secs > 0.0 && secs.is_finite() => {
                Some(std::time::Duration::from_secs_f64(secs))
            }
            _ => {
                eprintln!(
                    "[overset-comm watchdog] ignoring OVERSET_COMM_WATCHDOG={raw:?}: \
                     expected a positive number of seconds; watchdog disabled"
                );
                None
            }
        }
    })
}

/// One rank's incoming message queue. `waiting` is true while the owner is
/// parked on the queue; it is only read and written under the mutex, so a
/// deliverer always knows whether a wake is needed and wakes can never be
/// lost.
struct MailboxInner {
    queue: VecDeque<Envelope>,
    waiting: bool,
}

struct Mailbox {
    m: Mutex<MailboxInner>,
    cv: Condvar,
}

/// The lowest-ranked failure recorded so far.
struct FailureInfo {
    rank: usize,
    phase: &'static str,
    message: String,
}

/// State shared by every rank of a universe: mailboxes, the collective
/// rendezvous, the failure latch, per-rank completion flags, and (in M:N
/// mode) the scheduler's wakeup fabric.
struct Shared {
    mailboxes: Vec<Mailbox>,
    coll: Collective,
    /// Raised (with release ordering) after `failure` is recorded; every
    /// blocking wait re-checks it after each park.
    aborted: AtomicBool,
    failure: Mutex<Option<FailureInfo>>,
    /// Set when a rank's body returns normally, so a peer still waiting on
    /// it panics instead of hanging.
    finished: Vec<AtomicBool>,
    /// Present in M:N mode only.
    mn: Option<Arc<sched::MnShared>>,
}

impl Shared {
    fn new(size: usize, mn: Option<Arc<sched::MnShared>>) -> Shared {
        Shared {
            mailboxes: (0..size)
                .map(|_| Mailbox {
                    m: Mutex::new(MailboxInner { queue: VecDeque::new(), waiting: false }),
                    cv: Condvar::new(),
                })
                .collect(),
            coll: Collective::new(size),
            aborted: AtomicBool::new(false),
            failure: Mutex::new(None),
            finished: (0..size).map(|_| AtomicBool::new(false)).collect(),
            mn,
        }
    }

    /// Park the calling rank until a waker may have changed what `guard`
    /// protects; the caller has registered itself under the lock (`waiting`
    /// set, or its rank pushed onto `waiters`) and re-checks its predicate
    /// on return. M:N: release the lock and give the OS thread back to the
    /// worker; a waker resumes this rank through the scheduler. 1:1: wait
    /// on `cv`, and with the watchdog on call `stuck` on the re-acquired
    /// state each time a period passes without a wake.
    fn park<'a, T>(
        &self,
        m: &'a Mutex<T>,
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        poisoned: &str,
        stuck: impl FnOnce(&T),
    ) -> MutexGuard<'a, T> {
        if self.mn.is_some() {
            drop(guard);
            sched::mn_yield();
            return m.lock().expect(poisoned);
        }
        match watchdog_period() {
            None => cv.wait(guard).expect(poisoned),
            Some(period) => {
                let (g, to) = cv.wait_timeout(guard, period).expect(poisoned);
                if to.timed_out() {
                    stuck(&g);
                }
                g
            }
        }
    }

    /// Wake ranks parked by [`Shared::park`]: everything waiting on `cv`
    /// (1:1), or each of `ranks` through the scheduler (M:N, where no rank
    /// waits on a condvar and a notify would be a wasted syscall).
    fn wake(&self, cv: &Condvar, ranks: impl IntoIterator<Item = usize>) {
        match &self.mn {
            Some(mn) => ranks.into_iter().for_each(|r| mn.wake(r)),
            None => cv.notify_all(),
        }
    }

    /// Record a rank-body panic. The lowest-ranked failure is kept, so the
    /// error does not depend on which rank panicked first in host time; the
    /// first failure to arrive also aborts the universe and wakes every
    /// peer, once.
    fn rank_failed(&self, rank: usize, phase: &'static str, message: String) {
        {
            let mut slot = self.failure.lock().expect("failure mutex poisoned");
            let first = slot.is_none();
            if slot.as_ref().is_none_or(|f| rank < f.rank) {
                *slot = Some(FailureInfo { rank, phase, message });
            }
            if !first {
                return;
            }
        }
        self.aborted.store(true, Ordering::Release);
        for (r, mb) in self.mailboxes.iter().enumerate() {
            let mut inner = mb.m.lock().expect("mailbox poisoned");
            inner.waiting = false;
            // Every virtual rank is woken, wherever it is: parked ones
            // re-check `aborted`, finished ones are skipped by their worker.
            self.wake(&mb.cv, Some(r));
        }
        {
            let mut inner = self.coll.m.lock().expect("collective mutex poisoned");
            inner.waiters.clear();
            self.wake(&self.coll.cv, None);
        }
    }

    /// Rank `rank`'s body returned normally: mark it and wake any peer
    /// currently parked in a receive, so waits on this rank fail fast.
    fn rank_finished(&self, rank: usize) {
        self.finished[rank].store(true, Ordering::Release);
        for (r, mb) in self.mailboxes.iter().enumerate() {
            if r == rank {
                continue;
            }
            let mut inner = mb.m.lock().expect("mailbox poisoned");
            if inner.waiting {
                inner.waiting = false;
                self.wake(&mb.cv, Some(r));
            }
        }
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<&'static str>() {
        Ok(s) => (*s).to_string(),
        Err(p) => match p.downcast::<String>() {
            Ok(s) => *s,
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

struct CollInner {
    generation: u64,
    arrived: usize,
    max_clock: f64,
    slots: Vec<Option<Box<dyn Any + Send>>>,
    published: Option<Arc<dyn Any + Send + Sync>>,
    published_clock: f64,
    readers_left: usize,
    /// Ranks parked in a collective wait, to be woken when the round
    /// publishes or advances (the M:N scheduler resumes exactly these).
    /// Duplicates are harmless: parked ranks re-check their predicate on
    /// every resume.
    waiters: Vec<usize>,
}

struct Collective {
    m: Mutex<CollInner>,
    cv: Condvar,
}

impl Collective {
    fn new(n: usize) -> Self {
        Collective {
            m: Mutex::new(CollInner {
                generation: 0,
                arrived: 0,
                max_clock: f64::NEG_INFINITY,
                slots: (0..n).map(|_| None).collect(),
                published: None,
                published_clock: 0.0,
                readers_left: 0,
                waiters: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }
}

/// A collective's result: the contributions of every rank, in rank order,
/// as a read-only view that derefs to `[T]`.
///
/// The buffer behind the view is shared, not copied: every rank views the
/// one vector the last arriver published. It is freed when the last view of
/// it drops. Whichever rank that is depends on host timing, so the free is
/// excluded from allocation attribution exactly as the buffer's allocation
/// is.
///
/// A contribution that is itself a shared handle (an `Arc`) comes back to
/// unique ownership once every rank has dropped its view — guaranteed once
/// a collective that every rank enters after dropping its view has
/// completed — which lets a rank refill a buffer it contributes every round
/// in place.
pub struct Gathered<T>(Option<Arc<Vec<T>>>);

impl<T> Deref for Gathered<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.0.as_ref().expect("view holds its buffer until dropped")
    }
}

impl<T> Drop for Gathered<T> {
    fn drop(&mut self) {
        // `Some` until here: released by hand because fields drop only
        // after this body, outside the guard.
        let _quiet = alloc::suspend();
        self.0 = None;
    }
}

/// Per-rank communicator handle. Created by [`Universe`]; owns the rank's
/// virtual clock and phase timers, metrics registry, optional tracer, and
/// its view of the shared mailbox/collective state.
pub struct Comm {
    rank: usize,
    size: usize,
    machine: Arc<MachineModel>,
    clock: f64,
    working_set_bytes: f64,
    shared: Arc<Shared>,
    pending: Vec<Envelope>,
    coll_gen: u64,
    /// Virtual seconds spent per phase: the run's one per-phase clock.
    time: [f64; NUM_PHASES],
    metrics: MetricsRegistry,
    flight: FlightRecorder,
    tracer: Option<Tracer>,
    phase: Phase,
    phase_start: f64,
    /// Host wall-clock seconds spent per phase on this rank — the *real*
    /// cost of the run, as opposed to the deterministic virtual clock. Only
    /// ever reported in advisory channels; nothing bit-compared reads it.
    host_time: [f64; NUM_PHASES],
    /// Host instant of the last phase switch.
    phase_host_start: Instant,
    /// Per-rank allocation counters; the thread-local allocator context
    /// points at this block while the rank body runs (see [`crate::alloc`]).
    alloc_counters: Arc<RankAllocCounters>,
    /// Set by the innermost [`PhaseGuard`] unwound through during a panic,
    /// so the failure report names the phase the rank was actually in.
    panicked_phase: Option<&'static str>,
}

/// RAII phase scope: created by [`Comm::phase`]; while alive, virtual time
/// and flops accrue to its phase; dropping it restores the previous phase
/// (flushing elapsed time) and, when tracing, emits a `phase` span covering
/// the scope. Derefs to [`Comm`], so communication happens *through* the
/// guard — phase attribution cannot be left dangling.
pub struct PhaseGuard<'a> {
    comm: &'a mut Comm,
    prev: Phase,
    start: f64,
}

impl Deref for PhaseGuard<'_> {
    type Target = Comm;
    fn deref(&self) -> &Comm {
        self.comm
    }
}

impl DerefMut for PhaseGuard<'_> {
    fn deref_mut(&mut self) -> &mut Comm {
        self.comm
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let ended = self.comm.phase;
        if std::thread::panicking() && self.comm.panicked_phase.is_none() {
            // Innermost guard drops first during unwinding — `ended` is the
            // phase the panic actually happened in.
            self.comm.panicked_phase = Some(ended.name());
        }
        let start = self.start;
        let dur = self.comm.clock - start;
        self.comm.switch_phase(self.prev);
        if let Some(t) = &mut self.comm.tracer {
            t.complete("phase", ended.name(), start, dur, Vec::new());
        }
    }
}

impl Comm {
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    #[inline]
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Current virtual time, seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// The rank's metrics registry (read side).
    #[inline]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The rank's metrics registry (record side).
    #[inline]
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Record a completed span from virtual time `start` to now. No-op
    /// (one branch) when tracing is disabled.
    #[inline]
    pub fn trace_complete(
        &mut self,
        cat: &'static str,
        name: &'static str,
        start: f64,
        args: &[(&'static str, ArgVal)],
    ) {
        if let Some(t) = &mut self.tracer {
            let _quiet = alloc::suspend();
            let dur = self.clock - start;
            t.complete(cat, name, start, dur, args.to_vec());
        }
    }

    /// Set the per-rank working set used by the cache model (bytes).
    pub fn set_working_set(&mut self, bytes: f64) {
        self.working_set_bytes = bytes;
    }

    /// Close the current timestep for the flight recorder: flushes the open
    /// phase's elapsed time and appends one [`StepRecord`] of per-step
    /// deltas (phase times, every counter of the registry, allocations).
    /// Reads only existing state — never advances the virtual clock, so
    /// recording is physics- and timing-neutral.
    ///
    /// In M:N mode a step boundary is also a fairness point: the rank
    /// requeues itself and yields so sibling ranks on the same worker make
    /// progress. This affects wall-clock interleaving only, never virtual
    /// time.
    pub fn end_step(&mut self) {
        // Recorder/sink bookkeeping is runtime overhead, not rank work.
        let _quiet = alloc::suspend();
        let phase = self.phase;
        self.switch_phase(phase); // flush elapsed time, keep the phase
        let alloc = self.alloc_counters.totals();
        let rec = self.flight.end_step(StepRecord {
            step: 0,
            clock: self.clock,
            time: self.time,
            counts: *self.metrics.counts(),
            allocs: alloc.allocs,
            alloc_bytes: alloc.bytes,
        });
        if let Some(t) = &mut self.tracer {
            t.record_step(&rec);
        }
        if let Some(mn) = &self.shared.mn {
            mn.wake(self.rank);
            sched::mn_yield();
        }
    }

    /// Per-step records collected so far, oldest first.
    pub fn step_records(&self) -> &[StepRecord] {
        self.flight.records()
    }

    /// Enter `phase` for the lifetime of the returned guard. Statistics
    /// time accrues to the phase that was active up to this call; the
    /// guard's drop restores it.
    pub fn phase(&mut self, phase: Phase) -> PhaseGuard<'_> {
        let prev = self.switch_phase(phase);
        let start = self.clock;
        PhaseGuard { comm: self, prev, start }
    }

    /// The phase statistics currently accrue to.
    #[inline]
    pub fn current_phase(&self) -> Phase {
        self.phase
    }

    /// Switch the statistics phase, flushing elapsed time into the bucket
    /// of the phase that was active. Internal: external callers scope
    /// phases with [`Comm::phase`].
    fn switch_phase(&mut self, phase: Phase) -> Phase {
        let elapsed = self.clock - self.phase_start;
        self.time[self.phase as usize] += elapsed;
        let host_now = Instant::now();
        self.host_time[self.phase as usize] +=
            host_now.duration_since(self.phase_host_start).as_secs_f64();
        let prev = self.phase;
        self.phase = phase;
        alloc::set_phase(phase);
        self.phase_start = self.clock;
        self.phase_host_start = host_now;
        prev
    }

    /// Account `flops` of `class` compute work: advances the virtual clock
    /// and the current phase's flop counter.
    pub fn compute(&mut self, flops: u64, class: WorkClass) {
        let t0 = self.clock;
        let dt = self.machine.compute_time(flops as f64, class, self.working_set_bytes);
        self.clock += dt;
        self.metrics.add(Counter::flops_in(self.phase), flops);
        if let Some(t) = &mut self.tracer {
            let _quiet = alloc::suspend();
            let name = match class {
                WorkClass::Flow => "flow",
                WorkClass::Search => "search",
                WorkClass::Other => "other",
            };
            t.complete("compute", name, t0, dt, vec![("flops", ArgVal::F64(flops as f64))]);
        }
    }

    /// Send `payload` (logical size `bytes`) to `dst` with a message `tag`.
    /// Non-blocking (asynchronous send, as DCF3D's search requests are).
    /// The value itself moves to the receiver; `bytes` is what the machine
    /// model charges for it.
    pub fn send<T: Send + 'static>(&mut self, dst: usize, tag: u64, payload: T, bytes: usize) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        // Delivery machinery (envelope boxing, mailbox growth) allocates in
        // host-timing-dependent patterns — exclude it from attribution so
        // per-phase alloc counts stay deterministic.
        let _quiet = alloc::suspend();
        let t0 = self.clock;
        self.clock += self.machine.send_overhead;
        let arrival = self.clock + self.machine.transit_time(bytes);
        self.metrics.inc(Counter::msgs_in(self.phase));
        self.metrics.add(Counter::bytes_in(self.phase), bytes as u64);
        if let Some(t) = &mut self.tracer {
            let _quiet = alloc::suspend();
            t.complete(
                "comm",
                "send",
                t0,
                self.machine.send_overhead,
                vec![
                    ("dst", ArgVal::U64(dst as u64)),
                    ("tag", ArgVal::U64(tag)),
                    ("bytes", ArgVal::U64(bytes as u64)),
                ],
            );
        }
        let env = Envelope { src: self.rank, tag, arrival, bytes, payload: Box::new(payload) };
        let mb = &self.shared.mailboxes[dst];
        let mut inner = mb.m.lock().expect("mailbox poisoned");
        inner.queue.push_back(env);
        if inner.waiting {
            inner.waiting = false;
            self.shared.wake(&mb.cv, Some(dst));
        }
    }

    /// Blocking receive of a message of type `T` from `src` with `tag`.
    /// Advances the clock to at least the message arrival time.
    ///
    /// Panics if the matched message is not a `T`, or if `src` has finished
    /// without sending it: a protocol violation, reported by the run as
    /// [`OversetError::RankPanicked`].
    pub fn recv<T: Send + 'static>(&mut self, src: usize, tag: u64) -> T {
        // Out-of-order buffering in `take_matching` allocates depending on
        // arrival interleaving — runtime machinery, excluded from
        // attribution.
        let _quiet = alloc::suspend();
        let t0 = self.clock;
        let env = self.take_matching(src, tag);
        let stall = (env.arrival - self.clock).max(0.0);
        // Time the fully-arrived message sat buffered before this receive —
        // the Scalasca-style "late receiver" complement of `stall`.
        let idle = (self.clock - env.arrival).max(0.0);
        self.clock = self.clock.max(env.arrival);
        self.metrics.observe(Hist::CommRecvStall, stall);
        if let Some(t) = &mut self.tracer {
            let _quiet = alloc::suspend();
            t.complete(
                "comm",
                "recv",
                t0,
                self.clock - t0,
                vec![
                    ("src", ArgVal::U64(src as u64)),
                    ("tag", ArgVal::U64(tag)),
                    ("bytes", ArgVal::U64(env.bytes as u64)),
                    ("stall", ArgVal::F64(stall)),
                    ("idle", ArgVal::F64(idle)),
                ],
            );
        }
        match env.payload.downcast::<T>() {
            Ok(v) => *v,
            Err(_) => panic!(
                "rank {}: type mismatch receiving tag {tag} from rank {src} (expected {})",
                self.rank,
                std::any::type_name::<T>()
            ),
        }
    }

    fn take_matching(&mut self, src: usize, tag: u64) -> Envelope {
        if let Some(pos) = self.pending.iter().position(|e| e.src == src && e.tag == tag) {
            // Order-preserving removal: multiple buffered messages with the
            // same (src, tag) must be consumed FIFO (e.g. pipelined line
            // chunks).
            return self.pending.remove(pos);
        }
        let shared = Arc::clone(&self.shared);
        let mb = &shared.mailboxes[self.rank];
        let mut inner = mb.m.lock().expect("mailbox poisoned");
        loop {
            inner.waiting = false;
            // Drain everything delivered so far; non-matching messages go to
            // the pending buffer in delivery order.
            let mut found = None;
            while let Some(env) = inner.queue.pop_front() {
                if env.src == src && env.tag == tag {
                    found = Some(env);
                    break;
                }
                self.pending.push(env);
            }
            if let Some(env) = found {
                return env;
            }
            // Unwind only after releasing the mailbox: a lock dropped while
            // unwinding is poisoned for every sender.
            if shared.aborted.load(Ordering::Acquire) {
                drop(inner);
                unwind_for_peer();
            }
            if shared.finished[src].load(Ordering::Acquire) {
                drop(inner);
                panic!(
                    "rank {}: all senders disconnected while waiting for tag {tag} from rank {src}",
                    self.rank
                );
            }
            // A deliverer (or abort/finish) wakes this rank.
            inner.waiting = true;
            inner = shared.park(&mb.m, &mb.cv, inner, "mailbox poisoned", |_| {
                let buffered: Vec<(usize, u64)> =
                    self.pending.iter().map(|e| (e.src, e.tag)).collect();
                eprintln!(
                    "[overset-comm watchdog] rank {} stuck in recv(src={src}, tag={tag}); \
                     buffered={buffered:?}",
                    self.rank
                );
            });
        }
    }

    /// Synchronize all ranks: everyone leaves with the same clock (round max
    /// plus the collective cost).
    pub fn barrier(&mut self) {
        self.allgather_inner("barrier", 0u8, 8);
    }

    /// All-gather: every rank contributes `value` (logical size `bytes`) and
    /// receives a view of all contributions indexed by rank. The
    /// contributions are moved, never copied: every rank reads the same
    /// buffer (see [`Gathered`]).
    ///
    /// Panics on every rank if the ranks contributed different types to the
    /// round: a protocol violation, reported by the run as
    /// [`OversetError::RankPanicked`].
    pub fn allgather<T: Send + Sync + 'static>(&mut self, value: T, bytes: usize) -> Gathered<T> {
        self.allgather_inner("allgather", value, bytes)
    }

    fn allgather_inner<T: Send + Sync + 'static>(
        &mut self,
        span_name: &'static str,
        value: T,
        bytes: usize,
    ) -> Gathered<T> {
        // Rendezvous buffers (which rank gathers, how many wait-loop
        // iterations run) depend on host timing — excluded from attribution.
        let _quiet = alloc::suspend();
        let t0 = self.clock;
        // The round clock is the max over contributing clocks — an
        // order-independent fold, so it is bit-identical across schedulers.
        let (result, round_clock) = self.rendezvous(value);
        self.clock = round_clock + self.machine.collective_time(self.size, bytes * self.size);
        self.metrics.inc(Counter::CommCollectives);
        if let Some(t) = &mut self.tracer {
            let _quiet = alloc::suspend();
            t.complete(
                "comm",
                span_name,
                t0,
                self.clock - t0,
                vec![("bytes", ArgVal::U64(bytes as u64))],
            );
        }
        result
    }

    /// Collective rendezvous through the shared [`Collective`]: the last
    /// arriver gathers and publishes. Returns a view of the published
    /// contributions (rank order) plus the round clock.
    fn rendezvous<T: Send + Sync + 'static>(&mut self, value: T) -> (Gathered<T>, f64) {
        let gen = self.coll_gen;
        self.coll_gen += 1;
        let shared = Arc::clone(&self.shared);
        let coll = &shared.coll;
        let mut inner = coll.m.lock().expect("collective mutex poisoned");
        // Wait for our round to open (previous round fully consumed).
        while inner.generation != gen {
            if shared.aborted.load(Ordering::Acquire) {
                drop(inner);
                unwind_for_peer();
            }
            inner.waiters.push(self.rank);
            inner = shared.park(&coll.m, &coll.cv, inner, "collective mutex poisoned", |g| {
                eprintln!(
                    "[overset-comm watchdog] rank {} stuck opening collective round \
                     gen={gen} (current generation={}, arrived={}/{}, readers_left={})",
                    self.rank, g.generation, g.arrived, self.size, g.readers_left
                );
            });
        }
        inner.slots[self.rank] = Some(Box::new(value));
        inner.arrived += 1;
        inner.max_clock = inner.max_clock.max(self.clock);
        if inner.arrived == self.size {
            // Last arriver gathers and publishes. If any rank contributed a
            // different type, publish a poison marker so every rank reports
            // the mismatch instead of deadlocking.
            let mut gathered: Vec<T> = Vec::with_capacity(self.size);
            let mut poisoned = false;
            for s in inner.slots.iter_mut() {
                let b = s.take().expect("missing collective slot");
                match b.downcast::<T>() {
                    Ok(v) => gathered.push(*v),
                    Err(_) => poisoned = true,
                }
            }
            inner.published =
                Some(if poisoned { Arc::new(CollPoison) } else { Arc::new(gathered) });
            inner.published_clock = inner.max_clock;
            inner.readers_left = self.size;
            inner.arrived = 0;
            inner.max_clock = f64::NEG_INFINITY;
            shared.wake(&coll.cv, inner.waiters.drain(..));
        } else {
            // A published round is read even after an abort, so every rank
            // of a mixed-type round fails on its own.
            while inner.published.is_none() || inner.generation != gen {
                if shared.aborted.load(Ordering::Acquire) {
                    drop(inner);
                    unwind_for_peer();
                }
                inner.waiters.push(self.rank);
                inner = shared.park(&coll.m, &coll.cv, inner, "collective mutex poisoned", |g| {
                    eprintln!(
                        "[overset-comm watchdog] rank {} stuck in collective round \
                         gen={gen} (arrived={}/{}, published={})",
                        self.rank,
                        g.arrived,
                        self.size,
                        g.published.is_some()
                    );
                });
            }
        }
        let arc = inner.published.clone().expect("published result");
        let round_clock = inner.published_clock;
        inner.readers_left -= 1;
        if inner.readers_left == 0 {
            inner.published = None;
            inner.generation = gen + 1;
            shared.wake(&coll.cv, inner.waiters.drain(..));
        }
        drop(inner);
        match arc.downcast::<Vec<T>>() {
            Ok(v) => (Gathered(Some(v)), round_clock),
            Err(_) => panic!(
                "rank {}: mixed payload types in collective (expected {})",
                self.rank,
                std::any::type_name::<T>()
            ),
        }
    }

    /// All-reduce max over f64.
    pub fn allreduce_max(&mut self, value: f64) -> f64 {
        self.allgather(value, 8).iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// All-reduce sum over f64.
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allgather(value, 8).iter().sum()
    }

    /// All-reduce sum over usize.
    pub fn allreduce_sum_usize(&mut self, value: usize) -> usize {
        self.allgather(value, 8).iter().sum()
    }

    /// Close the open phase and hand back the rank's output: the body's
    /// `result`, its phase timers and final clock, the recorded trace, the
    /// metrics registry, the flight recorder's per-step records, the host
    /// wall-clock phase times, and the allocation telemetry. Closes the
    /// streaming sink (flush + footer) when one is attached.
    fn finish<R>(mut self, result: R) -> RankOutput<R> {
        let phase = self.phase;
        self.switch_phase(phase); // flush elapsed time into the current bucket
        RankOutput {
            result,
            time: self.time,
            clock: self.clock,
            trace: self.tracer.take().map(Tracer::finish).unwrap_or_default(),
            metrics: self.metrics,
            steps: self.flight.into_records(),
            host_time: self.host_time,
            alloc: self.alloc_counters.totals(),
        }
    }
}

/// Result of one rank's execution under [`Universe`].
#[derive(Clone, Debug)]
pub struct RankOutput<R> {
    pub result: R,
    /// Virtual seconds this rank spent per phase.
    pub time: [f64; NUM_PHASES],
    /// The rank's virtual clock when its body returned.
    pub clock: f64,
    /// Virtual-time spans recorded on this rank (empty unless the universe
    /// was built with tracing enabled).
    pub trace: Vec<TraceEvent>,
    /// This rank's metrics registry.
    pub metrics: MetricsRegistry,
    /// Per-timestep telemetry recorded by [`Comm::end_step`], one record
    /// per step, oldest first. Empty when the rank body never called
    /// `end_step`.
    pub steps: Vec<StepRecord>,
    /// Host wall-clock seconds per phase on this rank. Nondeterministic:
    /// useful for advisory profiling (a report's `host` section, which
    /// `repro analyze <report.json>` renders), never bit-compared.
    pub host_time: [f64; NUM_PHASES],
    /// End-of-run allocation totals for this rank. All fields deterministic
    /// except `peak_bytes` (allocation-order-dependent, advisory only).
    pub alloc: AllocTotals,
}

/// The simulated parallel machine. Configure one with
/// [`Universe::builder`]:
///
/// ```
/// use overset_comm::prelude::*;
///
/// let out = Universe::builder()
///     .ranks(4)
///     .machine(&MachineModel::modern())
///     .trace(TraceConfig::enabled())
///     .run(|c| c.rank() * 2);
/// assert_eq!(out[2].result, 4);
/// ```
pub struct Universe;

/// Builder for a universe run: rank count, machine model, tracing and the
/// scheduler mode ([`UniverseBuilder::max_threads`]).
#[derive(Clone, Debug)]
pub struct UniverseBuilder {
    ranks: usize,
    machine: MachineModel,
    trace: TraceConfig,
    max_threads: Option<usize>,
}

impl Universe {
    pub fn builder() -> UniverseBuilder {
        UniverseBuilder {
            ranks: 1,
            machine: MachineModel::modern(),
            trace: TraceConfig::disabled(),
            max_threads: None,
        }
    }
}

impl UniverseBuilder {
    pub fn ranks(mut self, n: usize) -> Self {
        self.ranks = n;
        self
    }

    pub fn machine(mut self, m: &MachineModel) -> Self {
        self.machine = m.clone();
        self
    }

    pub fn trace(mut self, cfg: TraceConfig) -> Self {
        self.trace = cfg;
        self
    }

    /// Bound the number of OS threads used to execute the ranks.
    ///
    /// Default (unset): one OS thread per rank. With `n < ranks`, the
    /// runtime switches to M:N mode — ranks run as cooperative coroutines
    /// multiplexed onto `n` worker threads, yielding at every communication
    /// point — which is how rank counts far beyond the host's core count
    /// stay runnable. Virtual times are **bit-identical** between the two
    /// modes for the same configuration. On targets without the coroutine
    /// context switch (non-x86-64), the builder warns once and falls back
    /// to one thread per rank.
    pub fn max_threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "max_threads must be at least 1");
        self.max_threads = Some(n);
        self
    }

    /// Run `f` on every rank. Returns per-rank outputs in rank order. A
    /// panic in any rank body is re-raised here with the failing rank,
    /// phase and message (see [`UniverseBuilder::try_run`] to handle it as
    /// an error instead).
    pub fn run<R, F>(self, f: F) -> Vec<RankOutput<R>>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        self.try_run(f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run `f` on every rank, surfacing a rank-body panic as
    /// [`OversetError::RankPanicked`] naming the lowest-numbered rank that
    /// panicked and the statistics phase it was in. Peers blocked in
    /// communication are woken and unwind silently, so the universe shuts
    /// down instead of hanging.
    pub fn try_run<R, F>(self, f: F) -> Result<Vec<RankOutput<R>>, OversetError>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let nranks = self.ranks;
        assert!(nranks >= 1);
        let use_mn = match self.max_threads {
            Some(n) if n < nranks => {
                if sched::MN_AVAILABLE {
                    true
                } else {
                    eprintln!(
                        "[overset-comm] max_threads({n}) requested but the M:N scheduler is \
                         not available on this target; running one thread per rank"
                    );
                    false
                }
            }
            _ => false,
        };
        let mn = use_mn.then(|| Arc::new(sched::MnShared::new(self.max_threads.unwrap())));
        let machine = Arc::new(self.machine);
        let shared = Arc::new(Shared::new(nranks, mn));
        let trace = self.trace;
        let outputs: Mutex<Vec<Option<RankOutput<R>>>> =
            Mutex::new((0..nranks).map(|_| None).collect());
        {
            let outputs = &outputs;
            let shared_ref = &shared;
            let machine_ref = &machine;
            // One rank's whole life: build its Comm, run the body under
            // catch_unwind, then publish the output, record the failure and
            // abort the universe, or (woken by a peer's failure) do nothing.
            // Runs on an OS thread (1:1) or a coroutine (M:N).
            let rank_main = move |rank: usize| {
                let alloc_counters = Arc::new(RankAllocCounters::new());
                let mut comm = Comm {
                    rank,
                    size: nranks,
                    machine: Arc::clone(machine_ref),
                    clock: 0.0,
                    working_set_bytes: 0.0,
                    shared: Arc::clone(shared_ref),
                    pending: Vec::new(),
                    coll_gen: 0,
                    time: [0.0; NUM_PHASES],
                    metrics: MetricsRegistry::new(),
                    flight: FlightRecorder::default(),
                    tracer: trace.enabled.then(|| Tracer::for_rank(&trace, rank)),
                    phase: Phase::Other,
                    phase_start: 0.0,
                    host_time: [0.0; NUM_PHASES],
                    phase_host_start: Instant::now(),
                    alloc_counters: Arc::clone(&alloc_counters),
                    panicked_phase: None,
                };
                // Attribute this rank's allocations from here until the body
                // returns (or unwinds). `comm` holds a clone of the counters,
                // so the raw pointer in the thread-local context stays valid
                // until the explicit clear below.
                alloc::install(&alloc_counters, Phase::Other);
                let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
                alloc::clear();
                match body {
                    Ok(result) => {
                        comm.shared.rank_finished(rank);
                        let out = comm.finish(result);
                        outputs.lock().expect("outputs poisoned")[rank] = Some(out);
                    }
                    Err(payload) if payload.is::<PeerFailed>() => {}
                    Err(payload) => {
                        let phase = comm.panicked_phase.take().unwrap_or_else(|| comm.phase.name());
                        shared_ref.rank_failed(rank, phase, panic_message(payload));
                    }
                }
            };
            let rank_main = &rank_main;
            if let Some(mn) = shared.mn.as_ref() {
                let nworkers = mn.nworkers();
                std::thread::scope(|s| {
                    let mut per_worker: Vec<Vec<sched::Coro>> =
                        (0..nworkers).map(|_| Vec::new()).collect();
                    for rank in 0..nranks {
                        // The task borrows `rank_main`'s captures, which all
                        // outlive this scope; the workers (and with them
                        // every coroutine) join before the scope exits, so
                        // promoting the closure to 'static cannot dangle.
                        let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || rank_main(rank));
                        let task: Box<dyn FnOnce() + Send + 'static> =
                            unsafe { std::mem::transmute(task) };
                        per_worker[rank % nworkers].push(sched::Coro::new(rank, task));
                    }
                    for (widx, coros) in per_worker.into_iter().enumerate() {
                        let mn = Arc::clone(mn);
                        s.spawn(move || sched::worker_loop(widx, &mn, coros, watchdog_period()));
                    }
                });
            } else {
                std::thread::scope(|s| {
                    let handles: Vec<_> =
                        (0..nranks).map(|rank| s.spawn(move || rank_main(rank))).collect();
                    for (rank, h) in handles.into_iter().enumerate() {
                        if h.join().is_err() {
                            // Body panics are caught inside rank_main;
                            // reaching here means the runtime itself
                            // panicked on this rank's thread.
                            shared.rank_failed(
                                rank,
                                "other",
                                "rank thread panicked outside the rank body".to_string(),
                            );
                        }
                    }
                });
            }
        }
        if let Some(fail) = shared.failure.lock().expect("failure mutex poisoned").take() {
            return Err(OversetError::RankPanicked {
                rank: fail.rank,
                phase: fail.phase,
                message: fail.message,
            });
        }
        let outs = outputs.into_inner().expect("outputs poisoned");
        Ok(outs.into_iter().map(|o| o.expect("missing rank output")).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modern() -> MachineModel {
        MachineModel::modern()
    }

    fn run<R, F>(nranks: usize, machine: &MachineModel, f: F) -> Vec<RankOutput<R>>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        Universe::builder().ranks(nranks).machine(machine).run(f)
    }

    #[test]
    fn single_rank_compute_time() {
        let m = MachineModel {
            name: "t",
            flops_per_sec: 100.0,
            class_efficiency: [1.0, 0.5, 1.0],
            cache: crate::machine::CacheModel::FLAT,
            latency: 0.0,
            bandwidth: 1.0,
            send_overhead: 0.0,
        };
        let out = run(1, &m, |c| {
            c.compute(50, WorkClass::Flow);
            c.compute(50, WorkClass::Search);
            c.now()
        });
        assert!((out[0].result - (0.5 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn ping_pong_times_are_deterministic() {
        let m = modern();
        let run = || {
            run(2, &m, |c| {
                if c.rank() == 0 {
                    c.send(1, 7, 42.0f64, 1024);
                    c.recv::<f64>(1, 8)
                } else {
                    let v = c.recv::<f64>(0, 7);
                    c.send(0, 8, v * 2.0, 1024);
                    v
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a[0].result, 84.0);
        assert_eq!(a[0].clock.to_bits(), b[0].clock.to_bits());
        assert_eq!(a[1].clock.to_bits(), b[1].clock.to_bits());
        // Receiver clock includes transit time.
        assert!(a[1].clock >= m.transit_time(1024));
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let m = modern();
        let out = run(4, &m, |c| {
            // Rank r does r units of work, then a barrier.
            c.compute(1_000_000_000 * c.rank() as u64, WorkClass::Flow);
            c.barrier();
            c.now()
        });
        let clocks: Vec<f64> = out.iter().map(|o| o.result).collect();
        for w in clocks.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-15, "clocks differ: {clocks:?}");
        }
        // Barrier clock at least the slowest rank's work time.
        let slowest = m.compute_time(3.0e9, WorkClass::Flow, 0.0);
        assert!(clocks[0] >= slowest);
    }

    #[test]
    fn allgather_returns_rank_ordered_values() {
        let out = run(5, &modern(), |c| c.allgather(c.rank() * 10, 8).to_vec());
        for o in &out {
            assert_eq!(o.result, vec![0, 10, 20, 30, 40]);
        }
    }

    #[test]
    fn repeated_collectives_do_not_deadlock_or_cross() {
        let out = run(3, &modern(), |c| {
            let mut acc = Vec::new();
            for round in 0..50u64 {
                let v = c.allgather(round * 100 + c.rank() as u64, 8);
                acc.push(v.iter().sum::<u64>());
            }
            acc
        });
        for o in &out {
            for (round, &s) in o.result.iter().enumerate() {
                assert_eq!(s, 300 * round as u64 + 3);
            }
        }
    }

    #[test]
    fn allreduce_ops() {
        let out = run(4, &modern(), |c| {
            (
                c.allreduce_max(c.rank() as f64),
                c.allreduce_sum(1.5),
                c.allreduce_sum_usize(c.rank()),
            )
        });
        for o in &out {
            assert_eq!(o.result.0, 3.0);
            assert!((o.result.1 - 6.0).abs() < 1e-12);
            assert_eq!(o.result.2, 6);
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = run(2, &modern(), |c| {
            if c.rank() == 0 {
                c.send(1, 1, 10i32, 4);
                c.send(1, 2, 20i32, 4);
                0
            } else {
                // Receive in the opposite order of sending.
                let b = c.recv::<i32>(0, 2);
                let a = c.recv::<i32>(0, 1);
                a + b * 100
            }
        });
        assert_eq!(out[1].result, 2010);
    }

    #[test]
    fn phase_accounting_via_guards() {
        let m = MachineModel {
            name: "t",
            flops_per_sec: 1.0,
            class_efficiency: [1.0; 3],
            cache: crate::machine::CacheModel::FLAT,
            latency: 0.0,
            bandwidth: 1.0,
            send_overhead: 0.0,
        };
        let out = run(1, &m, |c| {
            {
                let mut ph = c.phase(Phase::Flow);
                ph.compute(2, WorkClass::Flow);
            }
            {
                let mut ph = c.phase(Phase::Connectivity);
                ph.compute(3, WorkClass::Search);
            }
        });
        let o = &out[0];
        assert!((o.time[Phase::Flow as usize] - 2.0).abs() < 1e-12);
        assert!((o.time[Phase::Connectivity as usize] - 3.0).abs() < 1e-12);
        assert_eq!(o.metrics.get(Counter::flops_in(Phase::Flow)), 2);
        assert_eq!(o.metrics.get(Counter::flops_in(Phase::Connectivity)), 3);
        assert!((o.time.iter().sum::<f64>() - 5.0).abs() < 1e-12);
        assert_eq!(o.clock, 5.0);
    }

    #[test]
    fn phase_guards_nest_and_restore() {
        let m = MachineModel {
            name: "t",
            flops_per_sec: 1.0,
            class_efficiency: [1.0; 3],
            cache: crate::machine::CacheModel::FLAT,
            latency: 0.0,
            bandwidth: 1.0,
            send_overhead: 0.0,
        };
        let out = run(1, &m, |c| {
            let mut outer = c.phase(Phase::Flow);
            outer.compute(1, WorkClass::Flow);
            {
                let mut inner = outer.phase(Phase::Balance);
                inner.compute(4, WorkClass::Other);
                assert_eq!(inner.current_phase(), Phase::Balance);
            }
            // Inner guard restored the outer phase.
            assert_eq!(outer.current_phase(), Phase::Flow);
            outer.compute(2, WorkClass::Flow);
        });
        let time = &out[0].time;
        assert!((time[Phase::Flow as usize] - 3.0).abs() < 1e-12);
        assert!((time[Phase::Balance as usize] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn message_stats_counted() {
        let out = run(2, &modern(), |c| {
            if c.rank() == 0 {
                c.send(1, 0, (), 500);
                c.send(1, 1, (), 700);
            } else {
                c.recv::<()>(0, 0);
                c.recv::<()>(0, 1);
            }
        });
        assert_eq!(crate::metrics::traffic(out[0].metrics.counts()), (2, 1200));
        assert_eq!(crate::metrics::traffic(out[1].metrics.counts()), (0, 0));
    }

    #[test]
    fn per_phase_message_metrics() {
        let out = run(2, &modern(), |c| {
            if c.rank() == 0 {
                {
                    let mut ph = c.phase(Phase::Flow);
                    ph.send(1, 0, (), 100);
                }
                {
                    let mut ph = c.phase(Phase::Connectivity);
                    ph.send(1, 1, (), 300);
                    ph.send(1, 2, (), 50);
                }
            } else {
                c.recv::<()>(0, 0);
                c.recv::<()>(0, 1);
                c.recv::<()>(0, 2);
            }
        });
        let m = &out[0].metrics;
        assert_eq!(m.get(Counter::msgs_in(Phase::Flow)), 1);
        assert_eq!(m.get(Counter::bytes_in(Phase::Flow)), 100);
        assert_eq!(m.get(Counter::msgs_in(Phase::Connectivity)), 2);
        assert_eq!(m.get(Counter::bytes_in(Phase::Connectivity)), 350);
        // Receiver recorded stall observations.
        let stall = out[1].metrics.histogram("comm.recv.stall_s").unwrap();
        assert_eq!(stall.count, 3);
        assert!(stall.max > 0.0);
    }

    #[test]
    fn tracing_records_phase_comm_and_compute_spans() {
        let out =
            Universe::builder().ranks(2).machine(&modern()).trace(TraceConfig::enabled()).run(
                |c| {
                    let mut ph = c.phase(Phase::Flow);
                    ph.compute(1_000_000, WorkClass::Flow);
                    if ph.rank() == 0 {
                        ph.send(1, 9, 7u8, 64);
                    } else {
                        ph.recv::<u8>(0, 9);
                    }
                    ph.barrier();
                },
            );
        for o in &out {
            let cats: Vec<&str> = o.trace.iter().map(|e| e.cat).collect();
            assert!(cats.contains(&"phase"), "{cats:?}");
            assert!(cats.contains(&"comm"));
            assert!(cats.contains(&"compute"));
            // Phase span covers the whole scope.
            let phase = o.trace.iter().find(|e| e.cat == "phase").unwrap();
            assert_eq!(phase.name, "flow");
            assert!(phase.dur > 0.0);
        }
        // Tracing off: no events.
        let off = run(1, &modern(), |c| {
            c.compute(1, WorkClass::Flow);
        });
        assert!(off[0].trace.is_empty());
    }

    #[test]
    fn comm_span_args_are_uniform_per_category() {
        // Every comm-category span must carry the full argument set its
        // name promises — the trace-analysis comm matrix and wait-state
        // classifier rely on it (docs/OBSERVABILITY.md span table).
        let out =
            Universe::builder().ranks(3).machine(&modern()).trace(TraceConfig::enabled()).run(
                |c| {
                    if c.rank() == 0 {
                        c.send(1, 3, 1u8, 64);
                        c.send(2, 4, 2u8, 128);
                    } else {
                        c.recv::<u8>(0, 2 + c.rank() as u64);
                    }
                    c.barrier();
                    c.allgather(c.rank(), 8);
                },
            );
        let has = |e: &TraceEvent, key: &str| e.args.iter().any(|(k, _)| *k == key);
        let mut seen = [0usize; 4]; // send, recv, barrier, allgather
        for o in &out {
            for e in o.trace.iter().filter(|e| e.cat == "comm") {
                match e.name {
                    "send" => {
                        seen[0] += 1;
                        for key in ["dst", "tag", "bytes"] {
                            assert!(has(e, key), "send span missing {key}: {e:?}");
                        }
                    }
                    "recv" => {
                        seen[1] += 1;
                        for key in ["src", "tag", "bytes", "stall", "idle"] {
                            assert!(has(e, key), "recv span missing {key}: {e:?}");
                        }
                    }
                    "barrier" | "allgather" => {
                        seen[if e.name == "barrier" { 2 } else { 3 }] += 1;
                        assert!(has(e, "bytes"), "collective span missing bytes: {e:?}");
                    }
                    other => panic!("unexpected comm span name {other:?}"),
                }
            }
        }
        assert_eq!(seen[0], 2, "expected two send spans");
        assert_eq!(seen[1], 2, "expected two recv spans");
        assert_eq!(seen[2], 3, "expected one barrier span per rank");
        assert_eq!(seen[3], 3, "expected one allgather span per rank");
        // The recv span's bytes echo what the sender charged, and its
        // stall/idle split is consistent with the span duration.
        let recv = out[1].trace.iter().find(|e| e.cat == "comm" && e.name == "recv").unwrap();
        let arg = |key: &str| {
            recv.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| match v {
                    ArgVal::U64(x) => *x as f64,
                    ArgVal::F64(x) => *x,
                    ArgVal::Str(_) => f64::NAN,
                })
                .unwrap()
        };
        assert_eq!(arg("bytes"), 64.0);
        assert!((arg("stall") - recv.dur).abs() < 1e-15);
        assert_eq!(arg("idle"), 0.0);
    }

    #[test]
    fn flight_recorder_collects_per_step_deltas() {
        let m = MachineModel {
            name: "t",
            flops_per_sec: 1.0,
            class_efficiency: [1.0; 3],
            cache: crate::machine::CacheModel::FLAT,
            latency: 0.0,
            bandwidth: 1.0,
            send_overhead: 0.0,
        };
        let out = run(2, &m, |c| {
            for step in 0..3u64 {
                {
                    let mut ph = c.phase(Phase::Flow);
                    ph.compute(step + 1, WorkClass::Flow);
                    if ph.rank() == 0 {
                        ph.send(1, step, (), 100);
                    } else {
                        ph.recv::<()>(0, step);
                    }
                    ph.barrier();
                }
                c.metrics_mut().add(Counter::ConnServiced, 10 * (step + 1));
                c.end_step();
            }
        });
        for (rank, o) in out.iter().enumerate() {
            assert_eq!(o.steps.len(), 3);
            for (i, rec) in o.steps.iter().enumerate() {
                assert_eq!(rec.step, i as u64);
                // Per-step flow time covers at least the step's own compute
                // (plus comm/barrier time, which also accrues to the phase).
                assert!(
                    rec.time[Phase::Flow as usize] >= (i + 1) as f64,
                    "rank {rank} step {i}: {:?}",
                    rec.time
                );
                assert_eq!(rec.count(Counter::ConnServiced), 10 * (i as u64 + 1));
            }
            // The per-step deltas partition the rank's cumulative phase time.
            let flow_sum: f64 = o.steps.iter().map(|r| r.time[Phase::Flow as usize]).sum();
            let total_flow = o.time[Phase::Flow as usize];
            assert!((flow_sum - total_flow).abs() < 1e-12 * total_flow.max(1.0));
            // Clocks are the rank clock at each boundary, nondecreasing.
            assert!(o.steps.windows(2).all(|w| w[0].clock <= w[1].clock));
        }
        assert_eq!(out[0].steps[0].count(Counter::CommMsgsFlow), 1);
        assert_eq!(out[0].steps[0].count(Counter::CommBytesFlow), 100);
        assert_eq!(out[1].steps[0].count(Counter::CommMsgsFlow), 0);
    }

    /// The run's error: the failure `try_run` reports.
    fn failure<R: Send>(
        b: UniverseBuilder,
        f: impl Fn(&mut Comm) -> R + Send + Sync,
    ) -> OversetError {
        match b.try_run(f) {
            Ok(_) => panic!("the run succeeded"),
            Err(e) => e,
        }
    }

    fn panicked(rank: usize, message: &str) -> OversetError {
        OversetError::RankPanicked { rank, phase: "other", message: message.to_string() }
    }

    #[test]
    fn recv_type_mismatch_is_an_error() {
        let err = failure(Universe::builder().ranks(2), |c| {
            if c.rank() == 0 {
                c.send(1, 5, 1.25f64, 8);
            } else {
                c.recv::<u32>(0, 5);
            }
        });
        let message = "rank 1: type mismatch receiving tag 5 from rank 0 (expected u32)";
        assert_eq!(err, panicked(1, message));
    }

    /// Every rank of a mixed-type round fails on its own, so the lowest one
    /// is named.
    #[test]
    fn mixed_type_collective_is_an_error_on_every_rank() {
        let err = failure(Universe::builder().ranks(2), |c| {
            if c.rank() == 0 {
                drop(c.allgather(1u32, 4));
            } else {
                drop(c.allgather(1.5f64, 8));
            }
        });
        assert_eq!(err, panicked(0, "rank 0: mixed payload types in collective (expected u32)"));
    }

    #[test]
    fn working_set_changes_rate() {
        let m = MachineModel::ibm_sp2();
        let out = run(1, &m, |c| {
            c.set_working_set(1.0); // tiny: fast cache factor
            c.compute(1_000_000, WorkClass::Flow);
            let t_small = c.now();
            c.set_working_set(1e9); // huge: memory bound
            c.compute(1_000_000, WorkClass::Flow);
            (t_small, c.now() - t_small)
        });
        let (t_small, t_large) = out[0].result;
        assert!(t_large > 1.3 * t_small, "cache model had no effect");
    }

    // ---- M:N scheduler -------------------------------------------------

    /// A workload exercising every comm primitive plus phases and step
    /// boundaries, used to compare the two scheduler modes bit-for-bit.
    fn mixed_workload(c: &mut Comm) -> f64 {
        let me = c.rank();
        let n = c.size();
        for step in 0..4u64 {
            {
                let mut ph = c.phase(Phase::Flow);
                ph.compute(1_000_000 * (1 + me as u64), WorkClass::Flow);
                let right = (me + 1) % n;
                let left = (me + n - 1) % n;
                ph.send(right, 100 + step, me as f64 * 1.5 + step as f64, 256 + 32 * me);
                let v = ph.recv::<f64>(left, 100 + step);
                ph.compute((v.abs() * 10.0) as u64, WorkClass::Search);
            }
            {
                let mut ph = c.phase(Phase::Connectivity);
                let maxv = ph.allreduce_max(me as f64 * 0.25 + step as f64);
                ph.compute((maxv * 1.0e3) as u64, WorkClass::Other);
            }
            c.end_step();
        }
        c.barrier();
        c.now()
    }

    #[test]
    fn mn_clocks_bit_identical_to_thread_mode() {
        let m = MachineModel::ibm_sp2();
        let one_to_one = Universe::builder().ranks(16).machine(&m).run(mixed_workload);
        let mn = Universe::builder().ranks(16).machine(&m).max_threads(4).run(mixed_workload);
        for (rank, (a, b)) in one_to_one.iter().zip(&mn).enumerate() {
            assert_eq!(
                a.result.to_bits(),
                b.result.to_bits(),
                "rank {rank} clock differs between scheduler modes"
            );
            assert_eq!(a.clock.to_bits(), b.clock.to_bits());
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.steps.len(), b.steps.len());
        }
    }

    #[test]
    fn many_virtual_ranks_on_few_threads() {
        // 128 virtual ranks on 4 workers: a ring exchange plus a collective
        // per rank, far beyond what 1:1 threading would need.
        let out = Universe::builder().ranks(128).machine(&modern()).max_threads(4).run(|c| {
            let me = c.rank();
            let n = c.size();
            c.send((me + 1) % n, 7, me, 8);
            let left = c.recv::<usize>((me + n - 1) % n, 7);
            let total = c.allreduce_sum_usize(left);
            c.end_step();
            total
        });
        assert_eq!(out.len(), 128);
        let expect: usize = (0..128).sum();
        for o in &out {
            assert_eq!(o.result, expect);
            assert_eq!(o.steps.len(), 1);
        }
    }

    /// Lost-wake-up stress for the workers' `parked` flag: 64 ranks ping-pong
    /// with a partner on another worker, then meet at a barrier, for 2 000
    /// rounds, on 2 and on 4 workers. A wake that skipped its notify while
    /// the worker went to sleep would hang the run, so each run must finish
    /// within a deadline, with clocks bit-equal to the 1:1 run's.
    #[test]
    fn mn_wakes_are_never_lost_across_workers() {
        fn rounds(c: &mut Comm) -> f64 {
            let partner = c.rank() ^ 1;
            for round in 0..2_000u64 {
                if c.rank() % 2 == 0 {
                    c.send(partner, round, round, 8);
                    assert_eq!(c.recv::<u64>(partner, round), round + 1);
                } else {
                    let v = c.recv::<u64>(partner, round);
                    c.send(partner, round, v + 1, 8);
                }
                c.barrier();
            }
            c.now()
        }
        let clocks = |workers: Option<usize>| {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let b = Universe::builder().ranks(64).machine(&MachineModel::ibm_sp2());
                let b = match workers {
                    Some(n) => b.max_threads(n),
                    None => b,
                };
                let out = b.run(rounds);
                tx.send(out.iter().map(|o| o.clock.to_bits()).collect::<Vec<_>>()).unwrap();
            });
            rx.recv_timeout(std::time::Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("{workers:?} workers: no result in 120 s, a lost wake"))
        };
        let one_to_one = clocks(None);
        for workers in [2, 4] {
            assert_eq!(clocks(Some(workers)), one_to_one, "{workers} workers");
        }
    }

    // ---- panic handling ------------------------------------------------

    #[test]
    fn rank_panic_surfaces_error_not_hang() {
        let err = Universe::builder().ranks(16).machine(&modern()).try_run(|c| {
            if c.rank() == 7 {
                let _ph = c.phase(Phase::Connectivity);
                panic!("boom on rank 7");
            }
            // Every other rank blocks in a collective the panicking rank
            // never joins — they must be unblocked, not hang.
            c.barrier();
        });
        match err {
            Err(OversetError::RankPanicked { rank: 7, phase, message }) => {
                assert_eq!(phase, "connectivity");
                assert!(message.contains("boom on rank 7"), "message: {message}");
            }
            other => panic!("expected RankPanicked for rank 7, got {other:?}"),
        }
    }

    #[test]
    fn rank_panic_in_mn_mode_surfaces_error() {
        let err = Universe::builder().ranks(32).machine(&modern()).max_threads(4).try_run(|c| {
            if c.rank() == 13 {
                panic!("mn boom");
            }
            c.barrier();
        });
        match err {
            Err(OversetError::RankPanicked { rank: 13, phase, message }) => {
                assert_eq!(phase, "other");
                assert!(message.contains("mn boom"), "message: {message}");
            }
            other => panic!("expected RankPanicked for rank 13, got {other:?}"),
        }
    }

    #[test]
    fn rank_panic_unblocks_point_to_point_waits() {
        let err = failure(Universe::builder().ranks(4), |c| {
            match c.rank() {
                0 => panic!("early exit"),
                // Rank 1 waits for a message rank 0 will never send.
                1 => {
                    c.recv::<u8>(0, 42);
                }
                _ => {}
            }
        });
        assert_eq!(err, panicked(0, "early exit"));
    }

    #[test]
    fn recv_from_finished_rank_errors() {
        let err = failure(Universe::builder().ranks(2), |c| {
            // Rank 0 finishes immediately without sending anything.
            if c.rank() == 1 {
                c.recv::<u8>(0, 9);
            }
        });
        let message = "rank 1: all senders disconnected while waiting for tag 9 from rank 0";
        assert_eq!(err, panicked(1, message));
    }

    /// Two ranks fail on their own after the same barrier while the rest
    /// block in a collective: the lower one is named, whichever panicked
    /// first in host time, under either scheduler.
    #[test]
    fn the_lowest_failing_rank_is_named() {
        for b in [Universe::builder(), Universe::builder().max_threads(2)] {
            for _ in 0..20 {
                let err = failure(b.clone().ranks(8), |c| {
                    c.barrier();
                    if c.rank() == 3 || c.rank() == 6 {
                        panic!("rank {} fails", c.rank());
                    }
                    c.barrier();
                });
                assert_eq!(err, panicked(3, "rank 3 fails"));
            }
        }
    }
}
