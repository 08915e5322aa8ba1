//! The flight recorder: a bounded per-rank ring of per-timestep telemetry.
//!
//! The paper's central evidence is *time histories* — the load-imbalance
//! factor f(p) and the connectivity cost evolving step by step as bodies
//! move and Algorithm 2 repartitions (Figs. 10–12). Whole-run aggregates
//! (the metrics registry, [`crate::PerfSummary`]) cannot show that, so every
//! rank also keeps a [`FlightRecorder`]: at each step boundary the driver
//! calls [`crate::Comm::end_step`], which snapshots the phase-time and
//! metric counters and appends one [`StepRecord`] of deltas.
//!
//! The recorder is always on (one struct of plain numbers per step), reads
//! only state that already exists, and never touches the virtual clock —
//! physics and timings are bitwise identical with or without consumers, the
//! same invariant the tracer keeps. Records come back per rank in
//! [`crate::RankOutput::steps`]; `overset-report` aggregates them into the
//! run-level time series the `BENCH_*.json` reports serialize.
//!
//! Capacity is bounded (ring semantics): when more steps are recorded than
//! the configured capacity, the *oldest* records are evicted and counted in
//! [`FlightRecorder::dropped`] — consumers can see the truncation instead of
//! silently reading a hole-free series.

use crate::alloc::{AllocRecord, AllocSnapshot};
use crate::metrics::{names, MetricsRegistry};
use crate::stats::{RankStats, NUM_PHASES};
use crate::wire::{Wire, WireError, WireReader};
use std::collections::VecDeque;

/// Telemetry of one timestep on one rank: per-phase virtual time plus the
/// deltas of the step-relevant metric counters over the step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepRecord {
    /// Step index (0-based, monotonically increasing even when the ring
    /// evicts old records).
    pub step: u64,
    /// Virtual seconds spent per phase during this step.
    pub time: [f64; NUM_PHASES],
    /// Rank virtual clock at the end of the step.
    pub clock: f64,
    /// Search-request points serviced this step (the paper's I(p) sample).
    pub serviced: u64,
    /// Stencil-walk steps spent servicing donor searches this step — the
    /// direct measure of how well the inverse-map seeds (and warm restart
    /// hints) are working.
    pub walk_steps: u64,
    /// Request points sent this step after an IGBP's first (its level's
    /// other candidate ranks, later levels) — false-positive routing that
    /// occupancy pruning exists to cut.
    pub forwards: u64,
    /// Orphan points left without donors this step.
    pub orphans: u64,
    /// Warm-restart donor-cache hits / misses this step.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Messages / payload bytes sent this step.
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    /// Repartitions executed this step (0 or 1 in practice).
    pub repartitions: u64,
}

impl StepRecord {
    /// Warm-restart hit rate for this step, `None` when the cache was not
    /// consulted.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }
}

// Step records ride home from child processes inside `RankOutput`.
impl Wire for StepRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.step.encode(buf);
        self.time.encode(buf);
        self.clock.encode(buf);
        self.serviced.encode(buf);
        self.walk_steps.encode(buf);
        self.forwards.encode(buf);
        self.orphans.encode(buf);
        self.cache_hits.encode(buf);
        self.cache_misses.encode(buf);
        self.msgs_sent.encode(buf);
        self.bytes_sent.encode(buf);
        self.repartitions.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(StepRecord {
            step: u64::decode(r)?,
            time: <[f64; NUM_PHASES]>::decode(r)?,
            clock: f64::decode(r)?,
            serviced: u64::decode(r)?,
            walk_steps: u64::decode(r)?,
            forwards: u64::decode(r)?,
            orphans: u64::decode(r)?,
            cache_hits: u64::decode(r)?,
            cache_misses: u64::decode(r)?,
            msgs_sent: u64::decode(r)?,
            bytes_sent: u64::decode(r)?,
            repartitions: u64::decode(r)?,
        })
    }
}

/// Counter snapshot at the previous step boundary.
#[derive(Clone, Copy, Debug, Default)]
struct Snapshot {
    time: [f64; NUM_PHASES],
    serviced: u64,
    walk_steps: u64,
    forwards: u64,
    orphans: u64,
    cache_hits: u64,
    cache_misses: u64,
    msgs_sent: u64,
    bytes_sent: u64,
    repartitions: u64,
}

/// Bounded ring of [`StepRecord`]s plus the snapshot needed to difference
/// the cumulative counters at each step boundary.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cap: usize,
    records: VecDeque<StepRecord>,
    /// Per-step allocation deltas, kept in lockstep with `records` (same
    /// capacity, same eviction), so `dropped` covers both rings.
    alloc_records: VecDeque<AllocRecord>,
    dropped: u64,
    next_step: u64,
    snap: Snapshot,
    alloc_snap: AllocSnapshot,
}

/// Default ring capacity: far above any experiment in this workspace while
/// still bounding memory (~120 B/record → ~8 MiB/rank at the cap).
pub const DEFAULT_STEP_CAPACITY: usize = 65_536;

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_STEP_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping at most `cap` most-recent records (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            records: VecDeque::new(),
            alloc_records: VecDeque::new(),
            dropped: 0,
            next_step: 0,
            snap: Snapshot::default(),
            alloc_snap: AllocSnapshot::default(),
        }
    }

    /// Close the current step: difference `stats`/`metrics`/`alloc` against
    /// the previous boundary and append one record pair, returning copies
    /// (streaming sinks persist them even after the ring evicts them).
    pub fn end_step(
        &mut self,
        stats: &RankStats,
        metrics: &MetricsRegistry,
        clock: f64,
        alloc: AllocSnapshot,
    ) -> (StepRecord, AllocRecord) {
        let mut time = [0.0; NUM_PHASES];
        for (p, t) in time.iter_mut().enumerate() {
            *t = stats.time[p] - self.snap.time[p];
        }
        let serviced = metrics.counter(names::CONN_SERVICED);
        let walk_steps = metrics.counter(names::CONN_WALK_STEPS);
        let forwards = metrics.counter(names::CONN_FORWARDS);
        let orphans = metrics.counter(names::CONN_ORPHANS);
        let hits = metrics.counter(names::CONN_CACHE_HIT);
        let misses = metrics.counter(names::CONN_CACHE_MISS);
        let reparts = metrics.counter(names::LB_REPARTITIONS);
        let rec = StepRecord {
            step: self.next_step,
            time,
            clock,
            serviced: serviced - self.snap.serviced,
            walk_steps: walk_steps - self.snap.walk_steps,
            forwards: forwards - self.snap.forwards,
            orphans: orphans - self.snap.orphans,
            cache_hits: hits - self.snap.cache_hits,
            cache_misses: misses - self.snap.cache_misses,
            msgs_sent: stats.msgs_sent - self.snap.msgs_sent,
            bytes_sent: stats.bytes_sent - self.snap.bytes_sent,
            repartitions: reparts - self.snap.repartitions,
        };
        let mut arec = AllocRecord { step: self.next_step, ..AllocRecord::default() };
        for p in 0..NUM_PHASES {
            arec.allocs[p] = alloc.allocs[p] - self.alloc_snap.allocs[p];
            arec.bytes[p] = alloc.bytes[p] - self.alloc_snap.bytes[p];
        }
        self.alloc_snap = alloc;
        self.next_step += 1;
        self.snap = Snapshot {
            time: stats.time,
            serviced,
            walk_steps,
            forwards,
            orphans,
            cache_hits: hits,
            cache_misses: misses,
            msgs_sent: stats.msgs_sent,
            bytes_sent: stats.bytes_sent,
            repartitions: reparts,
        };
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.alloc_records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
        self.alloc_records.push_back(arec);
        (rec, arec)
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &StepRecord> + '_ {
        self.records.iter()
    }

    /// Allocation records currently retained, oldest first (lockstep with
    /// [`FlightRecorder::records`]).
    pub fn alloc_records(&self) -> impl Iterator<Item = &AllocRecord> + '_ {
        self.alloc_records.iter()
    }

    /// Number of records evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Steps recorded so far (including evicted ones).
    pub fn steps_recorded(&self) -> u64 {
        self.next_step
    }

    /// Consume the recorder, returning retained step and allocation records
    /// oldest-first plus the (shared) evicted count.
    pub fn into_records(self) -> (Vec<StepRecord>, Vec<AllocRecord>, u64) {
        (self.records.into_iter().collect(), self.alloc_records.into_iter().collect(), self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Phase;

    fn stats_with(flow: f64, msgs: u64, bytes: u64) -> RankStats {
        let mut s = RankStats::new(0);
        s.time[Phase::Flow as usize] = flow;
        s.msgs_sent = msgs;
        s.bytes_sent = bytes;
        s
    }

    #[test]
    fn records_are_per_step_deltas() {
        let mut fr = FlightRecorder::new(8);
        let mut m = MetricsRegistry::new();
        m.add(names::CONN_SERVICED, 10);
        fr.end_step(&stats_with(1.0, 3, 300), &m, 1.5, AllocSnapshot::default());
        m.add(names::CONN_SERVICED, 5);
        m.add(names::CONN_WALK_STEPS, 42);
        m.add(names::CONN_FORWARDS, 3);
        m.inc(names::CONN_CACHE_HIT);
        m.inc(names::LB_REPARTITIONS);
        fr.end_step(&stats_with(4.0, 7, 1000), &m, 5.0, AllocSnapshot::default());

        let recs: Vec<_> = fr.records().copied().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].step, 0);
        assert_eq!(recs[0].serviced, 10);
        assert_eq!(recs[0].msgs_sent, 3);
        assert!((recs[0].time[Phase::Flow as usize] - 1.0).abs() < 1e-15);
        assert_eq!(recs[1].step, 1);
        assert_eq!(recs[1].serviced, 5);
        assert_eq!(recs[1].walk_steps, 42);
        assert_eq!(recs[1].forwards, 3);
        assert_eq!(recs[0].walk_steps, 0);
        assert_eq!(recs[1].cache_hits, 1);
        assert_eq!(recs[1].repartitions, 1);
        assert_eq!(recs[1].msgs_sent, 4);
        assert_eq!(recs[1].bytes_sent, 700);
        assert!((recs[1].time[Phase::Flow as usize] - 3.0).abs() < 1e-15);
        assert_eq!(recs[1].clock, 5.0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut fr = FlightRecorder::new(2);
        let m = MetricsRegistry::new();
        for i in 0..5u64 {
            fr.end_step(&stats_with(i as f64, i, i), &m, i as f64, AllocSnapshot::default());
        }
        assert_eq!(fr.dropped(), 3);
        assert_eq!(fr.steps_recorded(), 5);
        let steps: Vec<u64> = fr.records().map(|r| r.step).collect();
        assert_eq!(steps, vec![3, 4]);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let mut fr = FlightRecorder::new(0);
        let m = MetricsRegistry::new();
        for i in 0..3u64 {
            fr.end_step(&stats_with(i as f64, i, i), &m, i as f64, AllocSnapshot::default());
        }
        // A zero-capacity ring still retains the most recent record.
        let recs: Vec<_> = fr.records().copied().collect();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].step, 2);
        assert_eq!(fr.dropped(), 2);
        assert_eq!(fr.steps_recorded(), 3);
    }

    #[test]
    fn capacity_one_keeps_latest_with_correct_deltas() {
        let mut fr = FlightRecorder::new(1);
        let m = MetricsRegistry::new();
        fr.end_step(&stats_with(1.0, 2, 20), &m, 1.0, AllocSnapshot::default());
        fr.end_step(&stats_with(4.0, 5, 70), &m, 4.0, AllocSnapshot::default());
        fr.end_step(&stats_with(9.0, 9, 150), &m, 9.0, AllocSnapshot::default());
        let (recs, _alloc, dropped) = fr.into_records();
        assert_eq!(dropped, 2);
        assert_eq!(recs.len(), 1);
        // Deltas difference against the previous *step boundary*, which
        // eviction must not disturb.
        assert_eq!(recs[0].step, 2);
        assert!((recs[0].time[Phase::Flow as usize] - 5.0).abs() < 1e-15);
        assert_eq!(recs[0].msgs_sent, 4);
        assert_eq!(recs[0].bytes_sent, 80);
    }

    #[test]
    fn eviction_spanning_a_repartition_step_keeps_accounting_exact() {
        // Repartitions at steps 1 (evicted) and 4 (retained): the retained
        // record must carry only its own repartition, the evicted one must
        // show up solely through `dropped`, and the cumulative-counter
        // snapshot must stay consistent across the eviction.
        let mut fr = FlightRecorder::new(2);
        let mut m = MetricsRegistry::new();
        for i in 0..5u64 {
            if i == 1 || i == 4 {
                m.inc(names::LB_REPARTITIONS);
            }
            fr.end_step(&stats_with(i as f64, i, i), &m, i as f64, AllocSnapshot::default());
        }
        assert_eq!(fr.dropped(), 3);
        assert_eq!(fr.steps_recorded(), 5);
        let recs: Vec<_> = fr.records().copied().collect();
        assert_eq!(recs.iter().map(|r| r.step).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(recs[0].repartitions, 0);
        assert_eq!(recs[1].repartitions, 1);
        // The repartition evicted with step 1 is not re-attributed to any
        // surviving record: retained total is 1 of the 2 recorded.
        let retained: u64 = recs.iter().map(|r| r.repartitions).sum();
        assert_eq!(retained, 1);
        assert_eq!(m.counter(names::LB_REPARTITIONS), 2);
    }

    #[test]
    fn alloc_records_are_per_step_deltas_in_lockstep() {
        let mut fr = FlightRecorder::new(2);
        let m = MetricsRegistry::new();
        let mut snap = AllocSnapshot::default();
        for i in 0..4u64 {
            snap.allocs[Phase::Connectivity as usize] += 10 + i;
            snap.bytes[Phase::Connectivity as usize] += 100 * (i + 1);
            fr.end_step(&stats_with(i as f64, i, i), &m, i as f64, snap);
        }
        let arecs: Vec<_> = fr.alloc_records().copied().collect();
        let srecs: Vec<_> = fr.records().copied().collect();
        assert_eq!(arecs.len(), srecs.len());
        assert_eq!(arecs.iter().map(|r| r.step).collect::<Vec<_>>(), vec![2, 3]);
        // Deltas, not cumulative totals, survive eviction intact.
        let conn = Phase::Connectivity as usize;
        assert_eq!(arecs[0].allocs[conn], 12);
        assert_eq!(arecs[0].bytes[conn], 300);
        assert_eq!(arecs[1].allocs[conn], 13);
        assert_eq!(arecs[1].bytes[conn], 400);
        assert_eq!(fr.dropped(), 2);
    }

    #[test]
    fn hit_rate_none_without_lookups() {
        let mut fr = FlightRecorder::new(4);
        let mut m = MetricsRegistry::new();
        fr.end_step(&RankStats::new(0), &m, 0.0, AllocSnapshot::default());
        m.add(names::CONN_CACHE_HIT, 3);
        m.add(names::CONN_CACHE_MISS, 1);
        fr.end_step(&RankStats::new(0), &m, 0.0, AllocSnapshot::default());
        let recs: Vec<_> = fr.records().copied().collect();
        assert_eq!(recs[0].cache_hit_rate(), None);
        assert_eq!(recs[1].cache_hit_rate(), Some(0.75));
    }
}
