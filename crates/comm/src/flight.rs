//! The flight recorder: a bounded per-rank ring of per-timestep telemetry.
//!
//! The paper's central evidence is *time histories* — the load-imbalance
//! factor f(p) and the connectivity cost evolving step by step as bodies
//! move and Algorithm 2 repartitions (Figs. 10–12). Whole-run aggregates
//! (the metrics registry, [`crate::PerfSummary`]) cannot show that, so every
//! rank also keeps a [`FlightRecorder`]: at each step boundary the driver
//! calls [`crate::Comm::end_step`], which reads the rank's running totals
//! (phase times, the registry's counter array, the allocation counters) and
//! appends one [`StepRecord`] of what the step added to each.
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

use crate::metrics::{cache_hit_rate, Counter, Counts};
use crate::stats::NUM_PHASES;
use crate::wire::{Wire, WireError, WireReader};
use std::collections::VecDeque;

/// Telemetry of one timestep on one rank: what the step added to each of the
/// rank's running totals — phase times, every [`Counter`], allocations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepRecord {
    /// Step index (0-based, monotonically increasing even when the ring
    /// evicts old records).
    pub step: u64,
    /// Rank virtual clock at the end of the step.
    pub clock: f64,
    /// Virtual seconds spent per phase during this step.
    pub time: [f64; NUM_PHASES],
    /// This step's increment of every counter, indexed by `Counter as usize`.
    pub counts: Counts,
    /// Heap allocations made during this step, per phase.
    pub allocs: [u64; NUM_PHASES],
    /// Bytes those allocations requested, per phase.
    pub alloc_bytes: [u64; NUM_PHASES],
}

impl StepRecord {
    /// A record of zeros: the running totals before step 0.
    pub const ZERO: StepRecord = StepRecord {
        step: 0,
        clock: 0.0,
        time: [0.0; NUM_PHASES],
        counts: [0; Counter::COUNT],
        allocs: [0; NUM_PHASES],
        alloc_bytes: [0; NUM_PHASES],
    };

    /// This step's increment of counter `c`.
    pub fn count(&self, c: Counter) -> u64 {
        self.counts[c as usize]
    }

    /// Warm-restart hit rate for this step, `None` when the cache was not
    /// consulted.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        cache_hit_rate(&self.counts)
    }
}

// Step records ride home from child processes inside `RankOutput` and fill
// the binary sink's step chunks: the fields in order.
impl Wire for StepRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.step.encode(buf);
        self.clock.encode(buf);
        self.time.encode(buf);
        self.counts.encode(buf);
        self.allocs.encode(buf);
        self.alloc_bytes.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(StepRecord {
            step: Wire::decode(r)?,
            clock: Wire::decode(r)?,
            time: Wire::decode(r)?,
            counts: Wire::decode(r)?,
            allocs: Wire::decode(r)?,
            alloc_bytes: Wire::decode(r)?,
        })
    }
}

/// `now - prev`, slot by slot.
fn delta<T: Copy + std::ops::Sub<Output = T>, const N: usize>(now: [T; N], prev: [T; N]) -> [T; N] {
    std::array::from_fn(|i| now[i] - prev[i])
}

/// Bounded ring of [`StepRecord`]s plus the running totals at the previous
/// step boundary, which the next boundary's totals are differenced against.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cap: usize,
    records: VecDeque<StepRecord>,
    dropped: u64,
    next_step: u64,
    prev: StepRecord,
}

/// Default ring capacity: far above any experiment in this workspace while
/// still bounding memory (~340 B/record → ~21 MiB/rank at the cap).
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
            dropped: 0,
            next_step: 0,
            prev: StepRecord::ZERO,
        }
    }

    /// Close the current step. `totals` holds the rank's running totals
    /// (its `step` is ignored); the record appended and returned — streaming
    /// sinks persist it even after the ring evicts it — is `totals` minus
    /// the totals at the previous boundary.
    pub fn end_step(&mut self, totals: StepRecord) -> StepRecord {
        let rec = StepRecord {
            step: self.next_step,
            clock: totals.clock,
            time: delta(totals.time, self.prev.time),
            counts: delta(totals.counts, self.prev.counts),
            allocs: delta(totals.allocs, self.prev.allocs),
            alloc_bytes: delta(totals.alloc_bytes, self.prev.alloc_bytes),
        };
        self.prev = totals;
        self.next_step += 1;
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
        rec
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &StepRecord> + '_ {
        self.records.iter()
    }

    /// Number of records evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Steps recorded so far (including evicted ones).
    pub fn steps_recorded(&self) -> u64 {
        self.next_step
    }

    /// Consume the recorder, returning retained records oldest-first plus
    /// the evicted count.
    pub fn into_records(self) -> (Vec<StepRecord>, u64) {
        (self.records.into(), self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Phase;

    const FLOW: usize = Phase::Flow as usize;
    const CONN: usize = Phase::Connectivity as usize;

    /// Running totals: flow time, flow-phase messages and bytes sent so far.
    fn totals(flow: f64, msgs: u64, bytes: u64) -> StepRecord {
        let mut t = StepRecord { clock: flow, ..StepRecord::ZERO };
        t.time[FLOW] = flow;
        t.counts[Counter::CommMsgsFlow as usize] = msgs;
        t.counts[Counter::CommBytesFlow as usize] = bytes;
        t
    }

    #[test]
    fn records_are_per_step_deltas() {
        let mut fr = FlightRecorder::new(8);
        let mut t = totals(1.0, 3, 300);
        t.counts[Counter::ConnServiced as usize] = 10;
        fr.end_step(StepRecord { clock: 1.5, ..t });
        let mut t = totals(4.0, 7, 1000);
        t.counts[Counter::ConnServiced as usize] = 15;
        t.counts[Counter::ConnWalkSteps as usize] = 42;
        t.counts[Counter::ConnCacheHit as usize] = 1;
        t.counts[Counter::LbRepartitions as usize] = 1;
        fr.end_step(StepRecord { clock: 5.0, ..t });

        let recs: Vec<_> = fr.records().copied().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].step, 0);
        assert_eq!(recs[0].count(Counter::ConnServiced), 10);
        assert_eq!(recs[0].count(Counter::CommMsgsFlow), 3);
        assert!((recs[0].time[FLOW] - 1.0).abs() < 1e-15);
        assert_eq!(recs[1].step, 1);
        assert_eq!(recs[1].count(Counter::ConnServiced), 5);
        assert_eq!(recs[1].count(Counter::ConnWalkSteps), 42);
        assert_eq!(recs[0].count(Counter::ConnWalkSteps), 0);
        assert_eq!(recs[1].count(Counter::ConnCacheHit), 1);
        assert_eq!(recs[1].count(Counter::LbRepartitions), 1);
        assert_eq!(recs[1].count(Counter::CommMsgsFlow), 4);
        assert_eq!(recs[1].count(Counter::CommBytesFlow), 700);
        assert!((recs[1].time[FLOW] - 3.0).abs() < 1e-15);
        assert_eq!(recs[1].clock, 5.0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut fr = FlightRecorder::new(2);
        for i in 0..5u64 {
            fr.end_step(totals(i as f64, i, i));
        }
        assert_eq!(fr.dropped(), 3);
        assert_eq!(fr.steps_recorded(), 5);
        let steps: Vec<u64> = fr.records().map(|r| r.step).collect();
        assert_eq!(steps, vec![3, 4]);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let mut fr = FlightRecorder::new(0);
        for i in 0..3u64 {
            fr.end_step(totals(i as f64, i, i));
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
        fr.end_step(totals(1.0, 2, 20));
        fr.end_step(totals(4.0, 5, 70));
        fr.end_step(totals(9.0, 9, 150));
        let (recs, dropped) = fr.into_records();
        assert_eq!(dropped, 2);
        assert_eq!(recs.len(), 1);
        // Deltas difference against the previous *step boundary*, which
        // eviction must not disturb.
        assert_eq!(recs[0].step, 2);
        assert!((recs[0].time[FLOW] - 5.0).abs() < 1e-15);
        assert_eq!(recs[0].count(Counter::CommMsgsFlow), 4);
        assert_eq!(recs[0].count(Counter::CommBytesFlow), 80);
    }

    #[test]
    fn eviction_spanning_a_repartition_step_keeps_accounting_exact() {
        // Repartitions at steps 1 (evicted) and 4 (retained): the retained
        // record must carry only its own repartition, the evicted one must
        // show up solely through `dropped`, and the totals at the previous
        // boundary must stay consistent across the eviction.
        let mut fr = FlightRecorder::new(2);
        let mut reparts = 0;
        for i in 0..5u64 {
            reparts += u64::from(i == 1 || i == 4);
            let mut t = totals(i as f64, i, i);
            t.counts[Counter::LbRepartitions as usize] = reparts;
            fr.end_step(t);
        }
        assert_eq!(fr.dropped(), 3);
        assert_eq!(fr.steps_recorded(), 5);
        let recs: Vec<_> = fr.records().copied().collect();
        assert_eq!(recs.iter().map(|r| r.step).collect::<Vec<_>>(), vec![3, 4]);
        // The repartition evicted with step 1 is not re-attributed to any
        // surviving record: retained total is 1 of the 2 recorded.
        assert_eq!(recs[0].count(Counter::LbRepartitions), 0);
        assert_eq!(recs[1].count(Counter::LbRepartitions), 1);
        assert_eq!(reparts, 2);
    }

    #[test]
    fn alloc_records_are_per_step_deltas_in_lockstep() {
        let mut fr = FlightRecorder::new(2);
        let mut t = StepRecord::ZERO;
        for i in 0..4u64 {
            t.allocs[CONN] += 10 + i;
            t.alloc_bytes[CONN] += 100 * (i + 1);
            fr.end_step(t);
        }
        // The allocation deltas ride in the step's own record, so eviction
        // cannot separate them: deltas, not totals, survive it intact.
        let recs: Vec<_> = fr.records().copied().collect();
        assert_eq!(recs.iter().map(|r| r.step).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(recs[0].allocs[CONN], 12);
        assert_eq!(recs[0].alloc_bytes[CONN], 300);
        assert_eq!(recs[1].allocs[CONN], 13);
        assert_eq!(recs[1].alloc_bytes[CONN], 400);
        assert_eq!(fr.dropped(), 2);
    }

    #[test]
    fn hit_rate_none_without_lookups() {
        let mut fr = FlightRecorder::new(4);
        let mut t = StepRecord::ZERO;
        fr.end_step(t);
        t.counts[Counter::ConnCacheHit as usize] = 3;
        t.counts[Counter::ConnCacheMiss as usize] = 1;
        fr.end_step(t);
        let recs: Vec<_> = fr.records().copied().collect();
        assert_eq!(recs[0].cache_hit_rate(), None);
        assert_eq!(recs[1].cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn step_record_wire_is_its_arrays_in_order() {
        let mut rec = totals(2.0, 3, 300);
        rec.step = 7;
        rec.allocs[CONN] = 5;
        rec.alloc_bytes[CONN] = 640;
        let bytes = rec.to_wire_bytes();
        assert_eq!(bytes.len(), 8 * (2 + 3 * NUM_PHASES + Counter::COUNT));
        assert_eq!(StepRecord::from_wire_bytes(&bytes).unwrap(), rec);
    }
}
