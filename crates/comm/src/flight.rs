//! The flight recorder: a per-rank series of per-timestep telemetry.
//!
//! The paper's central evidence is *time histories* — the load-imbalance
//! factor f(p) and the connectivity cost evolving step by step as bodies
//! move and Algorithm 2 repartitions (Figs. 10–12). Whole-run aggregates
//! (the metrics registry, [`crate::PerfSummary`]) cannot show that, so every
//! rank also keeps a [`FlightRecorder`]: at each step boundary the driver
//! calls [`crate::Comm::end_step`], which reads the rank's running totals
//! (phase times, waits, the registry's counter array, the allocation
//! counters) and appends one [`StepRecord`] of what the step added to each.
//!
//! The recorder is always on (one struct of plain numbers per step), reads
//! only state that already exists, and never touches the virtual clock —
//! physics and timings are bitwise identical with or without consumers, the
//! same invariant the tracer keeps. Records come back per rank in
//! [`crate::RankOutput::steps`]; `overset-report` aggregates them into the
//! run-level time series the `BENCH_*.json` reports serialize.
//!
//! Every step is kept: a record is 512 B (`size_of::<StepRecord>()` on
//! x86-64), so even a thousand-step run holds about half a megabyte per rank.

use crate::metrics::{cache_hit_rate, Counter, Counts};
use crate::stats::NUM_PHASES;

/// The wait states a [`StepRecord`] splits per phase, in the order of
/// [`StepRecord::wait`]'s rows. The runtime charges each where it happens,
/// to the phase the rank is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wait {
    /// A receive posted before its message arrived: the clock jumps to the
    /// arrival.
    LateSender = 0,
    /// A message that sat fully arrived before its receive was posted:
    /// buffered, costing the receiver no time.
    LateReceiver = 1,
    /// Time in a collective before the last rank arrived.
    Collective = 2,
}

/// The number of [`Wait`] states: the rows of [`StepRecord::wait`].
pub const NUM_WAITS: usize = 3;

/// Telemetry of one timestep on one rank: what the step added to each of the
/// rank's running totals — phase times, waits, every [`Counter`],
/// allocations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepRecord {
    /// Step index (0-based).
    pub step: u64,
    /// Rank virtual clock at the end of the step.
    pub clock: f64,
    /// Virtual seconds spent per phase during this step.
    pub time: [f64; NUM_PHASES],
    /// Virtual seconds waited during this step, per [`Wait`] and phase
    /// (`wait[Wait::Collective as usize][Phase::Flow as usize]`).
    /// Late-sender and collective waits are part of their phase's `time`;
    /// late-receiver time costs no clock.
    pub wait: [[f64; NUM_PHASES]; NUM_WAITS],
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
        wait: [[0.0; NUM_PHASES]; NUM_WAITS],
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

/// `now - prev`, slot by slot.
fn delta<T: Copy + std::ops::Sub<Output = T>, const N: usize>(now: [T; N], prev: [T; N]) -> [T; N] {
    std::array::from_fn(|i| now[i] - prev[i])
}

/// Every [`StepRecord`] so far plus the running totals at the previous step
/// boundary, which the next boundary's totals are differenced against.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    records: Vec<StepRecord>,
    prev: StepRecord,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder { records: Vec::new(), prev: StepRecord::ZERO }
    }
}

impl FlightRecorder {
    /// Close the current step. `totals` holds the rank's running totals
    /// (its `step` is ignored); the record appended is `totals` minus the
    /// totals at the previous boundary.
    pub fn end_step(&mut self, totals: StepRecord) {
        self.records.push(StepRecord {
            step: self.records.len() as u64,
            clock: totals.clock,
            time: delta(totals.time, self.prev.time),
            wait: std::array::from_fn(|w| delta(totals.wait[w], self.prev.wait[w])),
            counts: delta(totals.counts, self.prev.counts),
            allocs: delta(totals.allocs, self.prev.allocs),
            alloc_bytes: delta(totals.alloc_bytes, self.prev.alloc_bytes),
        });
        self.prev = totals;
    }

    /// Records so far, oldest first.
    pub fn records(&self) -> &[StepRecord] {
        &self.records
    }

    /// Consume the recorder, returning its records oldest-first, their
    /// buffer shrunk to fit: a run's records are kept past the run.
    pub fn into_records(self) -> Vec<StepRecord> {
        let mut records = self.records;
        records.shrink_to_fit();
        records
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
        let mut fr = FlightRecorder::default();
        let mut t = totals(1.0, 3, 300);
        t.counts[Counter::ConnServiced as usize] = 10;
        fr.end_step(StepRecord { clock: 1.5, ..t });
        let mut t = totals(4.0, 7, 1000);
        t.counts[Counter::ConnServiced as usize] = 15;
        t.counts[Counter::ConnWalkSteps as usize] = 42;
        t.counts[Counter::ConnCacheHit as usize] = 1;
        t.counts[Counter::LbRepartitions as usize] = 1;
        fr.end_step(StepRecord { clock: 5.0, ..t });

        let recs = fr.records();
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
    fn alloc_records_are_per_step_deltas_in_lockstep() {
        let mut fr = FlightRecorder::default();
        let mut t = StepRecord::ZERO;
        for i in 0..4u64 {
            t.allocs[CONN] += 10 + i;
            t.alloc_bytes[CONN] += 100 * (i + 1);
            fr.end_step(t);
        }
        // The allocation deltas ride in the step's own record, next to its
        // phase times and counters.
        let recs = fr.into_records();
        assert_eq!(recs.iter().map(|r| r.step).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(recs[2].allocs[CONN], 12);
        assert_eq!(recs[2].alloc_bytes[CONN], 300);
        assert_eq!(recs[3].allocs[CONN], 13);
        assert_eq!(recs[3].alloc_bytes[CONN], 400);
    }

    /// Waits are differenced like phase times, wait state by wait state.
    #[test]
    fn wait_records_are_per_step_deltas() {
        const COLL: usize = Wait::Collective as usize;
        const LATE: usize = Wait::LateSender as usize;
        let mut fr = FlightRecorder::default();
        let mut t = StepRecord::ZERO;
        t.wait[COLL][FLOW] = 1.5;
        fr.end_step(t);
        t.wait[COLL][FLOW] = 2.0;
        t.wait[LATE][CONN] = 0.25;
        fr.end_step(t);
        let recs = fr.records();
        assert_eq!(recs[0].wait[COLL][FLOW], 1.5);
        assert_eq!(recs[1].wait[COLL][FLOW], 0.5);
        assert_eq!(recs[1].wait[LATE][CONN], 0.25);
        assert_eq!(recs[0].wait[Wait::LateReceiver as usize], [0.0; NUM_PHASES]);
    }

    /// The size the module doc quotes.
    #[test]
    fn a_step_record_is_512_bytes() {
        assert_eq!(std::mem::size_of::<StepRecord>(), 512);
    }

    #[test]
    fn hit_rate_none_without_lookups() {
        let mut fr = FlightRecorder::default();
        let mut t = StepRecord::ZERO;
        fr.end_step(t);
        t.counts[Counter::ConnCacheHit as usize] = 3;
        t.counts[Counter::ConnCacheMiss as usize] = 1;
        fr.end_step(t);
        let recs = fr.records();
        assert_eq!(recs[0].cache_hit_rate(), None);
        assert_eq!(recs[1].cache_hit_rate(), Some(0.75));
    }
}
