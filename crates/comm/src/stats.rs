//! Per-rank and aggregated performance statistics: the quantities the
//! paper's tables report (Mflops/node, parallel speedup, % time in DCF3D).

use crate::metrics::{traffic, Counts};
use crate::wire::{Wire, WireError, WireReader};

/// Execution phases matching the three-step OVERFLOW-D1 timestep loop (plus
/// balancing and a catch-all).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Flow = 0,
    Connectivity = 1,
    Motion = 2,
    Balance = 3,
    Other = 4,
}

pub const NUM_PHASES: usize = 5;

impl Phase {
    /// Every phase, in discriminant order: the one list of phases.
    pub const ALL: [Phase; NUM_PHASES] =
        [Phase::Flow, Phase::Connectivity, Phase::Motion, Phase::Balance, Phase::Other];

    /// Stable lowercase label used by metric names and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Flow => "flow",
            Phase::Connectivity => "connectivity",
            Phase::Motion => "motion",
            Phase::Balance => "balance",
            Phase::Other => "other",
        }
    }
}

/// Statistics accumulated by one rank over a run.
#[derive(Clone, Debug)]
pub struct RankStats {
    pub rank: usize,
    /// Virtual seconds spent per phase.
    pub time: [f64; NUM_PHASES],
    /// Flops performed per phase.
    pub flops: [f64; NUM_PHASES],
    /// Final virtual clock value.
    pub final_clock: f64,
}

impl RankStats {
    pub fn new(rank: usize) -> Self {
        RankStats { rank, time: [0.0; NUM_PHASES], flops: [0.0; NUM_PHASES], final_clock: 0.0 }
    }

    pub fn total_time(&self) -> f64 {
        self.time.iter().sum()
    }
}

// Rank statistics travel back from child processes to the parent, so the
// whole record is a wire type. Field order is fixed by the schema version.
impl Wire for RankStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.rank.encode(buf);
        self.time.encode(buf);
        self.flops.encode(buf);
        self.final_clock.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RankStats {
            rank: usize::decode(r)?,
            time: <[f64; NUM_PHASES]>::decode(r)?,
            flops: <[f64; NUM_PHASES]>::decode(r)?,
            final_clock: f64::decode(r)?,
        })
    }
}

/// Aggregated view over all ranks of a run: the table-row quantities.
#[derive(Clone, Debug)]
pub struct PerfSummary {
    pub nranks: usize,
    /// Wall (virtual) time of the run: max over ranks of the final clock.
    pub wall_time: f64,
    /// Sum over ranks of per-phase time.
    pub time: [f64; NUM_PHASES],
    /// Max over ranks of per-phase time. Phases are barrier-separated, so
    /// this is the exact per-phase elapsed (wall) time.
    pub phase_elapsed: [f64; NUM_PHASES],
    /// Sum over ranks of per-phase flops.
    pub flops: [f64; NUM_PHASES],
    /// Messages / payload bytes sent, all ranks and phases.
    pub msgs: u64,
    pub bytes: u64,
}

impl PerfSummary {
    /// Fold the ranks' statistics; the traffic totals are read off `counts`,
    /// the run's merged counter array.
    pub fn from_ranks(stats: &[RankStats], counts: &Counts) -> Self {
        let (msgs, bytes) = traffic(counts);
        let mut s = PerfSummary {
            nranks: stats.len(),
            wall_time: 0.0,
            time: [0.0; NUM_PHASES],
            phase_elapsed: [0.0; NUM_PHASES],
            flops: [0.0; NUM_PHASES],
            msgs,
            bytes,
        };
        for r in stats {
            s.wall_time = s.wall_time.max(r.final_clock);
            for p in 0..NUM_PHASES {
                s.time[p] += r.time[p];
                s.phase_elapsed[p] = s.phase_elapsed[p].max(r.time[p]);
                s.flops[p] += r.flops[p];
            }
        }
        s
    }

    /// Fraction of total (summed) time spent in the connectivity solution —
    /// the "% time in DCF3D" column of the paper's tables.
    pub fn connectivity_fraction(&self) -> f64 {
        let total: f64 = self.time.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        self.time[Phase::Connectivity as usize] / total
    }

    /// Average Mflops per node: total flops / wall time / nodes / 1e6.
    pub fn mflops_per_node(&self) -> f64 {
        if self.wall_time == 0.0 {
            return 0.0;
        }
        self.flops.iter().sum::<f64>() / self.wall_time / self.nranks as f64 / 1.0e6
    }

    /// Exact per-phase elapsed (wall) time: the max over ranks of the
    /// phase's virtual time. Phases are barrier-separated, so the slowest
    /// rank sets the elapsed time. This is the quantity the per-module
    /// speedup tables report.
    pub fn phase_time(&self, p: Phase) -> f64 {
        self.phase_elapsed[p as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Counter;

    fn mk(rank: usize, flow: f64, conn: f64, flops: f64) -> RankStats {
        let mut s = RankStats::new(rank);
        s.time[Phase::Flow as usize] = flow;
        s.time[Phase::Connectivity as usize] = conn;
        s.flops[Phase::Flow as usize] = flops;
        s.final_clock = flow + conn;
        s
    }

    #[test]
    fn summary_aggregates() {
        let ranks = vec![mk(0, 8.0, 2.0, 100.0e6), mk(1, 6.0, 4.0, 80.0e6)];
        let mut counts = [0; Counter::COUNT];
        counts[Counter::CommMsgsFlow as usize] = 3;
        counts[Counter::CommMsgsBalance as usize] = 4;
        counts[Counter::CommBytesOther as usize] = 512;
        let s = PerfSummary::from_ranks(&ranks, &counts);
        assert_eq!((s.msgs, s.bytes), (7, 512));
        assert_eq!(s.nranks, 2);
        assert_eq!(s.wall_time, 10.0);
        assert!((s.connectivity_fraction() - 6.0 / 20.0).abs() < 1e-12);
        // 180 Mflop over 10 s over 2 nodes = 9 Mflops/node.
        assert!((s.mflops_per_node() - 9.0).abs() < 1e-12);
        // Elapsed is the max over ranks, not the mean.
        assert!((s.phase_time(Phase::Flow) - 8.0).abs() < 1e-12);
        assert!((s.phase_time(Phase::Connectivity) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_phase_fraction_is_zero() {
        let s = PerfSummary::from_ranks(&[RankStats::new(0)], &[0; Counter::COUNT]);
        assert_eq!(s.connectivity_fraction(), 0.0);
        assert_eq!(s.mflops_per_node(), 0.0);
    }
}
