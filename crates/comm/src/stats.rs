//! Per-rank and aggregated performance statistics: the quantities the
//! paper's tables report (Mflops/node, parallel speedup, % time in DCF3D).

use crate::metrics::{traffic, Counter, Counts};
use crate::runtime::RankOutput;

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

/// Aggregated view over all ranks of a run: the table-row quantities. Times
/// are the ranks' phase timers, everything else their merged counters.
#[derive(Clone, Debug)]
pub struct PerfSummary {
    pub nranks: usize,
    /// Wall (virtual) time of the run: max over ranks of the final clock.
    pub wall_time: f64,
    /// Max over ranks of per-phase time. Phases are barrier-separated, so
    /// this is the exact per-phase elapsed (wall) time — the quantity the
    /// per-module speedup tables report.
    pub phase_elapsed: [f64; NUM_PHASES],
    /// Flops per phase, all ranks.
    pub flops: [f64; NUM_PHASES],
    /// Messages / payload bytes sent, all ranks and phases.
    pub msgs: u64,
    pub bytes: u64,
}

impl PerfSummary {
    /// Fold the ranks' phase timers and final clocks; flops and traffic are
    /// read off `counts`, the run's merged counter array.
    pub fn from_outputs<R>(outputs: &[RankOutput<R>], counts: &Counts) -> Self {
        let (msgs, bytes) = traffic(counts);
        let mut s = PerfSummary {
            nranks: outputs.len(),
            wall_time: 0.0,
            phase_elapsed: [0.0; NUM_PHASES],
            flops: Phase::ALL.map(|p| counts[Counter::flops_in(p) as usize] as f64),
            msgs,
            bytes,
        };
        for o in outputs {
            s.wall_time = s.wall_time.max(o.clock);
            for (max, &t) in s.phase_elapsed.iter_mut().zip(&o.time) {
                *max = max.max(t);
            }
        }
        s
    }

    /// Average Mflops per node: total flops / wall time / nodes / 1e6.
    pub fn mflops_per_node(&self) -> f64 {
        if self.wall_time == 0.0 {
            return 0.0;
        }
        self.flops.iter().sum::<f64>() / self.wall_time / self.nranks as f64 / 1.0e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn mk(flow: f64, conn: f64) -> RankOutput<()> {
        let mut time = [0.0; NUM_PHASES];
        time[Phase::Flow as usize] = flow;
        time[Phase::Connectivity as usize] = conn;
        RankOutput {
            result: (),
            time,
            clock: flow + conn,
            trace: Vec::new(),
            metrics: MetricsRegistry::new(),
            steps: Vec::new(),
            host_time: [0.0; NUM_PHASES],
            alloc: Default::default(),
        }
    }

    #[test]
    fn summary_aggregates() {
        let ranks = vec![mk(8.0, 2.0), mk(6.0, 4.0)];
        let mut counts = [0; Counter::COUNT];
        counts[Counter::CommMsgsFlow as usize] = 3;
        counts[Counter::CommMsgsBalance as usize] = 4;
        counts[Counter::CommBytesOther as usize] = 512;
        counts[Counter::FlopsFlow as usize] = 180_000_000;
        let s = PerfSummary::from_outputs(&ranks, &counts);
        assert_eq!((s.msgs, s.bytes), (7, 512));
        assert_eq!(s.nranks, 2);
        assert_eq!(s.wall_time, 10.0);
        assert_eq!(s.flops[Phase::Flow as usize], 180.0e6);
        // 180 Mflop over 10 s over 2 nodes = 9 Mflops/node.
        assert!((s.mflops_per_node() - 9.0).abs() < 1e-12);
        // Elapsed is the max over ranks, not the mean.
        assert_eq!(s.phase_elapsed[Phase::Flow as usize], 8.0);
        assert_eq!(s.phase_elapsed[Phase::Connectivity as usize], 4.0);
    }

    #[test]
    fn empty_phase_fraction_is_zero() {
        let s = PerfSummary::from_outputs(&[mk(0.0, 0.0)], &[0; Counter::COUNT]);
        assert_eq!(s.phase_elapsed, [0.0; NUM_PHASES]);
        assert_eq!(s.mflops_per_node(), 0.0);
    }
}
