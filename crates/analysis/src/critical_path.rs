//! Per-step critical path: which rank bounds elapsed virtual time, where.
//!
//! Every phase in the driver ends at a barrier, so a step's elapsed time is
//! exactly `Σ_phase max_rank t(rank, phase)` — the slowest rank of each
//! phase *is* the critical path through that phase. Attributing each
//! phase-max to its argmax rank and summing over the run yields a ranking
//! of critical-path contributors: the ranks that would have to get faster
//! for the run to get faster (everyone else's time is hidden behind waits).

use overset_comm::{StepRecord, Wait, NUM_PHASES};

/// Critical-path decomposition of one timestep.
#[derive(Clone, Debug)]
pub struct StepCritical {
    pub step: u64,
    /// Elapsed virtual time of the step: `Σ_p phase_elapsed[p]`.
    pub elapsed: f64,
    /// Max-over-ranks time per phase.
    pub phase_elapsed: [f64; NUM_PHASES],
    /// Argmax rank per phase (lowest rank wins ties).
    pub phase_rank: [usize; NUM_PHASES],
    /// Phase with the largest elapsed time this step.
    pub dominant_phase: usize,
    /// The rank bounding the dominant phase.
    pub dominant_rank: usize,
}

/// Whole-run critical path.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    pub nranks: usize,
    pub steps: Vec<StepCritical>,
    /// `Σ` of step elapsed times.
    pub total_elapsed: f64,
    /// Critical-path time attributed to each rank (index = rank).
    pub rank_time: Vec<f64>,
    /// Same, split per phase.
    pub rank_phase_time: Vec<[f64; NUM_PHASES]>,
    /// Ranks sorted by `rank_time` descending (ties: lower rank first).
    pub ranking: Vec<usize>,
}

impl CriticalPath {
    /// Share (0..=1) of total critical-path time attributed to `rank`.
    pub fn rank_share(&self, rank: usize) -> f64 {
        if self.total_elapsed > 0.0 {
            self.rank_time[rank] / self.total_elapsed
        } else {
            0.0
        }
    }

    /// The phase where `rank` contributes most of its critical-path time.
    pub fn dominant_phase_of(&self, rank: usize) -> usize {
        argmax(&self.rank_phase_time[rank])
    }
}

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Critical path from flight-recorder step records (`steps[rank][step]`,
/// exact per-step phase deltas).
///
/// Phase time on every rank *includes* time spent waiting — phases end at a
/// barrier, so raw durations are nearly equal across ranks and say nothing
/// about who bounds them. The argmax is therefore taken over **work**: the
/// phase's time less the late-sender and collective waits the runtime
/// recorded in the same step record. The phase *elapsed* stays the raw
/// max-over-ranks, which is the true wall contribution.
pub fn from_step_records(steps: &[Vec<StepRecord>]) -> CriticalPath {
    let nranks = steps.len();
    let nsteps = steps.iter().map(Vec::len).min().unwrap_or(0);
    let mut cp = CriticalPath {
        nranks,
        rank_time: vec![0.0; nranks],
        rank_phase_time: vec![[0.0; NUM_PHASES]; nranks],
        ..CriticalPath::default()
    };
    for s in 0..nsteps {
        let mut phase_elapsed = [0.0f64; NUM_PHASES];
        let mut phase_rank = [0usize; NUM_PHASES];
        let mut phase_work = [f64::NEG_INFINITY; NUM_PHASES];
        for (r, recs) in steps.iter().enumerate() {
            let rec = &recs[s];
            for p in 0..NUM_PHASES {
                phase_elapsed[p] = phase_elapsed[p].max(rec.time[p]);
                let lost =
                    rec.wait[Wait::LateSender as usize][p] + rec.wait[Wait::Collective as usize][p];
                let work = (rec.time[p] - lost).max(0.0);
                // Strict `>` keeps the lowest rank on ties (deterministic).
                if work > phase_work[p] {
                    phase_work[p] = work;
                    phase_rank[p] = r;
                }
            }
        }
        let elapsed: f64 = phase_elapsed.iter().sum();
        for p in 0..NUM_PHASES {
            cp.rank_time[phase_rank[p]] += phase_elapsed[p];
            cp.rank_phase_time[phase_rank[p]][p] += phase_elapsed[p];
        }
        let dominant_phase = argmax(&phase_elapsed);
        cp.steps.push(StepCritical {
            step: steps[0][s].step,
            elapsed,
            phase_elapsed,
            phase_rank,
            dominant_phase,
            dominant_rank: phase_rank[dominant_phase],
        });
        cp.total_elapsed += elapsed;
    }
    let mut ranking: Vec<usize> = (0..nranks).collect();
    ranking
        .sort_by(|&a, &b| cp.rank_time[b].partial_cmp(&cp.rank_time[a]).unwrap().then(a.cmp(&b)));
    cp.ranking = ranking;
    cp
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_comm::Phase;

    #[test]
    fn argmax_rank_and_ranking_are_deterministic() {
        // 2 steps, 3 ranks; rank 2 dominates connectivity (phase 1).
        let t = |step: u64, f: f64, c: f64| {
            let mut rec = StepRecord { step, ..StepRecord::ZERO };
            rec.time[0] = f;
            rec.time[1] = c;
            rec
        };
        let steps = vec![
            vec![t(0, 1.0, 1.0), t(1, 1.0, 1.0)],
            vec![t(0, 1.0, 1.0), t(1, 1.0, 1.0)],
            vec![t(0, 1.0, 5.0), t(1, 1.0, 5.0)],
        ];
        let cp = from_step_records(&steps);
        assert_eq!(cp.steps.len(), 2);
        // Ties on flow go to rank 0; connectivity max is rank 2.
        assert_eq!(cp.steps[0].phase_rank[0], 0);
        assert_eq!(cp.steps[0].phase_rank[1], 2);
        assert_eq!(cp.steps[0].dominant_phase, 1);
        assert_eq!(cp.steps[0].dominant_rank, 2);
        assert!((cp.steps[0].elapsed - 6.0).abs() < 1e-12);
        assert_eq!(cp.ranking[0], 2);
        assert!((cp.rank_time[2] - 10.0).abs() < 1e-12);
        assert!((cp.total_elapsed - 12.0).abs() < 1e-12);
        assert_eq!(cp.dominant_phase_of(2), 1);
    }

    /// The rank that waits is not the rank that works: rank 0's longer
    /// flow time is all late-sender and collective wait, so rank 1 bounds
    /// the phase; late-receiver time is no loss and changes nothing.
    #[test]
    fn the_argmax_is_over_time_less_recorded_waits() {
        let flow = Phase::Flow as usize;
        let rec = |time: f64, late_sender: f64, collective: f64, late_receiver: f64| {
            let mut r = StepRecord::ZERO;
            r.time[flow] = time;
            r.wait[Wait::LateSender as usize][flow] = late_sender;
            r.wait[Wait::Collective as usize][flow] = collective;
            r.wait[Wait::LateReceiver as usize][flow] = late_receiver;
            vec![r]
        };
        let cp = from_step_records(&[rec(4.0, 1.0, 2.0, 0.0), rec(3.0, 0.0, 0.0, 3.0)]);
        assert_eq!(cp.steps[0].phase_rank[flow], 1);
        assert_eq!(cp.steps[0].phase_elapsed[flow], 4.0);
        assert_eq!(cp.ranking, vec![1, 0]);
    }
}
