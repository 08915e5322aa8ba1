//! Per-step critical path: which rank bounds elapsed virtual time, where.
//!
//! Every phase in the driver ends at a barrier, so a step's elapsed time is
//! exactly `Σ_phase max_rank t(rank, phase)` — the slowest rank of each
//! phase *is* the critical path through that phase. Attributing each
//! phase-max to its argmax rank and summing over the run yields a ranking
//! of critical-path contributors: the ranks that would have to get faster
//! for the run to get faster (everyone else's time is hidden behind waits).

use overset_comm::{RankTrace, StepRecord, NUM_PHASES};

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

/// Core computation over rank-major per-step phase-time tables
/// (`tables[rank][step][phase]`).
///
/// Phase time on every rank *includes* time spent blocked at the phase's
/// barrier — phases end synchronized, so raw durations are nearly equal
/// across ranks and say nothing about who bounds them. The argmax is
/// therefore taken over **work** = time − wait (per-step wait-state tables
/// from [`wait_tables_from_spans`]); the phase *elapsed* stays the raw
/// max-over-ranks, which is the true wall contribution.
pub fn from_phase_tables(
    step_ids: &[u64],
    tables: &[Vec<[f64; NUM_PHASES]>],
    waits: &[Vec<[f64; NUM_PHASES]>],
) -> CriticalPath {
    let nranks = tables.len();
    let nsteps = tables.iter().map(Vec::len).min().unwrap_or(0).min(step_ids.len());
    let mut cp = CriticalPath {
        nranks,
        rank_time: vec![0.0; nranks],
        rank_phase_time: vec![[0.0; NUM_PHASES]; nranks],
        ..CriticalPath::default()
    };
    let wait_of = |r: usize, s: usize, p: usize| -> f64 {
        waits.get(r).and_then(|w| w.get(s)).map_or(0.0, |w| w[p])
    };
    for s in 0..nsteps {
        let mut phase_elapsed = [0.0f64; NUM_PHASES];
        let mut phase_rank = [0usize; NUM_PHASES];
        let mut phase_work = [f64::NEG_INFINITY; NUM_PHASES];
        for (r, table) in tables.iter().enumerate() {
            for p in 0..NUM_PHASES {
                phase_elapsed[p] = phase_elapsed[p].max(table[s][p]);
                let work = (table[s][p] - wait_of(r, s, p)).max(0.0);
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
            step: step_ids[s],
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

/// Critical path from flight-recorder step records (exact per-step phase
/// deltas). `spans` supplies the wait states used for argmax attribution;
/// records and span-derived waits are aligned by step id
/// (`StepRecord::step` equals the index of the step's `flow` span).
pub fn from_step_records(steps: &[Vec<StepRecord>], spans: &[RankTrace]) -> CriticalPath {
    let step_ids: Vec<u64> = match steps.first() {
        Some(r0) => r0.iter().map(|rec| rec.step).collect(),
        None => Vec::new(),
    };
    let tables: Vec<Vec<[f64; NUM_PHASES]>> =
        steps.iter().map(|r| r.iter().map(|rec| rec.time).collect()).collect();
    let span_waits = wait_tables_from_spans(spans);
    let waits: Vec<Vec<[f64; NUM_PHASES]>> = steps
        .iter()
        .enumerate()
        .map(|(r, recs)| {
            recs.iter()
                .map(|rec| {
                    span_waits
                        .get(r)
                        .and_then(|w| w.get(rec.step as usize))
                        .copied()
                        .unwrap_or([0.0; NUM_PHASES])
                })
                .collect()
        })
        .collect();
    from_phase_tables(&step_ids, &tables, &waits)
}

/// Per-rank per-step per-phase *wait* time (late-sender recv stalls plus
/// wait-at-collective), located by the step/phase interval containing each
/// comm span. Step indices are span-step numbers (k-th `flow` span = step
/// k); spans outside any step are dropped.
pub fn wait_tables_from_spans(ranks: &[RankTrace]) -> Vec<Vec<[f64; NUM_PHASES]>> {
    use crate::input::StepPhaseIntervals;
    let (colls, _) = crate::waits::collective_waits(ranks);
    let mut out: Vec<Vec<[f64; NUM_PHASES]>> = Vec::with_capacity(ranks.len());
    for (i, r) in ranks.iter().enumerate() {
        let intervals = StepPhaseIntervals::build(&r.events);
        let nsteps = r.events.iter().filter(|s| s.cat == "phase" && s.name == "flow").count();
        let mut tab = vec![[0.0f64; NUM_PHASES]; nsteps];
        let mut add = |ts: f64, wait: f64| {
            if let Some((step, phase)) = intervals.locate(ts) {
                if step < tab.len() {
                    tab[step][phase] += wait;
                }
            }
        };
        for s in &r.events {
            if s.cat == "comm" && s.name == "recv" {
                add(s.ts, s.arg("stall").unwrap_or(s.dur));
            }
        }
        for &(ts, wait) in &colls[i] {
            add(ts, wait);
        }
        out.push(tab);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_rank_and_ranking_are_deterministic() {
        // 2 steps, 3 ranks; rank 2 dominates connectivity (phase 1).
        let t = |f: f64, c: f64| {
            let mut a = [0.0; NUM_PHASES];
            a[0] = f;
            a[1] = c;
            a
        };
        let tables = vec![
            vec![t(1.0, 1.0), t(1.0, 1.0)],
            vec![t(1.0, 1.0), t(1.0, 1.0)],
            vec![t(1.0, 5.0), t(1.0, 5.0)],
        ];
        let cp = from_phase_tables(&[0, 1], &tables, &[]);
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
}
