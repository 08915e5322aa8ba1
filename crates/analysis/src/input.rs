//! The analyzer's input and the phase intervals every pass locates spans in.
//!
//! The analyzer reads the recorder's own types: a run's
//! [`RankTrace`]s, borrowed, and its flight-recorder step records. Span
//! arguments are read through [`TraceEvent::arg`], which sees numeric
//! arguments only.

use overset_comm::{Phase, RankTrace, StepRecord, TraceEvent};

/// Index of the catch-all phase used when a span falls outside every phase
/// interval (or its phase name is unknown).
pub const PHASE_OTHER: usize = Phase::Other as usize;

/// Label of phase index `p` (a `Phase` discriminant).
pub fn phase_name(p: usize) -> &'static str {
    Phase::ALL[p].name()
}

/// Map a phase-span name to its discriminant, `PHASE_OTHER` when unknown.
pub fn phase_index(name: &str) -> usize {
    Phase::ALL.iter().position(|p| p.name() == name).unwrap_or(PHASE_OTHER)
}

/// Everything the analyzer consumes: a run's per-rank traces, as the
/// recorder returned them, and its flight-recorder step records
/// (rank-major), one record per rank per step.
#[derive(Clone, Debug)]
pub struct AnalysisInput<'a> {
    /// Human-readable provenance ("table1/quick", ...).
    pub source: String,
    pub ranks: &'a [RankTrace],
    pub steps: Vec<Vec<StepRecord>>,
}

impl<'a> AnalysisInput<'a> {
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Reject inputs the pipeline can say nothing meaningful about, with a
    /// message naming what was missing. Callers (the `repro analyze` CLI)
    /// turn the error into a clean exit instead of a panic or a
    /// divide-by-zero further down the pipeline.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks.iter().all(|r| r.events.is_empty()) {
            return Err(format!(
                "{}: trace contains no spans — nothing to analyze (was tracing enabled?)",
                self.source
            ));
        }
        if self.nranks() < 2 {
            return Err(format!(
                "{}: trace covers a single rank — wait states and the comm matrix need \
                 at least 2 ranks",
                self.source
            ));
        }
        if self.steps.iter().all(Vec::is_empty) {
            return Err(format!(
                "{}: no completed timesteps in the trace — the run recorded no step records",
                self.source
            ));
        }
        Ok(())
    }

    /// The input of a run's traces and flight-recorder step records.
    pub fn from_run(source: &str, trace: &'a [RankTrace], steps: Vec<Vec<StepRecord>>) -> Self {
        AnalysisInput { source: source.to_string(), ranks: trace, steps }
    }
}

/// Sorted phase intervals of one rank: which phase — and which timestep —
/// holds a virtual instant. Driver timesteps open with a `flow` phase;
/// intervals before the first `flow` span carry no step.
pub struct StepPhaseIntervals {
    /// `(start, end, phase_idx, step)` sorted by start.
    ivals: Vec<(f64, f64, usize, Option<usize>)>,
}

impl StepPhaseIntervals {
    pub fn build(spans: &[TraceEvent]) -> Self {
        let mut phases: Vec<(f64, f64, usize)> = spans
            .iter()
            .filter(|s| s.cat == "phase")
            .map(|s| (s.ts, s.ts + s.dur, phase_index(s.name)))
            .collect();
        // Phase spans are emitted at guard drop (end order); sort by start.
        phases.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.partial_cmp(&b.1).unwrap()));
        let mut step: Option<usize> = None;
        let ivals = phases
            .into_iter()
            .map(|(s, e, p)| {
                if p == 0 {
                    step = Some(step.map_or(0, |x| x + 1));
                }
                (s, e, p, step)
            })
            .collect();
        StepPhaseIntervals { ivals }
    }

    /// The interval containing virtual time `ts`. With nested guards the
    /// latest-starting (innermost) interval wins; the backward scan is
    /// bounded because phase nesting in this codebase is at most a few
    /// levels deep.
    fn containing(&self, ts: f64) -> Option<&(f64, f64, usize, Option<usize>)> {
        let i = self.ivals.partition_point(|iv| iv.0 <= ts);
        self.ivals[..i].iter().rev().take(8).find(|iv| ts <= iv.1 + 1e-12)
    }

    /// Phase containing virtual time `ts`; `PHASE_OTHER` when none does.
    pub fn phase_at(&self, ts: f64) -> usize {
        self.containing(ts).map_or(PHASE_OTHER, |iv| iv.2)
    }

    /// `(step, phase)` containing virtual time `ts`, if an interval with a
    /// step does.
    pub fn locate(&self, ts: f64) -> Option<(usize, usize)> {
        self.containing(ts).and_then(|iv| iv.3.map(|step| (step, iv.2)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, name: &'static str, ts: f64, dur: f64) -> TraceEvent {
        TraceEvent { cat, name, ts, dur, args: Vec::new() }
    }

    #[test]
    fn phase_attribution_picks_containing_interval() {
        let spans = vec![
            span("phase", "flow", 0.0, 1.0),
            span("phase", "connectivity", 1.0, 2.0),
            span("comm", "send", 0.5, 0.0),
        ];
        let iv = StepPhaseIntervals::build(&spans);
        assert_eq!(iv.phase_at(0.5), 0);
        assert_eq!(iv.phase_at(1.5), 1);
        assert_eq!(iv.phase_at(9.0), PHASE_OTHER);
    }

    #[test]
    fn nested_phase_intervals_resolve_to_innermost() {
        let spans =
            vec![span("phase", "connectivity", 0.0, 10.0), span("phase", "balance", 4.0, 2.0)];
        let iv = StepPhaseIntervals::build(&spans);
        assert_eq!(iv.phase_at(5.0), 3);
        assert_eq!(iv.phase_at(1.0), 1);
        assert_eq!(iv.phase_at(8.0), 1);
    }
}
