//! The analyzer's input: the recorder's own types, as a run returned them.
//!
//! A run's [`RankTrace`]s, borrowed, and its flight-recorder step records.
//! The runtime decides which phase and step everything belongs to: each
//! step record carries that step's waits per phase, and each span the
//! phase it was recorded in, so no pass here works either out again.

use overset_comm::{Phase, RankTrace, StepRecord, TraceEvent};

/// Label of phase index `p` (a `Phase` discriminant).
pub fn phase_name(p: usize) -> &'static str {
    Phase::ALL[p].name()
}

/// Numeric argument `key` of a span the runtime recorded. The runtime
/// writes every argument a span's name promises (docs/OBSERVABILITY.md), so
/// a missing one is a runtime bug.
pub(crate) fn arg(span: &TraceEvent, key: &str) -> f64 {
    span.arg(key).unwrap_or_else(|| panic!("{} span recorded without `{key}`", span.name))
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
