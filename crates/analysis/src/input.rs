//! Owned span model and input adapters.
//!
//! The tracer's [`overset_comm::TraceEvent`] uses `&'static str` names — fine in-process,
//! impossible to materialize from a trace *file*. The analyzer therefore
//! works on an owned [`Span`] mirror (string category/name, numeric-only
//! args) with two constructors: straight from a live run's `RankTrace`s, or
//! re-parsed from the Chrome `trace_event` JSON that `repro --trace` wrote.

use overset_comm::{ArgVal, RankTrace, StepRecord, NUM_PHASES};
use overset_report::{parse, Value};

/// Phase labels in discriminant order (matches `Phase::name()`).
pub const PHASE_NAMES: [&str; NUM_PHASES] = ["flow", "connectivity", "motion", "balance", "other"];

/// Index of the catch-all phase used when a span falls outside every phase
/// interval (or its phase name is unknown).
pub const PHASE_OTHER: usize = NUM_PHASES - 1;

/// Map a phase-span name to its discriminant, `PHASE_OTHER` when unknown.
pub fn phase_index(name: &str) -> usize {
    PHASE_NAMES.iter().position(|&p| p == name).unwrap_or(PHASE_OTHER)
}

/// One completed span, owned and numeric-only (string args are dropped —
/// nothing the analyzer computes reads them).
#[derive(Clone, Debug)]
pub struct Span {
    pub cat: String,
    pub name: String,
    /// Start, virtual seconds.
    pub ts: f64,
    /// Duration, virtual seconds.
    pub dur: f64,
    pub args: Vec<(String, f64)>,
}

impl Span {
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// All spans recorded on one rank, in recording order.
#[derive(Clone, Debug)]
pub struct RankSpans {
    pub rank: usize,
    pub spans: Vec<Span>,
}

/// Everything the analyzer consumes. `steps` (flight-recorder records,
/// rank-major) is present for live runs and empty in trace-file mode, where
/// per-step structure is reconstructed from phase spans instead.
#[derive(Clone, Debug)]
pub struct AnalysisInput {
    /// Human-readable provenance ("table1/quick", a file path, ...).
    pub source: String,
    pub ranks: Vec<RankSpans>,
    pub steps: Vec<Vec<StepRecord>>,
}

impl AnalysisInput {
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Reject inputs the pipeline can say nothing meaningful about, with a
    /// message naming what was missing. Callers (the `repro analyze` CLI)
    /// turn the error into a clean exit instead of a panic or a
    /// divide-by-zero further down the pipeline.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranks.iter().all(|r| r.spans.is_empty()) {
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
        let has_steps = self.steps.iter().any(|r| !r.is_empty())
            || self
                .ranks
                .iter()
                .any(|r| r.spans.iter().any(|s| s.cat == "phase" && s.name == "flow"));
        if !has_steps {
            return Err(format!(
                "{}: no completed timesteps in the trace — need step records or at least \
                 one `flow` phase span to reconstruct per-step structure",
                self.source
            ));
        }
        Ok(())
    }

    /// Adapt a live run's traces (and optionally its flight-recorder step
    /// records) for analysis.
    pub fn from_run(source: &str, trace: &[RankTrace], steps: Vec<Vec<StepRecord>>) -> Self {
        let ranks = trace
            .iter()
            .map(|rt| RankSpans {
                rank: rt.rank,
                spans: rt
                    .events
                    .iter()
                    .map(|e| Span {
                        cat: e.cat.to_string(),
                        name: e.name.to_string(),
                        ts: e.ts,
                        dur: e.dur,
                        args: e
                            .args
                            .iter()
                            .filter_map(|(k, v)| match v {
                                ArgVal::U64(n) => Some((k.to_string(), *n as f64)),
                                ArgVal::F64(x) => Some((k.to_string(), *x)),
                                ArgVal::Str(_) => None,
                            })
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        AnalysisInput { source: source.to_string(), ranks, steps: sanitize_steps(steps) }
    }

    /// Re-parse a Chrome `trace_event` JSON document written by
    /// [`overset_comm::chrome_trace_json`]. `pid` is the rank; `ts`/`dur`
    /// come back in microseconds and are converted to virtual seconds.
    pub fn from_chrome_trace(source: &str, json: &str) -> Result<Self, String> {
        let doc = parse(json)?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or("trace file has no traceEvents array")?;
        let mut ranks: Vec<RankSpans> = Vec::new();
        for e in events {
            // Skip metadata ("M") and anything that is not a complete span.
            if e.get("ph").and_then(Value::as_str) != Some("X") {
                continue;
            }
            let pid =
                e.get("pid").and_then(Value::as_u64).ok_or("span event missing pid")? as usize;
            let name = e.get("name").and_then(Value::as_str).ok_or("span event missing name")?;
            let cat = e.get("cat").and_then(Value::as_str).unwrap_or("");
            let ts = e.get("ts").and_then(Value::as_f64).ok_or("span event missing ts")? / 1e6;
            let dur = e.get("dur").and_then(Value::as_f64).unwrap_or(0.0) / 1e6;
            let args = match e.get("args") {
                Some(Value::Obj(pairs)) => {
                    pairs.iter().filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x))).collect()
                }
                _ => Vec::new(),
            };
            while ranks.len() <= pid {
                let rank = ranks.len();
                ranks.push(RankSpans { rank, spans: Vec::new() });
            }
            ranks[pid].spans.push(Span {
                cat: cat.to_string(),
                name: name.to_string(),
                ts,
                dur,
                args,
            });
        }
        Ok(AnalysisInput { source: source.to_string(), ranks, steps: Vec::new() })
    }
}

/// Trim per-rank step records to a common length (the flight-recorder ring
/// can in principle leave ranks with unequal retained windows).
fn sanitize_steps(steps: Vec<Vec<StepRecord>>) -> Vec<Vec<StepRecord>> {
    if steps.is_empty() {
        return steps;
    }
    let n = steps.iter().map(Vec::len).min().unwrap_or(0);
    if n == 0 {
        return Vec::new();
    }
    steps
        .into_iter()
        .map(|mut r| {
            let drop = r.len() - n;
            r.drain(..drop);
            r
        })
        .collect()
}

/// Sorted phase intervals of one rank, for attributing arbitrary spans to
/// the phase that contains them.
pub struct PhaseIntervals {
    /// `(start, end, phase_idx)` sorted by start.
    ivals: Vec<(f64, f64, usize)>,
}

impl PhaseIntervals {
    pub fn build(spans: &[Span]) -> Self {
        let mut ivals: Vec<(f64, f64, usize)> = spans
            .iter()
            .filter(|s| s.cat == "phase")
            .map(|s| (s.ts, s.ts + s.dur, phase_index(&s.name)))
            .collect();
        // Phase spans are emitted at guard drop (end order); sort by start.
        ivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.partial_cmp(&b.1).unwrap()));
        PhaseIntervals { ivals }
    }

    /// Phase containing virtual time `ts`; `PHASE_OTHER` when none does.
    /// With nested guards the latest-starting (innermost) interval wins;
    /// the backward scan is bounded because phase nesting in this codebase
    /// is at most a few levels deep.
    pub fn phase_at(&self, ts: f64) -> usize {
        let i = self.ivals.partition_point(|iv| iv.0 <= ts);
        for iv in self.ivals[..i].iter().rev().take(8) {
            if ts <= iv.1 + 1e-12 {
                return iv.2;
            }
        }
        PHASE_OTHER
    }
}

/// Like [`PhaseIntervals`], but additionally tracks which *timestep* each
/// phase interval belongs to (driver timesteps open with a `flow` phase;
/// intervals before the first `flow` span carry no step).
pub struct StepPhaseIntervals {
    /// `(start, end, phase_idx, step)` sorted by start.
    ivals: Vec<(f64, f64, usize, Option<usize>)>,
}

impl StepPhaseIntervals {
    pub fn build(spans: &[Span]) -> Self {
        let mut phases: Vec<(f64, f64, usize)> = spans
            .iter()
            .filter(|s| s.cat == "phase")
            .map(|s| (s.ts, s.ts + s.dur, phase_index(&s.name)))
            .collect();
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

    /// `(step, phase)` containing virtual time `ts`, if any interval (with
    /// a step) does. Same innermost-wins rule as [`PhaseIntervals`].
    pub fn locate(&self, ts: f64) -> Option<(usize, usize)> {
        let i = self.ivals.partition_point(|iv| iv.0 <= ts);
        for iv in self.ivals[..i].iter().rev().take(8) {
            if ts <= iv.1 + 1e-12 {
                return iv.3.map(|step| (step, iv.2));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &str, name: &str, ts: f64, dur: f64) -> Span {
        Span { cat: cat.into(), name: name.into(), ts, dur, args: Vec::new() }
    }

    #[test]
    fn phase_attribution_picks_containing_interval() {
        let spans = vec![
            span("phase", "flow", 0.0, 1.0),
            span("phase", "connectivity", 1.0, 2.0),
            span("comm", "send", 0.5, 0.0),
        ];
        let iv = PhaseIntervals::build(&spans);
        assert_eq!(iv.phase_at(0.5), 0);
        assert_eq!(iv.phase_at(1.5), 1);
        assert_eq!(iv.phase_at(9.0), PHASE_OTHER);
    }

    #[test]
    fn nested_phase_intervals_resolve_to_innermost() {
        let spans =
            vec![span("phase", "connectivity", 0.0, 10.0), span("phase", "balance", 4.0, 2.0)];
        let iv = PhaseIntervals::build(&spans);
        assert_eq!(iv.phase_at(5.0), 3);
        assert_eq!(iv.phase_at(1.0), 1);
        assert_eq!(iv.phase_at(8.0), 1);
    }

    #[test]
    fn chrome_trace_roundtrip() {
        use overset_comm::{chrome_trace_json, ArgVal, RankTrace, TraceEvent};
        let trace = vec![RankTrace {
            rank: 0,
            events: vec![TraceEvent {
                cat: "comm",
                name: "send",
                ts: 1.0e-3,
                dur: 2.0e-6,
                args: vec![("dst", ArgVal::U64(1)), ("bytes", ArgVal::U64(64))],
            }],
        }];
        let json = chrome_trace_json(&trace);
        let input = AnalysisInput::from_chrome_trace("t", &json).unwrap();
        assert_eq!(input.nranks(), 1);
        let s = &input.ranks[0].spans[0];
        assert_eq!(s.name, "send");
        assert!((s.ts - 1.0e-3).abs() < 1e-9);
        assert!((s.dur - 2.0e-6).abs() < 1e-9);
        assert_eq!(s.arg("dst"), Some(1.0));
        assert_eq!(s.arg("bytes"), Some(64.0));
    }
}
