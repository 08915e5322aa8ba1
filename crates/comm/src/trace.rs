//! Per-rank virtual-time event tracing with a Chrome/Perfetto
//! `trace_event` JSON exporter.
//!
//! Every span is recorded on the *virtual* clock, so a trace shows the
//! simulated machine's timeline (what the paper's SP2 was doing), not host
//! scheduling noise — and because virtual time is deterministic, two runs of
//! the same case export byte-identical JSON.
//!
//! Recording is zero-cost when disabled: the runtime holds `Option<Tracer>`
//! and every instrumentation point is a single `is_some` branch.
//!
//! Span taxonomy (categories): `phase` (RAII phase guards), `comm`
//! (send/recv/collectives), `compute` (kernel work by class), `conn`
//! (donor-search serve rounds), `solver` (halo/sweep stages), `lb`
//! (repartition). See docs/OBSERVABILITY.md.

use crate::stats::Phase;
use std::fmt::Write as _;

/// Tracing configuration for a universe: on or off. Enabled tracing records
/// every span in memory; the `Option<Tracer>` `is_some` branch at every
/// instrumentation point keeps disabled tracing zero-cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    pub enabled: bool,
}

impl TraceConfig {
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
    }

    pub fn disabled() -> Self {
        TraceConfig { enabled: false }
    }
}

/// Value of one span argument.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgVal {
    U64(u64),
    F64(f64),
    Str(String),
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> Self {
        ArgVal::U64(v)
    }
}

impl From<usize> for ArgVal {
    fn from(v: usize) -> Self {
        ArgVal::U64(v as u64)
    }
}

impl From<f64> for ArgVal {
    fn from(v: f64) -> Self {
        ArgVal::F64(v)
    }
}

impl From<&str> for ArgVal {
    fn from(v: &str) -> Self {
        ArgVal::Str(v.to_string())
    }
}

/// One completed span on a rank's virtual timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    pub cat: &'static str,
    pub name: &'static str,
    /// Start, virtual seconds.
    pub ts: f64,
    /// Duration, virtual seconds (>= 0).
    pub dur: f64,
    /// The phase the rank was in when it recorded the span; a `phase` span
    /// carries the phase it covers. Not exported: the Chrome JSON places a
    /// span by its timestamps.
    pub phase: Phase,
    pub args: Vec<(&'static str, ArgVal)>,
}

impl TraceEvent {
    /// Numeric argument `key` as `f64`; `None` when the span has no
    /// numeric argument of that name (string arguments included).
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find_map(|(k, v)| match v {
            ArgVal::U64(n) if *k == key => Some(*n as f64),
            ArgVal::F64(x) if *k == key => Some(*x),
            _ => None,
        })
    }
}

/// Per-rank span recorder: every closed span, in memory, in close order.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Vec<TraceEvent>,
}

impl Tracer {
    /// Record a completed span `[ts, ts + dur]` of `phase`.
    pub fn complete(
        &mut self,
        cat: &'static str,
        name: &'static str,
        ts: f64,
        dur: f64,
        phase: Phase,
        args: Vec<(&'static str, ArgVal)>,
    ) {
        // Observability must be allocation-invisible: a traced run and an
        // untraced run of the same case must report identical per-phase
        // alloc counts, so the event buffer grows with attribution suspended.
        let _quiet = crate::alloc::suspend();
        self.events.push(TraceEvent { cat, name, ts, dur: dur.max(0.0), phase, args });
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

/// The trace of one rank, as returned by a traced universe run.
#[derive(Clone, Debug, Default)]
pub struct RankTrace {
    pub rank: usize,
    pub events: Vec<TraceEvent>,
}

/// Append `s` to `out` escaped for a JSON string literal (quotes not
/// included) — the one escaper behind the trace, report and analysis
/// writers.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Format a non-negative virtual-seconds quantity as Chrome microseconds.
/// Fixed precision (3 decimals = nanosecond resolution) keeps the output
/// deterministic and viewer-friendly.
fn write_us(out: &mut String, seconds: f64) {
    let _ = write!(out, "{:.3}", seconds * 1.0e6);
}

fn write_arg(out: &mut String, v: &ArgVal) {
    match v {
        ArgVal::U64(x) => {
            let _ = write!(out, "{x}");
        }
        ArgVal::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        ArgVal::Str(s) => {
            out.push('"');
            escape_json(s, out);
            out.push('"');
        }
    }
}

/// Render one rank's process-metadata event (names the Chrome "process"
/// after the rank).
fn write_process_meta(out: &mut String, rank: usize) {
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\
         \"args\":{{\"name\":\"rank {rank}\"}}}}",
    );
}

/// Render one complete ("X") event, including its leading `,\n` separator.
fn write_event_json(out: &mut String, rank: usize, e: &TraceEvent) {
    let _ = write!(out, ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\"", e.name, e.cat);
    let _ = write!(out, ",\"pid\":{rank},\"tid\":0,\"ts\":");
    write_us(out, e.ts);
    out.push_str(",\"dur\":");
    write_us(out, e.dur);
    if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(k, out);
            out.push_str("\":");
            write_arg(out, v);
        }
        out.push('}');
    }
    out.push('}');
}

/// Export rank traces in the Chrome `trace_event` JSON format ("X" complete
/// events; one Chrome *process* per rank, timestamps in virtual
/// microseconds). Open the file in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
pub fn chrome_trace_json(ranks: &[RankTrace]) -> String {
    let total: usize = ranks.iter().map(|r| r.events.len()).sum();
    let mut out = String::with_capacity(128 + 160 * total);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for rt in ranks {
        if !first {
            out.push(',');
        }
        first = false;
        write_process_meta(&mut out, rt.rank);
        for e in &rt.events {
            write_event_json(&mut out, rt.rank, e);
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual\"}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exporter_produces_complete_events() {
        let mut t = Tracer::default();
        t.complete("phase", "flow", 0.0, 1.5e-3, Phase::Flow, vec![("step", ArgVal::U64(0))]);
        t.complete(
            "comm",
            "send",
            2.0e-3,
            1.0e-6,
            Phase::Flow,
            vec![("dst", 1usize.into()), ("bytes", 512usize.into())],
        );
        let json = chrome_trace_json(&[RankTrace { rank: 0, events: t.into_events() }]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"flow\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"dur\":1500.000"));
        assert!(json.contains("\"dst\":1"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn exporter_is_deterministic() {
        let mk = || {
            let mut t = Tracer::default();
            let flops = vec![("flops", ArgVal::F64(1.0e6))];
            t.complete("compute", "flow", 0.125, 0.25, Phase::Flow, flops);
            chrome_trace_json(&[RankTrace { rank: 3, events: t.into_events() }])
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn escaping_handles_specials() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn negative_durations_are_clamped() {
        let mut t = Tracer::default();
        t.complete("comm", "recv", 1.0, -0.5, Phase::Other, vec![]);
        assert_eq!(t.events()[0].dur, 0.0);
    }
}
