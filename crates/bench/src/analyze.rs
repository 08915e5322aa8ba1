//! `repro analyze` — one subcommand whose view is read off the target:
//! - `repro analyze <experiment> [--quick]` re-runs the experiment's
//!   representative case with tracing enabled (the case `--trace` uses)
//!   and analyzes its spans plus flight-recorder step records;
//! - `repro analyze <report.json>` renders the host-cost view of a run
//!   report written by `repro report` (see `overset_analysis::host`). A
//!   file that is not a report — a Chrome trace included; it carries no
//!   step records — exits 2.
//!
//! Any other target, a directory included, is no run and exits 2.
//!
//! A trace analysis is the deterministic text report by default, the
//! versioned JSON analysis document with `--json`; the host view is text
//! only, so `--json` on a file exits 2. `-o <path>` writes instead of
//! printing. A live run that fails returns its error.

use crate::experiments::{traced_run, Effort};
use crate::report::check_representative;
use overset_analysis::{analyze, AnalysisInput};
use overset_comm::OversetError;
use std::path::Path;

struct AnalyzeCli {
    target: Option<String>,
    quick: bool,
    json: bool,
    out_path: Option<String>,
}

fn parse(args: &[String]) -> Result<AnalyzeCli, String> {
    let mut cli = AnalyzeCli { target: None, quick: false, json: false, out_path: None };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--json" => cli.json = true,
            "-o" | "--out" => match it.next() {
                Some(p) => cli.out_path = Some(p.clone()),
                None => return Err(format!("{a} requires an output path")),
            },
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other if cli.target.is_none() => cli.target = Some(other.to_string()),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    cli.target.is_some().then_some(()).ok_or_else(usage)?;
    Ok(cli)
}

fn usage() -> String {
    "usage: repro analyze <experiment> [--quick] [--json] [-o <path>]\n       \
     repro analyze <report.json> [-o <path>]"
        .to_string()
}

/// The trace analysis of one input, text or JSON. Degenerate inputs (no
/// spans, single rank, zero completed steps) get a clean diagnosis here
/// instead of a panic deeper in the pipeline.
fn trace_view(input: AnalysisInput, json: bool) -> Result<String, String> {
    input.validate()?;
    let a = analyze(&input);
    Ok(if json { a.to_value().to_json() } else { a.render_text() })
}

/// The host-cost view of a run-report file (per-phase host ms, peak heap,
/// hotspots, virtual-vs-host shares, allocation profile).
fn host_view(path: &str, json: bool) -> Result<String, String> {
    if json {
        return Err(format!("{path}: a report's host view is text only; --json is for traces"));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc =
        overset_report::json::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    overset_analysis::render_host_report(&doc).map_err(|e| format!("{path}: {e}"))
}

/// Entry point for the `analyze` subcommand; returns the process exit code,
/// or the error of the live run when it failed.
pub fn run_analyze(args: &[String]) -> Result<i32, OversetError> {
    let cli = match parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return Ok(2);
        }
    };
    let target = cli.target.as_deref().unwrap();
    let rendered = if Path::new(target).is_file() {
        host_view(target, cli.json)
    } else if let Err(e) = check_representative(target) {
        Err(format!("{e}\n(nor is {target} a report file)"))
    } else {
        let effort = if cli.quick { Effort::quick() } else { Effort::full() };
        let effort_name = if cli.quick { "quick" } else { "full" };
        let r = traced_run(target, effort)?;
        let source = format!("{target}/{effort_name}");
        trace_view(AnalysisInput::from_run(&source, &r.trace, r.step_records), cli.json)
    };
    let text = match rendered {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{e}");
            return Ok(2);
        }
    };
    match &cli.out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text.as_bytes()) {
                eprintln!("failed to write analysis to {path}: {e}");
                return Ok(2);
            }
            eprintln!("[analysis: {} bytes -> {path}]", text.len());
        }
        None => print!("{text}"),
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let c = parse(&s(&["table1", "--quick", "--json", "-o", "x.json"])).unwrap();
        assert_eq!(c.target.as_deref(), Some("table1"));
        assert!(c.quick && c.json);
        assert_eq!(c.out_path.as_deref(), Some("x.json"));
        assert!(parse(&s(&[])).is_err());
        assert!(parse(&s(&["a", "b"])).is_err());
        assert!(parse(&s(&["table1", "--bogus"])).is_err());
        assert!(parse(&s(&["table1", "-o"])).is_err());
    }

    #[test]
    fn degenerate_inputs_exit_2_with_a_diagnosis() {
        // A file is read as a run report: empty or a Chrome trace, it is none.
        let dir = std::env::temp_dir();
        let empty = dir.join("overset_analyze_empty_trace.json");
        std::fs::write(&empty, "").unwrap();
        assert_eq!(run_analyze(&s(&[empty.to_str().unwrap()])), Ok(2));
        let no_spans = dir.join("overset_analyze_no_spans.json");
        std::fs::write(&no_spans, "{\"traceEvents\": []}").unwrap();
        assert_eq!(run_analyze(&s(&[no_spans.to_str().unwrap()])), Ok(2));
        // A directory is no run, whatever it holds.
        assert_eq!(run_analyze(&s(&[dir.to_str().unwrap()])), Ok(2));

        let _ = std::fs::remove_file(&empty);
        let _ = std::fs::remove_file(&no_spans);
    }

    /// A report file gives its host view, as text only.
    #[test]
    fn report_file_gives_the_host_view_and_refuses_json() {
        let dir = std::env::temp_dir();
        let report = dir.join("overset_analyze_host_view.json");
        std::fs::write(&report, r#"{"cases": [], "host": {"phase_ms_by_rank": {}}}"#).unwrap();
        let r = report.to_str().unwrap();
        let out = dir.join("overset_analyze_host_view.txt");
        assert_eq!(run_analyze(&s(&[r, "-o", out.to_str().unwrap()])), Ok(0));
        assert!(std::fs::read_to_string(&out).unwrap().starts_with("== Host-cost analysis =="));
        assert_eq!(run_analyze(&s(&[r, "--json"])), Ok(2));
        let _ = std::fs::remove_file(&report);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn single_rank_and_zero_step_inputs_are_rejected_by_validate() {
        use overset_comm::{Phase, RankTrace, TraceEvent};
        let trace = |rank: usize, name: &'static str, phase: Phase| RankTrace {
            rank,
            events: vec![TraceEvent { cat: "phase", name, ts: 0.0, dur: 1.0, phase, args: vec![] }],
        };
        // Single rank: spans exist but the pairwise analyses are undefined.
        let one = [trace(0, "flow", Phase::Flow)];
        let e = AnalysisInput::from_run("one-rank", &one, Vec::new()).validate().unwrap_err();
        assert!(e.contains("single rank"), "{e}");

        // Two ranks, spans, but no completed step (no step records).
        let conn = Phase::Connectivity;
        let two = [trace(0, "connectivity", conn), trace(1, "connectivity", conn)];
        let e = AnalysisInput::from_run("no-steps", &two, Vec::new()).validate().unwrap_err();
        assert!(e.contains("no completed timesteps"), "{e}");
    }

    #[test]
    fn quick_experiment_analysis_is_deterministic_and_names_a_rank() {
        let effort = Effort::quick();
        let run = || {
            let r = traced_run("table1", effort).unwrap();
            let input = AnalysisInput::from_run("table1/quick", &r.trace, r.step_records);
            analyze(&input)
        };
        let a1 = run();
        let a2 = run();
        assert_eq!(a1.to_value().to_json(), a2.to_value().to_json());
        assert_eq!(a1.render_text(), a2.render_text());
        assert!(a1.findings.iter().any(|f| f.kind == "critical-rank"));
        assert!(a1.critical_path.total_elapsed > 0.0);
        assert!(!a1.critical_path.steps.is_empty());
    }
}
