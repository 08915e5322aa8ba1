//! `repro analyze` — one subcommand whose view is read off the target:
//! - `repro analyze <experiment> [--quick]` re-runs the experiment's
//!   representative case with tracing enabled (the case `--trace` uses)
//!   and analyzes the live spans plus flight-recorder step records;
//! - `repro analyze <dir>` reads the binary span-stream directory written
//!   by `repro <exp> --trace-stream <dir>`, which holds exactly those spans
//!   and step records, so the diagnosis equals the live one. A truncated
//!   stream (a rank's writer died mid-run) is diagnosed with exit 2 naming
//!   the gap, per rank;
//! - `repro analyze <report.json>` renders the host-cost view of a run
//!   report written by `repro report` (see `overset_analysis::host`). A
//!   file that is not a report — a Chrome trace included; it carries no
//!   step records — exits 2.
//!
//! A trace analysis is the deterministic text report by default, the
//! versioned JSON analysis document with `--json`; the host view is text
//! only, so `--json` on a file exits 2. `-o <path>` writes instead of
//! printing. A live run that fails returns its error.

use crate::experiments::{traced_run, Effort};
use crate::report::check_representative;
use overset_analysis::{analyze, AnalysisInput};
use overset_comm::trace::TraceConfig;
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
    "usage: repro analyze <experiment>|<span-dir> [--quick] [--json] [-o <path>]\n       \
     repro analyze <report.json> [-o <path>]"
        .to_string()
}

/// The analysis input a complete span-stream directory holds.
fn span_dir_input(dir: &str) -> Result<AnalysisInput, String> {
    let sd = overset_comm::read_span_dir(Path::new(dir)).map_err(|e| e.to_string())?;
    if !sd.gaps.is_empty() {
        let mut e =
            format!("{dir}: {} of {} rank streams incomplete:", sd.gaps.len(), sd.ranks.len());
        for g in &sd.gaps {
            e.push_str(&format!("\n  {g}"));
        }
        e.push_str(
            "\n(a truncated stream means that rank's writer died mid-run; the recovered \
             prefix is on disk but the analysis would silently understate its work)",
        );
        return Err(e);
    }
    Ok(AnalysisInput::from_run(dir, &sd.rank_traces(), sd.step_records()))
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
    let path = Path::new(target);
    let rendered = if path.is_dir() {
        span_dir_input(target).and_then(|input| trace_view(input, cli.json))
    } else if path.is_file() {
        host_view(target, cli.json)
    } else if let Err(e) = check_representative(target) {
        Err(format!("{e}\n(nor is {target} a span directory or a report file)"))
    } else {
        let effort = if cli.quick { Effort::quick() } else { Effort::full() };
        let effort_name = if cli.quick { "quick" } else { "full" };
        let r = traced_run(target, effort, TraceConfig::enabled())?;
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
        use overset_analysis::{RankSpans, Span};
        let span = |cat: &str, name: &str| Span {
            cat: cat.into(),
            name: name.into(),
            ts: 0.0,
            dur: 1.0,
            args: Vec::new(),
        };
        // Single rank: spans exist but the pairwise analyses are undefined.
        let one = AnalysisInput {
            source: "one-rank".into(),
            ranks: vec![RankSpans { rank: 0, spans: vec![span("phase", "flow")] }],
            steps: Vec::new(),
        };
        let e = one.validate().unwrap_err();
        assert!(e.contains("single rank"), "{e}");

        // Two ranks, spans, but no completed step (no step records).
        let no_steps = AnalysisInput {
            source: "no-steps".into(),
            ranks: vec![
                RankSpans { rank: 0, spans: vec![span("phase", "connectivity")] },
                RankSpans { rank: 1, spans: vec![span("phase", "connectivity")] },
            ],
            steps: Vec::new(),
        };
        let e = no_steps.validate().unwrap_err();
        assert!(e.contains("no completed timesteps"), "{e}");
    }

    #[test]
    fn span_dir_mode_analyzes_complete_streams_and_rejects_truncated_ones() {
        use overset_comm::{MachineModel, Phase, Universe};
        let dir = std::env::temp_dir().join("overset_bench_span_dir_mode");
        let _ = std::fs::remove_dir_all(&dir);
        Universe::builder()
            .ranks(2)
            .machine(&MachineModel::modern())
            .trace(TraceConfig::enabled().with_stream(&dir))
            .run(|c| {
                for _ in 0..2 {
                    let mut ph = c.phase(Phase::Flow);
                    ph.compute(100_000, overset_comm::WorkClass::Flow);
                    ph.barrier();
                    drop(ph);
                    c.end_step();
                }
            });
        let d = dir.to_str().unwrap().to_string();
        let out = dir.join("analysis.txt");
        assert_eq!(
            run_analyze(&[d.clone(), "-o".into(), out.to_str().unwrap().into()]),
            Ok(0),
            "complete span dir must analyze cleanly"
        );
        assert!(std::fs::read_to_string(&out).unwrap().contains("critical path"));

        // Chop the tail off rank 1's stream: the recovered prefix parses,
        // but analyze must refuse with exit 2 and name the gap.
        let victim = dir.join("rank-00001.spans");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 7]).unwrap();
        assert_eq!(run_analyze(&[d]), Ok(2));
        let sd = overset_comm::read_span_dir(&dir).unwrap();
        assert_eq!(sd.gaps.len(), 1);
        assert!(sd.gaps[0].starts_with("rank 1"), "{}", sd.gaps[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Offline analysis is live analysis: `table1 --quick` analysed live and
    /// from the span directory a `--trace-stream` run of it recorded yields
    /// the same document, `source` aside.
    #[test]
    fn span_dir_analysis_equals_live_analysis() {
        let effort = Effort::quick();
        let dir = std::env::temp_dir().join("overset_bench_live_vs_span_dir");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap().to_string();
        let r = traced_run("table1", effort, TraceConfig::enabled()).unwrap();
        let mut live = analyze(&AnalysisInput::from_run("table1/quick", &r.trace, r.step_records));
        live.source = d.clone();
        traced_run("table1", effort, TraceConfig::enabled().with_stream(&dir)).unwrap();
        let out = dir.join("analysis.json");
        let args = [d, "--json".into(), "-o".into(), out.to_str().unwrap().into()];
        assert_eq!(run_analyze(&args), Ok(0));
        assert_eq!(std::fs::read_to_string(&out).unwrap(), live.to_value().to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quick_experiment_analysis_is_deterministic_and_names_a_rank() {
        let effort = Effort::quick();
        let run = || {
            let r = traced_run("table1", effort, TraceConfig::enabled()).unwrap();
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
