//! `repro analyze` — run the trace analyzer on an experiment or on a
//! recorded span directory — and `repro analyze-diff` to compare two
//! analysis documents.
//!
//! Two input modes feed one pipeline the same spans and step records:
//! - `repro analyze <experiment> [--quick]` re-runs the experiment's
//!   representative case with tracing enabled (same case `--trace` uses)
//!   and analyzes the live spans plus flight-recorder step records;
//! - `repro analyze <dir>` reads the binary span-stream directory written
//!   by `repro <exp> --trace-stream <dir>`, which holds exactly those spans
//!   and step records, so the diagnosis equals the live one. A truncated
//!   stream (a rank's writer died mid-run) is diagnosed with exit 2 naming
//!   the gap, per rank.
//!
//! Any other target — a Chrome trace file included; it carries no step
//! records — exits 2. `repro analyze <report.json> --host` renders the
//! host-cost view of a run report instead.
//!
//! Output is the deterministic text report by default, the versioned JSON
//! analysis document with `--json`; `-o <path>` writes instead of printing.
//!
//! `repro analyze-diff <a.json> <b.json>` diffs two `repro analyze --json`
//! documents: critical-path and per-phase deltas plus per-rank wait-state
//! regressions, each regressed late-sender wait attributed to its culprit
//! sender-side span (see docs/OBSERVABILITY.md §Analysis diffing).

use crate::experiments::{traced_run, Effort};
use overset_analysis::{analyze, AnalysisInput};
use overset_comm::trace::TraceConfig;

const EXPERIMENTS: [&str; 17] = [
    "scaling",
    "table1",
    "fig5",
    "table2",
    "table3",
    "fig7",
    "table4",
    "fig10",
    "table5",
    "fig11",
    "table6",
    "fig12",
    "ablate-restart",
    "ablate-sixdof",
    "ablate-fo",
    "ablate-grouping",
    "ablate-cache",
];

struct AnalyzeCli {
    target: Option<String>,
    quick: bool,
    json: bool,
    host: bool,
    out_path: Option<String>,
}

fn parse(args: &[String]) -> Result<AnalyzeCli, String> {
    let mut cli =
        AnalyzeCli { target: None, quick: false, json: false, host: false, out_path: None };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--json" => cli.json = true,
            "--host" => cli.host = true,
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
    if cli.host && cli.json {
        return Err("--host renders a text report; it cannot be combined with --json".to_string());
    }
    Ok(cli)
}

fn usage() -> String {
    "usage: repro analyze <experiment>|<span-dir> [--quick] [--json] [-o <path>]\n       \
     repro analyze <report.json> --host [-o <path>]"
        .to_string()
}

/// `repro analyze --host <report.json>`: render the host-cost view of a
/// run-report document (top host hotspots, virtual-vs-host disagreement,
/// allocation profile — see `overset_analysis::host`).
fn run_analyze_host(target: &str, out_path: &Option<String>) -> i32 {
    let text = match std::fs::read_to_string(target) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {target}: {e}");
            return 2;
        }
    };
    let doc = match overset_report::json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{target}: not valid JSON: {e}");
            return 2;
        }
    };
    let rendered = match overset_analysis::render_host_report(&doc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{target}: {e}");
            return 2;
        }
    };
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered.as_bytes()) {
                eprintln!("failed to write host analysis to {path}: {e}");
                return 2;
            }
            eprintln!("[host analysis: {} bytes -> {path}]", rendered.len());
        }
        None => print!("{rendered}"),
    }
    0
}

/// Entry point for the `analyze` subcommand; returns the process exit code.
pub fn run_analyze(args: &[String]) -> i32 {
    let cli = match parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let target = cli.target.as_deref().unwrap();
    if cli.host {
        return run_analyze_host(target, &cli.out_path);
    }

    let input = if std::path::Path::new(target).is_dir() {
        let sd = match overset_comm::read_span_dir(std::path::Path::new(target)) {
            Ok(sd) => sd,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        if !sd.gaps.is_empty() {
            eprintln!("{target}: {} of {} rank streams incomplete:", sd.gaps.len(), sd.ranks.len());
            for g in &sd.gaps {
                eprintln!("  {g}");
            }
            eprintln!(
                "(a truncated stream means that rank's writer died mid-run; the recovered \
                       prefix is on disk but the analysis would silently understate its work)"
            );
            return 2;
        }
        AnalysisInput::from_run(target, &sd.rank_traces(), sd.step_records())
    } else if EXPERIMENTS.contains(&target) {
        let effort = if cli.quick { Effort::quick() } else { Effort::full() };
        let effort_name = if cli.quick { "quick" } else { "full" };
        let r = traced_run(target, effort, TraceConfig::enabled());
        AnalysisInput::from_run(&format!("{target}/{effort_name}"), &r.trace, r.step_records)
    } else {
        eprintln!(
            "{target}: not a span directory or experiment; record with `--trace-stream <dir>`"
        );
        eprintln!("experiments: {}", EXPERIMENTS.join(" "));
        return 2;
    };

    // Degenerate inputs (no spans, single rank, zero completed steps) get a
    // clean diagnosis here instead of a panic deeper in the pipeline.
    if let Err(e) = input.validate() {
        eprintln!("{e}");
        return 2;
    }

    let a = analyze(&input);
    let text = if cli.json { a.to_value().to_json() } else { a.render_text() };
    match &cli.out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text.as_bytes()) {
                eprintln!("failed to write analysis to {path}: {e}");
                return 2;
            }
            eprintln!("[analysis: {} bytes -> {path}]", text.len());
        }
        None => print!("{text}"),
    }
    0
}

struct DiffCli {
    a: String,
    b: String,
    json: bool,
    out_path: Option<String>,
}

fn parse_diff(args: &[String]) -> Result<DiffCli, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut json = false;
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "-o" | "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => return Err(format!("{a} requires an output path")),
            },
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() != 2 {
        return Err(
            "usage: repro analyze-diff <baseline.json> <new.json> [--json] [-o <path>]".to_string()
        );
    }
    let b = paths.pop().unwrap();
    let a = paths.pop().unwrap();
    Ok(DiffCli { a, b, json, out_path })
}

fn load_analysis(path: &str) -> Result<overset_report::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    overset_report::json::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))
}

/// Entry point for the `analyze-diff` subcommand; returns the process exit
/// code (0 = diff rendered, regressions included advisorily; 2 = usage/IO).
pub fn run_analyze_diff(args: &[String]) -> i32 {
    let cli = match parse_diff(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let (a, b) = match (load_analysis(&cli.a), load_analysis(&cli.b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let d = match overset_analysis::diff(&a, &b) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("analyze-diff: {e}");
            return 2;
        }
    };
    let text = if cli.json { d.to_value().to_json() } else { d.render_text() };
    match &cli.out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text.as_bytes()) {
                eprintln!("failed to write diff to {path}: {e}");
                return 2;
            }
            eprintln!("[diff: {} bytes -> {path}]", text.len());
        }
        None => print!("{text}"),
    }
    0
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
        // A file is not an analysis input, empty or a Chrome trace alike.
        let dir = std::env::temp_dir();
        let empty = dir.join("overset_analyze_empty_trace.json");
        std::fs::write(&empty, "").unwrap();
        assert_eq!(run_analyze(&s(&[empty.to_str().unwrap()])), 2);
        let no_spans = dir.join("overset_analyze_no_spans.json");
        std::fs::write(&no_spans, "{\"traceEvents\": []}").unwrap();
        assert_eq!(run_analyze(&s(&[no_spans.to_str().unwrap()])), 2);

        let _ = std::fs::remove_file(&empty);
        let _ = std::fs::remove_file(&no_spans);
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
    fn diff_flag_parsing() {
        let c = parse_diff(&s(&["a.json", "b.json", "--json", "-o", "d.json"])).unwrap();
        assert_eq!(c.a, "a.json");
        assert_eq!(c.b, "b.json");
        assert!(c.json);
        assert_eq!(c.out_path.as_deref(), Some("d.json"));
        assert!(parse_diff(&s(&[])).is_err());
        assert!(parse_diff(&s(&["a.json"])).is_err());
        assert!(parse_diff(&s(&["a", "b", "c"])).is_err());
        assert!(parse_diff(&s(&["a", "b", "--bogus"])).is_err());
        assert!(parse_diff(&s(&["a", "b", "-o"])).is_err());
    }

    #[test]
    fn analyze_diff_exits_2_on_unreadable_or_malformed_inputs() {
        let dir = std::env::temp_dir();
        let missing = dir.join("overset_diff_missing.json");
        let _ = std::fs::remove_file(&missing);
        let garbage = dir.join("overset_diff_garbage.json");
        std::fs::write(&garbage, "not json").unwrap();
        let g = garbage.to_str().unwrap().to_string();
        assert_eq!(run_analyze_diff(&[missing.to_str().unwrap().to_string(), g.clone()]), 2);
        assert_eq!(run_analyze_diff(&[g.clone(), g]), 2);
        let _ = std::fs::remove_file(&garbage);
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
                    ph.compute(1.0e5, overset_comm::WorkClass::Flow);
                    ph.barrier();
                    drop(ph);
                    c.end_step();
                }
            });
        let d = dir.to_str().unwrap().to_string();
        let out = dir.join("analysis.txt");
        assert_eq!(
            run_analyze(&[d.clone(), "-o".into(), out.to_str().unwrap().into()]),
            0,
            "complete span dir must analyze cleanly"
        );
        assert!(std::fs::read_to_string(&out).unwrap().contains("critical path"));

        // Chop the tail off rank 1's stream: the recovered prefix parses,
        // but analyze must refuse with exit 2 and name the gap.
        let victim = dir.join("rank-00001.spans");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 7]).unwrap();
        assert_eq!(run_analyze(&[d]), 2);
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
        let r = traced_run("table1", effort, TraceConfig::enabled());
        let mut live = analyze(&AnalysisInput::from_run("table1/quick", &r.trace, r.step_records));
        live.source = d.clone();
        traced_run("table1", effort, TraceConfig::enabled().with_stream(&dir));
        let out = dir.join("analysis.json");
        let args = [d, "--json".into(), "-o".into(), out.to_str().unwrap().into()];
        assert_eq!(run_analyze(&args), 0);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), live.to_value().to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quick_experiment_analysis_is_deterministic_and_names_a_rank() {
        let effort = Effort::quick();
        let run = || {
            let r = traced_run("table1", effort, TraceConfig::enabled());
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
