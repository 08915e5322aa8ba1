//! `repro` — regenerate the paper's tables and figures, emit machine-readable
//! run reports, and gate perf regressions.
//!
//! Usage:
//!   `repro <experiment> [--quick] [--max-threads <N>] [--trace <out.json>]`
//!   `repro report <experiment> [--quick] [--max-threads <N>] [-o <out.json>]`
//!   `repro compare <baseline.json> <new.json>`
//!   `repro analyze <experiment> [--quick] [--json] [-o <path>]`
//!   `repro analyze <report.json> [-o <path>]`
//!
//! where experiment is one of `table1 fig5 table2 table3 fig7 table4 fig10
//! table5 fig11 table6 fig12 scaling ablate-restart ablate-sixdof ablate-fo
//! ablate-grouping ablate-cache verify-shapes all`.
//!
//! `repro <experiment>` exits 0 on success, 1 on a failed run or a FAIL,
//! and 2 on a usage error. A failed run ends the command with one line on
//! stderr, `error: <the run's error>`, e.g. `error: rank 5 panicked in
//! phase flow: non-physical state at step 17, ...`; `report` and `analyze`
//! exit the same way when a run fails.
//!
//! `verify-shapes` checks the shapes the reproduction targets (DESIGN.md §4)
//! and prints one named verdict line each — PASS, FAIL, or XFAIL for the one
//! recorded as not reproducing; it exits 1 on any FAIL and on the
//! unexpected pass of an XFAIL.
//!
//! `--max-threads N` caps the OS threads running an experiment's virtual
//! ranks: the comm runtime multiplexes the ranks onto `N` workers (M:N
//! mode). All virtual-time results are bit-identical to the default
//! rank-per-thread mode; the flag exists so large rank counts — notably the
//! `scaling` experiment's 1024-rank rows — run on ordinary hosts.
//!
//! `--trace` re-runs the experiment's representative case with event
//! tracing enabled and writes a Chrome `trace_event` JSON (load it in
//! `chrome://tracing` or Perfetto; one "process" per rank, virtual-time
//! axis). A traced run records every span, in memory. `fig12` and
//! `ablate-grouping` run outside the rank runtime and have no
//! representative case: `--trace`, `report` and `analyze` refuse them with
//! exit 2.
//!
//! `report` writes a versioned JSON report (per-step telemetry series,
//! end-of-run summary, metrics dump, allocation attribution, host
//! wall-clock — see docs/OBSERVABILITY.md) from untraced runs, and exits 2
//! when given `--trace`; `compare` exits 0 when every
//! value under the two reports' `cases` is identical (the wall-clock `host`
//! section is not read), 1 on any difference — printing the first 20 by
//! dotted path — and 2 on usage/IO errors or a schema-version mismatch.
//!
//! `analyze` takes its view from the target: an experiment's representative
//! case, run traced, gives the trace analysis (critical path, wait states,
//! comm matrix, imbalance advisor — see docs/OBSERVABILITY.md §Analysis); a
//! report file gives its host-cost view (per-phase host ms, peak heap,
//! hotspots, virtual-vs-host shares, allocation profile).

use overset_bench::amr_experiments::{ablate_grouping, fig12};
use overset_bench::analyze::run_analyze;
use overset_bench::experiments::*;
use overset_bench::report::{build_report, check_representative, compare_reports};
use overset_comm::OversetError;

fn run_compare(args: &[String]) -> i32 {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown flag: {flag}");
        return 2;
    }
    let [baseline, new] = args else {
        eprintln!("usage: repro compare <baseline.json> <new.json>");
        return 2;
    };
    compare_reports(baseline, new)
}

#[derive(Debug)]
struct Cli {
    which: String,
    quick: bool,
    trace_path: Option<String>,
    out_path: Option<String>,
    max_threads: Option<usize>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        which: "all".to_string(),
        quick: false,
        trace_path: None,
        out_path: None,
        max_threads: None,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--trace" => match it.next() {
                Some(p) => cli.trace_path = Some(p.clone()),
                None => return Err("--trace requires an output path".to_string()),
            },
            "-o" | "--out" => match it.next() {
                Some(p) => cli.out_path = Some(p.clone()),
                None => return Err(format!("{a} requires an output path")),
            },
            "--max-threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cli.max_threads = Some(n),
                _ => return Err("--max-threads requires an integer >= 1".to_string()),
            },
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            // One experiment per run: a word before it names a subcommand
            // this binary does not have.
            _ if named => return Err(format!("unknown subcommand: {}", cli.which)),
            other => {
                cli.which = other.to_string();
                named = true;
            }
        }
    }
    // A traced run re-runs the representative case: refuse a name without
    // one before the experiment itself runs.
    if cli.trace_path.is_some() {
        check_representative(&cli.which)?;
    }
    Ok(cli)
}

/// The effort a command line asks for: quick or full size, plus the
/// scheduler flag.
fn effort_from(cli: &Cli) -> Effort {
    let mut effort = if cli.quick { Effort::quick() } else { Effort::full() };
    effort.max_threads = cli.max_threads;
    effort
}

/// Print a flag error and exit 2 — shared by every `Result`-returning parser.
fn exit_usage<T>(r: Result<T, String>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

fn run_report_cmd(args: &[String]) -> Result<i32, OversetError> {
    let cli = exit_usage(parse_cli(args));
    // Reports run untraced and print nothing but the document.
    if cli.trace_path.is_some() {
        eprintln!("report does not support --trace (run the experiment itself with it)");
        return Ok(2);
    }
    if let Err(e) = check_representative(&cli.which) {
        eprintln!("{e}");
        return Ok(2);
    }
    let effort = effort_from(&cli);
    let effort_name = if cli.quick { "quick" } else { "full" };
    let text = build_report(&cli.which, effort, effort_name)?.to_json();
    match &cli.out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text.as_bytes()) {
                eprintln!("failed to write report to {path}: {e}");
                return Ok(2);
            }
            eprintln!("[report: {} bytes -> {path}]", text.len());
        }
        None => println!("{text}"),
    }
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => Ok(run_compare(&args[1..])),
        Some("report") => run_report_cmd(&args[1..]),
        Some("analyze") => run_analyze(&args[1..]),
        _ => run_experiment(&args),
    };
    std::process::exit(outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        1
    }));
}

/// `repro <experiment>`, plus the traced re-run its flags ask for; returns
/// the exit code, or the error of the first run that failed.
fn run_experiment(args: &[String]) -> Result<i32, OversetError> {
    let cli = exit_usage(parse_cli(args));
    let effort = effort_from(&cli);
    let which = cli.which.clone();

    let t0 = std::time::Instant::now();
    match which.as_str() {
        "table1" => print_perf_table("Table 1: 2D oscillating airfoil", &table1(effort)?),
        "fig5" => print_module_speedups("Fig. 5: 2D oscillating airfoil", &table1(effort)?),
        "table2" => table2(effort)?,
        "table3" => print_perf_table("Table 3: descending delta wing", &table3(effort)?),
        "fig7" => print_module_speedups("Fig. 7: descending delta wing", &table3(effort)?),
        "table4" => print_perf_table("Table 4: finned-store separation", &table4(effort)?),
        "fig10" => print_module_speedups("Fig. 10: finned-store separation", &table4(effort)?),
        "table5" | "fig11" => table5(effort)?,
        "table6" => table6(effort)?,
        "fig12" => fig12(4),
        "scaling" => scaling(effort)?,
        "ablate-restart" => ablate_restart(effort)?,
        "ablate-sixdof" => ablate_sixdof(effort)?,
        "ablate-fo" => ablate_fo(effort)?,
        "ablate-grouping" => ablate_grouping(),
        "ablate-cache" => ablate_cache(effort)?,
        "verify-shapes" => {
            let rc = verify_shapes(effort)?;
            if rc != 0 {
                return Ok(rc);
            }
        }
        "all" => {
            let rows1 = table1(effort)?;
            print_perf_table("Table 1: 2D oscillating airfoil", &rows1);
            print_module_speedups("Fig. 5: 2D oscillating airfoil", &rows1);
            table2(effort)?;
            let rows3 = table3(effort)?;
            print_perf_table("Table 3: descending delta wing", &rows3);
            print_module_speedups("Fig. 7: descending delta wing", &rows3);
            let rows4 = table4(effort)?;
            print_perf_table("Table 4: finned-store separation", &rows4);
            print_module_speedups("Fig. 10: finned-store separation", &rows4);
            table5(effort)?;
            table6(effort)?;
            fig12(4);
            ablate_restart(effort)?;
            ablate_sixdof(effort)?;
            ablate_fo(effort)?;
            ablate_grouping();
            ablate_cache(effort)?;
        }
        other => {
            eprintln!("unknown experiment: {other}");
            eprintln!(
                "choose from: table1 fig5 table2 table3 fig7 table4 fig10 table5 fig11 \
                 table6 fig12 scaling ablate-restart ablate-sixdof ablate-fo ablate-grouping \
                 ablate-cache verify-shapes all\n\
                 or a subcommand: report <experiment> | \
                 compare <baseline.json> <new.json> | analyze <experiment>|<report.json>"
            );
            return Ok(2);
        }
    }

    if let Some(path) = &cli.trace_path {
        let r = traced_run(&which, effort)?;
        let json = overset_comm::chrome_trace_json(&r.trace);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("failed to write trace to {path}: {e}");
            return Ok(1);
        }
        let events: usize = r.trace.iter().map(|t| t.events.len()).sum();
        eprintln!("[trace: {events} events over {} ranks -> {path}]", r.trace.len());
    }

    eprintln!("\n[{which} completed in {:?}]", t0.elapsed());
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// `--trace-stream` is an unknown flag, with or without `--trace`.
    #[test]
    fn trace_stream_is_an_unknown_flag() {
        for args in [
            &["table1", "--trace-stream", "d"][..],
            &["table1", "--trace", "t", "--trace-stream", "d"],
        ] {
            assert_eq!(parse_cli(&s(args)).unwrap_err(), "unknown flag: --trace-stream");
        }
    }

    /// The retired feature flags (and a flag the restart switch never had)
    /// are rejected like any other unknown flag.
    #[test]
    fn retired_feature_flags_are_unknown() {
        for flag in ["--no-inverse-map", "--no-arena", "--no-simd", "--no-restart"] {
            let e = parse_cli(&s(&["table1", flag, "--quick"])).unwrap_err();
            assert_eq!(e, format!("unknown flag: {flag}"));
        }
    }

    /// The compare tolerance, the host-bench repeat count, the `bench-host`
    /// and `analyze-diff` subcommands, the metrics and host-profile dumps
    /// and `analyze --host` are gone too.
    #[test]
    fn retired_gate_flags_are_unknown() {
        for flag in ["--repeats", "--metrics", "--host-profile"] {
            let e = parse_cli(&s(&["table1", flag, "--quick"])).unwrap_err();
            assert_eq!(e, format!("unknown flag: {flag}"));
        }
        let e = parse_cli(&s(&["bench-host", "table1", "--quick"])).unwrap_err();
        assert_eq!(e, "unknown subcommand: bench-host");
        let e = parse_cli(&s(&["analyze-diff", "a.json", "b.json"])).unwrap_err();
        assert_eq!(e, "unknown subcommand: analyze-diff");
        assert_eq!(run_compare(&s(&["a.json", "b.json", "--tol-pct", "5"])), 2);
        assert_eq!(run_compare(&s(&["a.json"])), 2);
        assert_eq!(run_analyze(&s(&["r.json", "--host"])), Ok(2));
    }

    /// An experiment without a representative case — `fig12` and
    /// `ablate-grouping` run outside the rank runtime — or an unknown name
    /// is refused by `report`, `analyze` and `--trace` before anything runs,
    /// naming it.
    #[test]
    fn experiments_without_a_representative_case_exit_2() {
        for which in ["nonsense", "fig12", "ablate-grouping"] {
            assert_eq!(run_report_cmd(&s(&[which, "--quick"])), Ok(2), "{which}");
            assert_eq!(run_analyze(&s(&[which, "--quick"])), Ok(2), "{which}");
            let e = parse_cli(&s(&[which, "--trace", "out"])).unwrap_err();
            assert!(e.starts_with(&format!("{which}: no representative case")), "{e}");
        }
        assert!(parse_cli(&s(&["verify-shapes", "--quick", "--trace", "t.json"])).is_ok());
    }

    /// `report` runs untraced and prints only the document, so `--trace`
    /// is refused before anything runs.
    #[test]
    fn report_rejects_flags_it_does_not_honour() {
        assert_eq!(run_report_cmd(&s(&["table1", "--quick", "--trace", "t.json"])), Ok(2));
        let cli = parse_cli(&s(&["table1", "--quick", "-o", "r.json", "--max-threads", "2"]));
        assert!(cli.unwrap().trace_path.is_none());
    }
}
