//! The repo benchmark: four host-timed overset workloads, four end-to-end
//! metrics, per-crate layer metrics and a traced run. See README.md.
//!
//! One executable plays both parts: the parent plans and reduces, and runs
//! itself with `--child` once per sample.

mod probes;
mod record;
mod sample;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use suite::{Limit, Plan, SuiteReport};
use workloads::Workload;

const USAGE: &str = "usage: run.sh [--workload NAME]... [--seed N] [--seconds S | --rounds R] \
[--trace 0|1] [--steps N] [--smoke] [--selfcheck] [--out DIR]
  --workload NAME --seconds S   one workload, measured for S seconds; the last line of the
                                output is one JSON object (--trace 0: end-to-end metrics,
                                --trace 1: per-layer metrics and a Chrome trace in DIR)
  without --seconds             the suite: R interleaved rounds (default 9) over the chosen
                                workloads (default all four), one traced sample and the layer
                                probes each; prints every metric, writes DIR/suite-seedN.json
  --steps N                     timesteps per timed run instead of the workload's own
  --smoke                       1 round with the store workloads at 4 steps
  --selfcheck                   two suites of the same build must agree within the bounds";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    rounds: Option<usize>,
    trace: bool,
    steps: Option<usize>,
    smoke: bool,
    selfcheck: bool,
    out: PathBuf,
    child: Option<String>,
    sample_id: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: None,
        rounds: None,
        trace: false,
        steps: None,
        smoke: false,
        selfcheck: false,
        out: PathBuf::from("benchmark/out"),
        child: None,
        sample_id: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read '{v}'"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workloads
                    .push(workloads::by_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => a.seed = num(&flag, value()?)?,
            "--seconds" => a.seconds = Some(num(&flag, value()?)?),
            "--rounds" => a.rounds = Some(num(&flag, value()?)?),
            "--trace" => a.trace = num::<u8>(&flag, value()?)? != 0,
            "--steps" => a.steps = Some(num(&flag, value()?)?),
            "--smoke" => a.smoke = true,
            "--selfcheck" => a.selfcheck = true,
            "--out" => a.out = PathBuf::from(value()?),
            "--child" => a.child = Some(value()?),
            "--sample-id" => a.sample_id = num(&flag, value()?)?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.steps.is_some_and(|n| n < 2) {
        return Err(
            "--steps must be at least 2: a steady step is the run minus its first step".into()
        );
    }
    if a.rounds == Some(0) {
        return Err("--rounds must be at least 1".into());
    }
    Ok(a)
}

fn write_out(dir: &Path, file: &str, text: &str) {
    let path = dir.join(file);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn print_report(report: &SuiteReport) {
    for w in &report.workloads {
        w.print();
    }
}

fn child_main(kind: &str, a: &Args) -> Result<(), String> {
    let [w] = a.workloads[..] else {
        return Err("--child needs exactly one --workload".into());
    };
    let steps = a.steps.unwrap_or(w.steps);
    let record = match kind {
        "sample" => sample::run_sample(&w, steps, false, a.sample_id),
        "traced" => sample::run_sample(&w, steps, true, a.sample_id),
        "reference" => sample::run_reference(&w, steps, a.sample_id),
        "probes" => probes::run_probes(&w, a.sample_id),
        other => return Err(format!("unknown child kind '{other}'")),
    };
    print!("{}", record.to_text());
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = &a.child {
        return match child_main(kind, &a) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }

    let chosen = if a.workloads.is_empty() { workloads::ALL.to_vec() } else { a.workloads.clone() };
    let steps_of = |w: &Workload| match a.steps {
        Some(n) => n,
        None if a.smoke && w.system == workloads::System::Store => 4,
        None => w.steps,
    };
    let mut plan = Plan {
        workloads: chosen.iter().map(|w| (*w, steps_of(w))).collect(),
        seed: a.seed,
        limit: Limit::Rounds(if a.smoke { 1 } else { a.rounds.unwrap_or(9) }),
        traced_rounds: 1,
        probes: true,
    };

    // Contract mode: one workload, a time budget, one JSON object last.
    if let Some(seconds) = a.seconds {
        let [(w, _)] = plan.workloads[..] else {
            eprintln!("--seconds needs exactly one --workload\n{USAGE}");
            return ExitCode::from(2);
        };
        plan.limit = Limit::Seconds(seconds);
        plan.traced_rounds = if a.trace { usize::MAX } else { 0 };
        plan.probes = a.trace;
        let report = suite::run_plan(&plan);
        print_report(&report);
        if a.trace {
            let file = format!("trace-{}-seed{}.json", w.name, a.seed);
            write_out(&a.out, &file, &spans::chrome_trace_json(&report.spans));
        }
        println!("{}", report.workloads[0].result_json(a.trace));
        return if report.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let report = suite::run_plan(&plan);
    print_report(&report);
    println!("\n[{} rounds in {} lanes, seed {}]", report.rounds, suite::lanes(), a.seed);
    write_out(&a.out, &format!("suite-seed{}.json", a.seed), &suite::suite_json(&report, a.seed));
    write_out(
        &a.out,
        &format!("trace-seed{}.json", a.seed),
        &spans::chrome_trace_json(&report.spans),
    );
    let mut failed = !report.correct();

    if a.selfcheck {
        println!("\n-- selfcheck: second set of the same build");
        let second = suite::run_plan(&plan);
        print_report(&second);
        failed |= !second.correct();
        let disagreements = suite::compare_sets(&report, &second);
        for d in &disagreements {
            println!("SELFCHECK {d}");
        }
        if disagreements.is_empty() {
            println!(
                "selfcheck: two sets of {} rounds agree on every end-to-end metric",
                report.rounds
            );
        }
        failed |= !disagreements.is_empty();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
