//! `repro report` / `repro compare`: machine-readable run reports and the
//! exact verdict between two of them (see `overset-report`).
//!
//! A report always carries two runs: the experiment family's
//! *representative* case (the same one `--trace` uses) and a *dynamic-LB*
//! store-separation run, so every report exercises Algorithm 2's
//! repartition path regardless of which experiment was asked for. When the
//! representative case already is the dynamic store run (the table5
//! family), the extra run is skipped.

use crate::experiments::{tuned, Effort};
use overflow_d::{
    airfoil_case, delta_wing_case, run_case, store_case, CaseConfig, LbConfig, RunResult,
};
use overset_comm::{MachineModel, OversetError, Phase, NUM_PHASES};
use overset_report::json::obj;
use overset_report::{case_report, run_report, Value};

/// The grid system an experiment's representative case runs.
#[derive(Clone, Copy, PartialEq)]
enum Family {
    Airfoil,
    DeltaWing,
    Store,
    DynamicStore,
}

/// Every experiment with a representative case, and its family. `fig12`
/// and `ablate-grouping` run Algorithm 3 outside the rank runtime, so they
/// have none; `verify-shapes` and `all` take the first table's airfoil.
const REPRESENTATIVE: [(&str, Family); 17] = [
    ("table1", Family::Airfoil),
    ("fig5", Family::Airfoil),
    ("table2", Family::Airfoil),
    ("table3", Family::DeltaWing),
    ("fig7", Family::DeltaWing),
    ("table4", Family::Store),
    ("fig10", Family::Store),
    ("table5", Family::DynamicStore),
    ("fig11", Family::DynamicStore),
    ("table6", Family::Store),
    ("scaling", Family::Store),
    ("ablate-restart", Family::Airfoil),
    ("ablate-sixdof", Family::Store),
    ("ablate-fo", Family::DynamicStore),
    ("ablate-cache", Family::Airfoil),
    ("verify-shapes", Family::Airfoil),
    ("all", Family::Airfoil),
];

fn family(which: &str) -> Option<Family> {
    REPRESENTATIVE.iter().find(|(name, _)| *name == which).map(|&(_, f)| f)
}

/// `Err` naming `which` unless it has a representative case — checked by
/// `report`, `analyze` and `--trace` before anything runs.
pub fn check_representative(which: &str) -> Result<(), String> {
    match family(which) {
        Some(_) => Ok(()),
        None => Err(format!(
            "{which}: no representative case to run; experiments with one: {}",
            REPRESENTATIVE.map(|(name, _)| name).join(" ")
        )),
    }
}

/// The experiment's representative case and node count — the one
/// `traced_run` and `repro report` run — or `None` for a name without one.
pub fn representative_case(which: &str, e: Effort) -> Option<(CaseConfig, usize)> {
    let (cfg, nodes) = match family(which)? {
        Family::Airfoil => (airfoil_case(e.scale2d, e.steps2d), 6),
        Family::DeltaWing => (delta_wing_case(e.scale3d, e.steps3d), 7),
        Family::Store => (store_case(e.scale3d, e.steps3d), 16),
        Family::DynamicStore => (dynamic_store_case(e), DYN_NODES),
    };
    Some((tuned(cfg, e), nodes))
}

/// Node count for the dynamic-LB store run. Must exceed the store system's
/// 16 grids: at exactly one processor per grid, Algorithm 2 can never
/// honour a grant (every other grid must keep >= 1 processor), so no
/// repartition would ever fire.
const DYN_NODES: usize = 18;

/// The dynamic-load-balance store run included in every report: f_o = 3
/// (the table5 threshold), checked every 4 steps, long enough to cross the
/// first check interval even at `--quick` effort.
fn dynamic_store_case(e: Effort) -> CaseConfig {
    let mut c = tuned(store_case(e.scale3d, e.steps3d.max(10)), e);
    c.lb = LbConfig::dynamic(3.0, 4);
    c
}

/// Run the report's cases, untraced, and assemble the report document, or
/// return the error of a run that failed. Everything except the `host`
/// section is virtual-time deterministic. Panics unless
/// [`check_representative`] accepts `which`.
pub fn build_report(which: &str, e: Effort, effort_name: &str) -> Result<Value, OversetError> {
    let machine = MachineModel::ibm_sp2();
    let (rep_cfg, rep_nodes) = representative_case(which, e)
        .expect("report of an experiment without a representative case");
    let mut runs: Vec<(&str, CaseConfig, usize)> = vec![("representative", rep_cfg, rep_nodes)];
    if family(which) != Some(Family::DynamicStore) {
        runs.push(("dynamic-lb", dynamic_store_case(e), DYN_NODES));
    }

    let mut cases = Vec::with_capacity(runs.len());
    let mut host_cases: Vec<(String, Value)> = Vec::with_capacity(runs.len());
    let mut host_phases: Vec<(String, Value)> = Vec::with_capacity(runs.len());
    let mut host_by_rank: Vec<(String, Value)> = Vec::with_capacity(runs.len());
    let mut alloc_peaks: Vec<(String, Value)> = Vec::with_capacity(runs.len());
    let t_total = std::time::Instant::now();
    for (label, cfg, nodes) in runs {
        let t0 = std::time::Instant::now();
        let r: RunResult = run_case(&cfg, nodes, &machine)?;
        host_cases.push((label.to_string(), Value::Num(t0.elapsed().as_secs_f64())));
        host_phases.push((label.to_string(), host_phase_ms(&r.host_phase_elapsed)));
        host_by_rank.push((
            label.to_string(),
            Value::Arr(r.host_phase_by_rank.iter().map(host_phase_ms).collect()),
        ));
        let peak = r.alloc_by_rank.iter().map(|a| a.peak_bytes).max().unwrap_or(0);
        alloc_peaks.push((label.to_string(), Value::Num(peak as f64)));
        cases.push(case_report(label, &cfg, machine.name, &r));
    }
    let host = obj(vec![
        ("wall_seconds", Value::Obj(host_cases)),
        ("phase_ms", Value::Obj(host_phases)),
        ("phase_ms_by_rank", Value::Obj(host_by_rank)),
        ("alloc_peak_bytes", Value::Obj(alloc_peaks)),
        ("total_seconds", Value::Num(t_total.elapsed().as_secs_f64())),
    ]);
    Ok(run_report(which, effort_name, cases, Some(host)))
}

/// Host wall-clock milliseconds per phase — the runtime's `Instant`-based
/// timers, folded into the report's `host` section, which `repro compare`
/// never reads.
fn host_phase_ms(elapsed: &[f64; NUM_PHASES]) -> Value {
    Value::Obj(
        Phase::ALL
            .iter()
            .zip(elapsed)
            .map(|(phase, &secs)| (phase.name().to_string(), Value::Num(secs * 1e3)))
            .collect(),
    )
}

/// Differences printed on FAIL; the rest are counted.
const SHOWN_DIFFERENCES: usize = 20;

/// `repro compare` entry point: parse both documents, compare, print the
/// verdict. Returns the process exit code (0 identical, 1 a difference, 2
/// error).
pub fn compare_reports(baseline_path: &str, new_path: &str) -> i32 {
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        overset_report::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = match (read(baseline_path), read(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    match overset_report::compare(&base, &new) {
        Ok(out) => {
            if out.passed() {
                println!("PASS: {} value(s) identical to {baseline_path}", out.checked);
                return 0;
            }
            let diffs = &out.differences;
            println!(
                "FAIL: {} of {} value(s) differ from {baseline_path}:",
                diffs.len(),
                out.checked
            );
            for d in diffs.iter().take(SHOWN_DIFFERENCES) {
                println!("  {}", d.describe());
            }
            if diffs.len() > SHOWN_DIFFERENCES {
                println!("  ... and {} more", diffs.len() - SHOWN_DIFFERENCES);
            }
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}
