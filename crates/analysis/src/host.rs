//! `repro analyze <report.json>`: the host-cost view of a run report.
//!
//! The other analyses explain *virtual* time — where the simulated machine
//! spends its seconds. This one explains *host* cost: each phase's
//! wall-clock (max and median over ranks) and the peak heap per case,
//! which phase×rank cells burn the most wall-clock on the machine actually
//! running the simulation, where the `MachineModel`'s virtual share
//! disagrees with the measured host share (a misprediction worth
//! retuning), and what the deterministic allocation profile looks like per
//! phase and rank.
//!
//! Input is a report document written by `repro report` (not an analysis
//! document), whose runs were untraced, so the host numbers carry no
//! tracer cost. Rendering is a pure function of the document, so the
//! output is byte-deterministic and golden-tested; the *wall-clock numbers
//! inside* the document are machine-dependent, the allocation numbers are
//! not.

use overset_comm::Phase;
use overset_report::Value;
use std::fmt::Write as _;

/// Hotspot rows shown in the top-N table.
pub const HOST_TOP_N: usize = 10;

/// Flag a virtual-vs-host disagreement when the measured host share of a
/// phase differs from its virtual share by more than this factor (and the
/// larger of the two shares is at least [`SHARE_FLOOR`]).
pub const DISAGREE_FACTOR: f64 = 2.0;

/// Phase shares below this fraction are noise on both axes; never flagged.
pub const SHARE_FLOOR: f64 = 0.02;

/// Render the host-cost report for a run-report document. Errors are
/// structural (not a report, missing `host` section or per-rank timings).
pub fn render_host_report(doc: &Value) -> Result<String, String> {
    let cases = doc
        .get("cases")
        .and_then(Value::as_arr)
        .ok_or("not a run report: no cases array (expected `repro report` output)")?;
    let host = doc
        .get("host")
        .ok_or("report has no host section; regenerate it with a current `repro report`")?;
    let Some(Value::Obj(per_rank)) = host.get("phase_ms_by_rank") else {
        return Err("report has no host.phase_ms_by_rank; regenerate it with a current \
                    `repro report`"
            .into());
    };

    let mut out = String::new();
    let _ = writeln!(out, "== Host-cost analysis ==");
    render_phase_profile(&mut out, cases, host);
    render_hotspots(&mut out, per_rank);
    render_disagreement(&mut out, cases, host);
    render_alloc_profile(&mut out, cases);
    Ok(out)
}

/// Per case, each phase's host milliseconds — the max over ranks
/// (`host.phase_ms`) and the median over ranks (`host.phase_ms_by_rank`,
/// the lower median for an even rank count) — and the peak heap, max over
/// ranks (`host.alloc_peak_bytes`).
fn render_phase_profile(out: &mut String, cases: &[Value], host: &Value) {
    let _ = writeln!(out, "\n-- Host phase ms (max / median over ranks) and peak heap --");
    let mut wrote = false;
    for case in cases {
        let label = case.get("label").and_then(Value::as_str).unwrap_or("?");
        let Some(max_ms) = host.get("phase_ms").and_then(|p| p.get(label)) else { continue };
        let ranks = host.get("phase_ms_by_rank").and_then(|p| p.get(label)).and_then(Value::as_arr);
        wrote = true;
        let _ = writeln!(out, "  {label:<18} {:<14} {:>12} {:>12}", "phase", "max ms", "median ms");
        for phase in Phase::ALL {
            let name = phase.name();
            let mut ms: Vec<f64> = ranks
                .into_iter()
                .flatten()
                .filter_map(|r| r.get(name).and_then(Value::as_f64))
                .collect();
            ms.sort_by(f64::total_cmp);
            let median = ms.get(ms.len().saturating_sub(1) / 2).copied().unwrap_or(0.0);
            let max = max_ms.get(name).and_then(Value::as_f64).unwrap_or(0.0);
            let _ = writeln!(out, "  {:<18} {name:<14} {max:>12.2} {median:>12.2}", "");
        }
        if let Some(peak) = host.get("alloc_peak_bytes").and_then(|p| p.get(label)) {
            let peak = peak.as_f64().unwrap_or(0.0) as u64;
            let _ = writeln!(out, "  {:<18} peak heap (max over ranks): {peak} bytes", "");
        }
    }
    if !wrote {
        let _ = writeln!(out, "  (no host phase timings in this report)");
    }
}

/// Top-N host phase×rank hotspots across all cases, from the per-rank
/// series `host.phase_ms_by_rank` (`{label: [{phase: ms}, ...]}`).
fn render_hotspots(out: &mut String, per_rank: &[(String, Value)]) {
    // (ms, label, phase index, rank label) — sorted by ms descending, ties
    // broken textually so equal timings render in a stable order.
    let mut rows: Vec<(f64, &str, usize, String)> = Vec::new();
    for (label, ranks) in per_rank {
        let Some(ranks) = ranks.as_arr() else { continue };
        for (rank, phases) in ranks.iter().enumerate() {
            for (p, phase) in Phase::ALL.iter().enumerate() {
                if let Some(ms) = phases.get(phase.name()).and_then(Value::as_f64) {
                    rows.push((ms, label, p, rank.to_string()));
                }
            }
        }
    }
    rows.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| a.1.cmp(b.1))
            .then_with(|| a.2.cmp(&b.2))
            .then_with(|| a.3.cmp(&b.3))
    });
    let _ = writeln!(out, "\n-- Top {HOST_TOP_N} host hotspots (phase x rank) --");
    if rows.is_empty() {
        let _ = writeln!(out, "  (no host phase timings in this report)");
        return;
    }
    let _ = writeln!(out, "  {:<18} {:<14} {:>5} {:>12}", "case", "phase", "rank", "host ms");
    for (ms, label, p, rank) in rows.iter().take(HOST_TOP_N) {
        let _ =
            writeln!(out, "  {:<18} {:<14} {:>5} {:>12.2}", label, Phase::ALL[*p].name(), rank, ms);
    }
}

/// Virtual-vs-host share table: for each case, the fraction of time each
/// phase takes on the virtual axis (`summary.t_<phase>`, the machine
/// model's prediction) next to its fraction of measured host wall-clock.
/// Rows where the two disagree by more than [`DISAGREE_FACTOR`] are
/// flagged — the `MachineModel` misprices that phase's work on this host.
fn render_disagreement(out: &mut String, cases: &[Value], host: &Value) {
    let _ = writeln!(out, "\n-- Virtual vs host phase shares --");
    let mut wrote = false;
    for case in cases {
        let label = case.get("label").and_then(Value::as_str).unwrap_or("?");
        let Some(summary) = case.get("summary") else { continue };
        let Some(hphases) = host.get("phase_ms").and_then(|p| p.get(label)) else { continue };
        let virt: Vec<f64> = Phase::ALL
            .iter()
            .map(|p| summary.get(&format!("t_{}", p.name())).and_then(Value::as_f64).unwrap_or(0.0))
            .collect();
        let hms: Vec<f64> = Phase::ALL
            .iter()
            .map(|p| hphases.get(p.name()).and_then(Value::as_f64).unwrap_or(0.0))
            .collect();
        let (vt, ht): (f64, f64) = (virt.iter().sum(), hms.iter().sum());
        // A corrupt or hand-edited report can carry `inf`/`nan` timings
        // (e.g. `1e999` in the JSON). A non-finite total would render NaN
        // shares and nonsense flags for *every* row of the case, so such
        // cases are skipped exactly like empty ones.
        if !vt.is_finite() || !ht.is_finite() || vt <= 0.0 || ht <= 0.0 {
            continue;
        }
        wrote = true;
        let _ =
            writeln!(out, "  {label:<18} {:<14} {:>10} {:>10}   flag", "phase", "virtual", "host");
        for (p, phase) in Phase::ALL.iter().enumerate() {
            let name = phase.name();
            let vs = virt[p] / vt;
            let hs = hms[p] / ht;
            let disagree = vs.max(hs) >= SHARE_FLOOR
                && (hs > vs * DISAGREE_FACTOR || vs > hs * DISAGREE_FACTOR);
            let _ =
                write!(out, "  {:<18} {:<14} {:>9.1}% {:>9.1}%", "", name, vs * 100.0, hs * 100.0);
            if disagree {
                let _ = write!(out, "   << model misprediction");
            }
            let _ = writeln!(out);
        }
    }
    if !wrote {
        let _ = writeln!(out, "  (no cases with both virtual and host phase timings)");
    }
}

/// Deterministic allocation profile per case: counts and bytes by phase
/// (summed over ranks) and the heaviest-allocating ranks.
fn render_alloc_profile(out: &mut String, cases: &[Value]) {
    let _ = writeln!(out, "\n-- Allocation profile (deterministic) --");
    let mut wrote = false;
    for case in cases {
        let label = case.get("label").and_then(Value::as_str).unwrap_or("?");
        let Some(alloc) = case.get("alloc") else { continue };
        let (Some(allocs), Some(bytes)) = (alloc.get("allocs"), alloc.get("bytes")) else {
            continue;
        };
        wrote = true;
        let _ = writeln!(out, "  {:<18} {:<14} {:>12} {:>16}", label, "phase", "allocs", "bytes");
        for name in Phase::ALL.map(Phase::name) {
            let a = allocs.get(name).and_then(Value::as_f64).unwrap_or(0.0);
            let b = bytes.get(name).and_then(Value::as_f64).unwrap_or(0.0);
            let _ = writeln!(out, "  {:<18} {:<14} {:>12} {:>16}", "", name, a as u64, b as u64);
        }
        let _ = writeln!(
            out,
            "  {:<18} {:<14} {:>12} {:>16}",
            "",
            "total",
            allocs.get("total").and_then(Value::as_f64).unwrap_or(0.0) as u64,
            bytes.get("total").and_then(Value::as_f64).unwrap_or(0.0) as u64
        );
        if let Some(by_rank) = alloc.get("by_rank").and_then(Value::as_arr) {
            let mut ranks: Vec<(usize, u64)> = by_rank
                .iter()
                .enumerate()
                .map(|(r, v)| (r, v.get("bytes").and_then(Value::as_f64).unwrap_or(0.0) as u64))
                .collect();
            ranks.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let top: Vec<String> =
                ranks.iter().take(4).map(|(r, b)| format!("rank {r}: {b} B")).collect();
            let _ = writeln!(out, "  top allocating ranks: {}", top.join(", "));
        }
    }
    if !wrote {
        let _ = writeln!(
            out,
            "  (no alloc sections in this report; regenerate with a current `repro report`)"
        );
    }
}
