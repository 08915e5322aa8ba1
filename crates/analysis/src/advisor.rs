//! Imbalance advisor: map analysis results back onto the paper's algorithms.
//!
//! Findings are phrased in terms of the moves Algorithm 2 (Wissink &
//! Meakin's I(p)-driven repartitioning) could make: a rank whose
//! connectivity service load is far above the mean should be *granted a
//! processor*; a run that repartitioned is judged by its before/after
//! `f_max` and critical-path step time. Wait-hotspot findings identify
//! *victims* — ranks starved by a slower peer — so the reader does not
//! mistake waiting for load.

use crate::critical_path::CriticalPath;
use crate::input::{phase_name, AnalysisInput};
use crate::waits::WaitStates;
use overset_balance::service_imbalance;
use overset_comm::Counter;

/// `f(p) = I(p)/mean` above which Algorithm 2 would grant a processor
/// (mirrors the typical `f_o` the dynamic-LB experiments run with).
pub const GRANT_THRESHOLD: f64 = 1.5;

/// A rank whose lost (wait) time exceeds this multiple of the mean is
/// flagged as a wait hotspot.
pub const WAIT_HOTSPOT_THRESHOLD: f64 = 2.0;

/// Steps averaged on each side of a repartition when measuring its effect.
const REPARTITION_WINDOW: usize = 5;

/// One actionable observation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable machine-readable kind: `critical-rank`, `grant-processor`,
    /// `balanced`, `wait-hotspot`, `repartition-effect`.
    pub kind: &'static str,
    pub rank: Option<usize>,
    pub message: String,
    /// Supporting numbers, stable key order.
    pub data: Vec<(&'static str, f64)>,
}

/// Produce findings, most significant first. Deterministic: thresholds are
/// fixed, ties break toward the lower rank, and iteration orders are all
/// rank/step order.
pub fn advise(input: &AnalysisInput, cp: &CriticalPath, waits: &WaitStates) -> Vec<Finding> {
    let mut out = Vec::new();
    critical_rank(cp, &mut out);
    serve_imbalance(input, &mut out);
    wait_hotspots(waits, &mut out);
    repartition_effects(input, cp, &mut out);
    out
}

fn critical_rank(cp: &CriticalPath, out: &mut Vec<Finding>) {
    let Some(&top) = cp.ranking.first() else { return };
    if cp.total_elapsed <= 0.0 {
        return;
    }
    let share = cp.rank_share(top);
    let phase = cp.dominant_phase_of(top);
    out.push(Finding {
        kind: "critical-rank",
        rank: Some(top),
        message: format!(
            "rank {top} bounds {:.1}% of critical-path time (dominant phase: {})",
            share * 100.0,
            phase_name(phase)
        ),
        data: vec![("share", share), ("time_s", cp.rank_time[top]), ("phase", phase as f64)],
    });
}

/// Connectivity service imbalance — the quantity Algorithm 2 watches —
/// as per-rank `conn/serve` span time. A run that served no requests has
/// nothing to balance.
fn serve_imbalance(input: &AnalysisInput, out: &mut Vec<Finding>) {
    let serve: Vec<f64> = input
        .ranks
        .iter()
        .map(|r| {
            r.events.iter().filter(|s| s.cat == "conn" && s.name == "serve").map(|s| s.dur).sum()
        })
        .collect();
    let total: f64 = serve.iter().sum();
    if total <= 0.0 {
        return;
    }
    let mean = total / serve.len() as f64;
    let ratios: Vec<f64> = serve.iter().map(|&t| t / mean).collect();
    let what = "connectivity serve time";
    let mut top = 0;
    for (r, &f) in ratios.iter().enumerate() {
        if f > ratios[top] {
            top = r;
        }
    }
    let f = ratios[top];
    if f >= GRANT_THRESHOLD {
        out.push(Finding {
            kind: "grant-processor",
            rank: Some(top),
            message: format!(
                "rank {top}'s {what} is {f:.1}\u{d7} mean; Algorithm 2 would grant it a processor"
            ),
            data: vec![("f", f), ("threshold", GRANT_THRESHOLD)],
        });
    } else {
        out.push(Finding {
            kind: "balanced",
            rank: None,
            message: format!(
                "no {what} above {GRANT_THRESHOLD:.1}\u{d7} mean (max {f:.2}\u{d7}); \
                 Algorithm 2 would leave the partition alone"
            ),
            data: vec![("f", f), ("threshold", GRANT_THRESHOLD)],
        });
    }
}

fn wait_hotspots(waits: &WaitStates, out: &mut Vec<Finding>) {
    let totals: Vec<f64> = waits.per_rank.iter().map(|w| w.total()).collect();
    if totals.is_empty() {
        return;
    }
    let mean = totals.iter().sum::<f64>() / totals.len() as f64;
    if mean <= 0.0 {
        return;
    }
    for (r, &t) in totals.iter().enumerate() {
        let x = t / mean;
        if x >= WAIT_HOTSPOT_THRESHOLD {
            out.push(Finding {
                kind: "wait-hotspot",
                rank: Some(r),
                message: format!(
                    "rank {r} loses {x:.1}\u{d7} the mean wait time ({t:.3e} s late-sender + \
                     collective) — it is starved by a slower peer, not overloaded"
                ),
                data: vec![("ratio", x), ("wait_s", t)],
            });
        }
    }
}

/// For each repartition, compare `f_max` and mean critical-path step time
/// over a window before vs after — did Algorithm 2's move pay off?
fn repartition_effects(input: &AnalysisInput, cp: &CriticalPath, out: &mut Vec<Finding>) {
    if input.steps.is_empty() {
        return;
    }
    let nsteps = cp.steps.len().min(input.steps.iter().map(Vec::len).min().unwrap_or(0));
    let f_max_at = |s: usize| -> f64 {
        let serviced: Vec<usize> =
            input.steps.iter().map(|r| r[s].count(Counter::ConnServiced) as usize).collect();
        service_imbalance(&serviced)
    };
    let repart_steps: Vec<usize> = (0..nsteps)
        .filter(|&s| input.steps.iter().any(|r| r[s].count(Counter::LbRepartitions) > 0))
        .collect();
    let shown = repart_steps.len().min(REPARTITION_WINDOW);
    for &s in repart_steps.iter().take(shown) {
        if s + 1 >= nsteps {
            continue;
        }
        let lo = s.saturating_sub(REPARTITION_WINDOW - 1);
        let hi = (s + 1 + REPARTITION_WINDOW).min(nsteps);
        let mean = |range: std::ops::Range<usize>| -> f64 {
            let n = range.len().max(1) as f64;
            range.map(|i| cp.steps[i].elapsed).sum::<f64>() / n
        };
        let t_before = mean(lo..s + 1);
        let t_after = mean(s + 1..hi);
        let (fb, fa) = (f_max_at(s), f_max_at(s + 1));
        let delta = if t_before > 0.0 { (t_after - t_before) / t_before * 100.0 } else { 0.0 };
        // The balance phase that executed the move belongs to this step's
        // critical path; step ids come from the records, not the window.
        let step_id = input.steps[0][s].step;
        out.push(Finding {
            kind: "repartition-effect",
            rank: None,
            message: format!(
                "repartition at step {step_id}: f_max {fb:.2} \u{2192} {fa:.2}, mean step time \
                 {t_before:.3e} \u{2192} {t_after:.3e} s ({delta:+.1}%)"
            ),
            data: vec![
                ("step", step_id as f64),
                ("f_max_before", fb),
                ("f_max_after", fa),
                ("t_step_before", t_before),
                ("t_step_after", t_after),
                ("delta_pct", delta),
            ],
        });
    }
    if repart_steps.len() > shown {
        out.push(Finding {
            kind: "repartition-effect",
            rank: None,
            message: format!(
                "{} further repartitions not itemized (first {shown} shown)",
                repart_steps.len() - shown
            ),
            data: vec![("omitted", (repart_steps.len() - shown) as f64)],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::from_step_records;
    use crate::waits::classify;
    use overset_comm::{Phase, RankTrace, StepRecord, TraceEvent};

    fn serve(rank: usize, dur: f64) -> RankTrace {
        let serve = TraceEvent {
            cat: "conn",
            name: "serve",
            ts: 0.0,
            dur,
            phase: Phase::Connectivity,
            args: Vec::new(),
        };
        RankTrace { rank, events: vec![serve] }
    }

    #[test]
    fn skewed_serve_time_recommends_granting_a_processor() {
        let ranks = [serve(0, 1.0), serve(1, 1.0), serve(2, 6.0), serve(3, 1.0)];
        let input = AnalysisInput { source: "test".into(), ranks: &ranks, steps: Vec::new() };
        let cp = from_step_records(&vec![vec![StepRecord::ZERO]; 4]);
        let waits = classify(input.ranks, &input.steps);
        let findings = advise(&input, &cp, &waits);
        let grant = findings.iter().find(|f| f.kind == "grant-processor").unwrap();
        assert_eq!(grant.rank, Some(2));
        // 6 / mean(2.25) ≈ 2.67×
        assert!(grant.message.contains("Algorithm 2 would grant it a processor"));
        assert!(grant.message.starts_with("rank 2's connectivity serve time is 2.7"));
    }

    #[test]
    fn balanced_serve_time_reports_no_move() {
        let ranks = [serve(0, 1.0), serve(1, 1.1)];
        let input = AnalysisInput { source: "test".into(), ranks: &ranks, steps: Vec::new() };
        let cp = from_step_records(&[]);
        let waits = classify(input.ranks, &input.steps);
        let findings = advise(&input, &cp, &waits);
        assert!(findings.iter().any(|f| f.kind == "balanced"));
        assert!(!findings.iter().any(|f| f.kind == "grant-processor"));
    }
}
