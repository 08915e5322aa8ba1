//! Trace analysis: turn recorded telemetry into an explanation.
//!
//! The runtime *records* (span traces, flight-recorder step records) and
//! `overset-report` *summarizes*; this crate *diagnoses*: given a run's
//! per-rank spans and step records, as the recorder returned them, it
//! computes
//!
//! 1. the **critical path** — which rank bounds elapsed virtual time in
//!    each barrier-separated phase of each step ([`critical_path`]),
//! 2. **wait states** — Scalasca-style late-sender / late-receiver /
//!    wait-at-collective time per rank and phase ([`waits`]),
//! 3. the **communication matrix** — rank×rank message counts and bytes
//!    per phase ([`matrix`]), and
//! 4. **advisor findings** — the moves the paper's Algorithm 2 would make,
//!    and whether past repartitions paid off ([`advisor`]).
//!
//! Nothing here works out again which phase or step something belongs to:
//! the runtime recorded each wait in its step record's phase column and
//! each span with its phase. The critical path and the wait tables read
//! the step records alone; culprits, the comm matrix and the serve-time
//! imbalance read spans.
//!
//! Everything derives from virtual-time data, so the rendered document —
//! JSON ([`Analysis::to_value`], schema below) or text
//! ([`Analysis::render_text`]) — is byte-identical across runs and
//! golden-tested. Schema policy matches `overset-report`: adding fields is
//! compatible; removing/re-typing bumps [`ANALYSIS_SCHEMA_VERSION`].

pub mod advisor;
pub mod critical_path;
pub mod host;
pub mod input;
pub mod matrix;
pub mod waits;

pub use advisor::{advise, Finding, GRANT_THRESHOLD};
pub use critical_path::CriticalPath;
pub use host::render_host_report;
pub use input::AnalysisInput;
pub use matrix::CommMatrix;
pub use waits::{Culprit, WaitStates, MAX_CULPRITS};

use input::phase_name;
use overset_comm::{Phase, NUM_PHASES};
use overset_report::{json::obj, Value};

/// Version of the analysis document layout.
pub const ANALYSIS_SCHEMA_VERSION: u64 = 1;

/// The complete diagnosis of one run.
pub struct Analysis {
    pub source: String,
    pub nranks: usize,
    pub critical_path: CriticalPath,
    pub waits: WaitStates,
    pub matrix: CommMatrix,
    pub findings: Vec<Finding>,
    /// Provenance notes.
    pub notes: Vec<String>,
}

/// Run the full pipeline on one input.
pub fn analyze(input: &AnalysisInput) -> Analysis {
    let notes = vec!["critical path from flight-recorder step records".to_string()];
    let critical_path = critical_path::from_step_records(&input.steps);
    let waits = waits::classify(input.ranks, &input.steps);
    let matrix = matrix::build(input.ranks);
    let findings = advise(input, &critical_path, &waits);
    Analysis {
        source: input.source.clone(),
        nranks: input.nranks(),
        critical_path,
        waits,
        matrix,
        findings,
        notes,
    }
}

fn phase_obj(xs: &[f64; NUM_PHASES]) -> Value {
    let mut pairs: Vec<(&str, Value)> = vec![("total", Value::Num(xs.iter().sum::<f64>()))];
    for (phase, &x) in Phase::ALL.iter().zip(xs) {
        pairs.push((phase.name(), Value::Num(x)));
    }
    obj(pairs)
}

fn u64_matrix(m: &[Vec<u64>]) -> Value {
    Value::Arr(
        m.iter()
            .map(|row| Value::Arr(row.iter().map(|&v| Value::Num(v as f64)).collect()))
            .collect(),
    )
}

impl Analysis {
    /// The versioned, byte-deterministic JSON document.
    pub fn to_value(&self) -> Value {
        let cp = &self.critical_path;
        let steps = Value::Arr(
            cp.steps
                .iter()
                .map(|s| {
                    let mut pairs: Vec<(String, Value)> = vec![
                        ("step".into(), Value::Num(s.step as f64)),
                        ("elapsed".into(), Value::Num(s.elapsed)),
                        ("dominant_rank".into(), Value::Num(s.dominant_rank as f64)),
                        ("dominant_phase".into(), Value::Str(phase_name(s.dominant_phase).into())),
                    ];
                    // `t_<phase>` matches `overset-report`'s keys; `r_<phase>`
                    // is the rank that set it.
                    for (p, phase) in Phase::ALL.iter().enumerate() {
                        let name = phase.name();
                        pairs.push((format!("t_{name}"), Value::Num(s.phase_elapsed[p])));
                        pairs.push((format!("r_{name}"), Value::Num(s.phase_rank[p] as f64)));
                    }
                    Value::Obj(pairs)
                })
                .collect(),
        );
        let critical = obj(vec![
            ("total_elapsed", Value::Num(cp.total_elapsed)),
            ("rank_time", Value::Arr(cp.rank_time.iter().map(|&t| Value::Num(t)).collect())),
            ("ranking", Value::Arr(cp.ranking.iter().map(|&r| Value::Num(r as f64)).collect())),
            ("steps", steps),
        ]);
        let wait_ranks = Value::Arr(
            self.waits
                .per_rank
                .iter()
                .enumerate()
                .map(|(r, w)| {
                    let culprits = Value::Arr(
                        w.late_sender_culprits
                            .iter()
                            .map(|c| {
                                obj(vec![
                                    ("src", Value::Num(c.src as f64)),
                                    (
                                        "sender_phase",
                                        Value::Str(phase_name(c.sender_phase).to_string()),
                                    ),
                                    ("seconds", Value::Num(c.seconds)),
                                    ("spans", Value::Num(c.spans as f64)),
                                ])
                            })
                            .collect(),
                    );
                    obj(vec![
                        ("rank", Value::Num(r as f64)),
                        ("late_sender", phase_obj(&w.late_sender)),
                        ("late_receiver", phase_obj(&w.late_receiver)),
                        ("collective", phase_obj(&w.collective)),
                        ("late_sender_culprits", culprits),
                        ("lost_total", Value::Num(w.total())),
                    ])
                })
                .collect(),
        );
        let mut per_phase: Vec<(String, Value)> = Vec::new();
        for (p, phase) in Phase::ALL.iter().enumerate() {
            if self.matrix.phase_active(p) {
                per_phase.push((
                    phase.name().to_string(),
                    obj(vec![
                        ("msgs", u64_matrix(&self.matrix.msgs[p])),
                        ("bytes", u64_matrix(&self.matrix.bytes[p])),
                    ]),
                ));
            }
        }
        let comm = obj(vec![
            (
                "total",
                obj(vec![
                    ("msgs", u64_matrix(&self.matrix.total_msgs())),
                    ("bytes", u64_matrix(&self.matrix.total_bytes())),
                ]),
            ),
            ("per_phase", Value::Obj(per_phase)),
        ]);
        let findings = Value::Arr(
            self.findings
                .iter()
                .map(|f| {
                    obj(vec![
                        ("kind", Value::Str(f.kind.to_string())),
                        ("rank", f.rank.map(|r| Value::Num(r as f64)).unwrap_or(Value::Null)),
                        ("message", Value::Str(f.message.clone())),
                        (
                            "data",
                            Value::Obj(
                                f.data
                                    .iter()
                                    .map(|(k, v)| (k.to_string(), Value::Num(*v)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        obj(vec![
            ("analysis_schema_version", Value::Num(ANALYSIS_SCHEMA_VERSION as f64)),
            ("generator", Value::Str("overset-analysis".into())),
            ("source", Value::Str(self.source.clone())),
            ("nranks", Value::Num(self.nranks as f64)),
            ("nsteps", Value::Num(self.critical_path.steps.len() as f64)),
            ("notes", Value::Arr(self.notes.iter().map(|n| Value::Str(n.clone())).collect())),
            ("critical_path", critical),
            ("wait_states", wait_ranks),
            ("comm_matrix", comm),
            ("advisor", findings),
        ])
    }

    /// Human-readable rendering, equally deterministic.
    pub fn render_text(&self) -> String {
        let cp = &self.critical_path;
        let mut out = format!(
            "== analysis: {} ({} ranks, {} steps) ==\n",
            self.source,
            self.nranks,
            cp.steps.len()
        );
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }

        out.push_str("\n-- critical path --\n");
        out.push_str(&format!("total elapsed: {:.6e} s\n", cp.total_elapsed));
        out.push_str("rank ranking (time each rank spends bounding the run):\n");
        for &r in cp.ranking.iter().take(8) {
            out.push_str(&format!(
                "  rank {r:>3}: {:.6e} s ({:>5.1}%)  dominant phase: {}\n",
                cp.rank_time[r],
                cp.rank_share(r) * 100.0,
                phase_name(cp.dominant_phase_of(r))
            ));
        }
        if cp.nranks > 8 {
            out.push_str(&format!("  ... {} more ranks\n", cp.nranks - 8));
        }

        out.push_str("\n-- wait states (lost seconds per rank) --\n");
        out.push_str("  rank   late-sender    collective    late-recv(buffered)\n");
        // Past 16 ranks, show only the worst offenders by total lost time
        // (descending, rank as tiebreak); a 1024-rank table helps nobody.
        let mut order: Vec<usize> = (0..self.waits.per_rank.len()).collect();
        if order.len() > 16 {
            order.sort_by(|&a, &b| {
                let (ta, tb) = (self.waits.per_rank[a].total(), self.waits.per_rank[b].total());
                tb.partial_cmp(&ta).unwrap().then(a.cmp(&b))
            });
            order.truncate(16);
        }
        for &r in &order {
            let w = &self.waits.per_rank[r];
            out.push_str(&format!(
                "  {r:>4}   {:>11.4e}   {:>11.4e}   {:>11.4e}\n",
                w.late_sender.iter().sum::<f64>(),
                w.collective.iter().sum::<f64>(),
                w.late_receiver.iter().sum::<f64>(),
            ));
        }
        if self.waits.per_rank.len() > order.len() {
            out.push_str(&format!(
                "  ... {} more ranks (sorted by total lost time)\n",
                self.waits.per_rank.len() - order.len()
            ));
        }

        out.push_str("\n-- comm matrix --\n");
        out.push_str(&matrix::render_heatmap(&self.matrix.total_bytes(), "total bytes"));
        for (p, phase) in Phase::ALL.iter().enumerate() {
            if self.matrix.phase_active(p) {
                out.push_str(&matrix::render_heatmap(
                    &self.matrix.bytes[p],
                    &format!("{} bytes", phase.name()),
                ));
            }
        }

        out.push_str("\n-- advisor --\n");
        if self.findings.is_empty() {
            out.push_str("  (no findings)\n");
        }
        for f in &self.findings {
            out.push_str(&format!("  * [{}] {}\n", f.kind, f.message));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_comm::{RankTrace, StepRecord, TraceEvent, Wait};

    /// The traces of a minimal but valid n-rank run: one `flow` phase span
    /// per rank.
    fn synthetic_traces(n: usize) -> Vec<RankTrace> {
        let flow = TraceEvent {
            cat: "phase",
            name: "flow",
            ts: 0.0,
            dur: 1.0,
            phase: Phase::Flow,
            args: Vec::new(),
        };
        (0..n).map(|rank| RankTrace { rank, events: vec![flow.clone()] }).collect()
    }

    /// `traces` with one step record per rank, whose collective waits fall
    /// with the rank so the wait-state table has distinct totals to sort on.
    fn synthetic_input(traces: &[RankTrace]) -> AnalysisInput<'_> {
        let n = traces.len();
        let steps = (0..n)
            .map(|rank| {
                let mut rec = StepRecord::ZERO;
                rec.time[0] = 1.0;
                rec.wait[Wait::Collective as usize][0] = 0.1 * (n - 1 - rank) as f64;
                vec![rec]
            })
            .collect();
        AnalysisInput::from_run(&format!("synthetic-{n}"), traces, steps)
    }

    #[test]
    fn wait_state_table_is_full_at_16_ranks_and_capped_above() {
        let small = analyze(&synthetic_input(&synthetic_traces(16)));
        let txt = small.render_text();
        assert!(!txt.contains("more ranks (sorted"), "{txt}");
        for r in 0..16 {
            assert!(txt.contains(&format!("  {r:>4}   ")), "rank {r} missing:\n{txt}");
        }

        let big = analyze(&synthetic_input(&synthetic_traces(20)));
        let txt = big.render_text();
        assert!(txt.contains("... 4 more ranks (sorted by total lost time)"), "{txt}");
        // Rank 0 waited most and must survive the cut.
        assert!(txt.contains("  0   "), "{txt}");
    }

    #[test]
    fn validate_accepts_the_synthetic_input() {
        assert!(synthetic_input(&synthetic_traces(4)).validate().is_ok());
    }
}
