//! Analysis diffing: explain what changed between two analysis documents.
//!
//! `repro analyze` renders a single run's diagnosis; this module compares
//! *two* such documents (before/after a code change, a partitioning change,
//! a machine-model change) and reports the deltas that explain a
//! regression: critical-path elapsed, per-phase totals, the dominant rank,
//! and per-rank wait-state changes — each regressed late-sender wait
//! attributed to its **culprit sender-side span** (from the newer
//! document's `late_sender_culprits`), so the verdict reads "rank 1's
//! late-sender wait doubled *because* rank 2's connectivity-phase send got
//! later", not just "rank 1 waits more".
//!
//! Both renderings (text and JSON) are byte-deterministic for byte-equal
//! inputs and golden-tested.

use crate::input::PHASE_NAMES;
use overset_comm::NUM_PHASES;
use overset_report::{json::obj, Value};

/// Version of the diff document layout.
pub const DIFF_SCHEMA_VERSION: u64 = 1;

/// Relative growth below which a wait delta is noise, not a regression.
const REL_TOL: f64 = 0.05;
/// Absolute floor (seconds) below which any delta is noise.
const ABS_TOL: f64 = 1e-12;

/// Per-phase elapsed totals in both documents (summed over steps).
#[derive(Clone, Debug)]
pub struct PhaseDelta {
    pub phase: usize,
    pub a: f64,
    pub b: f64,
}

/// The culprit behind a regressed late-sender wait, read from the newer
/// document's attribution.
#[derive(Clone, Debug)]
pub struct CulpritRef {
    pub src: usize,
    pub sender_phase: String,
    pub seconds: f64,
    pub spans: u64,
}

/// One rank's change in one wait class.
#[derive(Clone, Debug)]
pub struct WaitDelta {
    pub rank: usize,
    /// `late_sender`, `collective`, or `late_receiver`.
    pub class: &'static str,
    pub a: f64,
    pub b: f64,
    /// Grew beyond tolerance (`REL_TOL` / `ABS_TOL`).
    pub regressed: bool,
    /// Present for regressed `late_sender` entries when the newer document
    /// carries culprit attribution.
    pub culprit: Option<CulpritRef>,
}

impl WaitDelta {
    pub fn delta(&self) -> f64 {
        self.b - self.a
    }
}

/// The full diff of two analysis documents.
#[derive(Clone, Debug)]
pub struct AnalysisDiff {
    pub source_a: String,
    pub source_b: String,
    pub nranks: usize,
    pub total_elapsed_a: f64,
    pub total_elapsed_b: f64,
    pub dominant_rank_a: usize,
    pub dominant_rank_b: usize,
    /// All [`NUM_PHASES`] phases, in phase order.
    pub phase_totals: Vec<PhaseDelta>,
    /// Every (rank, class) pair nonzero in either document, sorted by
    /// |delta| descending (rank, then class order, as tiebreaks).
    pub wait_deltas: Vec<WaitDelta>,
    pub notes: Vec<String>,
}

fn get<'v>(doc: &'v Value, key: &str, what: &str) -> Result<&'v Value, String> {
    doc.get(key).ok_or_else(|| format!("{what}: missing key {key:?}"))
}

fn num(doc: &Value, key: &str, what: &str) -> Result<f64, String> {
    get(doc, key, what)?.as_f64().ok_or_else(|| format!("{what}: key {key:?} is not a number"))
}

/// Wait totals of one class for every rank, from a document's
/// `wait_states` array.
fn wait_totals(doc: &Value, class: &str, what: &str) -> Result<Vec<f64>, String> {
    let ranks = get(doc, "wait_states", what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: wait_states is not an array"))?;
    ranks
        .iter()
        .map(|r| {
            let cls = get(r, class, what)?;
            num(cls, "total", what)
        })
        .collect()
}

fn culprit_of(doc: &Value, rank: usize) -> Option<CulpritRef> {
    let ranks = doc.get("wait_states")?.as_arr()?;
    let top = ranks.get(rank)?.get("late_sender_culprits")?.as_arr()?.first()?;
    Some(CulpritRef {
        src: top.get("src")?.as_u64()? as usize,
        sender_phase: top.get("sender_phase")?.as_str()?.to_string(),
        seconds: top.get("seconds")?.as_f64()?,
        spans: top.get("spans")?.as_u64()?,
    })
}

/// Per-phase elapsed totals summed over a document's critical-path steps.
fn phase_totals(doc: &Value, what: &str) -> Result<[f64; NUM_PHASES], String> {
    let steps = get(get(doc, "critical_path", what)?, "steps", what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: critical_path.steps is not an array"))?;
    let mut out = [0.0; NUM_PHASES];
    for s in steps {
        for (p, t) in out.iter_mut().enumerate() {
            *t += num(s, &format!("t_{}", PHASE_NAMES[p]), what)?;
        }
    }
    Ok(out)
}

fn regressed(a: f64, b: f64) -> bool {
    let d = b - a;
    d > ABS_TOL && d > REL_TOL * a
}

/// Diff two parsed analysis documents (`a` = baseline, `b` = new).
pub fn diff(a: &Value, b: &Value) -> Result<AnalysisDiff, String> {
    for (doc, what) in [(a, "baseline"), (b, "new")] {
        let v = num(doc, "analysis_schema_version", what)?;
        if v != 1.0 {
            return Err(format!(
                "{what}: analysis_schema_version {v} unsupported (this build diffs v1)"
            ));
        }
    }
    let nranks_a = num(a, "nranks", "baseline")? as usize;
    let nranks_b = num(b, "nranks", "new")? as usize;
    if nranks_a != nranks_b {
        return Err(format!(
            "analyses cover different rank counts ({nranks_a} vs {nranks_b}); \
             per-rank deltas would be meaningless"
        ));
    }
    let mut notes = Vec::new();
    let nsteps_a = num(a, "nsteps", "baseline")?;
    let nsteps_b = num(b, "nsteps", "new")?;
    if nsteps_a != nsteps_b {
        notes.push(format!(
            "step counts differ ({nsteps_a} vs {nsteps_b}); totals are not per-step comparable"
        ));
    }

    let cp_a = get(a, "critical_path", "baseline")?;
    let cp_b = get(b, "critical_path", "new")?;
    let ranking_first = |cp: &Value, what: &str| -> Result<usize, String> {
        Ok(get(cp, "ranking", what)?
            .as_arr()
            .and_then(|r| r.first())
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{what}: critical_path.ranking is empty"))? as usize)
    };

    let ph_a = phase_totals(a, "baseline")?;
    let ph_b = phase_totals(b, "new")?;
    let phase_totals =
        (0..NUM_PHASES).map(|p| PhaseDelta { phase: p, a: ph_a[p], b: ph_b[p] }).collect();

    let mut wait_deltas: Vec<WaitDelta> = Vec::new();
    for class in ["late_sender", "collective", "late_receiver"] {
        let ta = wait_totals(a, class, "baseline")?;
        let tb = wait_totals(b, class, "new")?;
        for rank in 0..nranks_a {
            let (wa, wb) = (ta[rank], tb[rank]);
            if wa == 0.0 && wb == 0.0 {
                continue;
            }
            let is_reg = regressed(wa, wb);
            let culprit = if is_reg && class == "late_sender" { culprit_of(b, rank) } else { None };
            wait_deltas.push(WaitDelta {
                rank,
                class: match class {
                    "late_sender" => "late_sender",
                    "collective" => "collective",
                    _ => "late_receiver",
                },
                a: wa,
                b: wb,
                regressed: is_reg,
                culprit,
            });
        }
    }
    let class_order = |c: &str| match c {
        "late_sender" => 0u8,
        "collective" => 1,
        _ => 2,
    };
    wait_deltas.sort_by(|x, y| {
        y.delta()
            .abs()
            .partial_cmp(&x.delta().abs())
            .unwrap()
            .then(x.rank.cmp(&y.rank))
            .then(class_order(x.class).cmp(&class_order(y.class)))
    });

    Ok(AnalysisDiff {
        source_a: get(a, "source", "baseline")?.as_str().unwrap_or("?").to_string(),
        source_b: get(b, "source", "new")?.as_str().unwrap_or("?").to_string(),
        nranks: nranks_a,
        total_elapsed_a: num(cp_a, "total_elapsed", "baseline")?,
        total_elapsed_b: num(cp_b, "total_elapsed", "new")?,
        dominant_rank_a: ranking_first(cp_a, "baseline")?,
        dominant_rank_b: ranking_first(cp_b, "new")?,
        phase_totals,
        wait_deltas,
        notes,
    })
}

/// `"+12.3%"`, or `"n/a"` against a zero baseline.
fn pct(a: f64, b: f64) -> String {
    if a == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:+.1}%", (b - a) / a * 100.0)
    }
}

impl AnalysisDiff {
    pub fn regressions(&self) -> impl Iterator<Item = &WaitDelta> + '_ {
        self.wait_deltas.iter().filter(|w| w.regressed)
    }

    /// Human-readable rendering, byte-deterministic.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "== analysis diff: {} -> {} ({} ranks) ==\n",
            self.source_a, self.source_b, self.nranks
        );
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }

        out.push_str("\n-- critical path --\n");
        out.push_str(&format!(
            "total elapsed: {:.6e} s -> {:.6e} s ({})\n",
            self.total_elapsed_a,
            self.total_elapsed_b,
            pct(self.total_elapsed_a, self.total_elapsed_b)
        ));
        if self.dominant_rank_a == self.dominant_rank_b {
            out.push_str(&format!("dominant rank: {} (unchanged)\n", self.dominant_rank_a));
        } else {
            out.push_str(&format!(
                "dominant rank: {} -> {}\n",
                self.dominant_rank_a, self.dominant_rank_b
            ));
        }
        out.push_str("phase totals (s):\n");
        for d in &self.phase_totals {
            if d.a == 0.0 && d.b == 0.0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<12} {:.6e} -> {:.6e} ({})\n",
                PHASE_NAMES[d.phase],
                d.a,
                d.b,
                pct(d.a, d.b)
            ));
        }

        out.push_str("\n-- wait-state deltas (lost seconds per rank) --\n");
        if self.wait_deltas.is_empty() {
            out.push_str("  (no wait time in either document)\n");
        }
        for w in self.wait_deltas.iter().take(16) {
            out.push_str(&format!(
                "  rank {:>3} {:<13} {:.4e} -> {:.4e} ({}){}\n",
                w.rank,
                w.class,
                w.a,
                w.b,
                pct(w.a, w.b),
                if w.regressed { "  REGRESSED" } else { "" }
            ));
            if let Some(c) = &w.culprit {
                out.push_str(&format!(
                    "          culprit: rank {} send in {} phase ({:.4e} s over {} spans)\n",
                    c.src, c.sender_phase, c.seconds, c.spans
                ));
            }
        }
        if self.wait_deltas.len() > 16 {
            out.push_str(&format!(
                "  ... {} more (sorted by |delta|)\n",
                self.wait_deltas.len() - 16
            ));
        }

        let nreg = self.regressions().count();
        out.push_str("\n-- verdict --\n");
        if nreg == 0 {
            out.push_str("  no wait-state regressions beyond tolerance\n");
        } else {
            out.push_str(&format!("  {nreg} wait-state regression(s):\n"));
            for w in self.regressions() {
                match &w.culprit {
                    Some(c) => out.push_str(&format!(
                        "  * rank {} {} grew {} — culprit: rank {} send in {} phase\n",
                        w.rank,
                        w.class,
                        pct(w.a, w.b),
                        c.src,
                        c.sender_phase
                    )),
                    None => out.push_str(&format!(
                        "  * rank {} {} grew {}\n",
                        w.rank,
                        w.class,
                        pct(w.a, w.b)
                    )),
                }
            }
        }
        out
    }

    /// The versioned, byte-deterministic JSON document.
    pub fn to_value(&self) -> Value {
        let phases = Value::Obj(
            self.phase_totals
                .iter()
                .map(|d| {
                    (
                        PHASE_NAMES[d.phase].to_string(),
                        obj(vec![
                            ("a", Value::Num(d.a)),
                            ("b", Value::Num(d.b)),
                            ("delta", Value::Num(d.b - d.a)),
                        ]),
                    )
                })
                .collect(),
        );
        let waits = Value::Arr(
            self.wait_deltas
                .iter()
                .map(|w| {
                    let culprit = match &w.culprit {
                        Some(c) => obj(vec![
                            ("src", Value::Num(c.src as f64)),
                            ("sender_phase", Value::Str(c.sender_phase.clone())),
                            ("seconds", Value::Num(c.seconds)),
                            ("spans", Value::Num(c.spans as f64)),
                        ]),
                        None => Value::Null,
                    };
                    obj(vec![
                        ("rank", Value::Num(w.rank as f64)),
                        ("class", Value::Str(w.class.to_string())),
                        ("a", Value::Num(w.a)),
                        ("b", Value::Num(w.b)),
                        ("delta", Value::Num(w.delta())),
                        ("regressed", Value::Bool(w.regressed)),
                        ("culprit", culprit),
                    ])
                })
                .collect(),
        );
        obj(vec![
            ("diff_schema_version", Value::Num(DIFF_SCHEMA_VERSION as f64)),
            ("generator", Value::Str("overset-analysis".into())),
            ("a", Value::Str(self.source_a.clone())),
            ("b", Value::Str(self.source_b.clone())),
            ("nranks", Value::Num(self.nranks as f64)),
            (
                "critical_path",
                obj(vec![
                    ("total_elapsed_a", Value::Num(self.total_elapsed_a)),
                    ("total_elapsed_b", Value::Num(self.total_elapsed_b)),
                    ("delta", Value::Num(self.total_elapsed_b - self.total_elapsed_a)),
                    ("dominant_rank_a", Value::Num(self.dominant_rank_a as f64)),
                    ("dominant_rank_b", Value::Num(self.dominant_rank_b as f64)),
                    ("phase_totals", phases),
                ]),
            ),
            ("wait_deltas", waits),
            ("notes", Value::Arr(self.notes.iter().map(|n| Value::Str(n.clone())).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_report::parse;

    /// A minimal hand-built analysis document.
    fn doc(late_sender_r1: f64, with_culprit: bool) -> Value {
        let culprits = if with_culprit {
            r#"[{"src": 2, "sender_phase": "connectivity", "seconds": 0.5, "spans": 6}]"#
        } else {
            "[]"
        };
        let json = format!(
            r#"{{
  "analysis_schema_version": 1,
  "source": "case",
  "nranks": 2,
  "nsteps": 1,
  "critical_path": {{
    "total_elapsed": 10.0,
    "ranking": [1, 0],
    "steps": [
      {{"t_flow": 4.0, "t_connectivity": 6.0, "t_motion": 0, "t_balance": 0, "t_other": 0}}
    ]
  }},
  "wait_states": [
    {{"rank": 0,
      "late_sender": {{"total": 0}}, "collective": {{"total": 1.0}},
      "late_receiver": {{"total": 0}}, "late_sender_culprits": []}},
    {{"rank": 1,
      "late_sender": {{"total": {late_sender_r1}}}, "collective": {{"total": 0}},
      "late_receiver": {{"total": 0}}, "late_sender_culprits": {culprits}}}
  ]
}}"#
        );
        parse(&json).unwrap()
    }

    #[test]
    fn names_regressed_class_and_culprit() {
        let d = diff(&doc(0.1, false), &doc(0.5, true)).unwrap();
        let reg: Vec<_> = d.regressions().collect();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].rank, 1);
        assert_eq!(reg[0].class, "late_sender");
        let c = reg[0].culprit.as_ref().expect("culprit attribution");
        assert_eq!(c.src, 2);
        assert_eq!(c.sender_phase, "connectivity");
        let txt = d.render_text();
        assert!(txt.contains("REGRESSED"), "{txt}");
        assert!(txt.contains("culprit: rank 2 send in connectivity phase"), "{txt}");
    }

    #[test]
    fn small_growth_within_tolerance_is_not_a_regression() {
        let d = diff(&doc(1.0, false), &doc(1.01, true)).unwrap();
        assert_eq!(d.regressions().count(), 0);
        assert!(d.render_text().contains("no wait-state regressions"));
    }

    #[test]
    fn improvements_are_reported_but_not_regressions() {
        let d = diff(&doc(0.5, true), &doc(0.1, false)).unwrap();
        assert_eq!(d.regressions().count(), 0);
        let w = d.wait_deltas.iter().find(|w| w.class == "late_sender").unwrap();
        assert!(w.delta() < 0.0);
    }

    #[test]
    fn mismatched_rank_counts_are_an_error() {
        let mut b = doc(0.1, false);
        if let Value::Obj(pairs) = &mut b {
            for (k, v) in pairs.iter_mut() {
                if k == "nranks" {
                    *v = Value::Num(4.0);
                }
            }
        }
        let err = diff(&doc(0.1, false), &b).unwrap_err();
        assert!(err.contains("different rank counts"), "{err}");
    }

    #[test]
    fn diff_document_is_deterministic() {
        let d1 = diff(&doc(0.1, false), &doc(0.5, true)).unwrap();
        let d2 = diff(&doc(0.1, false), &doc(0.5, true)).unwrap();
        assert_eq!(d1.to_value().to_json(), d2.to_value().to_json());
        assert_eq!(d1.render_text(), d2.render_text());
    }
}
