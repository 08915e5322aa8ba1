//! Pass/fail comparison of two run reports (the bench-gate verdict).
//!
//! Everything under a report's `cases` is virtual-time data or an
//! allocation count, so a run reproduces it to the bit and the verdict is
//! an exact diff: the two documents must name the same `experiment` and
//! `effort`, hold the same cases — matched by (name, label) in both
//! directions — and agree on every leaf of every case. Any difference, an
//! improvement included, fails; a missing or an extra key, element or case
//! is a difference like any other. The wall-clock `host` section is never
//! read. A `schema_version` other than [`SCHEMA_VERSION`] on either side is
//! an `Err`, not a verdict.

use crate::json::Value;
use crate::SCHEMA_VERSION;

/// One leaf (or whole subtree, when one side lacks it) that differs.
#[derive(Clone, Debug)]
pub struct Difference {
    /// Dotted path from the document root, e.g.
    /// `cases[store/dynamic-lb].series[4].walk_steps`.
    pub path: String,
    pub baseline: String,
    pub new: String,
}

impl Difference {
    pub fn describe(&self) -> String {
        format!("{}: {} -> {}", self.path, self.baseline, self.new)
    }
}

/// Result of comparing two reports.
#[derive(Clone, Debug, Default)]
pub struct CompareOutcome {
    pub differences: Vec<Difference>,
    /// Number of leaves compared across all cases.
    pub checked: usize,
}

impl CompareOutcome {
    pub fn passed(&self) -> bool {
        self.differences.is_empty()
    }
}

fn case_key(case: &Value) -> String {
    let name = case.get("name").and_then(Value::as_str).unwrap_or("?");
    let label = case.get("label").and_then(Value::as_str).unwrap_or("?");
    format!("{name}/{label}")
}

fn check_schema(doc: &Value, which: &str) -> Result<(), String> {
    match doc.get("schema_version").and_then(Value::as_u64) {
        Some(v) if v == SCHEMA_VERSION => Ok(()),
        Some(v) => Err(format!(
            "{which} report has schema_version {v}, this tool compares version \
             {SCHEMA_VERSION}; regenerate the baseline"
        )),
        None => Err(format!("{which} report is missing schema_version")),
    }
}

/// Compare `new` against `baseline` exactly. Errors (`Err`) are structural
/// — wrong schema version, no cases array — and distinct from a verdict.
pub fn compare(baseline: &Value, new: &Value) -> Result<CompareOutcome, String> {
    check_schema(baseline, "baseline")?;
    check_schema(new, "new")?;
    // Cases keyed by (name, label), so they match in both directions
    // whatever order each report lists them in.
    let cases = |doc: &Value, which: &str| -> Result<Vec<(String, Value)>, String> {
        let arr = doc
            .get("cases")
            .and_then(Value::as_arr)
            .ok_or(format!("{which} report has no cases array"))?;
        Ok(arr.iter().map(|c| (case_key(c), c.clone())).collect())
    };
    let mut out = CompareOutcome::default();
    for key in ["experiment", "effort"] {
        diff_exact(&mut out, key, baseline.get(key), new.get(key));
    }
    let (base_cases, new_cases) = (cases(baseline, "baseline")?, cases(new, "new")?);
    diff_keyed(&mut out, &|k| format!("cases[{k}]"), &base_cases, &new_cases);
    Ok(out)
}

/// Diff two keyed lists entry by entry: the baseline's keys in its order,
/// then the keys only `new` has.
fn diff_keyed(
    out: &mut CompareOutcome,
    path_of: &dyn Fn(&str) -> String,
    b: &[(String, Value)],
    n: &[(String, Value)],
) {
    fn get<'a>(pairs: &'a [(String, Value)], k: &str) -> Option<&'a Value> {
        pairs.iter().find(|(pk, _)| pk == k).map(|(_, v)| v)
    }
    let only_new = n.iter().filter(|(k, _)| get(b, k).is_none());
    for (k, _) in b.iter().chain(only_new) {
        diff_exact(out, &path_of(k), get(b, k), get(n, k));
    }
}

/// Recursive exact diff; every leaf compared counts toward `checked`, every
/// mismatch (or one-sided key, element or case) becomes a [`Difference`]
/// named by its dotted path.
fn diff_exact(out: &mut CompareOutcome, path: &str, b: Option<&Value>, n: Option<&Value>) {
    match (b, n) {
        (Some(Value::Obj(bp)), Some(Value::Obj(np))) => {
            diff_keyed(out, &|k| format!("{path}.{k}"), bp, np);
        }
        (Some(Value::Arr(ba)), Some(Value::Arr(na))) => {
            for i in 0..ba.len().max(na.len()) {
                diff_exact(out, &format!("{path}[{i}]"), ba.get(i), na.get(i));
            }
        }
        _ => {
            out.checked += 1;
            if b != n {
                out.differences.push(Difference {
                    path: path.to_string(),
                    baseline: show(b),
                    new: show(n),
                });
            }
        }
    }
}

/// A value as a difference line shows it: leaves in JSON, subtrees elided.
fn show(v: Option<&Value>) -> String {
    match v {
        None => "<absent>".into(),
        Some(Value::Obj(_)) => "{...}".into(),
        Some(Value::Arr(_)) => "[...]".into(),
        Some(leaf) => leaf.to_json().trim_end().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn case(name: &str, label: &str) -> Value {
        let step = |k: f64| {
            obj(vec![
                ("step", Value::Num(k)),
                ("t_flow", Value::Num(0.25 + k)),
                ("walk_steps", Value::Num(100.0 * k)),
                ("repartition", Value::Bool(false)),
            ])
        };
        obj(vec![
            ("name", Value::Str(name.to_string())),
            ("label", Value::Str(label.to_string())),
            ("series", Value::Arr((0..3).map(|k| step(k as f64)).collect())),
            (
                "summary",
                obj(vec![
                    ("time_per_step", Value::Num(0.396131)),
                    ("msgs", Value::Num(1234.0)),
                    ("orphans_last", Value::Num(0.0)),
                    ("cache_hit_rate", Value::Null),
                ]),
            ),
            ("alloc", obj(vec![("allocs", obj(vec![("connectivity", Value::Num(500.0))]))])),
        ])
    }

    fn report(cases: Vec<Value>) -> Value {
        obj(vec![
            ("schema_version", Value::Num(SCHEMA_VERSION as f64)),
            ("experiment", Value::Str("table1".into())),
            ("effort", Value::Str("quick".into())),
            ("cases", Value::Arr(cases)),
        ])
    }

    fn base() -> Value {
        report(vec![case("airfoil", "representative"), case("store", "dynamic-lb")])
    }

    /// Apply `f` to the first case of a fresh baseline.
    fn edited(f: impl FnOnce(&mut Vec<(String, Value)>)) -> Value {
        let mut r = base();
        let Value::Obj(top) = &mut r else { unreachable!() };
        let Value::Arr(cases) = &mut top[3].1 else { unreachable!() };
        let Value::Obj(c) = &mut cases[0] else { unreachable!() };
        f(c);
        r
    }

    fn field<'a>(pairs: &'a mut [(String, Value)], key: &str) -> &'a mut Value {
        &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    /// The first case's summary value `key`, in a fresh baseline edited by `f`.
    fn edited_summary(key: &str, f: impl FnOnce(&mut Value)) -> Value {
        edited(|c| {
            let Value::Obj(s) = field(c, "summary") else { unreachable!() };
            f(field(s, key))
        })
    }

    fn paths(out: &CompareOutcome) -> Vec<&str> {
        out.differences.iter().map(|d| d.path.as_str()).collect()
    }

    #[test]
    fn identical_reports_pass() {
        let out = compare(&base(), &base()).unwrap();
        assert!(out.passed(), "{:?}", out.differences);
        // experiment, effort + per case: name, label, 3 x 4 series leaves,
        // 4 summary leaves, 1 alloc leaf.
        assert_eq!(out.checked, 2 + 2 * (2 + 12 + 4 + 1));
    }

    #[test]
    fn one_ulp_in_a_summary_value_fails_and_names_its_path() {
        let new = edited_summary("time_per_step", |v| {
            let Value::Num(x) = v else { unreachable!() };
            *x = f64::from_bits(x.to_bits() + 1);
        });
        let out = compare(&base(), &new).unwrap();
        assert_eq!(paths(&out), ["cases[airfoil/representative].summary.time_per_step"]);
        // Both sides print in shortest round-trip form, so the line shows
        // exactly the two values.
        let d = &out.differences[0];
        assert_eq!(d.baseline, "0.396131");
        assert_eq!(d.new.parse::<f64>().unwrap(), f64::from_bits(0.396131f64.to_bits() + 1));
    }

    #[test]
    fn a_changed_series_counter_fails_with_its_dotted_path() {
        let new = edited(|c| {
            let Value::Arr(series) = field(c, "series") else { unreachable!() };
            let Value::Obj(s) = &mut series[2] else { unreachable!() };
            *field(s, "walk_steps") = Value::Num(230.0);
        });
        let out = compare(&base(), &new).unwrap();
        assert_eq!(paths(&out), ["cases[airfoil/representative].series[2].walk_steps"]);
        // An improvement is a difference too: the gate asks "did anything
        // deterministic move", not "is it worse".
        assert!(!compare(&new, &base()).unwrap().passed());
        // One more allocation in a phase is a difference like any counter.
        let leak = edited(|c| {
            let Value::Obj(alloc) = field(c, "alloc") else { unreachable!() };
            let Value::Obj(allocs) = field(alloc, "allocs") else { unreachable!() };
            *field(allocs, "connectivity") = Value::Num(501.0);
        });
        let out = compare(&base(), &leak).unwrap();
        assert_eq!(paths(&out), ["cases[airfoil/representative].alloc.allocs.connectivity"]);
    }

    #[test]
    fn an_extra_or_missing_case_fails() {
        let mut cases = vec![case("airfoil", "representative"), case("store", "dynamic-lb")];
        cases.push(case("airfoil", "extra"));
        let extra = report(cases);
        let out = compare(&base(), &extra).unwrap();
        assert_eq!(paths(&out), ["cases[airfoil/extra]"]);
        assert_eq!(out.differences[0].describe(), "cases[airfoil/extra]: <absent> -> {...}");
        let out = compare(&extra, &base()).unwrap();
        assert_eq!(paths(&out), ["cases[airfoil/extra]"]);
        // Cases are matched by (name, label), not by position.
        let swapped = report(vec![case("store", "dynamic-lb"), case("airfoil", "representative")]);
        assert!(compare(&base(), &swapped).unwrap().passed());
    }

    #[test]
    fn an_extra_or_missing_key_or_element_fails() {
        let added = edited(|c| {
            let Value::Obj(s) = field(c, "summary") else { unreachable!() };
            s.push(("forwards_total".into(), Value::Num(0.0)));
        });
        let out = compare(&base(), &added).unwrap();
        assert_eq!(paths(&out), ["cases[airfoil/representative].summary.forwards_total"]);
        let out = compare(&added, &base()).unwrap();
        assert_eq!(out.differences[0].describe(), format!("{}: 0 -> <absent>", paths(&out)[0]));
        // A whole section absent on one side is one difference, not a skip.
        let no_alloc = edited(|c| c.retain(|(k, _)| k != "alloc"));
        assert_eq!(
            paths(&compare(&base(), &no_alloc).unwrap()),
            ["cases[airfoil/representative].alloc"]
        );
        let short = edited(|c| {
            let Value::Arr(series) = field(c, "series") else { unreachable!() };
            series.pop();
        });
        assert_eq!(
            paths(&compare(&base(), &short).unwrap()),
            ["cases[airfoil/representative].series[2]"]
        );
    }

    #[test]
    fn experiment_and_effort_must_match() {
        let mut full = base();
        let Value::Obj(top) = &mut full else { unreachable!() };
        top[2].1 = Value::Str("full".into());
        assert_eq!(paths(&compare(&base(), &full).unwrap()), ["effort"]);
    }

    #[test]
    fn null_on_both_sides_passes() {
        // `cache_hit_rate` is null when a run makes no donor-cache lookups.
        let out = compare(&base(), &base()).unwrap();
        assert!(out.passed());
        let hit = edited_summary("cache_hit_rate", |v| *v = Value::Num(0.5));
        let out = compare(&base(), &hit).unwrap();
        assert_eq!(out.differences[0].describe(), format!("{}: null -> 0.5", paths(&out)[0]));
    }

    /// No relative band to fall through: a count rising from zero fails.
    #[test]
    fn orphans_from_zero_baseline_always_fail() {
        let orphans = edited_summary("orphans_last", |v| *v = Value::Num(3.0));
        let out = compare(&base(), &orphans).unwrap();
        assert_eq!(out.differences[0].describe(), format!("{}: 0 -> 3", paths(&out)[0]));
    }

    #[test]
    fn the_host_section_is_never_read() {
        let with_host = |ms: f64| {
            let mut r = base();
            let Value::Obj(top) = &mut r else { unreachable!() };
            top.push(("host".into(), obj(vec![("phase_ms", Value::Num(ms))])));
            r
        };
        assert!(compare(&with_host(10.0), &with_host(900.0)).unwrap().passed());
        assert!(compare(&with_host(10.0), &base()).unwrap().passed());
        assert!(compare(&base(), &with_host(10.0)).unwrap().passed());
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_verdict() {
        let mut bad = base();
        let Value::Obj(top) = &mut bad else { unreachable!() };
        top[0].1 = Value::Num(99.0);
        assert!(compare(&bad, &base()).is_err());
        assert!(compare(&base(), &bad).is_err());
        let no_cases = obj(vec![("schema_version", Value::Num(SCHEMA_VERSION as f64))]);
        assert!(compare(&base(), &no_cases).is_err());
    }
}
