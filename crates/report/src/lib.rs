//! Machine-readable run reports (schema v1) and perf-regression comparison.
//!
//! The paper's evidence is *time histories* — f(p), connectivity cost, and
//! repartition events evolving step by step (Figs. 10–12). This crate turns
//! the flight-recorder telemetry ([`overset_comm::StepRecord`]) and
//! end-of-run aggregates of a [`RunResult`] into a versioned JSON document
//! (`BENCH_*.json`) that future sessions can diff mechanically, and
//! implements the pass/fail comparison the CI bench gate runs.
//!
//! Determinism: everything serialized from a run is virtual-time data, so
//! two identical runs produce **byte-identical** reports (golden-tested);
//! host wall-clock timings are an optional section the comparator ignores.
//!
//! ## Schema versioning policy
//!
//! `schema_version` is bumped when a field is *removed or re-typed*; adding
//! fields is backward compatible and does not bump. [`compare()`] refuses to
//! compare documents whose versions differ from its own
//! [`SCHEMA_VERSION`] — regenerate the baseline in the same PR that bumps
//! the schema.

pub mod compare;
pub mod json;

pub use compare::{compare, CompareOutcome, Regression};
pub use json::{parse, Value};

use json::{obj, opt_num};
use overflow_d::{CaseConfig, RunResult};
use overset_balance::service_imbalance;
use overset_comm::metrics::{cache_hit_rate, traffic, Counter, Counts};
use overset_comm::{Phase, StepRecord, NUM_PHASES};

/// Version of the report document layout. See the module docs for the bump
/// policy.
pub const SCHEMA_VERSION: u64 = 1;

/// Phase order used for per-phase keys (matches the `Phase` discriminants).
const PHASES: [Phase; NUM_PHASES] =
    [Phase::Flow, Phase::Connectivity, Phase::Motion, Phase::Balance, Phase::Other];

fn phase_key(p: Phase) -> String {
    format!("t_{}", p.name())
}

/// Cross-rank aggregate of one step (the run-level time-series element).
#[derive(Clone, Debug)]
pub struct StepSeries {
    pub step: u64,
    /// Elapsed virtual time per phase: max over ranks (phases are
    /// barrier-separated, so the slowest rank sets the elapsed time).
    pub phase_elapsed: [f64; NUM_PHASES],
    /// Service-load imbalance f_max = max(I)/mean(I) over ranks this step.
    pub f_max: f64,
    pub serviced_min: u64,
    pub serviced_max: u64,
    /// Every counter's increment this step, summed over ranks.
    pub counts: Counts,
    /// Heap allocations / bytes requested this step, summed over ranks and
    /// phases.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Aggregate per-rank step records (rank-major) into the run-level series.
/// Byte-deterministic: sums/maxima over ranks are order-independent, and
/// every input is virtual-time data or an allocation count.
pub fn aggregate_steps(step_records: &[Vec<StepRecord>]) -> Vec<StepSeries> {
    let nsteps = step_records.iter().map(Vec::len).min().unwrap_or(0);
    let mut series = Vec::with_capacity(nsteps);
    for s in 0..nsteps {
        let recs = || step_records.iter().map(move |r| &r[s]);
        let serviced: Vec<usize> =
            recs().map(|r| r.count(Counter::ConnServiced) as usize).collect();
        let mut agg = StepSeries {
            step: step_records[0][s].step,
            phase_elapsed: [0.0; NUM_PHASES],
            f_max: service_imbalance(&serviced),
            serviced_min: serviced.iter().min().map_or(0, |&n| n as u64),
            serviced_max: serviced.iter().max().map_or(0, |&n| n as u64),
            counts: [0; Counter::COUNT],
            allocs: recs().flat_map(|r| r.allocs).sum(),
            alloc_bytes: recs().flat_map(|r| r.alloc_bytes).sum(),
        };
        for rec in recs() {
            for (t, x) in agg.phase_elapsed.iter_mut().zip(rec.time) {
                *t = t.max(x);
            }
            for (sum, x) in agg.counts.iter_mut().zip(rec.counts) {
                *sum += x;
            }
        }
        series.push(agg);
    }
    series
}

fn series_value(s: &StepSeries) -> Value {
    let mut pairs: Vec<(String, Value)> = vec![("step".into(), Value::Num(s.step as f64))];
    for &p in &PHASES {
        pairs.push((phase_key(p), Value::Num(s.phase_elapsed[p as usize])));
    }
    let count = |c: Counter| Value::Num(s.counts[c as usize] as f64);
    let (msgs, bytes) = traffic(&s.counts);
    pairs.extend([
        ("f_max".to_string(), Value::Num(s.f_max)),
        ("serviced_total".to_string(), count(Counter::ConnServiced)),
        ("serviced_min".to_string(), Value::Num(s.serviced_min as f64)),
        ("serviced_max".to_string(), Value::Num(s.serviced_max as f64)),
        ("walk_steps".to_string(), count(Counter::ConnWalkSteps)),
        ("forwards".to_string(), count(Counter::ConnForwards)),
        ("orphans".to_string(), count(Counter::ConnOrphans)),
        ("cache_hit_rate".to_string(), opt_num(cache_hit_rate(&s.counts))),
        ("msgs".to_string(), Value::Num(msgs as f64)),
        ("bytes".to_string(), Value::Num(bytes as f64)),
        ("repartition".to_string(), Value::Bool(s.counts[Counter::LbRepartitions as usize] > 0)),
    ]);
    Value::Obj(pairs)
}

fn summary_value(r: &RunResult, series: &[StepSeries]) -> Value {
    let mut pairs: Vec<(String, Value)> = vec![
        ("wall_time".into(), Value::Num(r.wall_time)),
        ("time_per_step".into(), Value::Num(r.time_per_step())),
        ("mflops_per_node".into(), Value::Num(r.mflops_per_node())),
        ("connectivity_fraction".into(), Value::Num(r.connectivity_fraction())),
    ];
    for &p in &PHASES {
        pairs.push((phase_key(p), Value::Num(r.summary.phase_time(p))));
    }
    let f_max_peak = series.iter().map(|s| s.f_max).fold(0.0f64, f64::max).max(r.f_max());
    pairs.extend([
        ("msgs".to_string(), Value::Num(r.summary.msgs as f64)),
        ("bytes".to_string(), Value::Num(r.summary.bytes as f64)),
        ("f_max_last".to_string(), Value::Num(r.f_max())),
        ("f_max_peak".to_string(), Value::Num(f_max_peak)),
        ("orphans_last".to_string(), Value::Num(r.orphans_last as f64)),
        ("repartitions".to_string(), Value::Num(r.repartitions as f64)),
        ("cache_hit_rate".to_string(), opt_num(r.metrics.cache_hit_rate())),
        // Whole-run donor-search effort, read from the metrics counters
        // (exact even when the flight-recorder ring evicted early steps).
        ("walk_steps_total".to_string(), Value::Num(r.metrics.get(Counter::ConnWalkSteps) as f64)),
        ("forwards_total".to_string(), Value::Num(r.metrics.get(Counter::ConnForwards) as f64)),
        // Flight-recorder ring evictions: when > 0 the series above covers
        // only the trailing window of the run, and `compare` warns.
        ("steps_dropped".to_string(), Value::Num(r.steps_dropped as f64)),
    ]);
    Value::Obj(pairs)
}

fn metrics_value(r: &RunResult) -> Value {
    let counters = Value::Obj(
        r.metrics.counters().map(|(k, v)| (k.to_string(), Value::Num(v as f64))).collect(),
    );
    let histograms = Value::Obj(
        r.metrics
            .histograms()
            .map(|(k, h)| {
                (
                    k.to_string(),
                    obj(vec![
                        ("count", Value::Num(h.count as f64)),
                        ("mean", Value::Num(h.mean())),
                        ("min", Value::Num(h.min)),
                        ("max", Value::Num(h.max)),
                        ("p50", Value::Num(h.p50())),
                        ("p95", Value::Num(h.p95())),
                        ("p99", Value::Num(h.p99())),
                    ]),
                )
            })
            .collect(),
    );
    obj(vec![("counters", counters), ("histograms", histograms)])
}

/// Per-phase totals as an object: `{"total": ..., "flow": ..., ...}`.
fn per_phase_value(per_phase: &[u64; NUM_PHASES]) -> Value {
    let total: u64 = per_phase.iter().sum();
    let mut pairs: Vec<(String, Value)> = vec![("total".into(), Value::Num(total as f64))];
    for &p in &PHASES {
        pairs.push((p.name().to_string(), Value::Num(per_phase[p as usize] as f64)));
    }
    Value::Obj(pairs)
}

/// Allocation-attribution section of a case report. Everything here is
/// deterministic for a fixed configuration (counts and bytes are sums, so
/// order-invariant across scheduling), and `compare` gates it **exactly**.
/// Peak heap bytes are scheduling-order dependent and live in the advisory
/// `host` section instead.
fn alloc_value(r: &RunResult, series: &[StepSeries]) -> Value {
    let mut allocs = [0u64; NUM_PHASES];
    let mut bytes = [0u64; NUM_PHASES];
    for a in &r.alloc_by_rank {
        for p in 0..NUM_PHASES {
            allocs[p] += a.allocs[p];
            bytes[p] += a.bytes[p];
        }
    }
    let by_rank = Value::Arr(
        r.alloc_by_rank
            .iter()
            .map(|a| {
                obj(vec![
                    ("allocs", Value::Num(a.total_allocs() as f64)),
                    ("bytes", Value::Num(a.total_bytes() as f64)),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("allocs", per_phase_value(&allocs)),
        ("bytes", per_phase_value(&bytes)),
        ("by_rank", by_rank),
        (
            "steps",
            Value::Arr(
                series
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("step", Value::Num(s.step as f64)),
                            ("allocs", Value::Num(s.allocs as f64)),
                            ("bytes", Value::Num(s.alloc_bytes as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Build the report entry for one case run.
///
/// `label` distinguishes multiple runs of the same geometry within a report
/// (e.g. `"representative"` vs `"dynamic-lb"`); `machine` names the machine
/// model the case ran on.
pub fn case_report(label: &str, cfg: &CaseConfig, machine: &str, r: &RunResult) -> Value {
    let series = aggregate_steps(&r.step_records);
    let lb = if cfg.lb.fo.is_finite() {
        obj(vec![
            ("fo", Value::Num(cfg.lb.fo)),
            ("check_interval", Value::Num(cfg.lb.check_interval as f64)),
        ])
    } else {
        Value::Null
    };
    obj(vec![
        ("name", Value::Str(cfg.name.clone())),
        ("label", Value::Str(label.to_string())),
        ("nranks", Value::Num(r.nranks as f64)),
        ("steps", Value::Num(r.steps as f64)),
        ("total_points", Value::Num(r.total_points as f64)),
        ("machine", Value::Str(machine.to_string())),
        ("lb", lb),
        ("series", Value::Arr(series.iter().map(series_value).collect())),
        ("summary", summary_value(r, &series)),
        ("metrics", metrics_value(r)),
        ("alloc", alloc_value(r, &series)),
        ("steps_dropped", Value::Num(r.steps_dropped as f64)),
    ])
}

/// Assemble the top-level report document.
///
/// `host` is the only wall-clock (nondeterministic) section; pass `None`
/// for byte-reproducible documents (the golden tests do). [`compare()`]
/// ignores it either way.
pub fn run_report(experiment: &str, effort: &str, cases: Vec<Value>, host: Option<Value>) -> Value {
    let mut pairs = vec![
        ("schema_version".to_string(), Value::Num(SCHEMA_VERSION as f64)),
        ("generator".to_string(), Value::Str("overset-report".into())),
        ("experiment".to_string(), Value::Str(experiment.to_string())),
        ("effort".to_string(), Value::Str(effort.to_string())),
        ("cases".to_string(), Value::Arr(cases)),
    ];
    if let Some(h) = host {
        pairs.push(("host".to_string(), h));
    }
    Value::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: u64, flow: f64, serviced: u64, reparts: u64) -> StepRecord {
        let mut r = StepRecord { step, ..StepRecord::ZERO };
        r.time[Phase::Flow as usize] = flow;
        for (c, n) in [
            (Counter::ConnServiced, serviced),
            (Counter::ConnWalkSteps, serviced * 3),
            (Counter::ConnForwards, 1),
            (Counter::ConnCacheHit, serviced / 2),
            (Counter::ConnCacheMiss, serviced - serviced / 2),
            (Counter::CommMsgsFlow, 1),
            (Counter::CommBytesFlow, 100),
            (Counter::LbRepartitions, reparts),
        ] {
            r.counts[c as usize] = n;
        }
        r.allocs[Phase::Connectivity as usize] = 2;
        r.alloc_bytes[Phase::Flow as usize] = 64;
        r
    }

    #[test]
    fn aggregation_takes_max_time_and_computes_f_max() {
        let ranks = vec![
            vec![rec(0, 2.0, 30, 0), rec(1, 1.0, 10, 1)],
            vec![rec(0, 3.0, 10, 0), rec(1, 1.5, 10, 0)],
        ];
        let s = aggregate_steps(&ranks);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].phase_elapsed[Phase::Flow as usize], 3.0);
        // f_max = max(30,10)/mean(20) = 1.5
        assert!((s[0].f_max - 1.5).abs() < 1e-12);
        assert_eq!((s[0].serviced_min, s[0].serviced_max), (10, 30));
        assert_eq!(s[0].counts[Counter::ConnServiced as usize], 40);
        assert_eq!(s[0].counts[Counter::ConnWalkSteps as usize], 120);
        assert_eq!(s[0].counts[Counter::ConnForwards as usize], 2);
        assert_eq!(s[0].counts[Counter::LbRepartitions as usize], 0);
        assert_eq!(s[1].counts[Counter::LbRepartitions as usize], 1);
        assert_eq!(cache_hit_rate(&s[0].counts), Some(0.5));
        assert_eq!(traffic(&s[1].counts), (2, 200));
        assert_eq!((s[0].allocs, s[0].alloc_bytes), (4, 128));
    }

    #[test]
    fn empty_records_produce_empty_series() {
        assert!(aggregate_steps(&[]).is_empty());
        assert!(aggregate_steps(&[vec![], vec![rec(0, 1.0, 1, 0)]]).is_empty());
    }
}
