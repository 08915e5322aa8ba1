//! Layer probes: small direct measurements of single layers, run once per
//! benchmark in a child process of their own, each inside a benchmark-owned
//! span. They back the per-layer metrics no whole-case run can isolate.

mod balance;
mod comm;
mod grid;
mod solver;

use crate::record::Record;
use crate::spans::Spans;
use crate::workloads::Workload;

pub fn run_probes(w: &Workload, sample: u64) -> Record {
    let mut rec = Record::default();
    let mut spans = Spans::new(sample);
    spans.span("probe.grid", |s| grid::probe(w, s, &mut rec));
    spans.span("probe.balance", |s| balance::probe(w, s, &mut rec));
    spans.span("probe.solver", |s| solver::probe(s, &mut rec));
    spans.span("probe.comm", |s| comm::probe(s, &mut rec));
    rec.spans = spans.list;
    rec
}

/// Median seconds of `reps` calls of `f`, each in a span named `name`.
fn median_secs<T>(spans: &mut Spans, name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let secs: Vec<f64> =
        (0..reps).map(|_| spans.span(name, |_| std::hint::black_box(f())).1).collect();
    crate::stats::median(&secs)
}
