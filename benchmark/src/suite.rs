//! The parent side: spawn one child per sample, interleave the workloads
//! over the lanes, check the outputs, reduce the samples and print every
//! metric.

use crate::record::{Metric, Record};
use crate::spans::{Span, Spans};
use crate::stats::{median, Stat};
use crate::workloads::Workload;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// An end-to-end metric: what a user of the system sees. Lower is better
/// for all of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline value by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// The reported value among the samples' statistics.
    pub value: fn(&Stat) -> f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    // The minimum, not the median: on this shared host one process repeating
    // the same airfoil run takes 1.0 to 2.0 s per repetition, for seconds at
    // a time, so a median over the few multi-second samples a run can afford
    // moves by a third between runs of the same code. The fastest sample,
    // the one that met the least interference, repeats.
    EndToEnd { name: "step_ms", unit: "ms", bound: 0.25, value: |s| s.min },
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25, value: |s| s.median },
    // A sample's `VmHWM` sometimes sits a third above the footprint (where
    // glibc happened to put its arenas), never below it.
    EndToEnd { name: "peak_rss_mb", unit: "MiB", bound: 0.10, value: |s| s.min },
];
/// The fourth end-to-end metric: virtual SP2 seconds per timestep. It is
/// bit-reproducible, so it is checked for equality, not against a spread.
pub const VIRT_STEP: &str = "virt_step_s";

/// A child that runs longer than this is killed and counted as failed.
const CHILD_LIMIT: Duration = Duration::from_secs(150);

pub enum Limit {
    Rounds(usize),
    /// Start another child only if, taking as long as the longest so far, it
    /// ends within this many seconds of the first one's start.
    Seconds(f64),
}

pub struct Plan {
    /// The workloads, each with its timesteps per timed run (N).
    pub workloads: Vec<(Workload, usize)>,
    pub seed: u64,
    pub limit: Limit,
    /// Rounds in which every workload also runs a traced child.
    pub traced_rounds: usize,
    pub probes: bool,
}

/// Children run at once: one per core, at most two. Every child computes on
/// one thread, and the cores meet their quiet spells independently, so the
/// second lane doubles the chance that a run has a sample in one.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

#[derive(Default)]
pub struct WorkloadReport {
    pub name: &'static str,
    pub why: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `None` when no sample produced the metric.
    pub end_to_end: Vec<(&'static EndToEnd, Option<Stat>)>,
    pub virt_step_s: Option<f64>,
    /// Medians over the traced samples' timings, their exact values, the
    /// probe results and the benchmark's own `bench.*` rows, by name.
    pub per_layer: Vec<Metric>,
}

pub struct SuiteReport {
    pub workloads: Vec<WorkloadReport>,
    pub spans: Vec<Span>,
    pub rounds: usize,
}

impl SuiteReport {
    /// No operation failed and no check did.
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(|w| w.failed == 0 && w.failures.is_empty())
    }
}

struct Samples {
    workload: Workload,
    steps: usize,
    reference: Option<f64>,
    untraced: Vec<Record>,
    traced: Vec<Record>,
    probes: Option<Record>,
    /// Sample children that crashed, hung or printed no record.
    lost: u64,
    failures: Vec<String>,
}

#[derive(Clone, Copy)]
enum Kind {
    Reference,
    Sample,
    Traced,
    Probes,
}

impl Kind {
    /// The value of `--child`.
    fn name(self) -> &'static str {
        match self {
            Kind::Reference => "reference",
            Kind::Sample => "sample",
            Kind::Traced => "traced",
            Kind::Probes => "probes",
        }
    }
}

#[derive(Clone, Copy)]
struct Job {
    /// Index into the plan's workloads.
    workload: usize,
    kind: Kind,
}

/// What the lanes share: the jobs still to hand out and the results so far.
struct Shared<'p> {
    plan: &'p Plan,
    start: Instant,
    rounds: usize,
    /// The serial references, then the rest of the current round.
    pending: VecDeque<Job>,
    /// Seconds the longest child so far took.
    longest: f64,
    next_sample: u64,
    all: Vec<Samples>,
    child_spans: Vec<Span>,
}

impl Shared<'_> {
    /// The next child to run and its sample id. Rounds are interleaved: a
    /// burst of neighbour load hits every workload.
    fn next_job(&mut self) -> Option<(Job, u64)> {
        if self.pending.is_empty() {
            let more = match self.plan.limit {
                Limit::Rounds(n) => self.rounds < n,
                Limit::Seconds(secs) => {
                    self.rounds == 0 || self.start.elapsed().as_secs_f64() + self.longest <= secs
                }
            };
            if !more {
                return None;
            }
            for i in round_order(self.all.len(), self.plan.seed, self.rounds) {
                self.pending.push_back(Job { workload: i, kind: Kind::Sample });
                if self.rounds < self.plan.traced_rounds {
                    self.pending.push_back(Job { workload: i, kind: Kind::Traced });
                }
            }
            self.rounds += 1;
        }
        self.pending.pop_front().map(|job| (job, self.next_id()))
    }

    fn next_id(&mut self) -> u64 {
        self.next_sample += 1;
        self.next_sample
    }

    /// File a finished child's record, or the reason it left none.
    fn file(&mut self, job: Job, sample: u64, secs: f64, out: Result<String, String>) {
        self.longest = self.longest.max(secs);
        let s = &mut self.all[job.workload];
        let parsed =
            out.and_then(|text| Record::parse(&text, sample).ok_or("printed no record".into()));
        let mut rec = match parsed {
            Ok(rec) => rec,
            Err(e) => {
                let label = format!("{}.{}", s.workload.name, job.kind.name());
                s.failures.push(format!("{label} child (sample {sample}): {e}"));
                s.lost += u64::from(matches!(job.kind, Kind::Sample | Kind::Traced));
                return;
            }
        };
        self.child_spans.append(&mut rec.spans);
        match job.kind {
            Kind::Reference => {
                s.failures.append(&mut rec.failures);
                s.reference = rec.get("state_rms");
            }
            Kind::Sample => s.untraced.push(rec),
            Kind::Traced => s.traced.push(rec),
            Kind::Probes => s.probes = Some(rec),
        }
    }
}

/// Run `--child <kind>` of this executable; its standard output.
fn spawn(kind: Kind, w: &Workload, steps: usize, sample: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--child", kind.name(), "--workload", w.name])
        .args(["--steps", &steps.to_string(), "--sample-id", &sample.to_string()])
        // glibc at its documented static thresholds. By default it adapts its
        // mmap and trim thresholds to the sizes it has seen freed, and the
        // same deterministic run then peaks at 169, 227 or 286 MiB
        // (`store_dynlb`) depending on where the arenas happened to land.
        .env("MALLOC_TRIM_THRESHOLD_", "131072")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    // A record is a few KiB, well inside the pipe buffer, so the child can
    // always finish writing before it is read.
    let start = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if start.elapsed() > CHILD_LIMIT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("killed after {} s", CHILD_LIMIT.as_secs()));
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// splitmix64: the seed only permutes the workload order within a round.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn round_order(n: usize, seed: u64, round: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = mix(seed ^ mix(round as u64));
    for i in (1..n).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Whether `a` and `b` check `state_rms` against the same serial run.
fn same_case(a: &Samples, b: &Samples) -> bool {
    a.workload.system == b.workload.system && a.steps == b.steps
}

pub fn run_plan(plan: &Plan) -> SuiteReport {
    let all: Vec<Samples> = plan
        .workloads
        .iter()
        .map(|&(workload, steps)| Samples {
            workload,
            steps,
            reference: None,
            untraced: Vec::new(),
            traced: Vec::new(),
            probes: None,
            lost: 0,
            failures: Vec::new(),
        })
        .collect();
    // The serial reference of each (case, step count), once per benchmark
    // run. A serial workload is its own reference.
    let parallel = |s: &Samples| s.workload.ranks != 0;
    let references = (0..all.len())
        .filter(|&i| parallel(&all[i]))
        .filter(|&i| !all[..i].iter().any(|d| parallel(d) && same_case(d, &all[i])))
        .map(|i| Job { workload: i, kind: Kind::Reference })
        .collect();
    let shared = Mutex::new(Shared {
        plan,
        start: Instant::now(),
        rounds: 0,
        pending: references,
        longest: 0.0,
        next_sample: 0,
        all,
        child_spans: Vec::new(),
    });

    const POISONED: &str = "a lane panicked while filing a result";
    let run = |spans: &mut Spans, job: Job, sample: u64| {
        let (w, steps) = plan.workloads[job.workload];
        let label = format!("{}.{}", w.name, job.kind.name());
        let (out, secs) = spans.span(&label, |_| spawn(job.kind, &w, steps, sample));
        shared.lock().expect(POISONED).file(job, sample, secs, out);
    };
    // Each lane runs one child at a time and takes the next job when it ends.
    let lane = || {
        let mut spans = Spans::new(0);
        loop {
            // Its own statement, so that the lock is free again while the
            // child runs.
            let next = shared.lock().expect(POISONED).next_job();
            let Some((job, sample)) = next else {
                return spans.list;
            };
            run(&mut spans, job, sample);
        }
    };
    let mut spans: Vec<Span> = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..lanes()).map(|_| scope.spawn(lane)).collect();
        lanes.into_iter().flat_map(|l| l.join().expect("a lane panicked")).collect()
    });
    // The probes run alone: two of them need both cores.
    if plan.probes {
        let mut probe_spans = Spans::new(0);
        for i in 0..plan.workloads.len() {
            let sample = shared.lock().expect(POISONED).next_id();
            run(&mut probe_spans, Job { workload: i, kind: Kind::Probes }, sample);
        }
        spans.append(&mut probe_spans.list);
    }

    let mut shared = shared.into_inner().expect(POISONED);
    for i in 0..shared.all.len() {
        let (done, rest) = shared.all.split_at_mut(i);
        let first = done.iter().find(|d| parallel(d) && same_case(d, &rest[0]));
        if let (true, Some(d)) = (parallel(&rest[0]), first) {
            rest[0].reference = d.reference;
        }
    }
    spans.append(&mut shared.child_spans);
    let rounds = shared.rounds;
    SuiteReport { workloads: shared.all.into_iter().map(reduce).collect(), spans, rounds }
}

/// Check one workload's samples and reduce them to its report.
fn reduce(mut s: Samples) -> WorkloadReport {
    let w = s.workload;
    let ops = (w.repeats * s.steps) as u64;
    let mut rep = WorkloadReport { name: w.name, why: w.why, ..Default::default() };
    rep.failures.append(&mut s.failures);
    if w.ranks != 0 && s.reference.is_none() {
        rep.failures.push("no serial reference to check state_rms against".into());
    }
    // A child that left no record failed every operation it was to attempt.
    rep.attempted += s.lost * ops;
    rep.failed += s.lost * ops;

    for (kind, group) in [("untraced", &s.untraced), ("traced", &s.traced)] {
        for (i, rec) in group.iter().enumerate() {
            let mut bad: Vec<String> = rec.failures.clone();
            bad.dedup(); // K runs failing the same way say so once
            if let (Some(rms), Some(reference)) = (rec.get("state_rms"), s.reference) {
                let off = (rms - reference).abs();
                if off.is_nan() || off > w.rms_tol * reference.abs() {
                    bad.push(format!(
                        "state_rms {rms:?} differs from the serial reference {reference:?} by more than {:e}",
                        w.rms_tol
                    ));
                }
            }
            // Counters, allocation counts and virtual times of one workload
            // repeat exactly; tracing may add allocations, so traced samples
            // are compared among themselves.
            for m in rec.metrics.iter().filter(|m| m.exact) {
                let first = group[0].get(&m.name);
                if first.map(f64::to_bits) != Some(m.value.to_bits()) {
                    bad.push(format!(
                        "{} differs between two {kind} samples: {first:?} vs {:?}",
                        m.name, m.value
                    ));
                }
            }
            rep.attempted += rec.attempted;
            rep.failed += if bad.is_empty() { rec.failed } else { rec.attempted };
            rep.failures.extend(bad.into_iter().map(|b| format!("{kind} sample {i}: {b}")));
        }
    }

    let values = |group: &[Record], name: &str| -> Vec<f64> {
        group.iter().flat_map(|r| r.all(name)).filter(|v| v.is_finite()).collect()
    };
    for e in &END_TO_END {
        rep.end_to_end.push((e, Stat::of(&values(&s.untraced, e.name))));
    }
    rep.virt_step_s = s.untraced.first().and_then(|r| r.get(VIRT_STEP));

    // Per-layer rows: the traced samples' metrics (medians of timings, the
    // exact values as they are), then the probes, then the benchmark's own.
    let mut rows: BTreeMap<String, Metric> = BTreeMap::new();
    let mut row = |name: &str, unit: &str, value: f64, exact: bool| {
        rows.insert(name.into(), Metric { name: name.into(), unit: unit.into(), value, exact });
    };
    let end_to_end_names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
    for m in s.traced.first().map_or(&[][..], |r| &r.metrics[..]) {
        if end_to_end_names.contains(&m.name.as_str()) || m.name == "state_rms" {
            continue;
        }
        row(&m.name, &m.unit, median(&values(&s.traced, &m.name)), m.exact);
    }
    for m in s.probes.iter().flat_map(|r| r.metrics.iter()) {
        row(&m.name, &m.unit, m.value, m.exact);
    }
    if !s.traced.is_empty() {
        let mut calib = values(&s.untraced, "bench.calib_ms");
        calib.extend(values(&s.traced, "bench.calib_ms"));
        row("bench.calib_ms", "ms", median(&calib), false);
        let fastest = |group: &[Record]| Stat::of(&values(group, "step_ms")).map(|s| s.min);
        let overhead = match (fastest(&s.traced), fastest(&s.untraced)) {
            (Some(on), Some(off)) if off > 0.0 => (on / off - 1.0) * 100.0,
            _ => 0.0,
        };
        row("bench.trace_overhead_pct", "%", overhead, false);
    }
    rep.per_layer = rows.into_values().collect();
    rep
}

impl WorkloadReport {
    /// Human-readable tables: every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "\n== {}   operations attempted {}, failed {}",
            self.name, self.attempted, self.failed
        );
        println!("   why: {}", self.why);
        println!(
            "  {:<14}{:<6}{:>12}{:>12}{:>12}{:>12}{:>12}{:>4}{:>9}{:>7}",
            "end-to-end", "unit", "value", "median", "q1", "q3", "min", "n", "spread%", "bound%"
        );
        for (e, stat) in &self.end_to_end {
            match stat {
                Some(s) => {
                    // A spread wider than the bound cannot resolve a change
                    // of the size of the bound.
                    let note = if s.spread() > e.bound { "  unresolved" } else { "" };
                    println!(
                        "  {:<14}{:<6}{:>12.4}{:>12.4}{:>12.4}{:>12.4}{:>12.4}{:>4}{:>9.2}{:>7.1}{note}",
                        e.name,
                        e.unit,
                        (e.value)(s),
                        s.median,
                        s.q1,
                        s.q3,
                        s.min,
                        s.n,
                        s.spread() * 100.0,
                        e.bound * 100.0
                    );
                }
                None => println!("  {:<14}{:<6}{:>12}", e.name, e.unit, "-"),
            }
        }
        if let Some(v) = self.virt_step_s {
            println!("  {VIRT_STEP:<14}{:<6}{v:>12.6}   (exact)", "virt_s");
        }
        if !self.per_layer.is_empty() {
            println!("  {:<40}{:<9}{:>16}", "per-layer", "unit", "value");
        }
        for m in &self.per_layer {
            println!("  {:<40}{:<9}{:>16.6}", m.name, m.unit, m.value);
        }
        for f in &self.failures {
            println!("  FAILED {}: {f}", self.name);
        }
    }

    /// The contract's result object for one workload.
    pub fn result_json(&self, per_layer: bool) -> String {
        let mut metrics = Vec::new();
        if per_layer {
            for m in &self.per_layer {
                metrics.push(metric_json(&m.name, &m.unit, m.value));
            }
        } else {
            for (e, stat) in &self.end_to_end {
                metrics.push(metric_json(e.name, e.unit, stat.as_ref().map_or(f64::NAN, e.value)));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric_json(name: &str, unit: &str, value: f64) -> String {
    // JSON has no NaN; a metric nothing produced reads as null.
    let value = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Everything one suite measured, as one JSON document.
pub fn suite_json(report: &SuiteReport, seed: u64) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"rounds\": {}, \"workloads\": {{", report.rounds);
    for (i, w) in report.workloads.iter().enumerate() {
        let mut e2e = Vec::new();
        for (e, stat) in &w.end_to_end {
            if let Some(s) = stat {
                e2e.push(format!(
                    "\"{}\": {{\"value\": {:?}, \"median\": {:?}, \"q1\": {:?}, \"q3\": {:?}, \"min\": {:?}, \"n\": {}, \"unit\": \"{}\"}}",
                    e.name, (e.value)(s), s.median, s.q1, s.q3, s.min, s.n, e.unit
                ));
            }
        }
        if let Some(v) = w.virt_step_s {
            e2e.push(metric_json(VIRT_STEP, "virt_s", v));
        }
        let layers: Vec<String> =
            w.per_layer.iter().map(|m| metric_json(&m.name, &m.unit, m.value)).collect();
        let _ = write!(
            out,
            "{}\n\"{}\": {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            if i == 0 { "" } else { "," },
            w.name,
            w.attempted,
            w.failed,
            e2e.join(", "),
            layers.join(", ")
        );
    }
    out.push_str("\n}}\n");
    out
}

/// `--selfcheck`: two sets of the same build must agree. Returns the
/// disagreements; timing differences are unresolved, not regressions, when
/// the host itself (the calibration loop) moved between the sets.
pub fn compare_sets(a: &SuiteReport, b: &SuiteReport) -> Vec<String> {
    let mut out = Vec::new();
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        let layer = |w: &WorkloadReport, name: &str| {
            w.per_layer.iter().find(|m| m.name == name).map(|m| m.value)
        };
        let calib = (layer(wa, "bench.calib_ms"), layer(wb, "bench.calib_ms"));
        let host_moved = matches!(calib, (Some(x), Some(y)) if (y / x - 1.0).abs() > 0.10);
        for ((e, sa), (_, sb)) in wa.end_to_end.iter().zip(&wb.end_to_end) {
            let (Some(sa), Some(sb)) = (sa, sb) else {
                out.push(format!("{}: {} missing in one set", wa.name, e.name));
                continue;
            };
            let (va, vb) = ((e.value)(sa), (e.value)(sb));
            let diff = vb / va - 1.0;
            if diff.abs() > e.bound {
                let why = if host_moved {
                    "unresolved (calibration loop moved >10%)"
                } else {
                    "disagree"
                };
                out.push(format!(
                    "{}: {} {why}: {:.4} vs {:.4} {} ({:+.1}%, bound {:.0}%)",
                    wa.name,
                    e.name,
                    va,
                    vb,
                    e.unit,
                    diff * 100.0,
                    e.bound * 100.0
                ));
            }
        }
        if wa.virt_step_s.map(f64::to_bits) != wb.virt_step_s.map(f64::to_bits) {
            out.push(format!(
                "{}: {VIRT_STEP} differs: {:?} vs {:?}",
                wa.name, wa.virt_step_s, wb.virt_step_s
            ));
        }
        // Counters, virtual times and allocation counts agree exactly.
        for m in wa.per_layer.iter().filter(|m| m.exact) {
            let other = layer(wb, &m.name);
            if other.map(f64::to_bits) != Some(m.value.to_bits()) {
                out.push(format!("{}: {} differs: {:?} vs {other:?}", wa.name, m.name, m.value));
            }
        }
    }
    out
}
