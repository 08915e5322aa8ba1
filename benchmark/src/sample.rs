//! One sample, run in a child process of its own so that peak RSS is per
//! sample and set-up starts from nothing:
//!
//! 1. build the `CaseConfig` (grid generation);
//! 2. the cold run: the same case with `steps = 1`;
//! 3. K timed N-step runs.
//!
//! `setup_s` = (1) + (2). Every timed run gives one `step_ms` value, run
//! wall / N. The steady timestep, (run wall - cold-run wall) / (N - 1), is
//! the per-layer `core.steady_step_ms`: the subtraction multiplies this
//! host's noise by run / (run - cold), 1.8 on `store_serial`, which no bound
//! the contract allows would hold.

use crate::record::Record;
use crate::spans::Spans;
use crate::workloads::Workload;
use overflow_d::RunResult;
use overset_comm::Phase;

const PHASES: [(Phase, &str); 4] = [
    (Phase::Flow, "solver"),
    (Phase::Connectivity, "connectivity"),
    (Phase::Motion, "motion"),
    (Phase::Balance, "balance"),
];

/// Fixed cache-resident multiply-add loop timed at the start of every child:
/// a reading of the host, not of the program. It is throughput-bound like the
/// solver kernels, so it slows when a neighbour takes the core's other
/// hardware thread. When its median moves between two sets of runs, their
/// timing differences are unresolved.
fn calibrate() -> f64 {
    const N: usize = 1 << 15;
    let (a, b) = (vec![1.0f64; N], vec![0.5f64; N]);
    let mut c = vec![0.0f64; N];
    for _ in 0..500 {
        for i in 0..N {
            c[i] = a[i] * 1.000_000_1 + b[i] * c[i] + 0.5;
        }
        std::hint::black_box(&mut c);
    }
    c[0]
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn run_sample(w: &Workload, steps: usize, traced: bool, sample: u64) -> Record {
    let mut rec = Record::default();
    let mut spans = Spans::new(sample);
    let (_, calib_s) = spans.span("bench.calibrate", |_| std::hint::black_box(calibrate()));
    rec.timed("bench.calib_ms", "ms", calib_s * 1e3);

    let (cfg, gen_s) = spans.span("grid.generate", |_| w.config(steps, traced));
    let mut cold_cfg = cfg.clone();
    cold_cfg.steps = 1;
    rec.attempted = (w.repeats * steps) as u64;

    let (cold, cold_s) = spans.span("core.cold_run", |_| w.run(&cold_cfg));
    let cold = match cold {
        Ok(r) => r,
        Err(e) => {
            rec.failed = rec.attempted;
            rec.failures.push(format!("cold run failed: {e}"));
            rec.spans = spans.list;
            return rec;
        }
    };
    rec.timed("setup_s", "s", gen_s + cold_s);
    rec.timed("core.cold_run_s", "s", cold_s);
    let conn_cold = cold.host_phase_elapsed[Phase::Connectivity as usize];
    rec.timed("connectivity.cold_host_ms", "ms", conn_cold * 1e3);
    drop(cold);

    let mut last: Option<(RunResult, f64)> = None;
    for _ in 0..w.repeats {
        let (run, run_s) = spans.span("core.run", |_| w.run(&cfg));
        match run {
            Ok(r) => {
                rec.timed("step_ms", "ms", run_s / steps as f64 * 1e3);
                check_run(&r, &mut rec);
                last = Some((r, run_s));
            }
            Err(e) => {
                rec.failed += steps as u64;
                rec.failures.push(format!("run failed: {e}"));
            }
        }
    }
    if let Some((r, run_s)) = &last {
        rec.exact("virt_step_s", "virt_s", r.time_per_step());
        rec.exact("state_rms", "1", r.state_rms);
        layer_metrics(r, *run_s, cold_s, &mut rec);
    }
    rec.timed("peak_rss_mb", "MiB", peak_rss_mb());
    rec.spans = spans.list;
    rec
}

/// The serial reference: one untimed N-step `run_case_serial` of the
/// workload's case; only `state_rms` is reported.
pub fn run_reference(w: &Workload, steps: usize, sample: u64) -> Record {
    let mut rec = Record::default();
    let mut spans = Spans::new(sample);
    let r = w.reference();
    let cfg = r.config(steps, false);
    match spans.span("core.reference_run", |_| r.run(&cfg)).0 {
        Ok(res) => rec.exact("state_rms", "1", res.state_rms),
        Err(e) => rec.failures.push(format!("reference run failed: {e}")),
    }
    rec.spans = spans.list;
    rec
}

/// Per-run output checks; a failing run counts every one of its steps.
fn check_run(r: &RunResult, rec: &mut Record) {
    let mut bad = Vec::new();
    if !r.state_rms.is_finite() {
        bad.push(format!("state_rms is not finite ({})", r.state_rms));
    }
    // 0.5 % of the IGBPs may be orphans (store_ranks leaves ~0.2 %).
    if r.orphans_last * 200 > r.igbps_last {
        bad.push(format!(
            "orphans_last {} exceeds 0.5% of igbps_last {}",
            r.orphans_last, r.igbps_last
        ));
    }
    if !bad.is_empty() {
        rec.failed += r.steps as u64;
        rec.failures.extend(bad);
    }
}

/// Per-layer metrics of one N-step run (layer = crate). Host times are the
/// driver's own per-phase timers (max over ranks); counters, virtual times
/// and allocation counts repeat exactly. Span sums are zero unless traced.
fn layer_metrics(r: &RunResult, run_s: f64, cold_s: f64, rec: &mut Record) {
    let steps = r.steps as f64;
    let host_total: f64 = r.host_phase_elapsed.iter().sum();
    let virt_total: f64 = r.phase_elapsed.iter().sum();
    // Allocations of the last (steady) step, summed over ranks.
    let last_step_allocs = |p: Phase, bytes: bool| -> f64 {
        r.alloc_records
            .iter()
            .filter_map(|rank| rank.last())
            .map(|a| if bytes { a.bytes[p as usize] } else { a.allocs[p as usize] })
            .sum::<u64>() as f64
    };
    let span_sum = |cat: &str, name: &str| -> f64 {
        r.trace
            .iter()
            .flat_map(|rank| rank.events.iter())
            .filter(|e| e.cat == cat && e.name == name)
            .map(|e| e.dur)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    };
    let counter = |name: &str| r.metrics.counter(name) as f64;

    for (phase, layer) in PHASES {
        let p = phase as usize;
        rec.timed(&format!("{layer}.host_ms"), "ms", r.host_phase_elapsed[p] * 1e3);
        rec.exact(&format!("{layer}.virt_s"), "virt_s", r.phase_elapsed[p]);
    }
    // The two phases that compute, allocate and send.
    for (phase, layer) in &PHASES[..2] {
        let p = *phase as usize;
        rec.timed(&format!("{layer}.host_share"), "1", r.host_phase_elapsed[p] / host_total);
        rec.exact(&format!("{layer}.allocs_per_step"), "count", last_step_allocs(*phase, false));
        rec.exact(
            &format!("{layer}.msgs"),
            "count",
            counter(&format!("comm.msgs.{}", phase.name())),
        );
        rec.exact(&format!("{layer}.bytes"), "B", counter(&format!("comm.bytes.{}", phase.name())));
    }

    rec.exact("solver.flops", "flop", r.summary.flops[Phase::Flow as usize]);
    rec.exact("solver.alloc_bytes_per_step", "B", last_step_allocs(Phase::Flow, true));
    rec.exact("solver.implicit_sweeps.virt_s", "virt_s", span_sum("solver", "implicit_sweeps"));
    rec.exact("solver.exchange_halo.virt_s", "virt_s", span_sum("solver", "exchange_halo"));

    let serviced = counter("conn.serviced");
    let hits = counter("conn.cache.hit");
    let attempts = hits + counter("conn.cache.miss");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let conn_virt = r.phase_elapsed[Phase::Connectivity as usize];
    rec.exact("connectivity.virt_share", "1", ratio(conn_virt, virt_total));
    rec.exact("connectivity.igbps", "count", r.igbps_last as f64);
    rec.exact("connectivity.serviced", "count", serviced);
    rec.exact("connectivity.walk_steps", "count", counter("conn.walk_steps"));
    rec.exact(
        "connectivity.walk_steps_per_igbp",
        "1",
        ratio(counter("conn.walk_steps"), r.igbps_last as f64 * steps),
    );
    rec.exact("connectivity.forwards", "count", counter("conn.forwards"));
    rec.exact("connectivity.forward_ratio", "1", ratio(counter("conn.forwards"), serviced));
    rec.exact("connectivity.cache_hit_rate", "1", ratio(hits, attempts));
    rec.exact("connectivity.rounds", "count", counter("conn.rounds"));
    rec.exact("connectivity.orphans", "count", r.orphans_last as f64);
    rec.exact("connectivity.invmap_builds", "count", counter("conn.invmap.build"));
    rec.exact("connectivity.invmap_incr", "count", counter("conn.invmap.incr"));
    rec.exact("connectivity.connect.virt_s", "virt_s", span_sum("conn", "connect"));
    rec.exact("connectivity.serve.virt_s", "virt_s", span_sum("conn", "serve"));

    rec.exact("balance.repartitions", "count", r.repartitions as f64);
    rec.exact("balance.f_max", "1", r.f_max());

    rec.exact("comm.msgs", "count", r.summary.msgs as f64);
    rec.exact("comm.bytes", "B", r.summary.bytes as f64);
    rec.exact("comm.collectives", "count", counter("comm.collectives"));
    rec.exact("comm.msgs_per_step", "count", r.summary.msgs as f64 / steps);
    let stall = r.metrics.histogram("comm.recv.stall_s").map_or(0.0, |h| h.sum);
    rec.exact("comm.recv_stall_virt_s", "virt_s", stall);

    rec.timed("core.run_s", "s", run_s);
    // The cold first step cancels; needs at least two steps.
    rec.timed("core.steady_step_ms", "ms", (run_s - cold_s) / (steps - 1.0) * 1e3);
    // Driver, redistribution and spawn cost: the part of the run wall that
    // not even the rank with the most attributed time had inside a phase.
    let attributed = r.host_phase_by_rank.iter().map(|p| p.iter().sum::<f64>()).fold(0.0, f64::max);
    rec.timed("core.unattributed_share", "1", (run_s - attributed) / run_s);
}
