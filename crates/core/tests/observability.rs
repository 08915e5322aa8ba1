//! Tests of the observability layer end to end: trace determinism, the
//! Chrome trace_event schema, metrics aggregation, and tracing's
//! invisibility to virtual time, state and allocation counting.

use overflow_d::{airfoil_case, run_case, store_case, CaseConfig, LbConfig};
use overset_comm::metrics::Counter;
use overset_comm::trace::{ArgVal, RankTrace, TraceConfig, TraceEvent};
use overset_comm::{chrome_trace_json, MachineModel, Phase, Wait, NUM_PHASES, NUM_WAITS};

fn traced_airfoil() -> overflow_d::RunResult {
    let mut cfg = airfoil_case(0.3, 3);
    cfg.trace = TraceConfig::enabled();
    run_case(&cfg, 6, &MachineModel::ibm_sp2()).unwrap()
}

/// The `conn/serve` spans of a rank whose requests came from the rank
/// itself: (how many, how many request points).
fn served_from_itself(t: &RankTrace) -> (usize, u64) {
    let arg = |e: &overset_comm::TraceEvent, key: &str| -> u64 {
        match e.args.iter().find(|(k, _)| *k == key) {
            Some((_, ArgVal::U64(v))) => *v,
            other => panic!("serve span without a {key} count: {other:?}"),
        }
    };
    let own = t
        .events
        .iter()
        .filter(|e| e.cat == "conn" && e.name == "serve" && arg(e, "src") == t.rank as u64);
    own.fold((0, 0), |(n, pts), e| (n + 1, pts + arg(e, "points")))
}

/// Two identical runs must serialize to byte-identical trace JSON — the
/// runtime is deterministic in virtual time and the exporter must not
/// introduce nondeterminism (map iteration order, pointers, wall clock).
#[test]
fn trace_json_is_byte_identical_across_runs() {
    let a = chrome_trace_json(&traced_airfoil().trace);
    let b = chrome_trace_json(&traced_airfoil().trace);
    assert!(!a.is_empty());
    assert_eq!(a, b, "trace JSON differs between identical runs");
}

/// Golden-schema test for the Chrome trace_event export: the structural
/// invariants chrome://tracing and Perfetto rely on. Checked as substrings
/// (no JSON parser in the workspace) — each is a stable part of the format,
/// not an incidental detail of our writer.
#[test]
fn trace_json_matches_chrome_trace_event_schema() {
    let r = traced_airfoil();
    let json = chrome_trace_json(&r.trace);

    // Top-level object with a traceEvents array and ms display units.
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\":["));
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    // Virtual-clock marker in otherData.
    assert!(json.contains("\"clock\":\"virtual\""));
    // One process-name metadata event per rank.
    for rank in 0..r.nranks {
        assert!(
            json.contains(&format!("\"ph\":\"M\",\"pid\":{rank},")),
            "no process metadata for rank {rank}"
        );
        assert!(json.contains(&format!("\"name\":\"rank {rank}\"")));
    }
    // Complete ("X") events carry ts and dur.
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"ts\":"));
    assert!(json.contains("\"dur\":"));

    // Every rank traced spans for all three per-step phases.
    for (rank, t) in r.trace.iter().enumerate() {
        assert_eq!(t.rank, rank);
        for phase in [Phase::Flow, Phase::Motion, Phase::Connectivity] {
            assert!(
                t.events.iter().any(|e| e.cat == "phase" && e.name == phase.name()),
                "rank {rank} has no {} phase span",
                phase.name()
            );
        }
        // Kernel- and comm-level spans ride inside the phases.
        assert!(t.events.iter().any(|e| e.cat == "solver"));
        assert!(t.events.iter().any(|e| e.cat == "comm"));
        assert!(t.events.iter().any(|e| e.cat == "conn"));
        // One hole cut per step.
        let cuts = t.events.iter().filter(|e| e.cat == "conn" && e.name == "hole_cut").count();
        assert_eq!(cuts, r.steps, "rank {rank}");
    }
    // One span per inverse-map build or pose advance, none otherwise.
    let map_spans = r
        .trace
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| e.cat == "conn" && e.name == "invmap_build")
        .count() as u64;
    let m = &r.metrics;
    assert!(map_spans >= r.nranks as u64);
    assert_eq!(map_spans, m.get(Counter::ConnInvmapBuild) + m.get(Counter::ConnInvmapIncr));
}

/// With a block per rank no search is served in place: every batch a rank
/// serves came from another rank, by message.
#[test]
fn a_block_per_rank_serves_nothing_in_place() {
    let r = traced_airfoil();
    assert!(r.metrics.get(Counter::ConnServiced) > 0);
    assert_eq!(r.metrics.get(Counter::ConnChainFallbacks), 0);
    for t in &r.trace {
        assert_eq!(served_from_itself(t), (0, 0), "rank {}", t.rank);
    }
}

/// A single-processor run is the rank body on one rank: it feeds the same
/// warm-restart counters and opens the same connectivity spans as any
/// rank, serves every search in place and sends no message.
#[test]
fn serial_driver_reports_warm_restarts_and_map_builds() {
    let mut cfg = airfoil_case(0.3, 4);
    cfg.trace = TraceConfig::enabled();
    let r = overflow_d::run_case_serial(&cfg, &MachineModel::ibm_sp2()).unwrap();
    let rate = r.metrics.cache_hit_rate().expect("no warm restarts recorded");
    assert!(rate > 0.5, "warm restart hit rate {rate} too low");
    let phases = [Phase::Flow, Phase::Motion, Phase::Connectivity, Phase::Balance, Phase::Other];
    for phase in phases {
        assert_eq!(r.metrics.get(Counter::msgs_in(phase)), 0, "{} messages", phase.name());
    }
    // Plane grids hold no point in two cells apart: no search of the run
    // reached the canonical chain.
    assert_eq!(r.metrics.get(Counter::ConnChainFallbacks), 0);
    let (batches, points) = served_from_itself(&r.trace[0]);
    assert!(batches > 0);
    assert_eq!(points, r.metrics.get(Counter::ConnServiced));
    let spans = |name: &str| -> Vec<f64> {
        let conn = r.trace[0].events.iter().filter(|e| e.cat == "conn" && e.name == name);
        conn.map(|e| e.dur).collect()
    };
    // The cold build of every grid, then one pose advance per step.
    assert_eq!(spans("invmap_build").len(), r.steps);
    // The hole cut and the donor search are charged one after the other,
    // each over a virtual interval of its own.
    for name in ["hole_cut", "connect"] {
        let durs = spans(name);
        assert_eq!(durs.len(), r.steps, "{name} spans");
        assert!(durs.iter().all(|&d| d > 0.0), "{name}: {durs:?}");
    }
}

/// Tracing is invisible: an untraced run yields no events, and its virtual
/// time, its state and every step record (clock, counters, per-phase
/// allocation counts and bytes) equal a traced run's, record for record.
/// Checked on the airfoil and on a store run whose dynamic balancer
/// repartitions, so the redistribution's allocations are compared too.
/// Host timers tick on every run, traced or not.
#[test]
fn disabled_tracing_is_invisible() {
    let mut store = store_case(0.3, 6);
    store.lb = LbConfig::dynamic(1.5, 2);
    for (cfg, nodes, repartitions) in [(airfoil_case(0.3, 3), 6, 0), (store, 18, 1)] {
        let quiet = run_case(&cfg, nodes, &MachineModel::ibm_sp2()).unwrap();
        assert!(quiet.trace.is_empty());
        let traced = CaseConfig { trace: TraceConfig::enabled(), ..cfg.clone() };
        let traced = run_case(&traced, nodes, &MachineModel::ibm_sp2()).unwrap();
        assert!(traced.trace.iter().all(|t| !t.events.is_empty()));
        let name = &cfg.name;
        assert!(quiet.repartitions >= repartitions, "{name}: too few repartitions to compare");
        assert_eq!(quiet.summary.wall_time.to_bits(), traced.summary.wall_time.to_bits());
        assert_eq!(quiet.state_rms.to_bits(), traced.state_rms.to_bits());
        assert_eq!(quiet.step_records.len(), nodes);
        for (rank, (q, t)) in quiet.step_records.iter().zip(&traced.step_records).enumerate() {
            assert_eq!(q.len(), cfg.steps, "{name}: rank {rank}");
            assert_eq!(q.len(), t.len(), "{name}: rank {rank}");
            for (a, b) in q.iter().zip(t) {
                assert_eq!(a, b, "{name}: rank {rank}, step {}", a.step);
            }
        }
        // Host wall-clock timers are the one field allowed to differ:
        // nonnegative, and populated for the phases the driver entered.
        for r in [&quiet, &traced] {
            assert!(r.host_phase_elapsed.iter().all(|&t| t >= 0.0));
            assert!(r.host_phase_elapsed.iter().sum::<f64>() > 0.0, "host time must tick");
        }
    }
}

/// The waits in the step records are the waits the spans show, each in the
/// phase the runtime charged it to. Per rank and phase, the recorded
/// late-sender and late-receiver seconds equal the `recv` spans' `stall`
/// and `idle` args summed, and the collective seconds equal each
/// collective span's duration less the shortest duration over the ranks at
/// the same collective — every rank's k-th collective is the same one.
/// Store ×0.3 on 18 ranks under the dynamic balancer, so a repartition's
/// waits are among them.
#[test]
fn step_record_waits_equal_the_span_waits() {
    let mut cfg = store_case(0.3, 6);
    cfg.lb = LbConfig::dynamic(1.5, 2);
    cfg.trace = TraceConfig::enabled();
    let r = run_case(&cfg, 18, &MachineModel::ibm_sp2()).unwrap();
    assert!(r.repartitions >= 1, "no repartition to compare");
    let collectives: Vec<Vec<&TraceEvent>> = r
        .trace
        .iter()
        .map(|t| {
            let is_coll =
                |e: &&TraceEvent| e.cat == "comm" && (e.name == "barrier" || e.name == "allgather");
            let mut c: Vec<&TraceEvent> = t.events.iter().filter(is_coll).collect();
            c.sort_by(|a, b| a.ts.total_cmp(&b.ts));
            c
        })
        .collect();
    let ncoll = collectives[0].len();
    assert!(collectives.iter().all(|c| c.len() == ncoll), "ranks ran different collectives");
    let shortest: Vec<f64> = (0..ncoll)
        .map(|k| collectives.iter().map(|c| c[k].dur).fold(f64::INFINITY, f64::min))
        .collect();
    let mut waited = [0.0f64; NUM_WAITS];
    for (rank, (t, recs)) in r.trace.iter().zip(&r.step_records).enumerate() {
        let mut spans = [[0.0f64; NUM_PHASES]; NUM_WAITS];
        for e in t.events.iter().filter(|e| e.cat == "comm" && e.name == "recv") {
            spans[Wait::LateSender as usize][e.phase as usize] += e.arg("stall").unwrap();
            spans[Wait::LateReceiver as usize][e.phase as usize] += e.arg("idle").unwrap();
        }
        for (e, min) in collectives[rank].iter().zip(&shortest) {
            spans[Wait::Collective as usize][e.phase as usize] += e.dur - min;
        }
        for (w, per_phase) in spans.iter().enumerate() {
            for (p, &span) in per_phase.iter().enumerate() {
                let ledger: f64 = recs.iter().map(|rec| rec.wait[w][p]).sum();
                assert!(
                    (ledger - span).abs() <= 1e-12 * ledger.abs().max(span.abs()),
                    "rank {rank}, wait {w}, phase {p}: step records {ledger:e}, spans {span:e}"
                );
                waited[w] += ledger;
            }
        }
    }
    assert!(waited.iter().all(|&w| w > 0.0), "a wait state never occurred: {waited:?}");
}

/// The aggregated registry reflects the run: donor-search service counts,
/// per-phase message traffic, and a positive warm-restart hit rate on a
/// multi-step moving case.
#[test]
fn metrics_registry_reflects_the_run() {
    let r = run_case(&airfoil_case(0.3, 4), 6, &MachineModel::modern()).unwrap();
    let m = &r.metrics;
    assert!(m.get(Counter::ConnServiced) > 0);
    // Every rank records at least one search round per step.
    assert!(m.get(Counter::ConnRounds) >= (r.nranks * r.steps) as u64);
    // Halo exchange sends messages during both flow and connectivity.
    assert!(m.get(Counter::msgs_in(Phase::Flow)) > 0);
    assert!(m.get(Counter::msgs_in(Phase::Connectivity)) > 0);
    assert!(m.get(Counter::bytes_in(Phase::Flow)) > 0);
    // The nth-level restart cache pays off after the first step.
    let rate = m.cache_hit_rate().expect("no donor searches recorded");
    assert!(rate > 0.5, "warm restart hit rate {rate} too low");
    // Orphan counter agrees with the driver's last-step report (no motion
    // between the counts: the last step's orphans are counted once per step).
    assert!(m.get(Counter::ConnOrphans) >= r.orphans_last as u64);
}

/// Rounds within which a donor search is quiescent by construction: one for
/// the cached donors, one per hierarchy level strict and relaxed.
fn hierarchy_bound(cfg: &CaseConfig) -> u64 {
    1 + 2 * cfg.search_order.iter().map(Vec::len).max().unwrap() as u64
}

/// Store x0.4 on 64 ranks was the smallest case that ran into the old
/// 24-round cap (every rank ran every round and the requests still pending
/// were reported as orphans). A round now visits a whole hierarchy level,
/// so the search ends by quiescence inside the hierarchy bound and leaves
/// no orphan on any rank.
#[test]
fn the_smallest_capped_case_now_quiesces() {
    let mut cfg = store_case(0.4, 1);
    cfg.max_threads = Some(2);
    let r = run_case(&cfg, 64, &MachineModel::ibm_sp2()).unwrap();
    assert_eq!(r.orphans_last, 0);
    for (rank, steps) in r.step_records.iter().enumerate() {
        assert!(steps.iter().all(|s| s.count(Counter::ConnOrphans) == 0), "rank {rank}: {steps:?}");
    }
    let rounds = r.metrics.get(Counter::ConnRounds);
    assert!(rounds <= hierarchy_bound(&cfg) * 64, "{rounds} rounds on 64 ranks");
    // What the cold walks left open the cell lists settled: thousands of
    // candidate inversions, and a handful of points held by cells apart —
    // the only searches that still ran the canonical chain.
    assert!(r.metrics.get(Counter::ConnCandidatesTested) > 1000);
    let fallbacks = r.metrics.get(Counter::ConnChainFallbacks);
    assert!(fallbacks <= 10, "{fallbacks} searches went to the canonical chain");
}

/// Dynamic load balancing reads I(p) from the metrics registry; when it
/// repartitions, the registry records it.
#[test]
fn lb_metrics_record_repartitions() {
    let mut cfg = airfoil_case(0.3, 8);
    cfg.lb = overflow_d::LbConfig::dynamic(1.05, 2);
    let r = run_case(&cfg, 8, &MachineModel::modern()).unwrap();
    // Every rank increments the counter once per repartition.
    assert_eq!(r.metrics.get(Counter::LbRepartitions), (r.repartitions * r.nranks) as u64);
    let f = r.metrics.histogram("lb.f_ratio").expect("no f(p) observations");
    assert!(f.count > 0 && f.max >= 1.0);
}
