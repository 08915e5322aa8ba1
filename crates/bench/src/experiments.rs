//! The experiment harness: one function per table / figure of the paper,
//! each printing the same rows or series the paper reports.
//!
//! Absolute numbers come from the virtual-time machine models (DESIGN.md
//! §2); the *shapes* — who wins, by what factor, where the curves bend —
//! are the reproduction targets. EXPERIMENTS.md records paper-vs-measured
//! values for every run.
//!
//! A run that fails ends its experiment: the runners return its
//! [`OversetError`] for `repro` to print and exit 1 on.

use overflow_d::{
    airfoil_case, delta_wing_case, run_case, run_case_serial, store_case, CaseConfig, LbConfig,
    RunResult,
};
use overset_comm::trace::TraceConfig;
use overset_comm::{MachineModel, OversetError, Phase};

/// Global experiment scaling knobs.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Geometric scale of the 3-D cases (1.0 = paper size).
    pub scale3d: f64,
    /// Geometric scale of the airfoil case.
    pub scale2d: f64,
    /// Timesteps per run (the paper averages long runs; the cold first-step
    /// connectivity solve amortizes over this many steps).
    pub steps2d: usize,
    pub steps3d: usize,
    /// Bound on the OS threads executing the ranks (`--max-threads`).
    /// `None`: one thread per rank; `Some(n)`: the comm runtime multiplexes
    /// the ranks onto `n` workers (M:N mode). Virtual times are bit-identical
    /// either way, so every table is unaffected — this only caps host load.
    pub max_threads: Option<usize>,
}

impl Effort {
    pub fn full() -> Self {
        Effort { scale3d: 1.0, scale2d: 1.0, steps2d: 20, steps3d: 12, max_threads: None }
    }

    /// Reduced effort for CI / quick runs.
    pub fn quick() -> Self {
        Effort { scale3d: 0.55, scale2d: 0.6, steps2d: 10, steps3d: 5, ..Self::full() }
    }
}

/// Apply the effort's scheduler bound to a case config — the single place
/// CLI flags become configuration.
pub(crate) fn tuned(mut cfg: CaseConfig, e: Effort) -> CaseConfig {
    cfg.max_threads = e.max_threads;
    cfg
}

fn sp2() -> MachineModel {
    MachineModel::ibm_sp2()
}

fn sp() -> MachineModel {
    MachineModel::ibm_sp()
}

/// One measured row of a performance table.
#[derive(Clone, Debug)]
pub struct PerfRow {
    pub nodes: usize,
    pub points_per_node: usize,
    pub mflops_per_node: [f64; 2], // SP2, SP
    pub speedup: [f64; 2],
    pub dcf3d_pct: [f64; 2],
    pub time_per_step: [f64; 2],
    /// Per-module elapsed times per step (flow, connectivity), per machine.
    pub flow_elapsed: [f64; 2],
    pub conn_elapsed: [f64; 2],
}

/// Run a case across node counts on both machines; the first failed run
/// ends the sweep with its error.
pub fn sweep(
    cfg_for: impl Fn() -> CaseConfig,
    nodes: &[usize],
) -> Result<Vec<PerfRow>, OversetError> {
    let machines = [sp2(), sp()];
    let mut rows = Vec::with_capacity(nodes.len());
    for &n in nodes {
        let mut row = PerfRow {
            nodes: n,
            points_per_node: 0,
            mflops_per_node: [0.0; 2],
            speedup: [0.0; 2],
            dcf3d_pct: [0.0; 2],
            time_per_step: [0.0; 2],
            flow_elapsed: [0.0; 2],
            conn_elapsed: [0.0; 2],
        };
        for (mi, m) in machines.iter().enumerate() {
            let cfg = cfg_for();
            let r = run_case(&cfg, n, m)?;
            row.points_per_node = r.total_points / n;
            row.mflops_per_node[mi] = r.mflops_per_node();
            row.dcf3d_pct[mi] = 100.0 * r.connectivity_fraction();
            row.time_per_step[mi] = r.time_per_step();
            // Exact per-phase elapsed (max over ranks), not the per-rank mean.
            row.flow_elapsed[mi] = r.phase_elapsed[Phase::Flow as usize] / r.steps as f64;
            row.conn_elapsed[mi] = r.phase_elapsed[Phase::Connectivity as usize] / r.steps as f64;
        }
        rows.push(row);
    }
    // Speedups relative to the smallest node count.
    for mi in 0..2 {
        let t0 = rows[0].time_per_step[mi];
        for row in rows.iter_mut() {
            row.speedup[mi] = t0 / row.time_per_step[mi];
        }
    }
    Ok(rows)
}

pub fn print_perf_table(title: &str, rows: &[PerfRow]) {
    println!("\n== {title} ==");
    println!(
        "{:>6} {:>12} | {:>9} {:>9} | {:>8} {:>8} | {:>9} {:>9}",
        "Nodes", "Pts/node", "Mf/n SP2", "Mf/n SP", "Spd SP2", "Spd SP", "%DCF SP2", "%DCF SP"
    );
    for r in rows {
        println!(
            "{:>6} {:>12} | {:>9.1} {:>9.1} | {:>8.2} {:>8.2} | {:>8.1}% {:>8.1}%",
            r.nodes,
            r.points_per_node,
            r.mflops_per_node[0],
            r.mflops_per_node[1],
            r.speedup[0],
            r.speedup[1],
            r.dcf3d_pct[0],
            r.dcf3d_pct[1]
        );
    }
}

/// Per-module speedup series (the paper's Figs. 5 / 7 / 10).
pub fn print_module_speedups(title: &str, rows: &[PerfRow]) {
    println!("\n== {title} (per-module parallel speedup) ==");
    println!(
        "{:>6} | {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12}",
        "Nodes", "OVERFLOW/SP2", "DCF3D/SP2", "Comb/SP2", "OVERFLOW/SP", "DCF3D/SP", "Comb/SP"
    );
    for r in rows {
        let s = |base: f64, v: f64| if v > 0.0 { base / v } else { f64::NAN };
        println!(
            "{:>6} | {:>12.2} {:>12.2} {:>12.2} | {:>12.2} {:>12.2} {:>12.2}",
            r.nodes,
            s(rows[0].flow_elapsed[0], r.flow_elapsed[0]),
            s(rows[0].conn_elapsed[0], r.conn_elapsed[0]),
            s(rows[0].time_per_step[0], r.time_per_step[0]),
            s(rows[0].flow_elapsed[1], r.flow_elapsed[1]),
            s(rows[0].conn_elapsed[1], r.conn_elapsed[1]),
            s(rows[0].time_per_step[1], r.time_per_step[1]),
        );
    }
}

/// Table 1 / Fig. 5: the 2-D oscillating airfoil.
pub fn table1(e: Effort) -> Result<Vec<PerfRow>, OversetError> {
    sweep(|| tuned(airfoil_case(e.scale2d, e.steps2d), e), &[6, 9, 12, 18, 24])
}

/// Table 2: the airfoil scaling study (coarsened / original / refined).
///
/// The paper coarsens/refines by 2× per direction (4× points in 2-D) and
/// holds points-per-node fixed (3 / 12 / 48 nodes). Our refined case uses
/// √2× per direction (2× points) on the paper's 48 nodes — the processor
/// growth that drives the "%DCF3D grows with problem size" trend is
/// preserved, at half the paper's points-per-node — because a 4× refinement
/// of the transonic case exceeds the robustness envelope of the simplified
/// shock-capturing scheme (see EXPERIMENTS.md).
pub fn table2(e: Effort) -> Result<(), OversetError> {
    println!("\n== Table 2: 2D oscillating airfoil scaling study ==");
    println!(
        "{:>22} {:>8} {:>12} | {:>10} {:>10} | {:>9} {:>9}",
        "Case", "Nodes", "Pts/node", "t/step SP2", "t/step SP", "%DCF SP2", "%DCF SP"
    );
    let configs: [(&str, f64, usize); 3] = [
        ("Coarsened (1/4x)", e.scale2d * 0.5, 3),
        ("Original", e.scale2d, 12),
        ("Refined (2x)", e.scale2d * 1.4, 48),
    ];
    for (name, scale, nodes) in configs {
        let mut t = [0.0f64; 2];
        let mut pct = [0.0f64; 2];
        let mut ppn = 0usize;
        for (mi, m) in [sp2(), sp()].iter().enumerate() {
            let cfg = tuned(airfoil_case(scale, e.steps2d), e);
            let r = run_case(&cfg, nodes, m)?;
            t[mi] = r.time_per_step();
            pct[mi] = 100.0 * r.connectivity_fraction();
            ppn = r.total_points / nodes;
        }
        println!(
            "{:>22} {:>8} {:>12} | {:>10.3} {:>10.3} | {:>8.1}% {:>8.1}%",
            name, nodes, ppn, t[0], t[1], pct[0], pct[1]
        );
    }
    Ok(())
}

/// Table 3 / Fig. 7: the descending delta wing.
pub fn table3(e: Effort) -> Result<Vec<PerfRow>, OversetError> {
    sweep(|| tuned(delta_wing_case(e.scale3d, e.steps3d), e), &[7, 12, 26, 55])
}

/// Table 4 / Fig. 10: the finned-store separation (static balancing).
pub fn table4(e: Effort) -> Result<Vec<PerfRow>, OversetError> {
    sweep(|| tuned(store_case(e.scale3d, e.steps3d), e), &[16, 18, 22, 28, 35, 42, 52, 61])
}

/// The store case at each of `nodes` on the SP2 with dynamic load balancing
/// (f_o = 3, checked every 6 steps) and with static balancing only, in node
/// order: (dynamic, static).
fn table5_runs(
    e: Effort,
    nodes: &[usize],
) -> Result<(Vec<RunResult>, Vec<RunResult>), OversetError> {
    let steps = (2 * e.steps3d).max(16);
    let mut dyn_rows: Vec<RunResult> = Vec::new();
    let mut stat_rows: Vec<RunResult> = Vec::new();
    for &n in nodes {
        let mut cfg = tuned(store_case(e.scale3d, steps), e);
        cfg.lb = LbConfig::dynamic(3.0, 6);
        dyn_rows.push(run_case(&cfg, n, &sp2())?);
        let cfg = tuned(store_case(e.scale3d, steps), e);
        stat_rows.push(run_case(&cfg, n, &sp2())?);
    }
    Ok((dyn_rows, stat_rows))
}

/// Connectivity-phase elapsed time per step.
fn conn_per_step(r: &RunResult) -> f64 {
    r.phase_elapsed[Phase::Connectivity as usize] / r.steps as f64
}

/// Table 5 / Fig. 11: static vs dynamic load balancing on the store case.
///
/// The paper measured a maximum connectivity service imbalance f(p) ≈ 7 and
/// chose f_o = 5 to shave it; our synthetic store system tops out at
/// f(p) ≈ 4.5, so the equivalent threshold is f_o = 3 (same ~70% of the
/// observed maximum).
pub fn table5(e: Effort) -> Result<(), OversetError> {
    println!("\n== Table 5: DCF3D with dynamic load balance (store case, SP2, f_o = 3) ==");
    println!(
        "{:>6} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10} | {:>7}",
        "Nodes",
        "%DCF dyn",
        "%DCF stat",
        "DCF spd d",
        "DCF spd s",
        "Comb sp d",
        "Comb sp s",
        "repart"
    );
    let nodes = [16usize, 18, 28, 52];
    let (dyn_rows, stat_rows) = table5_runs(e, &nodes)?;
    for (i, &n) in nodes.iter().enumerate() {
        let (d, s) = (&dyn_rows[i], &stat_rows[i]);
        println!(
            "{:>6} | {:>9.1}% {:>9.1}% | {:>10.2} {:>10.2} | {:>10.2} {:>10.2} | {:>7}",
            n,
            100.0 * d.connectivity_fraction(),
            100.0 * s.connectivity_fraction(),
            conn_per_step(&dyn_rows[0]) / conn_per_step(d),
            conn_per_step(&stat_rows[0]) / conn_per_step(s),
            dyn_rows[0].time_per_step() / d.time_per_step(),
            stat_rows[0].time_per_step() / s.time_per_step(),
            d.repartitions,
        );
    }
    println!(
        "  (dynamic np_final at {} nodes: {:?})",
        nodes[nodes.len() - 1],
        dyn_rows[nodes.len() - 1].np_final
    );
    Ok(())
}

/// One row of Table 6: the store case on `nodes` nodes of [SP2, SP].
struct YmpRow {
    nodes: usize,
    /// Wallclock speedup over the single-processor Y-MP run.
    overall: [f64; 2],
    dcf3d_pct: [f64; 2],
}

/// The Y-MP reference time per step and the rows of Table 6.
fn table6_rows(e: Effort) -> Result<(f64, Vec<YmpRow>), OversetError> {
    let ymp = run_case_serial(&store_case(e.scale3d, e.steps3d.min(6)), &MachineModel::cray_ymp())?;
    let t_ymp = ymp.time_per_step();
    let rows = [18usize, 28, 42, 61]
        .iter()
        .map(|&nodes| {
            let mut row = YmpRow { nodes, overall: [0.0; 2], dcf3d_pct: [0.0; 2] };
            for (mi, m) in [sp2(), sp()].iter().enumerate() {
                let r = run_case(&tuned(store_case(e.scale3d, e.steps3d), e), nodes, m)?;
                row.overall[mi] = t_ymp / r.time_per_step();
                row.dcf3d_pct[mi] = 100.0 * r.connectivity_fraction();
            }
            Ok(row)
        })
        .collect::<Result<_, OversetError>>()?;
    Ok((t_ymp, rows))
}

/// Table 6: wallclock speedup vs single-processor Cray Y-MP ("YMP units").
pub fn table6(e: Effort) -> Result<(), OversetError> {
    println!("\n== Table 6: wallclock speedup vs Cray Y-MP (store case) ==");
    let (t_ymp, rows) = table6_rows(e)?;
    println!("  (Y-MP reference: {:.3} virtual s/step)", t_ymp);
    println!(
        "{:>6} | {:>10} {:>10} | {:>10} {:>10}",
        "Nodes", "Ovrl SP2", "Ovrl SP", "PerNd SP2", "PerNd SP"
    );
    for r in &rows {
        println!(
            "{:>6} | {:>10.1} {:>10.1} | {:>10.2} {:>10.2}",
            r.nodes,
            r.overall[0],
            r.overall[1],
            r.overall[0] / r.nodes as f64,
            r.overall[1] / r.nodes as f64
        );
    }
    Ok(())
}

/// One shape of DESIGN.md §4, checked.
pub struct Shape {
    pub name: &'static str,
    pub holds: bool,
    /// Recorded as not reproducing: the gate fails when it starts to hold,
    /// so the fix has to flip this line.
    pub expected_fail: bool,
    pub detail: String,
}

impl Shape {
    fn new(name: &'static str, holds: bool, detail: String) -> Self {
        Shape { name, holds, expected_fail: false, detail }
    }

    pub fn verdict(&self) -> &'static str {
        match (self.holds, self.expected_fail) {
            (true, false) => "PASS",
            (false, false) => "FAIL",
            (false, true) => "XFAIL",
            (true, true) => "XPASS",
        }
    }

    /// Neither a FAIL nor the unexpected pass of an XFAIL.
    pub fn ok(&self) -> bool {
        self.holds != self.expected_fail
    }
}

const MACHINES: [&str; 2] = ["SP2", "SP"];

/// The Table-1 shapes: DCF3D scales worse than OVERFLOW at every node count
/// above the base, and its share of the step never falls as nodes are added.
pub fn table1_shapes(rows: &[PerfRow]) -> Vec<Shape> {
    let mut closest = (f64::INFINITY, String::new());
    let mut monotone = true;
    for (mi, machine) in MACHINES.iter().enumerate() {
        for pair in rows.windows(2) {
            monotone &= pair[1].dcf3d_pct[mi] >= pair[0].dcf3d_pct[mi];
        }
        for r in &rows[1..] {
            let dcf = rows[0].conn_elapsed[mi] / r.conn_elapsed[mi];
            let flow = rows[0].flow_elapsed[mi] / r.flow_elapsed[mi];
            if flow - dcf < closest.0 {
                let at = format!("{} nodes, {machine}", r.nodes);
                closest = (
                    flow - dcf,
                    format!("closest: DCF3D {dcf:.2}x vs OVERFLOW {flow:.2}x at {at}"),
                );
            }
        }
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    vec![
        Shape::new("SHAPE-T1-DCF-LT-FLOW", closest.0 > 0.0, closest.1),
        Shape::new(
            "SHAPE-T1-PCT-MONOTONE",
            monotone,
            format!(
                "%DCF3D {:.1} -> {:.1} (SP2), {:.1} -> {:.1} (SP) over {} -> {} nodes",
                first.dcf3d_pct[0],
                last.dcf3d_pct[0],
                first.dcf3d_pct[1],
                last.dcf3d_pct[1],
                first.nodes,
                last.nodes
            ),
        ),
    ]
}

/// `repro verify-shapes`: the paper's shapes (DESIGN.md §4) as named verdict
/// lines. Returns the exit code: 1 on any FAIL or unexpected pass of an
/// XFAIL, else 0; or the error of a run that failed.
pub fn verify_shapes(e: Effort) -> Result<i32, OversetError> {
    println!("\n== Paper shapes (DESIGN.md §4) ==");
    let rows1 = table1(e)?;
    let mut shapes = table1_shapes(&rows1);

    // The store case's Table-4 row at 18 nodes is Table 6's first row.
    let (_, rows6) = table6_rows(e)?;
    let (air, store) = (rows1.iter().find(|r| r.nodes == 18).unwrap(), &rows6[0]);
    shapes.push(Shape::new(
        "SHAPE-T4-PCT-ABOVE-T1",
        (0..2).all(|mi| store.dcf3d_pct[mi] > air.dcf3d_pct[mi]),
        format!(
            "%DCF3D at 18 nodes: store {:.1} / {:.1} vs airfoil {:.1} / {:.1} (SP2 / SP)",
            store.dcf3d_pct[0], store.dcf3d_pct[1], air.dcf3d_pct[0], air.dcf3d_pct[1]
        ),
    ));

    let (dynamic, stat) = table5_runs(e, &[16, 52])?;
    let comb = |rows: &[RunResult]| rows[0].time_per_step() / rows[1].time_per_step();
    let dcf = |rows: &[RunResult]| conn_per_step(&rows[0]) / conn_per_step(&rows[1]);
    shapes.push(Shape::new(
        "SHAPE-T5-STATIC-COMBINED-AHEAD",
        comb(&stat) > comb(&dynamic),
        format!(
            "combined speedup at 52 nodes: static {:.2}x vs dynamic {:.2}x",
            comb(&stat),
            comb(&dynamic)
        ),
    ));
    shapes.push(Shape {
        expected_fail: true,
        ..Shape::new(
            "SHAPE-T5-DYN-DCF-AHEAD",
            dcf(&dynamic) > dcf(&stat),
            format!(
                "DCF3D speedup at 52 nodes: dynamic {:.2}x vs static {:.2}x (paper: 4.10 vs 3.28)",
                dcf(&dynamic),
                dcf(&stat)
            ),
        )
    });

    let ratios: Vec<f64> = rows6.iter().map(|r| r.overall[1] / r.overall[0]).collect();
    shapes.push(Shape::new(
        "SHAPE-T6-SP-OVER-SP2",
        ratios.iter().all(|q| (1.35..=1.6).contains(q)),
        format!(
            "overall SP/SP2 {} at {} nodes",
            ratios.iter().map(|q| format!("{q:.2}")).collect::<Vec<_>>().join(" / "),
            rows6.iter().map(|r| r.nodes.to_string()).collect::<Vec<_>>().join(" / ")
        ),
    ));
    let upto42 = &rows6[..3];
    shapes.push(Shape::new(
        "SHAPE-T6-OVERALL-RISES",
        (0..2).all(|mi| upto42.windows(2).all(|w| w[1].overall[mi] > w[0].overall[mi])),
        format!(
            "overall speedup over the Y-MP, 18 -> 42 nodes: {:.1} -> {:.1} (SP2), {:.1} -> {:.1} (SP)",
            upto42[0].overall[0], upto42[2].overall[0], upto42[0].overall[1], upto42[2].overall[1]
        ),
    ));

    for s in &shapes {
        println!("  {}: {} ({})", s.name, s.verdict(), s.detail);
    }
    Ok(i32::from(!shapes.iter().all(Shape::ok)))
}

/// A representative traced run for `--trace` and `repro analyze`: the
/// experiment's representative case (the one `repro report` runs, see
/// [`crate::report::representative_case`]) with tracing enabled.
/// Deterministic in virtual time, so two invocations produce byte-identical
/// trace JSON. Panics unless [`crate::report::check_representative`]
/// accepts `which`.
pub fn traced_run(which: &str, e: Effort) -> Result<RunResult, OversetError> {
    let (mut cfg, nodes) = crate::report::representative_case(which, e)
        .expect("traced run of an experiment without a representative case");
    cfg.trace = TraceConfig::enabled();
    run_case(&tuned(cfg, e), nodes, &sp2())
}

/// Ablation A1: nth-level restart on vs off (from-scratch search every
/// step). Barszcz found restart "yields a considerable reduction in the
/// time spent in the connectivity solution".
pub fn ablate_restart(e: Effort) -> Result<(), OversetError> {
    println!("\n== Ablation: nth-level restart (airfoil, SP2, 12 nodes) ==");
    let mut cfg = tuned(airfoil_case(e.scale2d, e.steps2d), e);
    let with = run_case(&cfg, 12, &sp2())?;
    cfg.restart = false;
    let without = run_case(&cfg, 12, &sp2())?;
    println!(
        "  restart ON : connectivity {:.4} s/step ({:.1}% of total)",
        conn_per_step(&with),
        100.0 * with.connectivity_fraction()
    );
    println!(
        "  restart OFF: connectivity {:.4} s/step ({:.1}% of total)",
        conn_per_step(&without),
        100.0 * without.connectivity_fraction()
    );
    println!(
        "  restart speedup of the connectivity solution: {:.1}x",
        conn_per_step(&without) / conn_per_step(&with)
    );
    Ok(())
}

/// Ablation: prescribed vs 6-DOF-computed store motion — the paper: "the
/// free motion can be computed with negligible change in the parallel
/// performance of the code".
pub fn ablate_sixdof(e: Effort) -> Result<(), OversetError> {
    println!("\n== Ablation: prescribed vs 6-DOF store motion (SP2, 28 nodes) ==");
    let pres = run_case(&tuned(store_case(e.scale3d, e.steps3d), e), 28, &sp2())?;
    let free =
        run_case(&tuned(overflow_d::store_case_sixdof(e.scale3d, e.steps3d), e), 28, &sp2())?;
    println!(
        "  prescribed: {:.3} s/step ({:.1}% DCF3D, motion {:.4} s/step)",
        pres.time_per_step(),
        100.0 * pres.connectivity_fraction(),
        pres.phase_elapsed[Phase::Motion as usize] / pres.steps as f64
    );
    println!(
        "  6-DOF     : {:.3} s/step ({:.1}% DCF3D, motion {:.4} s/step)",
        free.time_per_step(),
        100.0 * free.connectivity_fraction(),
        free.phase_elapsed[Phase::Motion as usize] / free.steps as f64
    );
    println!(
        "  cost of computing the free motion: {:+.1}%",
        100.0 * (free.time_per_step() / pres.time_per_step() - 1.0)
    );
    Ok(())
}

/// Ablation A2: f_o sweep on the store case.
pub fn ablate_fo(e: Effort) -> Result<(), OversetError> {
    println!("\n== Ablation: f_o sweep (store case, SP2, 28 nodes) ==");
    println!(
        "{:>8} | {:>10} {:>10} {:>10} | {:>7} | {:>8}",
        "f_o", "t/step", "%DCF3D", "f_max", "repart", "flow t"
    );
    for fo in [1.0f64, 2.0, 5.0, 10.0, f64::INFINITY] {
        let mut cfg = tuned(store_case(e.scale3d, e.steps3d.max(10)), e);
        if fo.is_finite() {
            cfg.lb = LbConfig::dynamic(fo, 4);
        }
        let r = run_case(&cfg, 28, &sp2())?;
        println!(
            "{:>8} | {:>10.3} {:>9.1}% {:>10.2} | {:>7} | {:>8.3}",
            if fo.is_finite() { format!("{fo:.0}") } else { "inf".into() },
            r.time_per_step(),
            100.0 * r.connectivity_fraction(),
            r.f_max(),
            r.repartitions,
            r.phase_elapsed[Phase::Flow as usize] / r.steps as f64,
        );
    }
    Ok(())
}

/// `scaling`: virtual-rank scaling far past the paper's node counts (and
/// past the host's cores), possible because the M:N scheduler multiplexes
/// the ranks onto a bounded worker pool. Sweeps the store case over
/// P ∈ {16, 64, 256, 1024} on a handful of OS threads. A row whose
/// processor count the grid system cannot absorb (Algorithm 1, the
/// partition repair or the hierarchy check cannot place P ranks, so no rank
/// ran) is reported as such; a run that fails ends the sweep with its error.
pub fn scaling(e: Effort) -> Result<(), OversetError> {
    let workers = e.max_threads.unwrap_or(8);
    println!("\n== Scaling: store case on an M:N scheduler ({workers} OS threads) ==");
    println!(
        "{:>6} {:>12} | {:>10} {:>10} | {:>9} | {:>10}",
        "Ranks", "Pts/node", "t/step", "Speedup", "%DCF3D", "Mf/n SP2"
    );
    // A couple of steps are enough to exercise the full comm pattern; the
    // point of this sweep is rank-count scale, not time-averaging.
    let steps = e.steps3d.clamp(2, 3);
    let mut t0: Option<f64> = None;
    for &n in &[16usize, 64, 256, 1024] {
        let mut cfg = store_case(e.scale3d, steps);
        cfg.max_threads = Some(workers);
        match run_case(&cfg, n, &sp2()) {
            Ok(r) => {
                let t = r.time_per_step();
                let base = *t0.get_or_insert(t);
                println!(
                    "{:>6} {:>12} | {:>10.3} {:>10.2} | {:>8.1}% | {:>10.1}",
                    n,
                    r.total_points / n,
                    t,
                    base / t,
                    100.0 * r.connectivity_fraction(),
                    r.mflops_per_node(),
                );
            }
            Err(err @ (OversetError::Config(_) | OversetError::Setup(_))) => {
                println!("{:>6} {:>12} | infeasible at this scale: {err}", n, "-")
            }
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Ablation A4: cache model on/off (explains the paper's super-scalar
/// speedups).
pub fn ablate_cache(e: Effort) -> Result<(), OversetError> {
    println!("\n== Ablation: cache performance model (airfoil, SP2) ==");
    println!("{:>6} | {:>12} {:>12}", "Nodes", "Mf/n cache", "Mf/n flat");
    for &n in &[6usize, 12, 24, 48] {
        let cfg = tuned(airfoil_case(e.scale2d, e.steps2d), e);
        let with = run_case(&cfg, n, &sp2())?;
        let flat = run_case(&cfg, n, &sp2().without_cache_model())?;
        println!("{:>6} | {:>12.1} {:>12.1}", n, with.mflops_per_node(), flat.mflops_per_node());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Table-1 half of `repro verify-shapes --quick`: a change that bends
    /// the airfoil curves fails tier-1, not only `scripts/check.sh`.
    #[test]
    fn table1_shapes_hold_at_quick_effort() {
        let shapes = table1_shapes(&table1(Effort::quick()).unwrap());
        assert_eq!(shapes.len(), 2);
        for s in &shapes {
            assert!(s.ok() && !s.expected_fail, "{}: {} ({})", s.name, s.verdict(), s.detail);
        }
    }

    /// The airfoil's O-grid and background, one grid per rank on 2 ranks,
    /// the O-grid whirled about its quarter chord: it goes non-physical at
    /// step 1 (`overflow-d`'s
    /// `a_non_physical_node_aborts_the_flow_phase_naming_its_cell`).
    fn whirled_airfoil() -> CaseConfig {
        use overset_motion::{BodyMotion, Prescribed};
        let mut cfg = airfoil_case(0.1, 6);
        cfg.grids.remove(1);
        cfg.search_order = vec![vec![1], vec![0]];
        let (pivot, axis) = ([0.25, 0.0, 0.0], [0.0, 0.0, 1.0]);
        let whirl =
            Prescribed::PitchOscillation { alpha0: 0.1, omega: 2000.0, pivot, axis, time: 0.0 };
        cfg.motions = vec![BodyMotion::prescribed(vec![0], whirl)];
        cfg
    }

    /// A sweep whose run aborts returns that run's error instead of
    /// panicking.
    #[test]
    fn a_sweep_returns_the_error_of_a_run_that_aborts() {
        let err = sweep(whirled_airfoil, &[2]).map(|_| ()).unwrap_err();
        assert!(matches!(err, OversetError::RankPanicked { phase: "flow", .. }), "{err}");
        assert_eq!(run_case(&whirled_airfoil(), 2, &sp2()).err(), Some(err));
    }

    /// Full-effort Table 5's first run, as `repro table5` makes it (store
    /// ×1.0, 16 ranks, dynamic balance with f_o = 3 checked every 6 steps,
    /// 24 steps), aborts in its flow phase with one error: twice under
    /// threads and once under M:N.
    #[test]
    #[ignore = "release build, ~20 s; run by scripts/check.sh"]
    fn full_effort_table5_aborts_naming_one_rank() {
        let errors = [None, None, Some(2)].map(|max_threads| {
            table5_runs(Effort { max_threads, ..Effort::full() }, &[16]).map(|_| ()).unwrap_err()
        });
        // Grids 5 and 8 both go non-physical at step 17; rank 5 is named.
        let message =
            "non-physical state at step 17, grid 5, cell (31,15,1): p = -1.5906539402944616e-2";
        let want = OversetError::RankPanicked { rank: 5, phase: "flow", message: message.into() };
        for err in errors {
            assert_eq!(err, want, "{err}");
        }
    }
}
