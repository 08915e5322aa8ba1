//! The OVERFLOW-D1 driver: the three-phase timestep loop (flow solve, grid
//! motion, domain connectivity) with barriers between phases, integrated
//! static/dynamic load balancing, and per-phase performance accounting —
//! everything the paper's tables and figures are computed from.

use crate::comm_impl::MpSolverComm;
use crate::redistribute::redistribute_state;
use crate::setup::{build_block, build_topology};
use overset_balance::{
    dynamic_rebalance, fit_np_to_dims_min, static_balance, Partition, ServiceWindow,
};
use overset_comm::metrics::{Counter, Hist};
use overset_comm::trace::{ArgVal, RankTrace, TraceConfig};
use overset_comm::{
    AllocTotals, Comm, MachineModel, MetricsRegistry, OversetError, PerfSummary, Phase, RankOutput,
    StepRecord, Universe, VecPool, WorkClass, NUM_PHASES,
};
use overset_connectivity::{cut_holes_and_find_fringe, ConnArena, Connectivity, RankBlock};
use overset_grid::curvilinear::{CurvilinearGrid, Solid};
use overset_grid::transform::RigidTransform;
use overset_grid::{Dims, Ijk};
use overset_motion::{BodyMotion, Loads};
use overset_solver::bc::apply_bcs;
use overset_solver::{step_block, Blank, Block, FlowConditions, Scratch, SolverComm, WallGeometry};

/// Load-balance configuration: the user-specified factor `f_o` and how often
/// the dynamic scheme checks the measured service loads (Algorithm 2's
/// "check solution after specified number of timesteps").
#[derive(Clone, Copy, Debug)]
pub struct LbConfig {
    pub fo: f64,
    pub check_interval: usize,
}

impl LbConfig {
    /// Static balancing only (`f_o = ∞`), the paper's default.
    pub fn static_only() -> Self {
        LbConfig { fo: f64::INFINITY, check_interval: usize::MAX }
    }

    pub fn dynamic(fo: f64, check_interval: usize) -> Self {
        LbConfig { fo, check_interval }
    }
}

/// A complete moving-body overset case.
#[derive(Clone)]
pub struct CaseConfig {
    pub name: String,
    pub grids: Vec<CurvilinearGrid>,
    /// Hierarchical donor-search lists per grid.
    pub search_order: Vec<Vec<usize>>,
    /// Moving bodies (sets of grids sharing one prescribed or 6-DOF motion).
    pub motions: Vec<BodyMotion>,
    pub fc: FlowConditions,
    pub steps: usize,
    pub lb: LbConfig,
    /// Collect the full final state into [`RunResult::states`] (debugging /
    /// validation; off by default).
    pub collect_state: bool,
    /// The nth-level-restart donor cache (Barszcz): each fringe point's
    /// search starts at last step's donor. On by default; off, every step
    /// searches from scratch (`repro ablate-restart`): more walk steps,
    /// more time.
    pub restart: bool,
    /// Event tracing (virtual-time spans collected into
    /// [`RunResult::trace`]). Disabled by default; zero-cost when off.
    pub trace: TraceConfig,
    /// Bound on the OS threads executing the ranks. `None` (default): one
    /// thread per rank. `Some(n)`: the runtime multiplexes the ranks onto
    /// `n` worker threads (M:N mode) whenever `n` is below the rank count —
    /// required for rank counts far beyond the host's cores. Virtual times
    /// are bit-identical either way.
    pub max_threads: Option<usize>,
}

impl CaseConfig {
    pub fn total_points(&self) -> usize {
        self.grids.iter().map(|g| g.num_points()).sum()
    }

    /// A case from its required geometry and flow inputs: no moving body,
    /// one step, static balancing, the restart cache on, no tracing, one
    /// thread per rank. Every field is public; set the others on the result.
    pub fn new(
        name: impl Into<String>,
        grids: Vec<CurvilinearGrid>,
        search_order: Vec<Vec<usize>>,
        fc: FlowConditions,
    ) -> CaseConfig {
        CaseConfig {
            name: name.into(),
            grids,
            search_order,
            motions: Vec::new(),
            fc,
            steps: 1,
            lb: LbConfig::static_only(),
            collect_state: false,
            restart: true,
            trace: TraceConfig::disabled(),
            max_threads: None,
        }
    }
}

/// Aggregated outcome of a run: the raw material for every table row.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub nranks: usize,
    /// RMS of the conserved state over all field nodes at the end of the
    /// run — a physics checksum used by the N-rank ≡ serial equivalence
    /// tests.
    pub state_rms: f64,
    pub steps: usize,
    pub total_points: usize,
    pub summary: PerfSummary,
    /// Elapsed (virtual) time per phase: [`PerfSummary::phase_elapsed`].
    /// Phases are barrier-separated, so this is exact, not an average, and
    /// the phases add up to the run's wall time (`other` holds the start-up
    /// barrier).
    pub phase_elapsed: [f64; NUM_PHASES],
    /// IGBPs owned per rank at the last step.
    pub igbps_last: usize,
    /// Search-request points serviced per rank at the last step: I(p).
    pub serviced_last: Vec<usize>,
    pub orphans_last: usize,
    pub repartitions: usize,
    pub np_final: Vec<usize>,
    /// Per-rank virtual-time spans (empty unless [`CaseConfig::trace`] was
    /// enabled). Feed to [`overset_comm::chrome_trace_json`].
    pub trace: Vec<RankTrace>,
    /// Metrics aggregated over every rank's registry (counters summed,
    /// histograms merged).
    pub metrics: MetricsRegistry,
    /// Flight-recorder telemetry: one `Vec<StepRecord>` per rank (rank
    /// order), one record per timestep. Always collected — the recorder is
    /// as cheap as the metrics registry and physics-neutral.
    pub step_records: Vec<Vec<StepRecord>>,
    /// Host wall-clock seconds per phase, taken as the max over ranks (the
    /// slowest rank bounds real elapsed time). Nondeterministic — reported
    /// in the advisory `host` section of run reports, never bit-compared.
    pub host_phase_elapsed: [f64; NUM_PHASES],
    /// Host wall-clock seconds per phase for *every* rank (rank order) —
    /// the per-rank series behind [`RunResult::host_phase_elapsed`]'s max.
    /// Nondeterministic, advisory only.
    pub host_phase_by_rank: Vec<[f64; NUM_PHASES]>,
    /// End-of-run heap-allocation attribution per rank (rank order):
    /// per-phase counts and bytes from the counting global allocator.
    /// Counts and bytes are deterministic for a fixed configuration
    /// (`peak_bytes` is allocation-order-dependent and advisory).
    pub alloc_by_rank: Vec<AllocTotals>,
    /// Per-step allocation deltas per rank (rank order): the allocation
    /// arrays of [`RunResult::step_records`]. Deterministic like
    /// `alloc_by_rank`.
    pub alloc_records: Vec<Vec<AllocRecord>>,
    /// Final state per (grid, node) when `collect_state` was set.
    pub states: Vec<NodeState>,
}

/// The allocation arrays of one [`StepRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocRecord {
    /// 0-based step index, same numbering as `StepRecord::step`.
    pub step: u64,
    /// Allocations performed during this step, per phase.
    pub allocs: [u64; NUM_PHASES],
    /// Bytes requested during this step, per phase.
    pub bytes: [u64; NUM_PHASES],
}

/// One node's final state: (grid, global node, q).
type NodeState = (usize, Ijk, [f64; 5]);

impl RunResult {
    /// The paper's "% time in DCF3D": connectivity's share of the four
    /// timestep phases (flow, connectivity, motion, balance), start-up left
    /// out.
    pub fn connectivity_fraction(&self) -> f64 {
        let total: f64 = self.phase_elapsed[..Phase::Other as usize].iter().sum();
        if total == 0.0 {
            0.0
        } else {
            self.phase_elapsed[Phase::Connectivity as usize] / total
        }
    }

    /// Average Mflops per node.
    pub fn mflops_per_node(&self) -> f64 {
        self.summary.mflops_per_node()
    }

    /// Time per timestep (virtual seconds).
    pub fn time_per_step(&self) -> f64 {
        self.summary.wall_time / self.steps as f64
    }

    /// Measured donor-search service imbalance f(p) = I(p)/mean.
    pub fn f_max(&self) -> f64 {
        overset_balance::service_imbalance(&self.serviced_last)
    }
}

/// Per-rank return value of the rank body.
struct RankReturn {
    state_sum_sq: f64,
    state_count: usize,
    states: Vec<NodeState>,
    np_final: Vec<usize>,
}

/// Minimum subdomain widths per grid for partition-count repair: a periodic
/// O-grid needs every `i`-piece to keep at least 2 nodes, because the seam
/// piece drops the duplicated wrap node from its cyclic solve.
pub fn grid_min_widths(grids: &[CurvilinearGrid]) -> Vec<[usize; 3]> {
    grids.iter().map(|g| if g.periodic_i { [2, 1, 1] } else { [1, 1, 1] }).collect()
}

/// Run a case on `nranks` ranks of `machine`. Deterministic in virtual time.
///
/// Configuration errors (an infeasible partition, a malformed search
/// hierarchy) are reported before any rank thread spawns. A panic inside a
/// rank body (a non-physical node, an internal invariant violation) surfaces
/// as [`OversetError::RankPanicked`] naming the lowest failing rank and its
/// phase, with every peer unblocked — never a hang or an opaque scope
/// abort.
pub fn run_case(
    cfg: &CaseConfig,
    nranks: usize,
    machine: &MachineModel,
) -> Result<RunResult, OversetError> {
    let sizes: Vec<usize> = cfg.grids.iter().map(|g| g.num_points()).collect();
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    let initial = static_balance(&sizes, nranks)?;
    // At large NP Algorithm 1 can hand a grid a subdomain count the
    // prime-factor splitter cannot realize (e.g. a prime larger than every
    // index dimension) or slice a periodic O-grid so thin its seam
    // subdomain holds only the duplicated wrap node; repair the counts
    // before partitioning.
    let min_widths = grid_min_widths(&cfg.grids);
    let np = fit_np_to_dims_min(&sizes, &dims, &initial.np, &min_widths)?;
    let base_partition = Partition::build(&dims, &np);
    // Validate the search hierarchy once up front; per-rank rebuilds after a
    // repartition reuse the same (already validated) hierarchy.
    build_topology(&base_partition, &cfg.search_order, nranks)?;

    let mut builder = Universe::builder().ranks(nranks).machine(machine).trace(cfg.trace.clone());
    if let Some(n) = cfg.max_threads {
        builder = builder.max_threads(n);
    }
    // One block per rank: block `r` on rank `r`.
    let start = vec![RigidTransform::IDENTITY; cfg.grids.len()];
    let outputs = builder.try_run(|comm| {
        let mut mine = [own_block(cfg, &base_partition, &start, comm.rank())];
        run_rank(cfg, &sizes, &dims, base_partition.clone(), &mut mine, comm)
    })?;
    Ok(assemble(cfg, outputs))
}

/// Run a case on one processor holding every grid whole — the Cray Y-MP
/// baseline of Table 6 and the reference for parallel-equivalence tests:
/// the rank body on a one-rank in-process universe that owns one block per
/// grid. Every donor search is served in place and no message is sent.
/// Fails like [`run_case`].
pub fn run_case_serial(
    cfg: &CaseConfig,
    machine: &MachineModel,
) -> Result<RunResult, OversetError> {
    let sizes: Vec<usize> = cfg.grids.iter().map(|g| g.num_points()).collect();
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    let whole = Partition::build(&dims, &vec![1; dims.len()]);
    build_topology(&whole, &cfg.search_order, 1)?;
    let universe = Universe::builder().machine(machine).trace(cfg.trace.clone());
    let start = vec![RigidTransform::IDENTITY; dims.len()];
    let outputs = universe.try_run(|comm| {
        let mut mine: Vec<RankBlock> =
            (0..dims.len()).map(|grid| own_block(cfg, &whole, &start, grid)).collect();
        run_rank(cfg, &sizes, &dims, whole.clone(), &mut mine, comm)
    })?;
    Ok(assemble(cfg, outputs))
}

/// Block `id` of `partition` with its grid at pose `cumulative`, nothing
/// cached for it. The partition and hierarchy were validated before the rank
/// threads spawned; the geometry and the initial boundary states are checked
/// here, block by block, so no rank computes metrics it does not own. A
/// failure panics, naming the grid and the node (DESIGN.md §6).
fn own_block(
    cfg: &CaseConfig,
    partition: &Partition,
    cumulative: &[RigidTransform],
    id: usize,
) -> RankBlock {
    let (block, wall) = build_block(id, partition, &cfg.grids, cumulative, &cfg.fc)
        .unwrap_or_else(|e| panic!("block {id}: {e}"));
    RankBlock::new(id, block, wall)
}

/// Fold the ranks' outputs into the run's result, moving each rank's step
/// records and spans into it. Replicated quantities (repartition count,
/// final partition) are read off rank 0, the last step's census off each
/// rank's last step record.
fn assemble(cfg: &CaseConfig, mut outputs: Vec<RankOutput<RankReturn>>) -> RunResult {
    let mut metrics = MetricsRegistry::new();
    for o in &outputs {
        metrics.merge_from(&o.metrics);
    }
    let summary = PerfSummary::from_outputs(&outputs, metrics.counts());
    let last = |c: Counter| outputs.iter().map(move |o| o.steps.last().map_or(0, |r| r.count(c)));
    let sum_sq: f64 = outputs.iter().map(|o| o.result.state_sum_sq).sum();
    let count: usize = outputs.iter().map(|o| o.result.state_count).sum();
    let r0 = &outputs[0].result;
    // Per-phase host wall-clock elapsed: max over ranks, since the slowest
    // rank bounds real time the way the barrier does in virtual time.
    let mut host_phase_elapsed = [0.0f64; NUM_PHASES];
    for o in &outputs {
        for (max, &x) in host_phase_elapsed.iter_mut().zip(o.host_time.iter()) {
            *max = max.max(x);
        }
    }
    RunResult {
        nranks: outputs.len(),
        // Empty per rank unless `collect_state` was set.
        states: outputs.iter().flat_map(|o| o.result.states.iter().copied()).collect(),
        state_rms: (sum_sq / count.max(1) as f64).sqrt(),
        steps: cfg.steps,
        total_points: cfg.total_points(),
        phase_elapsed: summary.phase_elapsed,
        igbps_last: last(Counter::ConnIgbps).sum::<u64>() as usize,
        serviced_last: last(Counter::ConnServiced).map(|n| n as usize).collect(),
        orphans_last: last(Counter::ConnOrphans).sum::<u64>() as usize,
        repartitions: outputs[0].metrics.get(Counter::LbRepartitions) as usize,
        np_final: r0.np_final.clone(),
        alloc_records: outputs
            .iter()
            .map(|o| {
                o.steps
                    .iter()
                    .map(|r| AllocRecord { step: r.step, allocs: r.allocs, bytes: r.alloc_bytes })
                    .collect()
            })
            .collect(),
        // Moved, not copied: a traced run's spans are most of its memory.
        trace: if cfg.trace.enabled {
            let events = outputs.iter_mut().map(|o| std::mem::take(&mut o.trace));
            events.enumerate().map(|(rank, events)| RankTrace { rank, events }).collect()
        } else {
            Vec::new()
        },
        metrics,
        step_records: outputs.iter_mut().map(|o| std::mem::take(&mut o.steps)).collect(),
        host_phase_elapsed,
        host_phase_by_rank: outputs.iter().map(|o| o.host_time).collect(),
        alloc_by_rank: outputs.iter().map(|o| o.alloc).collect(),
        summary,
    }
}

/// Every grid's solids, tagged with the owning grid. Replicated: each rank
/// moves all of them, so solid positions stay in sync without communication.
fn tagged_solids(grids: &[CurvilinearGrid]) -> Vec<(usize, Solid)> {
    grids
        .iter()
        .enumerate()
        .flat_map(|(g, grid)| grid.solids.iter().map(move |s| (g, *s)))
        .collect()
}

fn move_solids(solids: &mut [(usize, Solid)], grid: usize, t: &RigidTransform) {
    for (sg, s) in solids.iter_mut() {
        if *sg == grid {
            *s = s.transformed(t);
        }
    }
}

/// Add the aerodynamic loads on `block`'s wall patches, taken about `refp`,
/// to `acc`. Returns the flops spent.
fn add_wall_loads(block: &Block, refp: [f64; 3], fc: &FlowConditions, acc: &mut Loads) -> u64 {
    // Gauge pressure: open per-grid patches must not feel the uniform
    // freestream.
    let p_inf = overset_solver::conditions::pressure(&fc.freestream());
    let mut flops = 0u64;
    for face in 0..6 {
        if let Some((nu, nv, coords, press)) = overset_solver::bc::wall_surface(block, face) {
            let gauge: Vec<f64> = press.iter().map(|p| p - p_inf).collect();
            let l = overset_motion::integrate_surface_loads(nu, nv, &coords, &gauge, refp, 1.0);
            *acc = acc.add(&l);
            flops += (nu * nv) as u64 * 30;
        }
    }
    flops
}

/// Move a block and its wall geometry by one body-step transform, then
/// re-apply the wall BCs with the *new* grid velocity: the wall state must
/// move with the wall, otherwise the stale no-slip velocity acts as an
/// impulsive slip over the tiny wall cells. Returns the BC flops and, if
/// the moved block must not be stepped, why: nodes the motion left without
/// a finite Jacobian (none, unless `t` is not finite), else the first node
/// the BCs set non-physical.
fn move_block(
    block: &mut Block,
    wall: &mut Option<WallGeometry>,
    t: &RigidTransform,
    fc: &FlowConditions,
    step: usize,
) -> (u64, Option<String>) {
    let singular = block.apply_motion(t, fc.dt);
    if let Some(w) = wall {
        for p in &mut w.wall_xyz {
            *p = t.apply(*p);
        }
    }
    let (flops, set) = apply_bcs(block, fc);
    let grid = block.grid_id;
    let fault = match singular {
        0 => set.map(|n| n.message(step, grid)),
        n => Some(format!(
            "non-finite motion at step {step}, grid {grid}: {n} nodes without a finite Jacobian"
        )),
    };
    (flops, fault)
}

/// Physics checksum over the blocks' owned field nodes: (Σ q², node count)
/// and, when `collect` is set, every such node's state.
fn checksum<'a>(
    blocks: impl IntoIterator<Item = &'a Block>,
    collect: bool,
) -> (f64, usize, Vec<NodeState>) {
    let mut sum_sq = 0.0f64;
    let mut count = 0usize;
    let mut states = Vec::new();
    for block in blocks {
        for p in block.owned_local().iter() {
            if block.iblank[p] != Blank::Field {
                continue;
            }
            let q = block.q.node(p);
            sum_sq += q.iter().map(|v| v * v).sum::<f64>();
            count += 1;
            if collect {
                states.push((block.grid_id, block.to_global(p), *q));
            }
        }
    }
    (sum_sq, count, states)
}

/// One rank's SPMD body over the blocks it owns (`mine`, consecutive ids of
/// `partition`).
fn run_rank(
    cfg: &CaseConfig,
    sizes: &[usize],
    dims: &[Dims],
    mut partition: Partition,
    mine: &mut [RankBlock],
    comm: &mut Comm,
) -> RankReturn {
    let me = comm.rank();
    let fc = cfg.fc;
    let ngrids = cfg.grids.len();

    // Replicated motion state: every rank steps every motion so cumulative
    // transforms and solid positions stay in sync without communication.
    // 6-DOF bodies additionally need the aerodynamic loads, which are
    // integrated locally over each rank's wall patches and allreduce-summed
    // (deterministic rank-ordered sum), so the replicated rigid-body states
    // remain bitwise identical on every rank.
    let mut motions: Vec<BodyMotion> = cfg.motions.clone();
    let mut cumulative: Vec<RigidTransform> = vec![RigidTransform::IDENTITY; ngrids];
    let mut solids = tagged_solids(&cfg.grids);

    // Connectivity scratch for the whole run; maps and donor caches stay
    // with their blocks.
    let mut conn = Connectivity::new(cfg.restart);
    let mut topo = build_topology(&partition, &cfg.search_order, comm.size())
        .unwrap_or_else(|e| panic!("rank {me}: {e}"));
    // Recycled halo-exchange and line-solve buffers; each step's end lets
    // go of what the step left idle.
    let mut halo_pool: VecPool<f64> = VecPool::new();
    let mut line_pool: VecPool<f64> = VecPool::new();
    // One flow workspace for every block of the rank, which it steps one
    // after the other: it grows to the largest.
    let mut scratch = Scratch::default();

    let mut last_step_transform: Vec<Option<RigidTransform>> = vec![None; ngrids];
    // I(p) over the current balance window, read from the metrics registry
    // (the single source of truth for service load).
    let mut svc = ServiceWindow::begin(comm.metrics());

    comm.set_working_set(mine.iter().map(|rb| rb.block.working_set_bytes()).sum());
    comm.barrier();

    for step in 0..cfg.steps {
        // ---- Phase 1: flow solve -------------------------------------
        {
            let mut ph = comm.phase(Phase::Flow);
            let mut mp = MpSolverComm {
                comm: &mut ph,
                halo_pool: &mut halo_pool,
                line_pool: &mut line_pool,
            };
            let mut failed = None;
            for rb in mine.iter_mut() {
                let report =
                    step_block(&mut rb.block, &fc, rb.wall.as_ref(), &mut mp, &mut scratch);
                if failed.is_none() && report.nonphysical.is_some() {
                    failed = Some((report, rb.block.grid_id));
                }
            }
            // Checked after the barrier, so every rank that went
            // non-physical in this step fails on its own and the run names
            // the lowest failing block (DESIGN.md §6).
            ph.barrier();
            if let Some((report, grid)) = failed {
                report.assert_physical(step, grid);
            }
        }

        // ---- Phase 2: grid motion ------------------------------------
        {
            let mut ph = comm.phase(Phase::Motion);
            let mut failed = None;
            for body in motions.iter_mut() {
                // 6-DOF bodies: integrate aerodynamic loads over this rank's
                // wall patches of the body's grids, then allreduce. Every rank
                // participates in the collective (zero contribution if it owns
                // no wall of this body).
                let aero = if body.needs_aero() {
                    let mut local = Loads::ZERO;
                    for rb in mine.iter().filter(|rb| body.grids.contains(&rb.block.grid_id)) {
                        let flops =
                            add_wall_loads(&rb.block, body.moment_reference(), &fc, &mut local);
                        ph.compute(flops, WorkClass::Other);
                    }
                    let [fx, fy, fz] = local.force;
                    let [mx, my, mz] = local.moment;
                    let all = ph.allgather([fx, fy, fz, mx, my, mz], 48);
                    all.iter().fold(Loads::ZERO, |sum, a| {
                        sum.add(&Loads { force: [a[0], a[1], a[2]], moment: [a[3], a[4], a[5]] })
                    })
                } else {
                    Loads::ZERO
                };
                let t = body.motion.step(fc.dt, &aero);
                for &g in &body.grids {
                    cumulative[g] = cumulative[g].then(&t);
                    move_solids(&mut solids, g, &t);
                    last_step_transform[g] = Some(t);
                }
                for rb in mine.iter_mut().filter(|rb| body.grids.contains(&rb.block.grid_id)) {
                    rb.note_motion(&t);
                    let (bc_flops, fault) = move_block(&mut rb.block, &mut rb.wall, &t, &fc, step);
                    ph.compute(bc_flops, WorkClass::Other);
                    failed = failed.or(fault);
                }
                ph.compute(500, WorkClass::Other);
            }
            // A non-finite motion leaves its grid with non-finite metrics,
            // which no stencil may read. Checked after the barrier, as the
            // flow phase checks its state, so the run names the lowest rank.
            ph.barrier();
            if let Some(message) = failed {
                panic!("{message}");
            }
        }

        // ---- Phase 3: domain connectivity ----------------------------
        {
            let mut ph = comm.phase(Phase::Connectivity);
            {
                let mut mp = MpSolverComm {
                    comm: &mut ph,
                    halo_pool: &mut halo_pool,
                    line_pool: &mut line_pool,
                };
                for rb in mine.iter_mut() {
                    mp.exchange_halo(&mut rb.block);
                }
            }
            conn.step(mine, &solids, &topo, &mut ph);
            svc.note_step();
            ph.barrier();
        }

        // ---- Phase 4: dynamic load balance check (Algorithm 2) -------
        // Moves subdomains between processors: nothing to do with one.
        let check = cfg.lb.fo.is_finite()
            && cfg.lb.check_interval != usize::MAX
            && (step + 1) % cfg.lb.check_interval == 0
            && step + 1 < cfg.steps
            && comm.size() > 1;
        if check {
            let mut ph = comm.phase(Phase::Balance);
            let t0 = ph.now();
            let mean_i = svc.mean_per_step(ph.metrics());
            let all_i = ph.allgather(mean_i, 8);
            let decision = dynamic_rebalance(
                &all_i,
                &partition.grid_of_rank_vec(),
                sizes,
                &partition.np,
                cfg.lb.fo,
            )
            .unwrap_or_else(|e| panic!("rank {me}: dynamic rebalance failed: {e}"));
            ph.metrics_mut().observe(Hist::LbFRatio, decision.f[me]);
            if let Some(rebalance) = decision.rebalance {
                // One block per rank, before and after.
                let [rb] = &mut *mine else { panic!("rank {me}: rebalancing several blocks") };
                // Deterministic repair: every rank computes the same counts.
                let np =
                    fit_np_to_dims_min(sizes, dims, &rebalance.np, &grid_min_widths(&cfg.grids))
                        .unwrap_or_else(|e| panic!("rank {me}: rebalance infeasible: {e}"));
                let new_partition = Partition::build(dims, &np);
                let (mut new_block, new_wall) =
                    build_block(me, &new_partition, &cfg.grids, &cumulative, &fc)
                        .unwrap_or_else(|e| panic!("rank {me}: {e}"));
                redistribute_state(&rb.block, &mut new_block, &partition, &new_partition, &mut ph);
                partition = new_partition;
                topo = build_topology(&partition, &cfg.search_order, ph.size())
                    .unwrap_or_else(|e| panic!("rank {me}: {e}"));
                let gd: Vec<Dims> = dims.to_vec();
                rb.rebuilt(new_block, new_wall, |grid, cell| {
                    let d = gd[grid];
                    let clamped =
                        Ijk::new(cell.i.min(d.ni - 1), cell.j.min(d.nj - 1), cell.k.min(d.nk - 1));
                    partition.owner_of(grid, clamped)
                });
                // The rank's block changed size. Kept, the workspace would
                // hold the old block's surplus for the rest of the run (store
                // ×0.55 on 18 ranks: +8 MiB peak RSS); the next step grows
                // one for the new block.
                scratch = Scratch::default();
                let block = &mut rb.block;
                ph.set_working_set(block.working_set_bytes());
                // Restore blanking on the new block immediately: the next
                // flow step must not treat redistributed hole values as
                // live field points.
                let hole_flops = cut_holes_and_find_fringe(
                    block,
                    &solids,
                    None,
                    &mut ConnArena::new(),
                    &mut Vec::new(),
                );
                ph.compute(hole_flops, WorkClass::Search);
                // Restore the ALE grid velocities of a moving grid (the
                // rebuilt block is at the current pose with zero velocity).
                if let Some(t) = &last_step_transform[block.grid_id] {
                    block.set_grid_velocity_from(t, fc.dt);
                }
                ph.metrics_mut().inc(Counter::LbRepartitions);
                ph.trace_complete(
                    "lb",
                    "repartition",
                    t0,
                    &[("f_max", ArgVal::F64(decision.f_max))],
                );
            }
            svc.reset(ph.metrics());
            ph.barrier();
        }

        halo_pool.end_step();
        line_pool.end_step();
        // Close the step for the flight recorder (reads counters only —
        // physics- and timing-neutral).
        comm.end_step();
    }

    let _ph = comm.phase(Phase::Other);
    let (state_sum_sq, state_count, states) =
        checksum(mine.iter().map(|rb| &rb.block), cfg.collect_state);
    RankReturn { state_sum_sq, state_count, states, np_final: partition.np.clone() }
}
