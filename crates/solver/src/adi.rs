//! Diagonalized approximate-factorization implicit scheme
//! (Pulliam–Chaussee diagonal algorithm).
//!
//! The update solves, per timestep,
//!
//! ```text
//! T_ξ (I + Δt Λ_ξ δ_ξ − D_i) T_ξ⁻¹ · T_η (…) T_η⁻¹ · T_ζ (…) T_ζ⁻¹ Δq = Δt R(qⁿ)
//! ```
//!
//! Per direction, the conservative increment is transformed to local
//! characteristic variables (entropy, two shears, two acoustics), each
//! characteristic field is solved with its own scalar tridiagonal system —
//! signed eigenvalue `λ_m ∈ {Ũ, Ũ, Ũ, Ũ±c̃}` central-implicit plus an
//! implicit second-difference smoothing `β σ` — and transformed back. The
//! signed implicit advection is what makes the factored scheme stable at the
//! CFL numbers the paper's unsteady cases run at; the implicit dissipation
//! dominates the explicit JST terms (β ≥ 2·k₄ rule).
//!
//! Lines that cross subdomain boundaries are solved with the *pipelined
//! distributed Thomas* algorithm (the chunk carries of the sweep kernels in
//! [`crate::kernels`]): the upstream rank eliminates its segment and hands
//! the boundary-coupling coefficients downstream, so implicitness is
//! maintained across subdomains and the update is independent of the
//! processor count — the N-rank result is bit-identical to the serial one.

use crate::block::Block;
use crate::conditions::{sound_speed, FlowConditions};
use crate::kernels::{
    self, Cyclic, LaneRows, Rows, CLASS, EDGE_FIELDS, EDGE_LEN, FR_OP, FWD_CARRIES, NCLASS, NVW,
};
use crate::lanes::{select_isa, Isa, W};
use overset_grid::field::NVAR;

/// Implicit second-difference smoothing coefficient (×σ).
pub const BETA: f64 = 0.25;

/// Number of line chunks per sweep used for pipelined-Thomas overlap across
/// subdomain boundaries.
pub const PIPELINE_CHUNKS: usize = 8;

/// Flops per owned node per direction for the implicit sweep
/// (characteristic transforms + 5 scalar eliminations).
pub const FLOPS_PER_NODE_PER_DIR: u64 = 180;

/// Communication hooks the solver needs from the runtime: halo exchange and
/// pipelined line-solve carries. A [`SerialComm`] no-op implementation runs
/// single-block grids; the driver crate implements this over the
/// message-passing runtime.
pub trait SolverComm {
    /// Fill halo layers of `q` from face neighbors (including periodic
    /// wraps). Called once per step before the residual evaluation.
    fn exchange_halo(&mut self, block: &mut Block);
    /// Send pipelined line-solve data for `dir` to the adjacent rank
    /// (`downstream = true`: toward increasing index).
    fn send_line(&mut self, block: &Block, dir: usize, downstream: bool, data: Vec<f64>);
    /// Receive pipelined line-solve data of length `len`.
    fn recv_line(&mut self, block: &Block, dir: usize, from_upstream: bool, len: usize)
        -> Vec<f64>;
    /// An empty buffer with room for the `len` line-solve values about to
    /// be sent. The message-passing runtime hands back the smallest buffer
    /// it received earlier ([`SolverComm::recycle_buf`]) that holds them,
    /// and a fresh one when none does.
    fn take_buf(&mut self, len: usize) -> Vec<f64> {
        Vec::with_capacity(len)
    }
    /// Return a consumed [`SolverComm::recv_line`] buffer for reuse.
    fn recycle_buf(&mut self, _buf: Vec<f64>) {}
    /// Account compute work performed inside the sweep (so pipelined carry
    /// messages are stamped with clocks that include the elimination work
    /// preceding them). Serial implementations may ignore it.
    fn compute(&mut self, _flops: u64) {}
    /// Current virtual time, seconds. Serial implementations have no clock
    /// and report 0.
    fn now(&self) -> f64 {
        0.0
    }
    /// Record a completed trace span from virtual time `start` to now.
    /// No-op by default; the message-passing runtime forwards this to its
    /// tracer, so solver stages show up on the virtual timeline.
    fn trace_span(&mut self, _cat: &'static str, _name: &'static str, _start: f64) {}
}

/// Serial communicator: single block per grid; periodic wrap filled locally.
pub struct SerialComm;

impl SolverComm for SerialComm {
    fn exchange_halo(&mut self, block: &mut Block) {
        if block.self_wrap_i {
            block.fill_self_wrap();
        }
    }
    fn send_line(&mut self, _: &Block, _: usize, _: bool, _: Vec<f64>) {
        unreachable!("serial blocks have no line neighbors");
    }
    fn recv_line(&mut self, _: &Block, _: usize, _: bool, _: usize) -> Vec<f64> {
        unreachable!("serial blocks have no line neighbors");
    }
}

/// Does the block have an *implicit-coupled* neighbor along `dir`, a link of
/// the line-solve pipeline? Periodic wrap links are excluded: an O-grid's
/// `i`-lines are solved as cyclic systems whose seam coupling the rank
/// chain carries in its corner parameters, not over the wrap link — the
/// same in serial and parallel.
pub fn implicit_neighbor(block: &Block, dir: usize, downstream: bool) -> Option<usize> {
    let face = 2 * dir + usize::from(downstream);
    let n = block.neighbor[face]?;
    let interior = if downstream {
        block.owned.hi.get(dir) < block.grid_dims.get(dir)
    } else {
        block.owned.lo.get(dir) > 0
    };
    interior.then_some(n)
}

/// The per-rank flow workspace: the runtime-selected kernel [`Isa`] plus
/// every O(block) buffer the flow phase needs — the increment from residual
/// to update, the residual's node cache, the line sweeps' buffers. One
/// serves any number of blocks stepped one after the other: a rank keeps one
/// for all of its blocks, and its buffers grow to the largest block seen and
/// are then recycled. The residual's node cache and the sweeps' frame SoA
/// share `fr` — the residual is done with it before the sweeps start — so
/// the node pass costs no memory of its own. What a steady-state step still
/// allocates is bounded per rank and independent of the block size: line
/// carries the rank's pool holds no buffer for (a cyclic chain's first rank
/// sends two passes and gets one back: one carry per chunk). Every lane group
/// is solved in place, and the super-diagonals take the places of the
/// operator rows in `fr`, so past the increment and the frames the sweeps
/// keep only the cyclic correction column and per-line rows.
pub struct Scratch {
    /// Kernel instruction set, chosen once per run by runtime feature
    /// detection (see [`crate::lanes::select_isa`]) until a test or bench
    /// sets `Isa::Scalar`. The scalar and SIMD paths run the same
    /// lane-batched code and produce bit-identical results.
    pub isa: Isa,
    /// The increment ([`Scratch::increment`]) and the frame SoA (see
    /// `kernels::FR_*`), both over the owned nodes in storage order.
    dw: Vec<f64>,
    fr: Vec<f64>,
    /// Per-line edge rows (`c = -1` and `c = n`), two per line.
    edge: Vec<EdgeRow>,
    /// The Sherman–Morrison correction column of a cyclic sweep: [`NCLASS`]
    /// fields over the owned nodes, laid out like the increment; empty until
    /// the rank sweeps a periodic-`i` block.
    z: Vec<f64>,
    /// Per-line cyclic corner parameters and chain-end values.
    alpha: Vec<[f64; NVAR]>,
    gamma: Vec<[f64; NVAR]>,
    y_last: Vec<[f64; NVAR]>,
    z_last: Vec<[f64; NVAR]>,
    fact: Vec<[f64; NVAR]>,
    x0: Vec<[f64; NVAR]>,
}

impl Scratch {
    pub fn new(isa: Isa) -> Self {
        Self {
            isa,
            dw: Vec::new(),
            fr: Vec::new(),
            edge: Vec::new(),
            z: Vec::new(),
            alpha: Vec::new(),
            gamma: Vec::new(),
            y_last: Vec::new(),
            z_last: Vec::new(),
            fact: Vec::new(),
            x0: Vec::new(),
        }
    }

    /// Scratch for stepping `block`: [`Scratch::default`], whose buffers
    /// the first step sizes. Kept for the benchmark's solver probe, which
    /// builds its workspaces this way.
    pub fn for_block(_block: &Block) -> Scratch {
        Scratch::default()
    }

    /// The increment of `block`: left by the residual as Δt·R, solved in
    /// place by [`implicit_sweeps`] (in a step, `sweep_directions`, whose
    /// last direction's solution the update transforms back). SoA over the owned
    /// nodes in storage order — variable `v` of the `t`-th owned node at
    /// `v * n + t`, `n` the owned node count.
    pub fn increment(&mut self, block: &Block) -> &mut [f64] {
        let len = NVAR * block.owned_count();
        ensure_len(&mut self.dw, len);
        &mut self.dw[..len]
    }

    /// The frames and the characteristic solution of the last direction
    /// [`sweep_directions`] swept, over the `mm` owned nodes of its block.
    pub(crate) fn last_solution(&self, mm: usize) -> (&[f64], &[f64]) {
        (&self.fr[..kernels::FR_FIELDS * mm], &self.dw[..NVAR * mm])
    }

    /// The residual's buffers: a node cache of `len` doubles in the frame
    /// SoA, idle until the sweeps start, and the increment of `block`.
    pub(crate) fn residual_buffers(
        &mut self,
        block: &Block,
        len: usize,
    ) -> (&mut [f64], &mut [f64]) {
        ensure_len(&mut self.fr, len);
        let inc = NVAR * block.owned_count();
        ensure_len(&mut self.dw, inc);
        (&mut self.fr[..len], &mut self.dw[..inc])
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Self::new(select_isa())
    }
}

fn ensure_len(v: &mut Vec<f64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0.0);
    }
}

/// A recycled buffer with room for `len` line-solve values when this rank
/// has a neighbor to `send` them to; an unallocated placeholder otherwise.
fn line_buf(comm: &mut impl SolverComm, send: bool, len: usize) -> Vec<f64> {
    if send {
        comm.take_buf(len)
    } else {
        Vec::new()
    }
}

/// The J-scaled contravariant speed and sound speed `[Ũ, c̃]` of the node
/// just outside a line's owned range: all the implicit rows need of a
/// neighbor's frame (its eigenvalues and spectral radius follow from them).
type EdgeRow = [f64; EDGE_FIELDS];

/// The edge row of the characteristic frame at storage offset `s`, in the
/// operation order of the frame kernel.
fn edge_row(block: &Block, s: usize, dir: usize) -> EdgeRow {
    let q = kernels::node_at(block.q.as_slice(), s);
    let (g, jac) = (block.metrics.grad_at(s, dir), block.metrics.jac()[s]);
    let sv = [g[0] * jac, g[1] * jac, g[2] * jac];
    let s_norm = (sv[0] * sv[0] + sv[1] * sv[1] + sv[2] * sv[2]).sqrt().max(1e-300);
    let rho = q[0];
    let u = [q[1] / rho, q[2] / rho, q[3] / rho];
    let c = sound_speed(q);
    let vg = block.grid_vel.as_ref().map_or([0.0; 3], |v| v.at(s));
    let u_rel_n = sv[0] * (u[0] - vg[0]) + sv[1] * (u[1] - vg[1]) + sv[2] * (u[2] - vg[2]);
    [u_rel_n / jac, c * s_norm / jac]
}

/// Where the implicit lines of one direction live: line `li` starts at SoA
/// index `m0(li)` / storage offset `s0(li)` and advances by `mstep` /
/// `sstep` per node. Lines are numbered fastest along the lower of the two
/// transverse directions, so consecutive lines of a `j` or `k` sweep are
/// consecutive in memory.
#[derive(Clone, Copy)]
struct Lines {
    /// Owned extent along the sweep direction and the number of lines.
    n: usize,
    nlines: usize,
    n1: usize,
    m: [usize; 2],
    mstep: usize,
    s_base: usize,
    s: [usize; 2],
    sstep: usize,
}

impl Lines {
    fn new(block: &Block, dir: usize) -> Lines {
        let ow = block.owned_local();
        let od = ow.dims();
        let ld = block.local_dims;
        let (mstr, sstr) = (kernels::strides(od), kernels::strides(ld));
        let (d1, d2) = other_dirs(dir);
        Lines {
            n: od.get(dir),
            nlines: od.get(d1) * od.get(d2),
            n1: od.get(d1),
            m: [mstr[d1], mstr[d2]],
            mstep: mstr[dir],
            s_base: ld.offset(ow.lo),
            s: [sstr[d1], sstr[d2]],
            sstep: sstr[dir],
        }
    }

    #[inline]
    fn m0(&self, li: usize) -> usize {
        (li % self.n1) * self.m[0] + (li / self.n1) * self.m[1]
    }

    #[inline]
    fn s0(&self, li: usize) -> usize {
        self.s_base + (li % self.n1) * self.s[0] + (li / self.n1) * self.s[1]
    }

    /// Where the lines `gb..gb + gl` of a lane group sit in an SoA over
    /// the `mm` owned nodes; padding lanes repeat the last line.
    fn group(&self, gb: usize, gl: usize, mm: usize) -> LaneRows {
        LaneRows::new(std::array::from_fn(|l| self.m0(gb + l.min(gl - 1))), self.mstep, mm)
    }
}

/// The edge frames of a lane group, lane-interleaved (`kernels::EDGE_LEN`):
/// row `-1` from each line's lower edge row; row `n` from its upper one or —
/// when the cyclic sweep leaves out the duplicated seam node (`n < ln.n`) —
/// from that owned node's frame, which closes the last row.
fn edge_lanes(
    ln: &Lines,
    edge: &[EdgeRow],
    fr: &[f64],
    mm: usize,
    gb: usize,
    gl: usize,
    n: usize,
) -> [f64; EDGE_LEN] {
    let mut out = [0.0; EDGE_LEN];
    for l in 0..W {
        let li = gb + l.min(gl - 1);
        let seam = ln.m0(li) + n * ln.mstep;
        for f in 0..EDGE_FIELDS {
            out[f * W + l] = edge[2 * li][f];
            out[(EDGE_FIELDS + f) * W + l] =
                if n == ln.n { edge[2 * li + 1][f] } else { fr[(FR_OP + f) * mm + seam] };
        }
    }
    out
}

/// Perform the factored characteristic sweeps in place on the increment
/// `ws.increment(block)`, which enters holding `Δt·R` in conservative
/// variables and leaves holding Δq, batching up to [`W`] lines per SIMD
/// lane group through the kernels in [`crate::kernels`]. Every direction's
/// forward transform, line solve and back transform work in place on that
/// SoA. Returns estimated flops: [`FLOPS_PER_NODE_PER_DIR`] per node of an
/// open line, twice that per unknown of a cyclic one. (A timestep takes
/// `sweep_directions` instead, and fuses the last back transform into its
/// state update.)
pub fn implicit_sweeps(
    block: &Block,
    fc: &FlowConditions,
    comm: &mut impl SolverComm,
    ws: &mut Scratch,
) -> u64 {
    let flops = sweep_directions(block, fc, comm, ws);
    let mm = block.owned_count();
    kernels::from_char_lanes(ws.isa, mm, mm, &ws.fr, &mut ws.dw);
    flops
}

/// [`implicit_sweeps`] but for the last active direction's back transform:
/// the increment leaves holding that direction's characteristic solution,
/// and [`Scratch::last_solution`] hands it out with its frames, for
/// [`kernels::update_rows`] to transform back as it updates the state. The
/// same work is charged, in the same order.
pub(crate) fn sweep_directions(
    block: &Block,
    fc: &FlowConditions,
    comm: &mut impl SolverComm,
    ws: &mut Scratch,
) -> u64 {
    let mut flops = 0u64;
    let t0 = comm.now();
    let (rows, mm) = prepare_frames(block, ws);
    let dirs = block.active_dirs();

    for (d, &dir) in dirs.iter().enumerate() {
        let ln = forward_stage(block, dir, d == 0, rows, mm, ws);
        let sw = Sweep::new(block, dir, ln);
        solve(block, fc.dt, comm, &sw, mm, ws);

        // Transform back to conservative increments (lane-batched), but for
        // the last direction.
        if d + 1 < dirs.len() {
            kernels::from_char_lanes(ws.isa, mm, mm, &ws.fr, &mut ws.dw);
        }

        let nodes = (sw.n * ln.nlines) as u64;
        if sw.cyclic.is_some() {
            flops += nodes * FLOPS_PER_NODE_PER_DIR * 2;
        } else {
            let rest = FLOPS_PER_NODE_PER_DIR
                - FLOPS_PER_NODE_PER_DIR * 7 / 10
                - FLOPS_PER_NODE_PER_DIR * 2 / 10;
            comm.compute(nodes * rest);
            flops += nodes * FLOPS_PER_NODE_PER_DIR;
        }
    }

    comm.trace_span("solver", "implicit_sweeps", t0);
    flops
}

/// Size the frame SoA for the block's `mm` owned nodes. Returns the owned
/// nodes' rows (storage → SoA) and `mm`.
fn prepare_frames(block: &Block, ws: &mut Scratch) -> (Rows, usize) {
    let ow = block.owned_local();
    let mm = ow.count();
    assert!(ws.dw.len() >= NVAR * mm, "the increment of the block is not loaded");
    ensure_len(&mut ws.fr, kernels::FR_FIELDS * mm);
    (Rows::new(ow, block.local_dims.full_box(), ow), mm)
}

/// Lane-batched frame computation + forward transform (`ws.dw` → char) of
/// one direction over the owned nodes in storage order (`fresh`: the
/// block's first direction, which also computes the direction-independent
/// state fields): the SoA frames land in `ws.fr`, the two edge rows per line
/// in `ws.edge`.
fn forward_stage(
    block: &Block,
    dir: usize,
    fresh: bool,
    rows: Rows,
    mm: usize,
    ws: &mut Scratch,
) -> Lines {
    let ln = Lines::new(block, dir);
    kernels::frames_forward_rows(
        ws.isa,
        rows,
        dir,
        fresh,
        block.q.as_slice(),
        &block.metrics,
        block.grid_vel.as_ref(),
        block.iblank.as_slice(),
        mm,
        &mut ws.dw,
        &mut ws.fr,
    );
    ws.edge.clear();
    ws.edge.reserve(2 * ln.nlines);
    for li in 0..ln.nlines {
        let s0 = ln.s0(li);
        ws.edge.push(edge_row(block, s0 - ln.sstep, dir));
        ws.edge.push(edge_row(block, s0 + ln.n * ln.sstep, dir));
    }
    ln
}

/// One direction's line solve on this rank: its lines, the unknowns per
/// line — the owned extent, less the duplicated seam node on the rank that
/// owns the end of a cyclic chain — its pipeline neighbours and the chunks
/// its lines are pipelined in.
struct Sweep {
    dir: usize,
    ln: Lines,
    n: usize,
    up: bool,
    down: bool,
    nchunks: usize,
    /// Cyclic lines only: whether this rank owns the chain's first row and
    /// its last one.
    cyclic: Option<(bool, bool)>,
}

impl Sweep {
    fn new(block: &Block, dir: usize, ln: Lines) -> Sweep {
        // Periodic O-grid lines in `i` are solved with the *cyclic*
        // (Sherman–Morrison) algorithm — the seam coupling must be implicit:
        // the smallest azimuthal cells sit right at the wrap, and leaving
        // them explicitly coupled blows up at fine resolution.
        let ends = (block.owned.lo.i == 0, block.owned.hi.i == block.grid_dims.ni);
        let cyclic = (dir == 0 && block.periodic_i_grid).then_some(ends);
        // The duplicated seam node is left out of the cyclic system.
        let n = ln.n - usize::from(matches!(cyclic, Some((_, true))));
        assert!(n >= 1, "a line segment without unknowns");
        let up = implicit_neighbor(block, dir, false).is_some();
        let down = implicit_neighbor(block, dir, true).is_some();
        let nchunks = if up || down { PIPELINE_CHUNKS.min(ln.nlines.max(1)) } else { 1 };
        Sweep { dir, ln, n, up, down, nchunks, cyclic }
    }

    /// Lines `lo..hi` of chunk `ch`.
    fn chunk(&self, ch: usize) -> (usize, usize) {
        let nl = self.ln.nlines;
        (nl * ch / self.nchunks, nl * (ch + 1) / self.nchunks)
    }

    /// The lane groups of chunk `ch`: `(gb, gl)`, the group's first line
    /// and its number of lines.
    fn groups(&self, ch: usize) -> impl Iterator<Item = (usize, usize)> {
        let (lo, hi) = self.chunk(ch);
        (lo..hi).step_by(W).map(move |gb| (gb, (hi - gb).min(W)))
    }
}

/// The line solve of one direction, characteristic RHS in `ws.dw` to
/// characteristic solution in place: forward elimination and back
/// substitution, pipelined along the rank chain, and on cyclic lines the
/// Sherman–Morrison correction. A cyclic line is an open one with a second
/// right-hand side (the correction column `z`), two corner rows and wider
/// carries, so both kinds run through the same passes and kernels.
fn solve(
    block: &Block,
    dt: f64,
    comm: &mut impl SolverComm,
    sw: &Sweep,
    mm: usize,
    ws: &mut Scratch,
) {
    eliminate(block, dt, comm, sw, mm, ws);
    substitute(block, comm, sw, mm, ws);
    if sw.cyclic.is_some() {
        correct(block, comm, sw, mm, ws);
    }
}

/// Lane-interleave the carries of lines `first..first + gl` of a chunk
/// (padding lanes replicate the last line) from a line message holding
/// `width` values per field and line: the first `rows.len()` of them.
fn carry_lanes(msg: &[f64], width: usize, first: usize, gl: usize, rows: &mut [[f64; NVW]]) {
    for l in 0..W {
        let base = (first + l.min(gl - 1)) * width * NVAR;
        for (k, row) in rows.iter_mut().enumerate() {
            for v in 0..NVAR {
                row[v * W + l] = msg[base + k * NVAR + v];
            }
        }
    }
}

/// Append the lane-interleaved carries of a group's `gl` lines to a line
/// message, line by line.
fn push_carries(rows: &[[f64; NVW]], gl: usize, msg: &mut Vec<f64>) {
    for l in 0..gl {
        for row in rows {
            msg.extend((0..NVAR).map(|v| row[v * W + l]));
        }
    }
}

/// Forward elimination (5 independent tridiagonal systems per line),
/// *wavefront pipelined*: lines are processed in chunks; each chunk's
/// boundary carries are exchanged as soon as the chunk is eliminated, so
/// downstream ranks work on earlier chunks while this rank eliminates later
/// ones (the standard pipelined-Thomas overlap). Within each chunk, lines
/// are eliminated in place in lane groups of up to `W` — one SIMD lane per
/// line, each lane running the exact scalar recurrence. A line's carry is
/// `[cp, d]`, on a cyclic line `[cp, d, z, α, γ]` ([`FWD_CARRIES`]).
fn eliminate(
    block: &Block,
    dt: f64,
    comm: &mut impl SolverComm,
    sw: &Sweep,
    mm: usize,
    ws: &mut Scratch,
) {
    let (isa, ln, n) = (ws.isa, &sw.ln, sw.n);
    let (width, per_node) = if sw.cyclic.is_some() {
        ensure_len(&mut ws.z, NCLASS * mm);
        // Per-line corner parameters, which the correction pass reads.
        ws.alpha.clear();
        ws.alpha.resize(ln.nlines, [0.0; NVAR]);
        ws.gamma.clear();
        ws.gamma.resize(ln.nlines, [0.0; NVAR]);
        (FWD_CARRIES, FLOPS_PER_NODE_PER_DIR)
    } else {
        (2, FLOPS_PER_NODE_PER_DIR * 7 / 10)
    };
    for ch in 0..sw.nchunks {
        let (lo, hi) = sw.chunk(ch);
        let len = (hi - lo) * width * NVAR;
        let carries_in = sw.up.then(|| comm.recv_line(block, sw.dir, true, len));
        let mut carries_out = line_buf(comm, sw.down, len);
        for (gb, gl) in sw.groups(ch) {
            let edge = edge_lanes(ln, &ws.edge, &ws.fr, mm, gb, gl, n);
            let mut carry = [[0.0; NVW]; FWD_CARRIES];
            if let Some(ci) = &carries_in {
                carry_lanes(ci, width, gb - lo, gl, &mut carry[..width]);
            }
            let cyclic = sw.cyclic.map(|(first, last)| Cyclic { z: &mut ws.z, first, last });
            kernels::sweep_forward_group(
                isa,
                dt,
                n,
                ln.group(gb, gl, mm),
                &mut ws.fr[FR_OP * mm..],
                &edge,
                &mut ws.dw,
                &mut carry,
                carries_in.is_some(),
                cyclic,
            );
            if sw.cyclic.is_some() {
                let [.., al, ga] = &carry;
                for l in 0..gl {
                    for v in 0..NVAR {
                        ws.alpha[gb + l][v] = al[v * W + l];
                        ws.gamma[gb + l][v] = ga[v * W + l];
                    }
                }
            }
            if sw.down {
                push_carries(&carry[..width], gl, &mut carries_out);
            }
        }
        if let Some(ci) = carries_in {
            comm.recycle_buf(ci);
        }
        // Charge this chunk's transform + elimination work before its
        // carry message is stamped.
        comm.compute(((hi - lo) * n) as u64 * per_node);
        if sw.down {
            comm.send_line(block, sw.dir, true, carries_out);
        }
    }
}

/// Back substitution, pipelined the same way in the upstream direction. A
/// line's carry is its first unknowns `[x]`; a cyclic line's is
/// `[y, z, y_last, z_last]`, the chain's last solved row riding along for
/// the correction pass.
fn substitute(block: &Block, comm: &mut impl SolverComm, sw: &Sweep, mm: usize, ws: &mut Scratch) {
    let (isa, ln, n) = (ws.isa, &sw.ln, sw.n);
    let (width, per_node) = if sw.cyclic.is_some() {
        ws.y_last.clear();
        ws.y_last.resize(ln.nlines, [0.0; NVAR]);
        ws.z_last.clear();
        ws.z_last.resize(ln.nlines, [0.0; NVAR]);
        (4, FLOPS_PER_NODE_PER_DIR / 3)
    } else {
        (1, FLOPS_PER_NODE_PER_DIR * 2 / 10)
    };
    for ch in 0..sw.nchunks {
        let (lo, hi) = sw.chunk(ch);
        let len = (hi - lo) * width * NVAR;
        let x_down = sw.down.then(|| comm.recv_line(block, sw.dir, false, len));
        let mut ups = line_buf(comm, sw.up, len);
        for (gb, gl) in sw.groups(ch) {
            let mut seed = [[0.0; NVW]; 2];
            if let Some(xd) = &x_down {
                let k = 1 + usize::from(sw.cyclic.is_some());
                carry_lanes(xd, width, gb - lo, gl, &mut seed[..k]);
            }
            let at = ln.group(gb, gl, mm);
            kernels::sweep_backward_group(
                isa,
                n,
                at,
                &ws.fr[FR_OP * mm..],
                &mut ws.dw,
                sw.cyclic.map(|_| &mut ws.z[..]),
                x_down.as_ref().map(|_| &seed),
            );
            let (d, z) = (&ws.dw, &ws.z);
            for l in 0..gl {
                if sw.up {
                    ups.extend((0..NVAR).map(|v| d[at.index(l, 0, v)]));
                }
                if sw.cyclic.is_none() {
                    continue;
                }
                let li = gb + l;
                if let Some(xd) = &x_down {
                    let base = (li - lo) * width * NVAR;
                    ws.y_last[li].copy_from_slice(&xd[base + 2 * NVAR..base + 3 * NVAR]);
                    ws.z_last[li].copy_from_slice(&xd[base + 3 * NVAR..base + 4 * NVAR]);
                } else {
                    // This rank owns the end of the chain: the last solved row.
                    for (v, &e) in CLASS.iter().enumerate() {
                        ws.y_last[li][v] = d[at.index(l, n - 1, v)];
                        ws.z_last[li][v] = z[at.index(l, n - 1, e)];
                    }
                }
                if sw.up {
                    ups.extend(CLASS.iter().map(|&e| z[at.index(l, 0, e)]));
                    ups.extend_from_slice(&ws.y_last[li]);
                    ups.extend_from_slice(&ws.z_last[li]);
                }
            }
        }
        if let Some(xd) = x_down {
            comm.recycle_buf(xd);
        }
        comm.compute(((hi - lo) * n) as u64 * per_node);
        if sw.up {
            comm.send_line(block, sw.dir, false, ups);
        }
    }
}

/// The Sherman–Morrison correction of cyclic lines, a third short pass down
/// the chain: the rank owning the chain's first row computes per line and
/// field the factor `fact` and the solution `x0` of row 0, every rank
/// applies `x = y − fact·z` and passes `[fact, x0]` on, and the rank owning
/// the last row sets the duplicated seam node to `x0`.
fn correct(block: &Block, comm: &mut impl SolverComm, sw: &Sweep, mm: usize, ws: &mut Scratch) {
    let (isa, ln, n) = (ws.isa, &sw.ln, sw.n);
    let (first, last) = sw.cyclic.expect("a cyclic sweep");
    for ch in 0..sw.nchunks {
        let (lo, hi) = sw.chunk(ch);
        let lines = hi - lo;
        ws.fact.clear();
        ws.fact.resize(lines, [0.0; NVAR]);
        ws.x0.clear();
        ws.x0.resize(lines, [0.0; NVAR]);
        if !first {
            let data = comm.recv_line(block, sw.dir, true, lines * 2 * NVAR);
            for (l, rec) in data.chunks_exact(2 * NVAR).enumerate() {
                ws.fact[l].copy_from_slice(&rec[..NVAR]);
                ws.x0[l].copy_from_slice(&rec[NVAR..]);
            }
            comm.recycle_buf(data);
        }
        for (gb, gl) in sw.groups(ch) {
            let at = ln.group(gb, gl, mm);
            if first {
                let (y, z) = (&ws.dw, &ws.z);
                for l in 0..gl {
                    let li = gb + l;
                    for (v, &e) in CLASS.iter().enumerate() {
                        let (y0, z0) = (y[at.index(l, 0, v)], z[at.index(l, 0, e)]);
                        let (al, gam) = (ws.alpha[li][v], ws.gamma[li][v]);
                        let denom = 1.0 + z0 + al * ws.z_last[li][v] / gam;
                        let f = (y0 + al * ws.y_last[li][v] / gam) / denom;
                        ws.fact[li - lo][v] = f;
                        ws.x0[li - lo][v] = y0 - f * z0;
                    }
                }
            }
            let mut factl = [0.0; NVW];
            for l in 0..W {
                let li = gb + l.min(gl - 1);
                for v in 0..NVAR {
                    factl[v * W + l] = ws.fact[li - lo][v];
                }
            }
            kernels::periodic_correct_group(isa, n, at, &factl, &mut ws.dw, &ws.z);
            if last {
                // Duplicated seam node mirrors node 0's solution.
                for l in 0..gl {
                    for (v, &x) in ws.x0[gb + l - lo].iter().enumerate() {
                        ws.dw[at.index(l, n, v)] = x;
                    }
                }
            }
        }
        comm.compute((n * lines) as u64 * 4);
        if sw.down {
            let mut out = line_buf(comm, true, lines * 2 * NVAR);
            for (f, x) in ws.fact.iter().zip(&ws.x0) {
                out.extend_from_slice(f);
                out.extend_from_slice(x);
            }
            comm.send_line(block, sw.dir, true, out);
        }
    }
}

fn other_dirs(dir: usize) -> (usize, usize) {
    match dir {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::block::Blank;
    use crate::conditions::GAMMA;
    use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
    use overset_grid::field::{Field3, SoaField, StateField};
    use overset_grid::index::{Dims, Ijk};

    /// Copy the owned nodes of `dq` into the increment, or back.
    fn load(b: &Block, dq: &StateField, ws: &mut Scratch) {
        let (ow, inc) = (b.owned_local(), ws.increment(b));
        for (t, p) in ow.iter().enumerate() {
            for (v, &x) in dq.node(p).iter().enumerate() {
                inc[v * ow.count() + t] = x;
            }
        }
    }

    fn store(b: &Block, ws: &mut Scratch, dq: &mut StateField) {
        let (ow, inc) = (b.owned_local(), ws.increment(b));
        for (t, p) in ow.iter().enumerate() {
            dq.set_node(p, std::array::from_fn(|v| inc[v * ow.count() + t]));
        }
    }

    /// [`implicit_sweeps`] on the owned nodes of an interleaved `dq`;
    /// returns its flop estimate.
    fn sweep_field(
        b: &Block,
        fc: &FlowConditions,
        dq: &mut StateField,
        comm: &mut impl SolverComm,
        ws: &mut Scratch,
    ) -> u64 {
        load(b, dq, ws);
        let flops = implicit_sweeps(b, fc, comm, ws);
        store(b, ws, dq);
        flops
    }

    // ---- scalar reference forms of the pointwise kernels ---------------------

    /// Local characteristic frame at a node for direction `dir` — the scalar
    /// reference form of the frame SoA ([`kernels::FR_K`]..), kept for the
    /// equality tests.
    #[derive(Clone, Copy)]
    struct CharFrame {
        /// Unit metric normal.
        k: [f64; 3],
        /// Orthonormal tangents.
        t1: [f64; 3],
        t2: [f64; 3],
        /// ρ, velocity, sound speed.
        rho: f64,
        u: [f64; 3],
        c: f64,
        /// Eigenvalues per characteristic field (J-scaled): Ũ, Ũ, Ũ, Ũ+c̃, Ũ−c̃.
        lam: [f64; NVAR],
        /// Spectral radius |Ũ| + c̃ (J-scaled) for the implicit smoothing.
        sigma: f64,
    }

    fn char_frame(block: &Block, p: Ijk, dir: usize) -> CharFrame {
        let q = block.q.node(p);
        let (g, jac) = (block.metrics.grad(p, dir), block.metrics.metric(p).jac);
        let s = [g[0] * jac, g[1] * jac, g[2] * jac];
        let s_norm = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2]).sqrt().max(1e-300);
        let k = [s[0] / s_norm, s[1] / s_norm, s[2] / s_norm];
        // Deterministic tangent basis.
        let a = if k[0].abs() < 0.9 { [1.0, 0.0, 0.0] } else { [0.0, 1.0, 0.0] };
        let mut t1 =
            [k[1] * a[2] - k[2] * a[1], k[2] * a[0] - k[0] * a[2], k[0] * a[1] - k[1] * a[0]];
        let n1 = (t1[0] * t1[0] + t1[1] * t1[1] + t1[2] * t1[2]).sqrt();
        for t in t1.iter_mut() {
            *t /= n1;
        }
        let t2 =
            [k[1] * t1[2] - k[2] * t1[1], k[2] * t1[0] - k[0] * t1[2], k[0] * t1[1] - k[1] * t1[0]];
        let rho = q[0];
        let u = [q[1] / rho, q[2] / rho, q[3] / rho];
        let c = sound_speed(q);
        let vg = block.grid_vel_at(p);
        let u_rel_n = s[0] * (u[0] - vg[0]) + s[1] * (u[1] - vg[1]) + s[2] * (u[2] - vg[2]);
        let u_tilde = u_rel_n / jac;
        let c_tilde = c * s_norm / jac;
        CharFrame {
            k,
            t1,
            t2,
            rho,
            u,
            c,
            lam: [u_tilde, u_tilde, u_tilde, u_tilde + c_tilde, u_tilde - c_tilde],
            sigma: u_tilde.abs() + c_tilde,
        }
    }

    /// Conservative increment → characteristic variables at the frame. The
    /// batched kernel [`kernels::frames_forward_rows`] computes the same
    /// transform lanewise; this scalar form is the reference the tests pin
    /// bit-equality against.
    fn to_char(f: &CharFrame, dq: &[f64; NVAR]) -> [f64; NVAR] {
        // ΔQ → Δprimitive.
        let d_rho = dq[0];
        let du = [
            (dq[1] - f.u[0] * d_rho) / f.rho,
            (dq[2] - f.u[1] * d_rho) / f.rho,
            (dq[3] - f.u[2] * d_rho) / f.rho,
        ];
        let ke = 0.5 * (f.u[0] * f.u[0] + f.u[1] * f.u[1] + f.u[2] * f.u[2]);
        let dp =
            (GAMMA - 1.0) * (dq[4] + ke * d_rho - f.u[0] * dq[1] - f.u[1] * dq[2] - f.u[2] * dq[3]);
        // Δprimitive → characteristic.
        let un = f.k[0] * du[0] + f.k[1] * du[1] + f.k[2] * du[2];
        let c2 = f.c * f.c;
        [
            d_rho - dp / c2,
            f.t1[0] * du[0] + f.t1[1] * du[1] + f.t1[2] * du[2],
            f.t2[0] * du[0] + f.t2[1] * du[1] + f.t2[2] * du[2],
            un + dp / (f.rho * f.c),
            un - dp / (f.rho * f.c),
        ]
    }

    /// Characteristic variables → conservative increment at the frame. Scalar
    /// reference for [`kernels::from_char_lanes`], kept for the equality tests.
    fn from_char(f: &CharFrame, w: &[f64; NVAR]) -> [f64; NVAR] {
        let dp = 0.5 * f.rho * f.c * (w[3] - w[4]);
        let un = 0.5 * (w[3] + w[4]);
        let d_rho = w[0] + dp / (f.c * f.c);
        let du = [
            f.t1[0] * w[1] + f.t2[0] * w[2] + f.k[0] * un,
            f.t1[1] * w[1] + f.t2[1] * w[2] + f.k[1] * un,
            f.t1[2] * w[1] + f.t2[2] * w[2] + f.k[2] * un,
        ];
        let ke = 0.5 * (f.u[0] * f.u[0] + f.u[1] * f.u[1] + f.u[2] * f.u[2]);
        [
            d_rho,
            f.u[0] * d_rho + f.rho * du[0],
            f.u[1] * d_rho + f.rho * du[1],
            f.u[2] * d_rho + f.rho * du[2],
            ke * d_rho
                + f.rho * (f.u[0] * du[0] + f.u[1] * du[1] + f.u[2] * du[2])
                + dp / (GAMMA - 1.0),
        ]
    }

    /// [`from_char`] at owned node `t` of a frame SoA over `mm` nodes
    /// ([`kernels::FR_K`]..), the second tangent formed as the kernels form
    /// it.
    pub(crate) fn from_char_at(fr: &[f64], mm: usize, t: usize, w: &[f64; NVAR]) -> [f64; NVAR] {
        use kernels::{FR_C, FR_K, FR_RHO, FR_T1, FR_U};
        let at = |f: usize| fr[f * mm + t];
        let k = [at(FR_K), at(FR_K + 1), at(FR_K + 2)];
        let t1 = [at(FR_T1), at(FR_T1 + 1), at(FR_T1 + 2)];
        let t2 =
            [k[1] * t1[2] - k[2] * t1[1], k[2] * t1[0] - k[0] * t1[2], k[0] * t1[1] - k[1] * t1[0]];
        let (rho, u, c) = (at(FR_RHO), [at(FR_U), at(FR_U + 1), at(FR_U + 2)], at(FR_C));
        let f = CharFrame { k, t1, t2, rho, u, c, lam: [0.0; NVAR], sigma: 0.0 };
        from_char(&f, w)
    }

    /// Tridiagonal row for characteristic variable `v` at a node, from the
    /// frames of its `i∓1`, own, and `i±1` nodes. The batched kernels compute
    /// the same coefficients lanewise (`kernels::coeffs`); this scalar form is
    /// kept as the reference the tests verify against.
    fn row_abc(
        fm: &CharFrame,
        f0: &CharFrame,
        fp: &CharFrame,
        dt: f64,
        v: usize,
        identity: bool,
    ) -> (f64, f64, f64) {
        if identity {
            (0.0, 1.0, 0.0)
        } else {
            (
                dt * (-0.5 * fm.lam[v] - BETA * fm.sigma),
                1.0 + 2.0 * BETA * dt * f0.sigma,
                dt * (0.5 * fp.lam[v] - BETA * fp.sigma),
            )
        }
    }

    fn uniform_block(n: usize, fc: &FlowConditions) -> Block {
        let d = Dims::new(n, n, n);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.2, p.j as f64 * 0.2, p.k as f64 * 0.2]);
        let g = CurvilinearGrid::new("u", coords, GridKind::Background);
        Block::from_grid(0, &g, d.full_box(), [None; 6], fc)
    }

    /// The frame SoA keeps 14 doubles per owned node (k, t1, ρ, u, c, Ũ, c̃
    /// and the identity mask): what it can rebuild exactly is not stored.
    #[test]
    fn the_frame_soa_holds_fourteen_doubles_per_owned_node() {
        let fc = FlowConditions::new(0.8, 5.0, 0.0);
        let mut b = uniform_block(8, &fc);
        let mut ws = Scratch::default();
        crate::step::step_block(&mut b, &fc, None, &mut SerialComm, &mut ws);
        assert_eq!(ws.fr.len(), 14 * b.owned_count());
    }

    #[test]
    fn char_transform_roundtrip() {
        let fc = FlowConditions::new(0.8, 5.0, 0.0);
        let b = uniform_block(5, &fc);
        let p = Ijk::new(3, 3, 3);
        for dir in 0..3 {
            let f = char_frame(&b, p, dir);
            let dq = [0.1, -0.2, 0.05, 0.3, 0.7];
            let w = to_char(&f, &dq);
            let back = from_char(&f, &w);
            for v in 0..NVAR {
                assert!(
                    (back[v] - dq[v]).abs() < 1e-12,
                    "dir {dir} var {v}: {} vs {}",
                    back[v],
                    dq[v]
                );
            }
        }
    }

    #[test]
    fn eigenvalues_ordered_and_consistent() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = uniform_block(5, &fc);
        let f = char_frame(&b, Ijk::new(2, 2, 2), 0);
        assert!(f.lam[3] > f.lam[0]);
        assert!(f.lam[4] < f.lam[0]);
        assert!((f.lam[0] - (f.lam[3] + f.lam[4]) / 2.0).abs() < 1e-12);
        assert!((f.sigma - f.lam[3].abs().max(f.lam[4].abs())).abs() < 1e-12);
        // Orthonormal frame.
        let dot = |a: [f64; 3], b: [f64; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        assert!(dot(f.k, f.t1).abs() < 1e-12);
        assert!(dot(f.k, f.t2).abs() < 1e-12);
        assert!(dot(f.t1, f.t2).abs() < 1e-12);
        assert!((dot(f.t1, f.t1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rhs_gives_zero_update() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = uniform_block(7, &fc);
        let mut dq = StateField::new(b.local_dims);
        sweep_field(&b, &fc, &mut dq, &mut SerialComm, &mut Scratch::default());
        for v in dq.as_slice() {
            assert!(v.abs() < 1e-15);
        }
    }

    #[test]
    fn sweeps_damp_but_preserve_sign() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = uniform_block(7, &fc);
        let mut dq = StateField::new(b.local_dims);
        let c = Ijk::new(3, 3, 3);
        dq.set_node(c, [1.0, 0.0, 0.0, 0.0, 0.0]);
        sweep_field(&b, &fc, &mut dq, &mut SerialComm, &mut Scratch::default());
        let v = dq.node(c)[0];
        assert!(v > 0.0 && v < 1.0, "center update {v}");
    }

    #[test]
    fn blanked_rows_stay_zero() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut b = uniform_block(7, &fc);
        let hole = Ijk::new(3, 3, 3);
        b.iblank[hole] = Blank::Hole;
        let mut dq = StateField::new(b.local_dims);
        dq.set_node(hole, [5.0; 5]); // must be zeroed by the identity row
        dq.set_node(Ijk::new(4, 3, 3), [1.0, 0.0, 0.0, 0.0, 0.0]);
        sweep_field(&b, &fc, &mut dq, &mut SerialComm, &mut Scratch::default());
        assert_eq!(*dq.node(hole), [0.0; 5]);
        assert!(dq.node(Ijk::new(4, 3, 3))[0] != 0.0);
    }

    #[test]
    fn implicit_neighbor_excludes_wrap_links() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let d = Dims::new(9, 5, 1);
        let coords = Field3::from_fn(d, |p| {
            let th = -2.0 * std::f64::consts::PI * (p.i % 8) as f64 / 8.0;
            let r = 1.0 + 0.1 * p.j as f64;
            [r * th.cos(), r * th.sin(), 0.0]
        });
        let mut g = CurvilinearGrid::new("o", coords, GridKind::NearBody);
        g.periodic_i = true;
        // Whole grid on one rank, wrap neighbors pointing at itself.
        let b =
            Block::from_grid(0, &g, d.full_box(), [Some(0), Some(0), None, None, None, None], &fc);
        assert!(implicit_neighbor(&b, 0, false).is_none());
        assert!(implicit_neighbor(&b, 0, true).is_none());
    }

    #[test]
    fn cyclic_solve_satisfies_periodic_system() {
        // Annular O-grid, single block: run the sweeps and verify that the
        // i-direction solve satisfies the full *cyclic* tridiagonal system
        // (seam coupling implicit).
        let mut fc = FlowConditions::new(0.5, 0.0, 0.0);
        fc.dt = 0.1;
        let (nth, nr) = (17usize, 5);
        let d = Dims::new(nth, nr, 1);
        let coords = Field3::from_fn(d, |p| {
            let th = -2.0 * std::f64::consts::PI * (p.i % (nth - 1)) as f64 / (nth - 1) as f64;
            let r = 1.0 + 0.3 * p.j as f64;
            [r * th.cos(), r * th.sin(), 0.0]
        });
        let mut g = CurvilinearGrid::new("o", coords, GridKind::NearBody);
        g.periodic_i = true;
        let mut b = Block::from_grid(0, &g, d.full_box(), [None; 6], &fc);
        // Mildly non-uniform state so eigenvalues vary along the line.
        for p in b.local_dims.iter().collect::<Vec<_>>() {
            let x = b.coords[p];
            let prim = [1.0 + 0.05 * x[0], 0.3 + 0.02 * x[1], 0.1 * x[0], 0.0, 0.8];
            b.q.set_node(p, crate::conditions::conservatives(&prim));
        }
        b.fill_self_wrap();

        // RHS: pseudo-random but deterministic.
        let mut rhs = StateField::new(b.local_dims);
        let ow = b.owned_local();
        for p in ow.iter().collect::<Vec<_>>() {
            let g = b.to_global(p);
            let v = ((g.i * 37 + g.j * 17) % 19) as f64 / 19.0 - 0.5;
            rhs.set_node(p, [v, 0.5 * v, -v, 0.2, v * v]);
        }
        let dq = rhs.clone();

        // Run ONLY the i-direction sweep, through the stages
        // `implicit_sweeps` is made of, and verify the pure solve at the
        // characteristic level.
        let n_own = ow.dims().ni;
        let np = n_own - 1; // unknowns per cyclic line
        let nlines = ow.dims().nj;
        let lines: Vec<(usize, usize)> = (ow.lo.j..ow.hi.j).map(|j| (j, ow.lo.k)).collect();
        // Scalar AoS frames for the verification math below.
        let mut frames = Vec::new();
        for &(lj, lk) in &lines {
            for c in 0..n_own {
                frames.push(char_frame(&b, Ijk::new(ow.lo.i + c, lj, lk), 0));
            }
        }
        let mut ws = Scratch::default();
        let unload = |ws: &mut Scratch| {
            let mut out = StateField::new(b.local_dims);
            store(&b, ws, &mut out);
            out
        };
        load(&b, &dq, &mut ws);
        let (rows, mm) = prepare_frames(&b, &mut ws);
        let ln = forward_stage(&b, 0, true, rows, mm, &mut ws);
        let rhs_char = unload(&mut ws);
        solve(&b, fc.dt, &mut SerialComm, &Sweep::new(&b, 0, ln), mm, &mut ws);
        let dq = unload(&mut ws);

        // Verify A x = rhs for each line and variable, with A the cyclic
        // tridiagonal built from the same row coefficients.
        for li in 0..nlines {
            let node = |c: usize| Ijk::new(ow.lo.i + c, lines[li].0, lines[li].1);
            let frame_at = |c: isize| -> CharFrame {
                if c < 0 {
                    char_frame(&b, Ijk::new(ow.lo.i - 1, lines[li].0, lines[li].1), 0)
                } else {
                    frames[li * n_own + c as usize]
                }
            };
            for v in 0..NVAR {
                for c in 0..np {
                    let fm = frame_at(c as isize - 1);
                    let f0 = frames[li * n_own + c];
                    let fp = frame_at(c as isize + 1);
                    let (a, bb, cc) = row_abc(&fm, &f0, &fp, fc.dt, v, false);
                    let xm = dq.node(node(if c == 0 { np - 1 } else { c - 1 }))[v];
                    let x0 = dq.node(node(c))[v];
                    let xp = dq.node(node(if c + 1 == np { 0 } else { c + 1 }))[v];
                    let lhs = a * xm + bb * x0 + cc * xp;
                    let r = rhs_char.node(node(c))[v];
                    assert!(
                        (lhs - r).abs() < 1e-9 * (1.0 + r.abs()),
                        "line {li} var {v} row {c}: {lhs} vs {r}"
                    );
                }
                // Seam duplicate mirrors node 0.
                let dup = dq.node(node(np))[v];
                let x0 = dq.node(node(0))[v];
                assert!((dup - x0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn larger_dt_damps_more() {
        let mut fc = FlowConditions::new(0.8, 0.0, 0.0);
        let b = uniform_block(7, &fc);
        let c = Ijk::new(3, 3, 3);
        let run = |fc: &FlowConditions| -> f64 {
            let mut dq = StateField::new(b.local_dims);
            dq.set_node(c, [1.0, 0.0, 0.0, 0.0, 0.0]);
            sweep_field(&b, fc, &mut dq, &mut SerialComm, &mut Scratch::default());
            dq.node(c)[0]
        };
        fc.dt = 0.05;
        let small = run(&fc);
        fc.dt = 0.5;
        let large = run(&fc);
        assert!(large < small, "dt damping: {large} !< {small}");
    }

    // ---- storage-order data path vs a scalar line-by-line reference ------

    use crate::tridiag;
    use overset_grid::index::IndexBox;
    use proptest::prelude::*;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// The factored sweeps of a whole-grid block, one line and one
    /// characteristic field at a time, through the scalar `char_frame` /
    /// `to_char` / `row_abc` / `tridiag` / `from_char` forms.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn sweeps_reference(block: &Block, fc: &FlowConditions, dq: &mut StateField) {
        let ow = block.owned_local();
        for &dir in block.active_dirs() {
            let (d1, d2) = other_dirs(dir);
            let n_own = ow.dims().get(dir);
            let periodic = dir == 0 && block.periodic_i_grid;
            // The cyclic system leaves out the duplicated seam node.
            let n = if periodic { n_own - 1 } else { n_own };
            for c2 in ow.lo.get(d2)..ow.hi.get(d2) {
                for c1 in ow.lo.get(d1)..ow.hi.get(d1) {
                    let at = |c: isize| {
                        let mut p = Ijk::new(0, 0, 0);
                        p.set(dir, (ow.lo.get(dir) as isize + c) as usize);
                        p.set(d1, c1);
                        p.set(d2, c2);
                        p
                    };
                    // frames[c + 1] is the frame of node c, c = -1..=n_own.
                    let frames: Vec<CharFrame> =
                        (-1..=n_own as isize).map(|c| char_frame(block, at(c), dir)).collect();
                    let mut w: Vec<[f64; NVAR]> = (0..n_own)
                        .map(|c| to_char(&frames[c + 1], dq.node(at(c as isize))))
                        .collect();
                    for v in 0..NVAR {
                        let (mut a, mut b, mut cc, mut d) = (vec![], vec![], vec![], vec![]);
                        for c in 0..n {
                            let ident = block.iblank[at(c as isize)] != Blank::Field;
                            let (ra, rb, rc) = row_abc(
                                &frames[c],
                                &frames[c + 1],
                                &frames[c + 2],
                                fc.dt,
                                v,
                                ident,
                            );
                            a.push(ra);
                            b.push(rb);
                            cc.push(rc);
                            d.push(if ident { 0.0 } else { w[c][v] });
                        }
                        if periodic {
                            tridiag::solve_periodic(&a, &b, &cc, &mut d);
                            w[n][v] = d[0];
                        } else {
                            tridiag::solve(&a, &b, &cc, &mut d);
                        }
                        for c in 0..n {
                            w[c][v] = d[c];
                        }
                    }
                    for c in 0..n_own {
                        dq.set_node(at(c as isize), from_char(&frames[c + 1], &w[c]));
                    }
                }
            }
        }
    }

    /// Deterministic pseudo-random values in [0, 1) keyed by a *global*
    /// node, so a subdomain block and the whole-grid block agree wherever
    /// they overlap, halo layers included.
    pub(crate) fn keyed(seed: u64, g: [isize; 3], salt: u64) -> f64 {
        let mut h = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for x in g {
            h = (h ^ x as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 29;
        }
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The block of `owned` with state, grid velocity, blanking and the
    /// increment all keyed by global node. Half of the seeds give the block
    /// no grid velocity, which reads as zero. Returns the block and `dq`.
    fn keyed_block(
        g: &CurvilinearGrid,
        owned: IndexBox,
        neighbor: [Option<usize>; 6],
        seed: u64,
    ) -> (Block, StateField) {
        let fc = FlowConditions::new(0.8, 3.0, 0.0);
        let mut b = Block::from_grid(0, g, owned, neighbor, &fc);
        if keyed(seed, [-1; 3], 20) < 0.5 {
            b.grid_vel = Some(SoaField::new(b.local_dims, [0.0; 3]));
        }
        let mut dq = StateField::new(b.local_dims);
        let period = g.dims().ni as isize - 1;
        for p in b.local_dims.iter() {
            let mut gl = [
                p.i as isize + owned.lo.i as isize - b.halo[0] as isize,
                p.j as isize + owned.lo.j as isize - b.halo[1] as isize,
                p.k as isize + owned.lo.k as isize - b.halo[2] as isize,
            ];
            if g.periodic_i {
                gl[0] = gl[0].rem_euclid(period);
            }
            let r = |salt: u64| keyed(seed, gl, salt);
            let prim = [0.6 + r(1), r(2) - 0.5, r(3) - 0.5, r(4) - 0.5, 0.4 + 0.8 * r(5)];
            b.q.set_node(p, crate::conditions::conservatives(&prim));
            if let Some(v) = &mut b.grid_vel {
                v.set_node(p, [0.2 * (r(6) - 0.5), 0.2 * (r(7) - 0.5), 0.2 * (r(8) - 0.5)]);
            }
            b.iblank[p] = match (r(9) * 10.0) as usize {
                0 => Blank::Hole,
                1 => Blank::Fringe,
                _ => Blank::Field,
            };
            dq.set_node(p, std::array::from_fn(|v| r(10 + v as u64) - 0.5));
        }
        (b, dq)
    }

    fn bits(dq: &StateField, p: Ijk) -> [u64; NVAR] {
        dq.node(p).map(f64::to_bits)
    }

    /// A grid of dimensions `d` cut into a chain of `parts` subdomains along
    /// `split`: each piece's owned box and face neighbours (rank = position
    /// in the chain; both ends of a split periodic direction wrap).
    pub(crate) fn chain_pieces(
        d: Dims,
        periodic: bool,
        split: usize,
        parts: usize,
    ) -> Vec<(IndexBox, [Option<usize>; 6])> {
        let wrap = split == 0 && periodic;
        let pieces = d.full_box().split(split, parts);
        let link = |r: usize| {
            let mut neighbor = [None; 6];
            if r > 0 || wrap {
                neighbor[2 * split] = Some((r + parts - 1) % parts);
            }
            if r + 1 < parts || wrap {
                neighbor[2 * split + 1] = Some((r + 1) % parts);
            }
            neighbor
        };
        pieces.into_iter().enumerate().map(|(r, owned)| (owned, link(r))).collect()
    }

    /// Everything a workspace holds, in doubles (capacities, not lengths).
    fn held(ws: &Scratch) -> usize {
        let rows = |v: &Vec<[f64; NVAR]>| v.capacity() * NVAR;
        ws.dw.capacity()
            + ws.fr.capacity()
            + ws.z.capacity()
            + ws.edge.capacity() * EDGE_FIELDS
            + [&ws.alpha, &ws.gamma, &ws.y_last, &ws.z_last, &ws.fact, &ws.x0]
                .into_iter()
                .map(rows)
                .sum::<usize>()
    }

    /// Past the increment and the frames, a stepped workspace holds the
    /// correction column of a cyclic sweep and per-line rows only — no
    /// buffer per lane group, and no super-diagonals of its own (they take
    /// the operator rows' places in the frames). Thin 2-D grids, one open
    /// and one periodic in `i`, cut into a 3-piece chain along `i`: the
    /// `i`-lines are pipelined in 8 chunks of 2 or 3 lines, so every chunk
    /// is one ragged lane group, and each piece's `j`-lines are 3 or 4.
    #[test]
    fn a_stepped_workspace_holds_no_group_buffers() {
        let fc = FlowConditions::new(0.8, 3.0, 0.0);
        let d = Dims::new(10, 20, 1);
        for periodic in [false, true] {
            let g = crate::testutil::wavy_grid(d, periodic);
            let mut blocks: Vec<Block> = chain_pieces(d, periodic, 0, 3)
                .into_iter()
                .map(|(owned, neighbor)| keyed_block(&g, owned, neighbor, 7).0)
                .collect();
            let spaces: Vec<Scratch> = std::thread::scope(|s| {
                let runs: Vec<_> = blocks
                    .iter_mut()
                    .zip(chain(3))
                    .map(|(b, mut comm)| {
                        s.spawn(move || {
                            let mut ws = Scratch::default();
                            for _ in 0..2 {
                                crate::step::step_block(b, &fc, None, &mut comm, &mut ws);
                            }
                            ws
                        })
                    })
                    .collect();
                runs.into_iter().map(|r| r.join().unwrap()).collect()
            });
            for (b, ws) in blocks.iter().zip(&spaces) {
                let (mm, od) = (b.owned_count(), b.owned.dims());
                let lines = b.active_dirs().iter().map(|&dir| mm / od.get(dir)).max().unwrap();
                // Two edge rows per line; on a cyclic sweep also the corner
                // parameters, the chain-end values and the correction's
                // factor and row-0 solution.
                let per_line = lines * (2 * EDGE_FIELDS + if periodic { 6 * NVAR } else { 0 });
                let z = if periodic { NCLASS * mm } else { 0 };
                let bound = ws.dw.capacity() + ws.fr.capacity() + z + per_line;
                assert!(
                    held(ws) <= bound,
                    "periodic {periodic}, owned {:?}: {} doubles held, bound {bound}",
                    b.owned,
                    held(ws)
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whole-grid blocks of ragged sizes (`mm % W != 0`, rows shorter
        /// than a lane group, so that lane groups cross row ends and the
        /// last one holds 1 to 3 nodes) with random blanking, open and
        /// cyclic (a cyclic line of the reference needs 3 unknowns). A row
        /// holds at least 2 nodes: a grid one node wide in `i` has no finite
        /// Jacobian.
        #[test]
        fn sweeps_bit_equal_scalar_reference(
            seed in 1u64..(1 << 60),
            ni in 1usize..15, nj in 3usize..11, nk in 1usize..7,
            periodic in 0usize..2,
        ) {
            let ni = if periodic == 1 { ni.max(4) } else { ni.max(2) };
            let d = Dims::new(ni, nj, if nk < 3 { 1 } else { nk });
            let g = crate::testutil::wavy_grid(d, periodic == 1);
            let fc = FlowConditions::new(0.8, 3.0, 0.0);
            let (b, dq0) = keyed_block(&g, d.full_box(), [None; 6], seed);
            let mut want = dq0.clone();
            sweeps_reference(&b, &fc, &mut want);
            // F per node of an open line, 2F per unknown of a cyclic one.
            let want_flops: u64 = b
                .active_dirs()
                .iter()
                .map(|&dir| {
                    let (n, lines) = (d.get(dir) as u64, (d.count() / d.get(dir)) as u64);
                    let f = FLOPS_PER_NODE_PER_DIR;
                    if dir == 0 && periodic == 1 { 2 * f * (n - 1) * lines } else { f * n * lines }
                })
                .sum();
            for isa in [Isa::Scalar, select_isa()] {
                let mut got = dq0.clone();
                let mut ws = Scratch::new(isa);
                let flops = sweep_field(&b, &fc, &mut got, &mut SerialComm, &mut ws);
                prop_assert_eq!(flops, want_flops, "{:?} dims {:?}: flop estimate", isa, d);
                for p in b.local_dims.iter() {
                    prop_assert_eq!(
                        bits(&got, p), bits(&want, p), "{:?} at {:?} dims {:?}", isa, p, d
                    );
                }
            }
        }

        /// The same grids cut into a chain of 2–3 subdomains along one
        /// direction, each swept on its own thread with the carries going
        /// through channels: pipelined segments (and the distributed cyclic
        /// solve) must reproduce the whole-grid reference bit for bit, and
        /// every rank must keep the line-solve ledger of [`line_ledger`].
        /// Pieces are at least 2 nodes wide, the thinnest a periodic grid's
        /// `i`-piece may be: a 2-wide seam piece solves a single unknown.
        #[test]
        fn pipelined_chains_bit_equal_scalar_reference(
            seed in 1u64..(1 << 60),
            ni in 4usize..16, nj in 7usize..12, nk in 1usize..10,
            split in 0usize..3, parts in 2usize..4, periodic in 0usize..2,
        ) {
            let d = Dims::new(ni, nj, if nk < 7 { 1 } else { nk });
            let split = if d.nk == 1 { split % 2 } else { split };
            let parts = parts.min(d.get(split) / 2);
            let g = crate::testutil::wavy_grid(d, periodic == 1);
            let fc = FlowConditions::new(0.8, 3.0, 0.0);
            let (whole, dq0) = keyed_block(&g, d.full_box(), [None; 6], seed);
            let mut want = dq0;
            sweeps_reference(&whole, &fc, &mut want);

            let mut blocks: Vec<(Block, StateField)> = chain_pieces(d, g.periodic_i, split, parts)
                .into_iter()
                .map(|(owned, neighbor)| keyed_block(&g, owned, neighbor, seed))
                .collect();
            let isa = if seed % 2 == 0 { Isa::Scalar } else { select_isa() };
            let ledgers: Vec<Vec<Entry>> = std::thread::scope(|s| {
                let runs: Vec<_> = blocks
                    .iter_mut()
                    .zip(chain(parts))
                    .map(|((b, dq), mut comm)| {
                        s.spawn(move || {
                            sweep_field(b, &fc, dq, &mut comm, &mut Scratch::new(isa));
                            comm.ledger
                        })
                    })
                    .collect();
                runs.into_iter().map(|r| r.join().unwrap()).collect()
            });
            for ((b, _), ledger) in blocks.iter().zip(&ledgers) {
                let mut rest = &ledger[..];
                for (dir, want, total) in line_ledger(b) {
                    let what = format!("split {split} x{parts}: owned {:?} dir {dir}", b.owned);
                    prop_assert!(rest.len() >= want.len(), "{}: ledger ends early", what);
                    let (got, tail) = rest.split_at(want.len());
                    prop_assert_eq!(got, &want[..], "{}", what);
                    let charged: u64 =
                        got.iter().map(|e| if let Entry::Charge(f) = e { *f } else { 0 }).sum();
                    prop_assert_eq!(charged, total, "{}: charges", what);
                    rest = tail;
                }
                prop_assert!(rest.is_empty(), "owned {:?}: entries past the last sweep", b.owned);
            }
            for (b, dq) in &blocks {
                for p in b.owned_local().iter() {
                    let gp = whole.to_local(b.to_global(p));
                    prop_assert_eq!(
                        bits(dq, p), bits(&want, gp),
                        "split {} x{} {:?}: owned {:?} node {:?}", split, parts, isa, b.owned, p
                    );
                }
            }
        }
    }

    /// One entry of a rank's line-solve ledger: a carry message sent, or a
    /// compute charge.
    #[derive(Clone, Debug, PartialEq)]
    pub(crate) enum Entry {
        Send { dir: usize, downstream: bool, len: usize },
        Charge(u64),
    }

    /// The ledger [`implicit_sweeps`] must keep on `b`, per active
    /// direction, with the sum of its charges: F per unknown on open lines,
    /// F + F/3 + 4 on cyclic ones (F = [`FLOPS_PER_NODE_PER_DIR`]). Per pass
    /// and chunk, the chunk's charge and then — toward a pipeline neighbour —
    /// its carry message, of a fixed width per line: open lines eliminate
    /// (7/10 F, `[cp, d]`) and substitute (2/10 F, `[x]`), then charge the
    /// rest of F in one lump; cyclic lines eliminate (F, `[cp, d, z, α,
    /// γ]`), substitute (F/3, `[y, z, y_last, z_last]`) and correct (4,
    /// `[fact, x0]`).
    fn line_ledger(b: &Block) -> Vec<(usize, Vec<Entry>, u64)> {
        const F: u64 = FLOPS_PER_NODE_PER_DIR;
        let od = b.owned.dims();
        let mut out = Vec::new();
        for &dir in b.active_dirs() {
            let lines = od.count() / od.get(dir);
            let cyclic = dir == 0 && b.periodic_i_grid;
            let n = od.get(dir) - usize::from(cyclic && b.owned.hi.i == b.grid_dims.ni);
            let up = implicit_neighbor(b, dir, false).is_some();
            let down = implicit_neighbor(b, dir, true).is_some();
            let nchunks = if up || down { PIPELINE_CHUNKS.min(lines) } else { 1 };
            // (flops per unknown, values per line and field, toward downstream)
            let passes: &[(u64, usize, bool)] = if cyclic {
                &[(F, 5, true), (F / 3, 4, false), (4, 2, true)]
            } else {
                &[(F * 7 / 10, 2, true), (F * 2 / 10, 1, false)]
            };
            let mut want = Vec::new();
            for &(per_node, width, downstream) in passes {
                for ch in 0..nchunks {
                    let chunk = lines * (ch + 1) / nchunks - lines * ch / nchunks;
                    want.push(Entry::Charge(per_node * (n * chunk) as u64));
                    if (downstream && down) || (!downstream && up) {
                        want.push(Entry::Send { dir, downstream, len: chunk * width * NVAR });
                    }
                }
            }
            if !cyclic {
                let staged: u64 = passes.iter().map(|p| p.0).sum();
                want.push(Entry::Charge((F - staged) * (n * lines) as u64));
            }
            let per_node = if cyclic { F + F / 3 + 4 } else { F };
            out.push((dir, want, per_node * (n * lines) as u64));
        }
        out
    }

    /// Line-solve links of one subdomain in a chain, over channels (index
    /// 0: the upstream neighbour, 1: the downstream one), with the ledger
    /// of every carry message sent and every compute charge. Halos are left
    /// as they are.
    #[derive(Default)]
    pub(crate) struct ChanComm {
        tx: [Option<Sender<Vec<f64>>>; 2],
        rx: [Option<Receiver<Vec<f64>>>; 2],
        pub(crate) ledger: Vec<Entry>,
    }

    /// The links of a chain of `parts` subdomains, one channel each way
    /// between consecutive ones.
    pub(crate) fn chain(parts: usize) -> Vec<ChanComm> {
        let mut comms: Vec<ChanComm> = (0..parts).map(|_| ChanComm::default()).collect();
        for r in 1..parts {
            let (tx, rx) = channel();
            comms[r - 1].tx[1] = Some(tx);
            comms[r].rx[0] = Some(rx);
            let (tx, rx) = channel();
            comms[r].tx[0] = Some(tx);
            comms[r - 1].rx[1] = Some(rx);
        }
        comms
    }

    impl SolverComm for ChanComm {
        fn exchange_halo(&mut self, _: &mut Block) {}
        fn send_line(&mut self, _: &Block, dir: usize, downstream: bool, data: Vec<f64>) {
            self.ledger.push(Entry::Send { dir, downstream, len: data.len() });
            let tx = &self.tx[usize::from(downstream)];
            tx.as_ref().expect("send toward a missing neighbor").send(data).unwrap();
        }
        fn recv_line(&mut self, _: &Block, _: usize, from_upstream: bool, len: usize) -> Vec<f64> {
            let rx = &self.rx[usize::from(!from_upstream)];
            let data = rx.as_ref().expect("receive from a missing neighbor").recv().unwrap();
            assert_eq!(data.len(), len);
            data
        }
        fn compute(&mut self, flops: u64) {
            self.ledger.push(Entry::Charge(flops));
        }
    }
}
