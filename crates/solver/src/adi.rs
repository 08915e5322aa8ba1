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

use crate::block::{Blank, Block};
use crate::conditions::{sound_speed, FlowConditions};
use crate::kernels::{self, Rows, NVW};
use crate::lanes::{select_isa, Isa, W};
use overset_grid::field::{StateField, NVAR};

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
    /// An empty buffer for line-solve data about to be sent. The
    /// message-passing runtime hands back buffers it received earlier
    /// ([`SolverComm::recycle_buf`]), so steady-state sweeps allocate none.
    fn take_buf(&mut self) -> Vec<f64> {
        Vec::new()
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

/// Does the block have an *implicit-coupled* neighbor along `dir`?
/// Periodic wrap links are excluded: the implicit operator treats O-grid
/// lines as open (the wrap coupling stays explicit through the halo), the
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
/// every O(block) buffer the flow phase needs. The residual's node cache
/// and the sweeps' frame SoA share `fr` — the residual is done with it
/// before the sweeps start — so the node pass costs no memory of its own.
/// Owned per rank by [`crate::step::Scratch`]; buffers grow to the largest
/// block seen and are then recycled. What a steady-state step still
/// allocates is bounded per rank and independent of the block size: line
/// buffers that outgrow the ones the rank's pool holds.
pub struct SweepScratch {
    /// Kernel instruction set, chosen once per run by runtime feature
    /// detection (see [`crate::lanes::select_isa`]). The scalar and SIMD
    /// paths run the same lane-batched code and produce bit-identical
    /// results.
    pub isa: Isa,
    /// Increment / characteristic work vectors and the frame SoA (see
    /// `kernels::FR_*`) over the owned nodes in storage order.
    dw: Vec<f64>,
    fr: Vec<f64>,
    /// Per-line edge rows (`c = -1` and `c = n`), two per line.
    edge: Vec<EdgeRow>,
    /// Lane-transposed eigenvalues / spectral radii / identity masks for the
    /// group currently being eliminated.
    lam: Vec<f64>,
    sig: Vec<f64>,
    idm: Vec<f64>,
    /// Group-major lane-transposed RHS, normalized super-diagonals, and the
    /// Sherman–Morrison correction column (every group padded to [`W`] lanes).
    d: Vec<f64>,
    cp: Vec<f64>,
    z: Vec<f64>,
    /// Per-line cyclic corner parameters and chain-end values.
    alpha: Vec<[f64; NVAR]>,
    gamma: Vec<[f64; NVAR]>,
    y_last: Vec<[f64; NVAR]>,
    z_last: Vec<[f64; NVAR]>,
    fact: Vec<[f64; NVAR]>,
    x0: Vec<[f64; NVAR]>,
}

impl SweepScratch {
    pub fn new(isa: Isa) -> Self {
        Self {
            isa,
            dw: Vec::new(),
            fr: Vec::new(),
            edge: Vec::new(),
            lam: Vec::new(),
            sig: Vec::new(),
            idm: Vec::new(),
            d: Vec::new(),
            cp: Vec::new(),
            z: Vec::new(),
            alpha: Vec::new(),
            gamma: Vec::new(),
            y_last: Vec::new(),
            z_last: Vec::new(),
            fact: Vec::new(),
            x0: Vec::new(),
        }
    }

    /// The residual's node cache: `len` doubles of the frame SoA, which is
    /// idle until the sweeps start.
    pub(crate) fn node_cache(&mut self, len: usize) -> &mut [f64] {
        ensure_len(&mut self.fr, len);
        &mut self.fr[..len]
    }
}

impl Default for SweepScratch {
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
    if !send {
        return Vec::new();
    }
    let mut buf = comm.take_buf();
    buf.reserve(len);
    buf
}

/// Eigenvalues and spectral radius of the node just outside a line's owned
/// range: all the implicit rows need of a neighbor's frame.
#[derive(Clone, Copy)]
struct EdgeRow {
    lam: [f64; NVAR],
    sigma: f64,
}

/// `lam` / `sigma` of the characteristic frame at storage offset `s`, in
/// the operation order of the frame kernel.
fn edge_row(block: &Block, s: usize, dir: usize) -> EdgeRow {
    let q = kernels::node_at(block.q.as_slice(), s);
    let m = block.metrics.as_slice()[s];
    let g = m.grad(dir);
    let jac = m.jac;
    let sv = [g[0] * jac, g[1] * jac, g[2] * jac];
    let s_norm = (sv[0] * sv[0] + sv[1] * sv[1] + sv[2] * sv[2]).sqrt().max(1e-300);
    let rho = q[0];
    let u = [q[1] / rho, q[2] / rho, q[3] / rho];
    let c = sound_speed(q);
    let vg = block.grid_vel.as_slice()[s];
    let u_rel_n = sv[0] * (u[0] - vg[0]) + sv[1] * (u[1] - vg[1]) + sv[2] * (u[2] - vg[2]);
    let u_tilde = u_rel_n / jac;
    let c_tilde = c * s_norm / jac;
    EdgeRow {
        lam: [u_tilde, u_tilde, u_tilde, u_tilde + c_tilde, u_tilde - c_tilde],
        sigma: u_tilde.abs() + c_tilde,
    }
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

    /// SoA start index of each lane's line in the group `gb..gb + gl`
    /// (padding lanes replicate the last real line), and whether the lanes
    /// are consecutive in memory.
    #[inline]
    fn group(&self, gb: usize, gl: usize) -> ([usize; W], bool) {
        let m0: [usize; W] = std::array::from_fn(|l| self.m0(gb + l.min(gl - 1)));
        (m0, (1..W).all(|l| m0[l] == m0[0] + l))
    }
}

/// Gather one lane group into the transposed sweep layout: eigenvalue rows
/// (shifted by one so rows `0` / `n + 1` are the edge frames), spectral
/// radii, sign-bit identity masks, and the characteristic RHS — all read
/// from the SoA (`dw`, `fr`) the forward transform left. `n` rows are
/// solved; row `n` is the edge frame unless the line owns more nodes (the
/// cyclic sweep's duplicated seam node). Ragged groups replicate their last
/// real line into the padding lanes (padding output is never read).
#[allow(clippy::too_many_arguments)]
fn pack_group(
    block: &Block,
    ln: &Lines,
    stride: usize,
    dw: &[f64],
    fr: &[f64],
    edge: &[EdgeRow],
    gb: usize,
    gl: usize,
    n: usize,
    lam: &mut [f64],
    sig: &mut [f64],
    idm: &mut [f64],
    d: &mut [f64],
) {
    let ib = block.iblank.as_slice();
    let (m0, contiguous) = ln.group(gb, gl);
    for l in 0..W {
        let li = gb + l.min(gl - 1);
        let mut put_edge = |r: usize, e: &EdgeRow| {
            for v in 0..NVAR {
                lam[(r * NVAR + v) * W + l] = e.lam[v];
            }
            sig[r * W + l] = e.sigma;
        };
        put_edge(0, &edge[li * 2]);
        if n == ln.n {
            put_edge(n + 1, &edge[li * 2 + 1]);
        }
        let s0 = ln.s0(li);
        for c in 0..n {
            idm[c * W + l] = if ib[s0 + c * ln.sstep] != Blank::Field {
                f64::from_bits(1u64 << 63)
            } else {
                0.0
            };
        }
    }
    // Owned rows of the eigenvalue table (one more than solved when the
    // cyclic sweep leaves out the duplicated seam node: its frame closes
    // the last row) and the RHS.
    let rows_lam = ln.n.min(n + 1);
    if contiguous {
        for c in 0..rows_lam {
            let m = m0[0] + c * ln.mstep;
            for v in 0..NVAR {
                let f = (kernels::FR_LAM + v) * stride + m;
                lam[((c + 1) * NVAR + v) * W..][..W].copy_from_slice(&fr[f..f + W]);
            }
            let f = kernels::FR_SIG * stride + m;
            sig[(c + 1) * W..][..W].copy_from_slice(&fr[f..f + W]);
        }
        for c in 0..n {
            let m = m0[0] + c * ln.mstep;
            for v in 0..NVAR {
                d[(c * NVAR + v) * W..][..W].copy_from_slice(&dw[v * stride + m..][..W]);
            }
        }
    } else {
        for (l, &ml) in m0.iter().enumerate() {
            for c in 0..rows_lam {
                let m = ml + c * ln.mstep;
                for v in 0..NVAR {
                    lam[((c + 1) * NVAR + v) * W + l] = fr[(kernels::FR_LAM + v) * stride + m];
                }
                sig[(c + 1) * W + l] = fr[kernels::FR_SIG * stride + m];
            }
            for c in 0..n {
                let m = ml + c * ln.mstep;
                for v in 0..NVAR {
                    d[(c * NVAR + v) * W + l] = dw[v * stride + m];
                }
            }
        }
    }
}

/// Scatter the solved rows of one lane group back into the SoA `dw`.
fn unpack_group(
    ln: &Lines,
    stride: usize,
    dw: &mut [f64],
    gb: usize,
    gl: usize,
    n: usize,
    d: &[f64],
) {
    let (m0, contiguous) = ln.group(gb, gl);
    if contiguous && gl == W {
        for c in 0..n {
            let m = m0[0] + c * ln.mstep;
            for v in 0..NVAR {
                dw[v * stride + m..][..W].copy_from_slice(&d[(c * NVAR + v) * W..][..W]);
            }
        }
    } else {
        for (l, &ml) in m0.iter().enumerate().take(gl) {
            for c in 0..n {
                let m = ml + c * ln.mstep;
                for v in 0..NVAR {
                    dw[v * stride + m] = d[(c * NVAR + v) * W + l];
                }
            }
        }
    }
}

/// Perform the factored characteristic sweeps in place on `dq` (which enters
/// holding `Δt·R` in conservative variables), batching up to [`W`] lines per
/// SIMD lane group through the kernels in [`crate::kernels`]. The increment
/// is transposed into the SoA `dw` once, stays there through every
/// direction's forward transform, line solve and back transform, and is
/// written back to `dq` once at the end. Returns estimated flops.
pub fn implicit_sweeps(
    block: &Block,
    fc: &FlowConditions,
    dq: &mut StateField,
    comm: &mut impl SolverComm,
    ws: &mut SweepScratch,
) -> u64 {
    let dt = fc.dt;
    let ow = block.owned_local();
    let mut flops = 0u64;
    let t0 = comm.now();
    // SoA over the owned nodes in storage order, stride = node count.
    let mm = ow.count();
    let rows = Rows::new(block.local_dims, ow, ow);
    load_increment(dq, rows, mm, ws);

    for &dir in block.active_dirs() {
        let ln = forward_stage(block, dir, rows, mm, ws);
        let (n, nlines) = (ln.n, ln.nlines);
        let upstream = implicit_neighbor(block, dir, false);
        let downstream = implicit_neighbor(block, dir, true);

        // Periodic O-grid lines in `i` are solved with the *cyclic*
        // (Sherman–Morrison) algorithm — the seam coupling must be implicit:
        // the smallest azimuthal cells sit right at the wrap, and leaving
        // them explicitly coupled blows up at fine resolution.
        let periodic = dir == 0 && periodic_in_i(block);
        if periodic {
            flops += periodic_sweep_i(block, dt, comm, &ln, mm, ws);
        } else {
            // Forward elimination (5 independent tridiagonal systems per
            // line), *wavefront pipelined*: lines are processed in chunks;
            // each chunk's boundary carries are exchanged as soon as the
            // chunk is eliminated, so downstream ranks work on earlier chunks
            // while this rank eliminates later ones (the standard
            // pipelined-Thomas overlap). Within each chunk, lines are
            // eliminated in lane groups of up to `W` — one SIMD lane per
            // line, each lane running the exact scalar recurrence.
            let nchunks = if upstream.is_some() || downstream.is_some() {
                PIPELINE_CHUNKS.min(nlines.max(1))
            } else {
                1
            };
            let chunk_bounds = |ch: usize| -> (usize, usize) {
                let lo = nlines * ch / nchunks;
                let hi = nlines * (ch + 1) / nchunks;
                (lo, hi)
            };
            let gstride = n * NVAR * W;
            let ngroups: usize = (0..nchunks)
                .map(|ch| {
                    let (lo, hi) = chunk_bounds(ch);
                    (hi - lo).div_ceil(W)
                })
                .sum();
            ensure_len(&mut ws.d, ngroups * gstride);
            ensure_len(&mut ws.cp, ngroups * gstride);
            ensure_len(&mut ws.lam, (n + 2) * NVAR * W);
            ensure_len(&mut ws.sig, (n + 2) * W);
            ensure_len(&mut ws.idm, n * W);

            let mut g = 0usize;
            for ch in 0..nchunks {
                let (clo, chi) = chunk_bounds(ch);
                let chunk_lines = chi - clo;
                let carries_in: Option<Vec<f64>> =
                    upstream.map(|_| comm.recv_line(block, dir, true, chunk_lines * 2 * NVAR));
                let mut carries_out = line_buf(comm, downstream.is_some(), chunk_lines * 2 * NVAR);
                let mut gb = clo;
                while gb < chi {
                    let gl = (chi - gb).min(W);
                    let goff = g * gstride;
                    g += 1;
                    pack_group(
                        block,
                        &ln,
                        mm,
                        &ws.dw,
                        &ws.fr,
                        &ws.edge,
                        gb,
                        gl,
                        n,
                        &mut ws.lam,
                        &mut ws.sig,
                        &mut ws.idm,
                        &mut ws.d[goff..goff + gstride],
                    );
                    let mut ccp = [0.0f64; NVW];
                    let mut cdp = [0.0f64; NVW];
                    if let Some(ci) = &carries_in {
                        for l in 0..W {
                            let base = (gb + l.min(gl - 1) - clo) * 2 * NVAR;
                            for v in 0..NVAR {
                                ccp[v * W + l] = ci[base + v];
                                cdp[v * W + l] = ci[base + NVAR + v];
                            }
                        }
                    }
                    kernels::sweep_forward_group(
                        ws.isa,
                        dt,
                        n,
                        &ws.lam,
                        &ws.sig,
                        &ws.idm,
                        &mut ws.d[goff..goff + gstride],
                        &mut ws.cp[goff..goff + gstride],
                        &mut ccp,
                        &mut cdp,
                        carries_in.is_some(),
                    );
                    if downstream.is_some() {
                        for l in 0..gl {
                            for v in 0..NVAR {
                                carries_out.push(ccp[v * W + l]);
                            }
                            for v in 0..NVAR {
                                carries_out.push(cdp[v * W + l]);
                            }
                        }
                    }
                    gb += gl;
                }
                if let Some(ci) = carries_in {
                    comm.recycle_buf(ci);
                }
                // Charge this chunk's transform + elimination work before its
                // carry message is stamped.
                comm.compute((n * chunk_lines) as u64 * (FLOPS_PER_NODE_PER_DIR * 7 / 10));
                if downstream.is_some() {
                    comm.send_line(block, dir, true, carries_out);
                }
            }

            // Back substitution, pipelined the same way (upstream direction).
            let mut g = 0usize;
            for ch in 0..nchunks {
                let (clo, chi) = chunk_bounds(ch);
                let chunk_lines = chi - clo;
                let x_down: Option<Vec<f64>> =
                    downstream.map(|_| comm.recv_line(block, dir, false, chunk_lines * NVAR));
                let mut firsts = line_buf(comm, upstream.is_some(), chunk_lines * NVAR);
                let mut gb = clo;
                while gb < chi {
                    let gl = (chi - gb).min(W);
                    let goff = g * gstride;
                    g += 1;
                    let seed: Option<[f64; NVW]> = x_down.as_ref().map(|xd| {
                        let mut s = [0.0f64; NVW];
                        for l in 0..W {
                            let base = (gb + l.min(gl - 1) - clo) * NVAR;
                            for v in 0..NVAR {
                                s[v * W + l] = xd[base + v];
                            }
                        }
                        s
                    });
                    kernels::sweep_backward_group(
                        ws.isa,
                        n,
                        &ws.cp[goff..goff + gstride],
                        &mut ws.d[goff..goff + gstride],
                        seed.as_ref(),
                    );
                    unpack_group(&ln, mm, &mut ws.dw, gb, gl, n, &ws.d[goff..goff + gstride]);
                    if upstream.is_some() {
                        for l in 0..gl {
                            for v in 0..NVAR {
                                firsts.push(ws.d[goff + v * W + l]);
                            }
                        }
                    }
                    gb += gl;
                }
                if let Some(xd) = x_down {
                    comm.recycle_buf(xd);
                }
                comm.compute((n * chunk_lines) as u64 * (FLOPS_PER_NODE_PER_DIR * 2 / 10));
                if upstream.is_some() {
                    comm.send_line(block, dir, false, firsts);
                }
            }
        }

        // Transform back to conservative increments (lane-batched).
        kernels::from_char_lanes(ws.isa, mm, mm, &ws.fr, &mut ws.dw);

        if !periodic {
            let rest = (n * nlines) as u64
                * (FLOPS_PER_NODE_PER_DIR
                    - FLOPS_PER_NODE_PER_DIR * 7 / 10
                    - FLOPS_PER_NODE_PER_DIR * 2 / 10);
            comm.compute(rest);
            flops += (n * nlines) as u64 * FLOPS_PER_NODE_PER_DIR;
        }
    }

    store_increment(dq, rows, mm, &ws.dw);
    comm.trace_span("solver", "implicit_sweeps", t0);
    flops
}

/// Size the SoA work arrays for `mm` owned nodes and transpose the owned
/// part of the interleaved increment `dq` into `ws.dw`.
fn load_increment(dq: &StateField, rows: Rows, mm: usize, ws: &mut SweepScratch) {
    ensure_len(&mut ws.dw, NVAR * mm);
    ensure_len(&mut ws.fr, kernels::FR_FIELDS * mm);
    for (s0, m0) in rows.starts() {
        let src = &dq.as_slice()[s0 * NVAR..(s0 + rows.ni) * NVAR];
        for (i, w) in src.chunks_exact(NVAR).enumerate() {
            for (v, &wv) in w.iter().enumerate() {
                ws.dw[v * mm + m0 + i] = wv;
            }
        }
    }
}

/// Transpose the SoA increment back into the owned part of `dq`.
fn store_increment(dq: &mut StateField, rows: Rows, mm: usize, dw: &[f64]) {
    for (s0, m0) in rows.starts() {
        let dst = &mut dq.as_mut_slice()[s0 * NVAR..(s0 + rows.ni) * NVAR];
        for (i, w) in dst.chunks_exact_mut(NVAR).enumerate() {
            for (v, wv) in w.iter_mut().enumerate() {
                *wv = dw[v * mm + m0 + i];
            }
        }
    }
}

/// Lane-batched frame computation + forward transform (`ws.dw` → char) of
/// one direction over the owned nodes in storage order: the SoA frames land
/// in `ws.fr`, the two edge rows per line in `ws.edge`.
fn forward_stage(block: &Block, dir: usize, rows: Rows, mm: usize, ws: &mut SweepScratch) -> Lines {
    let ln = Lines::new(block, dir);
    kernels::frames_forward_rows(
        ws.isa,
        rows,
        dir,
        block.q.as_slice(),
        block.metrics.as_slice(),
        block.grid_vel.as_slice(),
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

/// Is the block part of an O-grid that wraps periodically in `i`?
fn periodic_in_i(block: &Block) -> bool {
    block.periodic_i_grid
}

/// Cyclic (periodic) implicit solve along `i` for an O-grid block, via the
/// Sherman–Morrison splitting. The duplicated seam node (global `ni-1`) is
/// excluded from the solve and set equal to node 0's solution afterwards.
///
/// Distributed form over the open rank chain: forward/backward pipelined
/// elimination of *two* right-hand sides per characteristic field (the
/// physical RHS `y` and the rank-one correction column `z`), then a third
/// short sweep broadcasting the per-line correction factor.
fn periodic_sweep_i(
    block: &Block,
    dt: f64,
    comm: &mut impl SolverComm,
    ln: &Lines,
    stride: usize,
    ws: &mut SweepScratch,
) -> u64 {
    const DIR: usize = 0;
    let nlines = ln.nlines;
    let is_first = block.owned.lo.i == 0;
    let is_last = block.owned.hi.i == block.grid_dims.ni;
    // Exclude the duplicated seam node from the cyclic system.
    let n = if is_last { ln.n - 1 } else { ln.n };
    assert!(n >= 1);
    let upstream = implicit_neighbor(block, DIR, false);
    let downstream = implicit_neighbor(block, DIR, true);

    let nchunks = if upstream.is_some() || downstream.is_some() {
        PIPELINE_CHUNKS.min(nlines.max(1))
    } else {
        1
    };
    let chunk_bounds =
        |ch: usize| -> (usize, usize) { (nlines * ch / nchunks, nlines * (ch + 1) / nchunks) };

    // Lane-transposed per-row storage (group-major, padded to `W` lanes):
    // the physical RHS y, the normalized super-diagonals, and the rank-one
    // correction column z.
    let gstride = n * NVAR * W;
    let ngroups: usize = (0..nchunks)
        .map(|ch| {
            let (lo, hi) = chunk_bounds(ch);
            (hi - lo).div_ceil(W)
        })
        .sum();
    ensure_len(&mut ws.d, ngroups * gstride);
    ensure_len(&mut ws.cp, ngroups * gstride);
    ensure_len(&mut ws.z, ngroups * gstride);
    ensure_len(&mut ws.lam, (n + 2) * NVAR * W);
    ensure_len(&mut ws.sig, (n + 2) * W);
    ensure_len(&mut ws.idm, n * W);
    // Per-line S-M parameters (alpha, gamma per variable), valid on every
    // rank after the forward pass (carried down the chain).
    ws.alpha.clear();
    ws.alpha.resize(nlines, [0.0f64; NVAR]);
    ws.gamma.clear();
    ws.gamma.resize(nlines, [0.0f64; NVAR]);

    // ---- Forward elimination of y and z -------------------------------
    let mut g = 0usize;
    for ch in 0..nchunks {
        let (clo, chi) = chunk_bounds(ch);
        let chunk_lines = chi - clo;
        // Carry layout per line: cp[5], y[5], z[5], alpha[5], gamma[5].
        let carries_in: Option<Vec<f64>> =
            upstream.map(|_| comm.recv_line(block, DIR, true, chunk_lines * 5 * NVAR));
        if let Some(ci) = &carries_in {
            for li in clo..chi {
                let base = (li - clo) * 5 * NVAR;
                ws.alpha[li].copy_from_slice(&ci[base + 3 * NVAR..base + 4 * NVAR]);
                ws.gamma[li].copy_from_slice(&ci[base + 4 * NVAR..base + 5 * NVAR]);
            }
        }
        let mut carries_out = line_buf(comm, downstream.is_some(), chunk_lines * 5 * NVAR);
        let mut gb = clo;
        while gb < chi {
            let gl = (chi - gb).min(W);
            let goff = g * gstride;
            g += 1;
            pack_group(
                block,
                ln,
                stride,
                &ws.dw,
                &ws.fr,
                &ws.edge,
                gb,
                gl,
                n,
                &mut ws.lam,
                &mut ws.sig,
                &mut ws.idm,
                &mut ws.d[goff..goff + gstride],
            );
            let mut ccp = [0.0f64; NVW];
            let mut cy = [0.0f64; NVW];
            let mut cz = [0.0f64; NVW];
            let mut al = [0.0f64; NVW];
            let mut ga = [0.0f64; NVW];
            for l in 0..W {
                let li = gb + l.min(gl - 1);
                for v in 0..NVAR {
                    al[v * W + l] = ws.alpha[li][v];
                    ga[v * W + l] = ws.gamma[li][v];
                }
                if let Some(ci) = &carries_in {
                    let base = (li - clo) * 5 * NVAR;
                    for v in 0..NVAR {
                        ccp[v * W + l] = ci[base + v];
                        cy[v * W + l] = ci[base + NVAR + v];
                        cz[v * W + l] = ci[base + 2 * NVAR + v];
                    }
                }
            }
            kernels::periodic_forward_group(
                ws.isa,
                dt,
                n,
                &ws.lam,
                &ws.sig,
                &ws.idm,
                &mut ws.d[goff..goff + gstride],
                &mut ws.z[goff..goff + gstride],
                &mut ws.cp[goff..goff + gstride],
                &mut al,
                &mut ga,
                &mut ccp,
                &mut cy,
                &mut cz,
                carries_in.is_some(),
                is_first,
                is_last,
            );
            for l in 0..gl {
                let li = gb + l;
                for v in 0..NVAR {
                    ws.alpha[li][v] = al[v * W + l];
                    ws.gamma[li][v] = ga[v * W + l];
                }
            }
            if downstream.is_some() {
                for l in 0..gl {
                    let li = gb + l;
                    for v in 0..NVAR {
                        carries_out.push(ccp[v * W + l]);
                    }
                    for v in 0..NVAR {
                        carries_out.push(cy[v * W + l]);
                    }
                    for v in 0..NVAR {
                        carries_out.push(cz[v * W + l]);
                    }
                    carries_out.extend_from_slice(&ws.alpha[li]);
                    carries_out.extend_from_slice(&ws.gamma[li]);
                }
            }
            gb += gl;
        }
        if let Some(ci) = carries_in {
            comm.recycle_buf(ci);
        }
        comm.compute((n * chunk_lines) as u64 * FLOPS_PER_NODE_PER_DIR);
        if downstream.is_some() {
            comm.send_line(block, DIR, true, carries_out);
        }
    }

    // ---- Back substitution of y and z ---------------------------------
    // Per-line end values (y_last, z_last per var) travel upstream.
    ws.y_last.clear();
    ws.y_last.resize(nlines, [0.0f64; NVAR]);
    ws.z_last.clear();
    ws.z_last.resize(nlines, [0.0f64; NVAR]);
    let mut g = 0usize;
    for ch in 0..nchunks {
        let (clo, chi) = chunk_bounds(ch);
        let chunk_lines = chi - clo;
        // Carry layout per line: y_next[5], z_next[5], y_last[5], z_last[5].
        let x_down: Option<Vec<f64>> =
            downstream.map(|_| comm.recv_line(block, DIR, false, chunk_lines * 4 * NVAR));
        let mut ups = line_buf(comm, upstream.is_some(), chunk_lines * 4 * NVAR);
        let mut gb = clo;
        while gb < chi {
            let gl = (chi - gb).min(W);
            let goff = g * gstride;
            g += 1;
            let seed: Option<([f64; NVW], [f64; NVW])> = x_down.as_ref().map(|xd| {
                let mut sy = [0.0f64; NVW];
                let mut sz = [0.0f64; NVW];
                for l in 0..W {
                    let base = (gb + l.min(gl - 1) - clo) * 4 * NVAR;
                    for v in 0..NVAR {
                        sy[v * W + l] = xd[base + v];
                        sz[v * W + l] = xd[base + NVAR + v];
                    }
                }
                (sy, sz)
            });
            kernels::periodic_backward_group(
                ws.isa,
                n,
                &ws.cp[goff..goff + gstride],
                &mut ws.d[goff..goff + gstride],
                &mut ws.z[goff..goff + gstride],
                seed.as_ref().map(|(sy, sz)| (sy, sz)),
            );
            for l in 0..gl {
                let li = gb + l;
                if let Some(xd) = &x_down {
                    let base = (li - clo) * 4 * NVAR;
                    ws.y_last[li].copy_from_slice(&xd[base + 2 * NVAR..base + 3 * NVAR]);
                    ws.z_last[li].copy_from_slice(&xd[base + 3 * NVAR..base + 4 * NVAR]);
                } else {
                    // This rank owns the end of the chain: the last solved row.
                    for v in 0..NVAR {
                        ws.y_last[li][v] = ws.d[goff + ((n - 1) * NVAR + v) * W + l];
                        ws.z_last[li][v] = ws.z[goff + ((n - 1) * NVAR + v) * W + l];
                    }
                }
                if upstream.is_some() {
                    for v in 0..NVAR {
                        ups.push(ws.d[goff + v * W + l]);
                    }
                    for v in 0..NVAR {
                        ups.push(ws.z[goff + v * W + l]);
                    }
                    ups.extend_from_slice(&ws.y_last[li]);
                    ups.extend_from_slice(&ws.z_last[li]);
                }
            }
            gb += gl;
        }
        if let Some(xd) = x_down {
            comm.recycle_buf(xd);
        }
        comm.compute((n * chunk_lines) as u64 * (FLOPS_PER_NODE_PER_DIR / 3));
        if upstream.is_some() {
            comm.send_line(block, DIR, false, ups);
        }
    }

    // ---- Correction sweep ----------------------------------------------
    // First rank computes fact and x0 per line/var; everyone applies
    // x = y - fact z; the last rank also fixes the duplicated seam node.
    let mut g = 0usize;
    for ch in 0..nchunks {
        let (clo, chi) = chunk_bounds(ch);
        let chunk_lines = chi - clo;
        ws.fact.clear();
        ws.fact.resize(chunk_lines, [0.0f64; NVAR]);
        ws.x0.clear();
        ws.x0.resize(chunk_lines, [0.0f64; NVAR]);
        if is_first {
            for li in clo..chi {
                let goff = (g + (li - clo) / W) * gstride;
                let lane = (li - clo) % W;
                for v in 0..NVAR {
                    let y0 = ws.d[goff + v * W + lane];
                    let z0 = ws.z[goff + v * W + lane];
                    let gam = ws.gamma[li][v];
                    let al = ws.alpha[li][v];
                    let denom = 1.0 + z0 + al * ws.z_last[li][v] / gam;
                    let f = (y0 + al * ws.y_last[li][v] / gam) / denom;
                    ws.fact[li - clo][v] = f;
                    ws.x0[li - clo][v] = y0 - f * z0;
                }
            }
        } else {
            let data = comm.recv_line(block, DIR, true, chunk_lines * 2 * NVAR);
            for l in 0..chunk_lines {
                ws.fact[l].copy_from_slice(&data[l * 2 * NVAR..l * 2 * NVAR + NVAR]);
                ws.x0[l].copy_from_slice(&data[l * 2 * NVAR + NVAR..(l + 1) * 2 * NVAR]);
            }
            comm.recycle_buf(data);
        }
        let mut gb = clo;
        while gb < chi {
            let gl = (chi - gb).min(W);
            let goff = g * gstride;
            g += 1;
            let mut factl = [0.0f64; NVW];
            for l in 0..W {
                let li = gb + l.min(gl - 1);
                for v in 0..NVAR {
                    factl[v * W + l] = ws.fact[li - clo][v];
                }
            }
            kernels::periodic_correct_group(
                ws.isa,
                n,
                &factl,
                &mut ws.d[goff..goff + gstride],
                &ws.z[goff..goff + gstride],
            );
            unpack_group(ln, stride, &mut ws.dw, gb, gl, n, &ws.d[goff..goff + gstride]);
            if is_last {
                // Duplicated seam node mirrors node 0's solution.
                for li in gb..gb + gl {
                    let m = ln.m0(li) + n * ln.mstep;
                    for (v, &x) in ws.x0[li - clo].iter().enumerate() {
                        ws.dw[v * stride + m] = x;
                    }
                }
            }
            gb += gl;
        }
        comm.compute((n * chunk_lines) as u64 * 4);
        if downstream.is_some() {
            let mut out = line_buf(comm, true, chunk_lines * 2 * NVAR);
            for l in 0..chunk_lines {
                out.extend_from_slice(&ws.fact[l]);
                out.extend_from_slice(&ws.x0[l]);
            }
            comm.send_line(block, DIR, true, out);
        }
    }

    (n * nlines) as u64 * FLOPS_PER_NODE_PER_DIR * 2
}

fn other_dirs(dir: usize) -> (usize, usize) {
    match dir {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::GAMMA;
    use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::index::{Dims, Ijk};

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
        let m = block.metrics[p];
        let g = m.grad(dir);
        let jac = m.jac;
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
        let vg = block.grid_vel[p];
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
        implicit_sweeps(&b, &fc, &mut dq, &mut SerialComm, &mut SweepScratch::default());
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
        implicit_sweeps(&b, &fc, &mut dq, &mut SerialComm, &mut SweepScratch::default());
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
        implicit_sweeps(&b, &fc, &mut dq, &mut SerialComm, &mut SweepScratch::default());
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
        let mut ws = SweepScratch::default();
        let mm = ow.count();
        let rows = Rows::new(b.local_dims, ow, ow);
        // The SoA (fields × `mm`) as an interleaved field over the block.
        let unload = |ws: &SweepScratch| {
            let mut out = StateField::new(b.local_dims);
            for (t, p) in ow.iter().enumerate() {
                out.set_node(p, std::array::from_fn(|v| ws.dw[v * mm + t]));
            }
            out
        };
        load_increment(&dq, rows, mm, &mut ws);
        let ln = forward_stage(&b, 0, rows, mm, &mut ws);
        let rhs_char = unload(&ws);
        periodic_sweep_i(&b, fc.dt, &mut SerialComm, &ln, mm, &mut ws);
        let dq = unload(&ws);

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
            implicit_sweeps(&b, fc, &mut dq, &mut SerialComm, &mut SweepScratch::default());
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
    fn sweeps_reference(block: &Block, fc: &FlowConditions, dq: &mut StateField) {
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
    fn keyed(seed: u64, g: [isize; 3], salt: u64) -> f64 {
        let mut h = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for x in g {
            h = (h ^ x as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 29;
        }
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The block of `owned` with state, grid velocity, blanking and the
    /// increment all keyed by global node. Returns the block and `dq`.
    fn keyed_block(
        g: &CurvilinearGrid,
        owned: IndexBox,
        neighbor: [Option<usize>; 6],
        seed: u64,
    ) -> (Block, StateField) {
        let fc = FlowConditions::new(0.8, 3.0, 0.0);
        let mut b = Block::from_grid(0, g, owned, neighbor, &fc);
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
            b.grid_vel[p] = [0.2 * (r(6) - 0.5), 0.2 * (r(7) - 0.5), 0.2 * (r(8) - 0.5)];
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whole-grid blocks of ragged sizes (`mm % W != 0`, rows shorter
        /// than a lane group) with random blanking, open and cyclic.
        #[test]
        fn sweeps_bit_equal_scalar_reference(
            seed in 1u64..(1 << 60),
            ni in 5usize..15, nj in 3usize..11, nk in 1usize..7,
            periodic in 0usize..2,
        ) {
            let d = Dims::new(ni, nj, if nk < 3 { 1 } else { nk });
            let g = crate::testutil::wavy_grid(d, periodic == 1);
            let fc = FlowConditions::new(0.8, 3.0, 0.0);
            let (b, dq0) = keyed_block(&g, d.full_box(), [None; 6], seed);
            let mut want = dq0.clone();
            sweeps_reference(&b, &fc, &mut want);
            for isa in [Isa::Scalar, select_isa()] {
                let mut got = dq0.clone();
                implicit_sweeps(&b, &fc, &mut got, &mut SerialComm, &mut SweepScratch::new(isa));
                for p in b.local_dims.iter() {
                    prop_assert_eq!(bits(&got, p), bits(&want, p), "{:?} at {:?} dims {:?}", isa, p, d);
                }
            }
        }

        /// The same grids cut into a chain of 2–3 subdomains along one
        /// direction, each swept on its own thread with the carries going
        /// through channels: pipelined segments (and the distributed cyclic
        /// solve) must reproduce the whole-grid reference bit for bit.
        #[test]
        fn pipelined_chains_bit_equal_scalar_reference(
            seed in 1u64..(1 << 60),
            ni in 9usize..16, nj in 7usize..12, nk in 1usize..10,
            split in 0usize..3, parts in 2usize..4, periodic in 0usize..2,
        ) {
            let d = Dims::new(ni, nj, if nk < 7 { 1 } else { nk });
            let split = if d.nk == 1 { split % 2 } else { split };
            let g = crate::testutil::wavy_grid(d, periodic == 1);
            let fc = FlowConditions::new(0.8, 3.0, 0.0);
            let (whole, dq0) = keyed_block(&g, d.full_box(), [None; 6], seed);
            let mut want = dq0;
            sweeps_reference(&whole, &fc, &mut want);

            let pieces = d.full_box().split(split, parts);
            let mut blocks: Vec<(Block, StateField)> = pieces
                .iter()
                .enumerate()
                .map(|(r, &owned)| {
                    let mut neighbor = [None; 6];
                    let wrap = split == 0 && g.periodic_i;
                    if r > 0 || wrap {
                        neighbor[2 * split] = Some((r + parts - 1) % parts);
                    }
                    if r + 1 < parts || wrap {
                        neighbor[2 * split + 1] = Some((r + 1) % parts);
                    }
                    keyed_block(&g, owned, neighbor, seed)
                })
                .collect();
            // Links between consecutive subdomains, one channel each way.
            let mut comms: Vec<ChanComm> = (0..parts).map(|_| ChanComm::default()).collect();
            for r in 0..parts - 1 {
                let (tx, rx) = channel();
                comms[r].down_tx = Some(tx);
                comms[r + 1].up_rx = Some(rx);
                let (tx, rx) = channel();
                comms[r + 1].up_tx = Some(tx);
                comms[r].down_rx = Some(rx);
            }
            let isa = if seed % 2 == 0 { Isa::Scalar } else { select_isa() };
            std::thread::scope(|s| {
                for ((b, dq), comm) in blocks.iter_mut().zip(comms.iter_mut()) {
                    s.spawn(move || {
                        implicit_sweeps(b, &fc, dq, comm, &mut SweepScratch::new(isa));
                    });
                }
            });
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

    /// Line-solve links of one subdomain in a chain, over channels, with a
    /// small buffer pool so the recycling hooks are exercised.
    #[derive(Default)]
    struct ChanComm {
        up_tx: Option<Sender<Vec<f64>>>,
        up_rx: Option<Receiver<Vec<f64>>>,
        down_tx: Option<Sender<Vec<f64>>>,
        down_rx: Option<Receiver<Vec<f64>>>,
        pool: Vec<Vec<f64>>,
    }

    impl SolverComm for ChanComm {
        fn exchange_halo(&mut self, _: &mut Block) {}
        fn send_line(&mut self, _: &Block, _: usize, downstream: bool, data: Vec<f64>) {
            let tx = if downstream { &self.down_tx } else { &self.up_tx };
            tx.as_ref().expect("send toward a missing neighbor").send(data).unwrap();
        }
        fn recv_line(&mut self, _: &Block, _: usize, from_upstream: bool, len: usize) -> Vec<f64> {
            let rx = if from_upstream { &self.up_rx } else { &self.down_rx };
            let data = rx.as_ref().expect("receive from a missing neighbor").recv().unwrap();
            assert_eq!(data.len(), len);
            data
        }
        fn take_buf(&mut self) -> Vec<f64> {
            let mut b = self.pool.pop().unwrap_or_default();
            b.clear();
            b
        }
        fn recycle_buf(&mut self, buf: Vec<f64>) {
            self.pool.push(buf);
        }
    }
}
