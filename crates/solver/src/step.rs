//! One implicit timestep on a block: the OVERFLOW phase of the OVERFLOW-D1
//! loop.

use crate::adi::{sweep_directions, Scratch, SolverComm};
use crate::bc::{apply_bcs, bc_name};
use crate::block::{Blank, Block};
use crate::conditions::{pressure, FlowConditions};
use crate::kernels::{self, Rows};
use crate::lanes::{Isa, W};
use crate::rhs::compute_residual;
use crate::turbulence::{compute_mu_t, WallGeometry};
use overset_grid::field::NVAR;
use overset_grid::{BcKind, Ijk};
use std::fmt;

/// Outcome of one step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepReport {
    /// Estimated floating-point operations performed.
    pub flops: u64,
    /// L2 norm of the explicit residual before the update (diagnostic).
    pub residual: f64,
    /// The first updated node, in storage order, left non-physical; if
    /// there is none, the first node the boundary conditions set so.
    pub nonphysical: Option<Nonphysical>,
}

impl StepReport {
    /// Panics, naming `step`, `grid` and the node, if the step left one
    /// non-physical (DESIGN.md §6).
    pub fn assert_physical(&self, step: usize, grid: usize) {
        if let Some(n) = self.nonphysical {
            panic!("{}", n.message(step, grid));
        }
    }
}

/// A node that is not a physical state: ρ or p non-finite or ≤ 0, or, for
/// a node the far-field BC sets, a boundary sound speed `c_b` ≤ 0.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Nonphysical {
    /// The node's global index.
    pub node: Ijk,
    /// What is wrong with it: `"ρ"`, `"p"` or `"c_b"`.
    pub var: &'static str,
    /// That quantity's value.
    pub value: f64,
    /// The face (0..6, as [`Block::face_bc`]) and the BC that set the node;
    /// `None` for a node the update left so.
    pub set_by: Option<(usize, BcKind)>,
}

impl Nonphysical {
    /// The abort message naming `step`, `grid` and the node.
    pub fn message(&self, step: usize, grid: usize) -> String {
        format!("non-physical state at step {step}, grid {grid}, {self}")
    }
}

impl fmt::Display for Nonphysical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let by = self.set_by.map(|(_, kind)| format!(" set by the {} BC", bc_name(kind)));
        write!(f, "cell {:?}{}: {} = {:e}", self.node, by.unwrap_or_default(), self.var, self.value)
    }
}

/// Advance the block one implicit timestep:
///
/// 1. halo exchange (interfaces and periodic wraps),
/// 2. turbulence model (when active),
/// 3. explicit residual, left as Δt·R in the sweeps' increment,
/// 4. factored implicit sweeps (pipelined across subdomains), in place,
/// 5. state update on field nodes, fused with the last direction's back
///    transform and checked for non-physical values
///    ([`StepReport::nonphysical`]),
/// 6. physical boundary conditions, each node checked as it is set.
///
/// Each stage's work is charged through [`SolverComm::compute`] as it
/// completes, so a message-passing communicator stamps the pipelined carries
/// with the right clocks. The returned [`StepReport::flops`] is an estimate
/// that tests and the benchmark's solver probe read, not what the clock is
/// charged: the 5-flop/node update is not part of it, and with F =
/// [`crate::adi::FLOPS_PER_NODE_PER_DIR`] a cyclic line's sweep books 2F per
/// node where its charges come to F + F/3 + 4 (DESIGN.md §6).
pub fn step_block(
    block: &mut Block,
    fc: &FlowConditions,
    wall: Option<&WallGeometry>,
    comm: &mut impl SolverComm,
    scratch: &mut Scratch,
) -> StepReport {
    let mut flops = 0u64;
    comm.exchange_halo(block);

    if block.turbulent && block.viscous {
        if let Some(w) = wall {
            let mu_t_flops = compute_mu_t(block, w);
            comm.compute(mu_t_flops);
            flops += mu_t_flops;
        }
    }

    let t0 = comm.now();
    let (res_flops, residual) = compute_residual(block, fc, scratch);
    comm.compute(res_flops);
    flops += res_flops;
    comm.trace_span("solver", "residual", t0);

    // The sweeps charge their own work as they go; the last direction's
    // back transform is the update's.
    flops += sweep_directions(block, fc, comm, scratch);
    let mm = block.owned_count();
    let (fr, dw) = scratch.last_solution(mm);
    let (update_flops, updated) = update_state(block, scratch.isa, fr, dw);
    comm.compute(update_flops);

    let (bc_flops, set) = apply_bcs(block, fc);
    comm.compute(bc_flops);
    let nonphysical =
        updated.map(|(node, var, value)| Nonphysical { node, var, value, set_by: None }).or(set);
    StepReport { flops: flops + bc_flops, residual, nonphysical }
}

/// The state update of a step through [`kernels::update_rows`]: Δq of the
/// last swept direction's characteristic solution `dw` and frames `fr`
/// (SoA over the owned nodes) added to every field node. Returns the
/// update's flops, 5 per field node, and the first updated node in storage
/// order that is non-physical, found by [`first_nonphysical`] in the lane
/// group the kernel flagged.
fn update_state(
    block: &mut Block,
    isa: Isa,
    fr: &[f64],
    dw: &[f64],
) -> (u64, Option<(Ijk, &'static str, f64)>) {
    let ow = block.owned_local();
    let (mm, rows) = (ow.count(), Rows::new(ow, block.local_dims.full_box(), ow));
    let (ib, q) = (block.iblank.as_slice(), block.q.as_mut_slice());
    let (updated, flagged) = kernels::update_rows(isa, rows, mm, fr, dw, ib, q);
    let nonphysical = flagged.map(|m| {
        let (ib, q) = (block.iblank.as_slice(), block.q.as_slice());
        let (s, var, x) = (m..mm.min(m + W))
            .map(|t| rows.src_of(t))
            .filter(|&s| ib[s] == Blank::Field)
            .find_map(|s| first_nonphysical(kernels::node_at(q, s)).map(|(v, x)| (s, v, x)))
            .expect("the flagged lane group holds a non-physical node");
        (block.to_global(block.local_dims.unoffset(s)), var, x)
    });
    (NVAR as u64 * updated, nonphysical)
}

/// What makes a node non-physical, and its value: ρ if it is non-finite or
/// ≤ 0, else p if it is. A non-finite momentum or energy makes p
/// non-finite, so two values cover all five.
pub(crate) fn first_nonphysical(q: &[f64; NVAR]) -> Option<(&'static str, f64)> {
    [("ρ", q[0]), ("p", pressure(q))].into_iter().find(|&(_, x)| x <= 0.0 || !x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adi::SerialComm;
    use overset_grid::curvilinear::{BcKind, BoundaryPatch, CurvilinearGrid, Face, GridKind};
    use overset_grid::field::{Field3, SoaField};
    use overset_grid::index::{Dims, Ijk};

    fn free_block(n: usize, fc: &FlowConditions) -> Block {
        let d = Dims::new(n, n, 1);
        let coords = Field3::from_fn(d, |p| [p.i as f64 * 0.2, p.j as f64 * 0.2, 0.0]);
        let mut g = CurvilinearGrid::new("f", coords, GridKind::Background);
        g.patches = Face::ALL[..4]
            .iter()
            .map(|&f| BoundaryPatch { face: f, kind: BcKind::Farfield })
            .collect();
        Block::from_grid(0, &g, d.full_box(), [None; 6], fc)
    }

    #[test]
    fn freestream_is_a_fixed_point() {
        let fc = FlowConditions::new(0.8, 2.0, 0.0);
        let mut b = free_block(9, &fc);
        let mut s = Scratch::default();
        for _ in 0..5 {
            let r = step_block(&mut b, &fc, None, &mut SerialComm, &mut s);
            assert!(r.residual < 1e-12, "residual {}", r.residual);
        }
        let q0 = fc.freestream();
        for p in b.owned_local().iter() {
            let q = b.q.node(p);
            for v in 0..NVAR {
                assert!((q[v] - q0[v]).abs() < 1e-10, "drift at {p:?} var {v}");
            }
        }
    }

    #[test]
    fn pressure_pulse_decays_stably() {
        let mut fc = FlowConditions::new(0.3, 0.0, 0.0);
        fc.dt = 0.1;
        let mut b = free_block(15, &fc);
        let c = Ijk::new(7, 7, 0);
        let mut q = *b.q.node(c);
        q[4] *= 1.3;
        b.q.set_node(c, q);
        let mut s = Scratch::default();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let r = step_block(&mut b, &fc, None, &mut SerialComm, &mut s);
            first.get_or_insert(r.residual);
            last = r.residual;
            // Physicality through the transient.
            for p in b.owned_local().iter() {
                let qq = b.q.node(p);
                assert!(qq[0] > 0.0, "negative density");
                assert!(crate::conditions::pressure(qq) > 0.0, "negative pressure");
            }
        }
        assert!(last < first.unwrap(), "pulse did not decay: {first:?} -> {last}");
    }

    #[test]
    fn flop_accounting_positive_and_scales() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut small = free_block(8, &fc);
        let mut big = free_block(16, &fc);
        let mut ss = Scratch::default();
        let mut sb = Scratch::default();
        let rs = step_block(&mut small, &fc, None, &mut SerialComm, &mut ss);
        let rb = step_block(&mut big, &fc, None, &mut SerialComm, &mut sb);
        assert!(rs.flops > 0);
        // ~4x the points -> ~4x the flops (within boundary-effect slack).
        let ratio = rb.flops as f64 / rs.flops as f64;
        assert!((2.5..6.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fringe_values_are_respected_as_dirichlet() {
        let fc = FlowConditions::new(0.8, 0.0, 0.0);
        let mut b = free_block(9, &fc);
        let f = Ijk::new(4, 4, 0);
        b.iblank[f] = Blank::Fringe;
        let imposed = [1.1, 0.5, 0.0, 0.0, 2.0];
        b.q.set_node(f, imposed);
        let mut s = Scratch::default();
        step_block(&mut b, &fc, None, &mut SerialComm, &mut s);
        assert_eq!(*b.q.node(f), imposed, "fringe overwritten by solver");
    }

    #[test]
    fn a_negative_density_is_reported_at_its_node() {
        // A zero time step makes the update the identity, so the one node
        // set non-physical is the only one there is. Its p < 0 too keeps
        // γp/ρ, and so every stencil that reads it, finite: a NaN sound
        // speed would spread through the implicit solve, Δt = 0 or not.
        let mut fc = FlowConditions::new(0.8, 0.0, 0.0);
        fc.dt = 0.0;
        let mut b = free_block(9, &fc);
        let bad = Ijk::new(4, 4, 0);
        b.q.set_node(bad, crate::conditions::conservatives(&[-0.5, 0.8, 0.0, 0.0, -0.7]));
        let mut s = Scratch::default();
        let r = step_block(&mut b, &fc, None, &mut SerialComm, &mut s);
        let want = Nonphysical { node: b.to_global(bad), var: "ρ", value: -0.5, set_by: None };
        assert_eq!(r.nonphysical, Some(want));
        let healthy = step_block(&mut free_block(9, &fc), &fc, None, &mut SerialComm, &mut s);
        assert_eq!(healthy.nonphysical, None);
    }

    // ---- step_block vs the composition of the scalar references ----------

    use crate::adi::tests::{chain, chain_pieces, from_char_at, keyed, sweeps_reference};
    use crate::adi::FLOPS_PER_NODE_PER_DIR as SWEEP_FLOPS;
    use crate::lanes::{select_isa, Isa};
    use crate::rhs::reference;
    use crate::testutil::same_bits as same;
    use overset_grid::field::StateField;
    use overset_grid::index::IndexBox;
    use proptest::prelude::*;

    /// One timestep of a whole-grid block through the scalar references:
    /// the per-node residual and its L2 norm, the Δt scaling, the
    /// line-by-line sweeps, the update and the BCs, each checked.
    fn reference_step(b: &mut Block, fc: &FlowConditions) -> StepReport {
        SerialComm.exchange_halo(b);
        let mut dq = StateField::new(b.local_dims);
        let mut flops = reference::compute_residual(b, fc, &mut dq);
        let residual = reference::residual_l2(b, &dq);
        for v in dq.as_mut_slice() {
            *v *= fc.dt;
        }
        sweeps_reference(b, fc, &mut dq);
        let od = b.owned_local().dims();
        for &dir in b.active_dirs() {
            let (n, lines) = (od.get(dir), od.count() / od.get(dir));
            flops += if dir == 0 && b.periodic_i_grid {
                ((n - 1) * lines) as u64 * SWEEP_FLOPS * 2
            } else {
                (n * lines) as u64 * SWEEP_FLOPS
            };
        }
        let mut nonphysical = None;
        for p in b.owned_local().iter() {
            if b.iblank[p] == Blank::Field {
                let q = b.q.node_mut(p);
                for (x, d) in q.iter_mut().zip(dq.node(p)) {
                    *x += d;
                }
                nonphysical = nonphysical.or(first_nonphysical(q).map(|(v, x)| (p, v, x)));
            }
        }
        let nonphysical = nonphysical.map(|(p, var, value)| Nonphysical {
            node: b.to_global(p),
            var,
            value,
            set_by: None,
        });
        let (bc_flops, set) = apply_bcs(b, fc);
        flops += bc_flops;
        StepReport { flops, residual, nonphysical: nonphysical.or(set) }
    }

    /// A smooth grid with a wall, a far field and extrapolated faces.
    fn keyed_grid(d: Dims, periodic: bool, viscous: bool) -> CurvilinearGrid {
        let mut g = crate::testutil::wavy_grid(d, periodic);
        g.viscous = viscous;
        let kind = |f: Face| match f {
            Face::JMin => BcKind::Wall { viscous },
            Face::JMax | Face::IMin => BcKind::Farfield,
            _ => BcKind::Extrapolate,
        };
        let faces = Face::ALL.iter().filter(|f| f.dir() < 2 || !d.is_two_d());
        let faces = faces.filter(|f| f.dir() != 0 || !periodic);
        g.patches = faces.map(|&f| BoundaryPatch { face: f, kind: kind(f) }).collect();
        g
    }

    /// The block of `owned` in `g`: state, grid velocity, eddy viscosity
    /// and blanking keyed by global node, so that every subdomain agrees
    /// with the whole grid, halos included. One node in twelve is a hole;
    /// with `garbage`, half of the holes hold non-finite values. Half of the
    /// seeds give the block no grid velocity, half no eddy viscosity: the
    /// absent field reads as zero.
    fn keyed_block(
        g: &CurvilinearGrid,
        owned: IndexBox,
        neighbor: [Option<usize>; 6],
        fc: &FlowConditions,
        seed: u64,
        garbage: bool,
    ) -> Block {
        let mut b = Block::from_grid(0, g, owned, neighbor, fc);
        if keyed(seed, [-1; 3], 20) < 0.5 {
            b.grid_vel = Some(SoaField::new(b.local_dims, [0.0; 3]));
        }
        if keyed(seed, [-1; 3], 21) < 0.5 {
            b.mu_t = Some(Field3::new(b.local_dims, 0.0));
        }
        let period = g.dims().ni as isize - 1;
        for p in b.local_dims.iter() {
            let mut gl =
                [0, 1, 2].map(|d| (p.get(d) + owned.lo.get(d)) as isize - b.halo[d] as isize);
            if g.periodic_i {
                gl[0] = gl[0].rem_euclid(period);
            }
            let r = |salt: u64| keyed(seed, gl, salt);
            let prim = [0.6 + r(1), r(2) - 0.5, r(3) - 0.5, r(4) - 0.5, 0.4 + 0.8 * r(5)];
            b.q.set_node(p, crate::conditions::conservatives(&prim));
            if let Some(v) = &mut b.grid_vel {
                v.set_node(p, [0.2 * (r(6) - 0.5), 0.2 * (r(7) - 0.5), 0.2 * (r(8) - 0.5)]);
            }
            if let Some(m) = &mut b.mu_t {
                m[p] = if r(10) < 0.3 { 0.0 } else { 40.0 * r(11) };
            }
            b.iblank[p] = match (r(9) * 12.0) as usize {
                0 => Blank::Hole,
                1 | 2 => Blank::Fringe,
                _ => Blank::Field,
            };
            if garbage && b.iblank[p] == Blank::Hole && r(12) < 0.5 {
                let junk = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0e300];
                b.q.set_node(p, std::array::from_fn(|v| junk[(r(13 + v as u64) * 5.0) as usize]));
            }
        }
        b
    }

    /// The halo exchange of a chain of subdomains (and the self-wrap of a
    /// whole O-grid): every local node outside the owned box, and the
    /// duplicated seam node, takes the value of the owned node it mirrors.
    fn exchange(pieces: &mut [Block], gd: Dims, periodic: bool) {
        let mut global = StateField::new(gd);
        for b in pieces.iter() {
            for p in b.owned_local().iter() {
                global.set_node(b.to_global(p), *b.q.node(p));
            }
        }
        let period = gd.ni as isize - 1;
        for b in pieces.iter_mut() {
            let ow = b.owned_local();
            for p in b.local_dims.iter() {
                let mut gl =
                    [0, 1, 2].map(|d| (p.get(d) + b.owned.lo.get(d)) as isize - b.halo[d] as isize);
                let seam = periodic && gl[0] == period;
                if ow.contains(p) && !seam {
                    continue;
                }
                if periodic {
                    gl[0] = gl[0].rem_euclid(period);
                }
                if (0..3).all(|d| gl[d] >= 0 && (gl[d] as usize) < gd.get(d)) {
                    let g = Ijk::new(gl[0] as usize, gl[1] as usize, gl[2] as usize);
                    b.q.set_node(p, *global.node(g));
                }
            }
        }
    }

    /// The update of the per-node era, the oracle of [`update_state`]: the
    /// owned nodes in storage order, Δq of each by the scalar `from_char` of
    /// the frame SoA `fr` and the characteristic solution `dw`, added on
    /// field nodes, the first that leaves one non-physical recorded.
    fn update_reference(
        b: &mut Block,
        fr: &[f64],
        dw: &[f64],
    ) -> (u64, Option<(Ijk, &'static str, f64)>) {
        let ow = b.owned_local();
        let mm = ow.count();
        let (mut flops, mut bad) = (0, None);
        for (t, p) in ow.iter().enumerate() {
            if b.iblank[p] != Blank::Field {
                continue;
            }
            let dq = from_char_at(fr, mm, t, &std::array::from_fn(|v| dw[v * mm + t]));
            let q = b.q.node_mut(p);
            for (x, d) in q.iter_mut().zip(dq) {
                *x += d;
            }
            flops += NVAR as u64;
            let found = first_nonphysical(q);
            bad = bad.or(found.map(|(v, x)| (b.to_global(p), v, x)));
        }
        (flops, bad)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused update kernel against [`update_reference`], on both
        /// ISAs: random 2-D and 3-D pieces of a grid (rows of 1 to 10 owned
        /// nodes, so lane groups cross row ends and end ragged), holes and
        /// fringes anywhere, random frames and characteristic solutions. A
        /// NaN, ±∞, ρ ≤ 0 or p ≤ 0 is put into the state or the solution of
        /// any node, and on half of the seeds into the last owned node (the
        /// ragged tail's). The state of every local node, the flops and the
        /// first non-physical node must be identical, to the bit.
        #[test]
        fn update_kernel_bit_equals_scalar_update(
            seed in 1u64..(1 << 60),
            three_d in 0usize..2,
            own_ni in 1usize..11,
        ) {
            let mut h = seed;
            let mut r = move || {
                h = (h ^ (h >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d;
                (h >> 11) as f64 / (1u64 << 53) as f64
            };
            // A uniform draw `x` in [0, 1) as one of `n` choices.
            let below = |n: usize, x: f64| (x * n as f64) as usize;
            let nk = if three_d == 1 { 1 + below(4, r()) } else { 1 };
            // A grid one node wide in `i` or `j` has no finite Jacobian.
            let d = Dims::new((own_ni + below(3, r())).max(2), (1 + below(6, r())).max(2), nk);
            let lo = Ijk::new(below(d.ni - own_ni + 1, r()), 0, 0);
            let owned = IndexBox::new(lo, Ijk::new(lo.i + own_ni, d.nj, d.nk));
            let fc = FlowConditions::new(0.8, 2.0, 0.0);
            let mut b = Block::from_grid(0, &crate::testutil::wavy_grid(d, false), owned, [None; 6], &fc);
            let junk = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 0.0];
            let mm = b.owned_count();
            let last = b.to_local(Ijk::new(owned.hi.i - 1, owned.hi.j - 1, owned.hi.k - 1));
            let tail = r() < 0.5;
            for p in b.local_dims.iter() {
                let prim = [0.6 + r(), r() - 0.5, r() - 0.5, r() - 0.5, 0.4 + 0.8 * r()];
                let mut q = crate::conditions::conservatives(&prim);
                if r() < 0.1 || (tail && p == last) {
                    // ρ or the energy (p ≤ 0 for -0.5 and 0) of this node.
                    q[if r() < 0.5 { 0 } else { 4 }] = junk[below(junk.len(), r())];
                }
                b.q.set_node(p, q);
                b.iblank[p] = match below(8, r()) {
                    0 => Blank::Hole,
                    1 => Blank::Fringe,
                    _ => Blank::Field,
                };
            }
            let mut fr: Vec<f64> = (0..kernels::FR_FIELDS * mm).map(|_| r() - 0.5).collect();
            for t in 0..mm {
                fr[kernels::FR_RHO * mm + t] = 0.5 + r();
                fr[kernels::FR_C * mm + t] = 0.5 + r();
            }
            let mut dw: Vec<f64> = (0..NVAR * mm).map(|_| 1e-3 * (r() - 0.5)).collect();
            for t in 0..mm {
                if r() < 0.05 {
                    dw[below(NVAR, r()) * mm + t] = junk[below(3, r())];
                }
            }
            let q0 = b.q.clone();
            let (want_flops, want_bad) = update_reference(&mut b, &fr, &dw);
            let want = std::mem::replace(&mut b.q, q0.clone());
            for isa in [Isa::Scalar, select_isa()] {
                b.q = q0.clone();
                let (flops, bad) = update_state(&mut b, isa, &fr, &dw);
                let what = format!("{isa:?} owned {owned:?} of {d:?}");
                prop_assert_eq!(flops, want_flops, "{}: flops", what);
                let agree = match (bad, want_bad) {
                    (Some((p, v, x)), Some((q, w, y))) => p == q && v == w && x.to_bits() == y.to_bits(),
                    (got, want) => got.is_none() && want.is_none(),
                };
                prop_assert!(agree, "{}: first non-physical node {:?} vs {:?}", what, bad, want_bad);
                let bits = |q: &StateField| q.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert!(bits(&b.q) == bits(&want), "{}: state bits", what);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Three steps of `step_block` on both ISAs against the reference
        /// step: 2-D and 3-D, open grids and O-grids (whole, or cut with the
        /// seam on the last piece), inviscid and viscous, with and without
        /// non-finite garbage in holes, the whole grid on one block or cut
        /// into a chain of pipelined subdomains. Every block owns `own_ni`
        /// nodes in `i`, so thin blocks put lane groups across row ends —
        /// but a whole open grid at least 2 (one node along `i` gives no
        /// finite Jacobian), a whole O-grid at least 4 (the reference's
        /// cyclic solve needs 3 unknowns) and a piece of an `i`-chain at
        /// least 2 (a boundary
        /// condition at an `i` face reads the next node in, which a 1-node
        /// piece holds only in its halo, a step old).
        /// State bits on every step, the first non-physical node (updated,
        /// or else set by a BC), and flops and the residual norm of the
        /// whole grid (a chain's flops summed over its pieces).
        #[test]
        fn step_bit_equals_reference_step(
            seed in 1u64..(1 << 60),
            kind in 0usize..16,
            parts in 1usize..4,
            split in 0usize..3,
            own_ni in 1usize..14,
        ) {
            let (three_d, periodic, viscous) = (kind & 1 == 1, kind & 2 == 2, kind & 4 == 4);
            let garbage = kind & 8 == 8;
            let split = if three_d { split } else { split % 2 };
            let ni = match (split == 0 && parts > 1, periodic) {
                (true, _) => own_ni.max(2) * parts,
                (false, false) => own_ni.max(2),
                (false, true) => own_ni.max(4),
            };
            let d = Dims::new(ni, 7 + (seed % 3) as usize, if three_d { 7 } else { 1 });
            let g = keyed_grid(d, periodic, viscous);
            let fc = FlowConditions::new(0.8, 2.0, 1.0e4);
            let mut reference = keyed_block(&g, d.full_box(), [None; 6], &fc, seed, garbage);
            let want: Vec<(StepReport, StateField)> = (0..3)
                .map(|_| (reference_step(&mut reference, &fc), reference.q.clone()))
                .collect();
            for isa in [Isa::Scalar, select_isa()] {
                let pieces = if parts == 1 {
                    vec![(d.full_box(), [None; 6])]
                } else {
                    chain_pieces(d, periodic, split, parts)
                };
                let mut blocks: Vec<Block> = pieces
                    .into_iter()
                    .map(|(owned, neighbor)| keyed_block(&g, owned, neighbor, &fc, seed, garbage))
                    .collect();
                let mut scratch: Vec<Scratch> = blocks.iter().map(|_| Scratch::new(isa)).collect();
                for (step, (want_report, want_q)) in want.iter().enumerate() {
                    let reports: Vec<StepReport> = if parts == 1 {
                        let (b, s) = (&mut blocks[0], &mut scratch[0]);
                        vec![step_block(b, &fc, None, &mut SerialComm, s)]
                    } else {
                        exchange(&mut blocks, d, periodic);
                        std::thread::scope(|s| {
                            let runs: Vec<_> = blocks
                                .iter_mut()
                                .zip(scratch.iter_mut())
                                .zip(chain(parts))
                                .map(|((b, sc), mut comm)| {
                                    s.spawn(move || step_block(b, &fc, None, &mut comm, sc))
                                })
                                .collect();
                            runs.into_iter().map(|r| r.join().unwrap()).collect()
                        })
                    };
                    let what =
                        format!("{isa:?} {d:?} kind {kind} x{parts} split {split} step {step}");
                    let flops: u64 = reports.iter().map(|r| r.flops).sum();
                    prop_assert_eq!(flops, want_report.flops, "{}: flops", what);
                    if parts == 1 {
                        let (got, want) = (reports[0].residual, want_report.residual);
                        prop_assert!(same(got, want), "{}: residual {:e} vs {:e}", what, got, want);
                    }
                    // Each piece reports its own first; the grid's is the
                    // least of them: an updated node before a BC-set one,
                    // BC-set nodes face by face, each in storage order.
                    let got = reports.iter().filter_map(|r| r.nonphysical).min_by_key(|n| {
                        let p = n.node;
                        (n.set_by.map(|(face, _)| face), p.k, p.j, p.i)
                    });
                    let agree = match (got, want_report.nonphysical) {
                        (Some(g), Some(w)) => {
                            (g.node, g.var, g.set_by) == (w.node, w.var, w.set_by)
                                && same(g.value, w.value)
                        }
                        (got, want) => got.is_none() && want.is_none(),
                    };
                    prop_assert!(
                        agree,
                        "{}: first non-physical node {:?} vs {:?}",
                        what, got, want_report.nonphysical
                    );
                    for b in &blocks {
                        for p in b.owned_local().iter() {
                            let w = want_q.node(reference.to_local(b.to_global(p)));
                            for (v, (&x, &y)) in b.q.node(p).iter().zip(w).enumerate() {
                                prop_assert!(
                                    same(x, y),
                                    "{}: owned {:?} node {:?} var {}: {:e} vs {:e}",
                                    what, b.owned, p, v, x, y
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
