//! One implicit timestep on a block: the OVERFLOW phase of the OVERFLOW-D1
//! loop.

use crate::adi::{implicit_sweeps, Scratch, SolverComm};
use crate::bc::apply_bcs;
use crate::block::{Blank, Block};
use crate::conditions::{pressure, FlowConditions};
use crate::kernels::Rows;
use crate::rhs::compute_residual;
use crate::turbulence::{compute_mu_t, WallGeometry};
use overset_grid::field::NVAR;

/// Outcome of one step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepReport {
    /// Estimated floating-point operations performed.
    pub flops: u64,
    /// L2 norm of the explicit residual before the update (diagnostic).
    pub residual: f64,
    /// The first updated node, in storage order, that is non-finite or has
    /// ρ ≤ 0 or p ≤ 0: its global index, `"ρ"` or `"p"`, and that value.
    pub nonphysical: Option<(overset_grid::Ijk, &'static str, f64)>,
}

impl StepReport {
    /// Panics, naming `step`, `grid` and the node, if the step left one
    /// non-physical (DESIGN.md §6).
    pub fn assert_physical(&self, step: usize, grid: usize) {
        if let Some((p, var, x)) = self.nonphysical {
            panic!("non-physical state at step {step}, grid {grid}, cell {p:?}: {var} = {x:e}");
        }
    }
}

/// Advance the block one implicit timestep:
///
/// 1. halo exchange (interfaces and periodic wraps),
/// 2. turbulence model (when active),
/// 3. explicit residual, left as Δt·R in the sweeps' increment,
/// 4. factored implicit sweeps (pipelined across subdomains), in place,
/// 5. state update on field nodes, checked for non-physical values
///    ([`StepReport::nonphysical`]),
/// 6. physical boundary conditions.
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

    // The sweeps charge their own work as they go.
    flops += implicit_sweeps(block, fc, comm, scratch);

    // Update field nodes.
    let ow = block.owned_local();
    let (mm, ni) = (ow.count(), ow.dims().ni);
    let dq = scratch.increment(block);
    let ib = block.iblank.as_slice();
    let mut update_flops = 0u64;
    let mut bad = None;
    for (s0, t0) in Rows::new(ow, block.local_dims.full_box(), ow).starts() {
        let row = block.q.as_mut_slice()[s0 * NVAR..(s0 + ni) * NVAR].chunks_exact_mut(NVAR);
        for (i, (q, &b)) in row.zip(&ib[s0..s0 + ni]).enumerate() {
            if b != Blank::Field {
                continue;
            }
            update_flops += NVAR as u64;
            for (v, x) in q.iter_mut().enumerate() {
                *x += dq[v * mm + t0 + i];
            }
            if bad.is_none() {
                bad = first_nonphysical((&*q).try_into().expect("a node holds NVAR values"))
                    .map(|(var, x)| (s0 + i, var, x));
            }
        }
    }
    comm.compute(update_flops);
    let nonphysical = bad.map(|(s, v, x)| (block.to_global(block.local_dims.unoffset(s)), v, x));

    let bc_flops = apply_bcs(block, fc);
    comm.compute(bc_flops);
    StepReport { flops: flops + bc_flops, residual, nonphysical }
}

/// What makes a node non-physical, and its value: ρ if it is non-finite or
/// ≤ 0, else p if it is. A non-finite momentum or energy makes p
/// non-finite, so two values cover all five.
fn first_nonphysical(q: &[f64; NVAR]) -> Option<(&'static str, f64)> {
    [("ρ", q[0]), ("p", pressure(q))].into_iter().find(|&(_, x)| x <= 0.0 || !x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adi::SerialComm;
    use overset_grid::curvilinear::{BcKind, BoundaryPatch, CurvilinearGrid, Face, GridKind};
    use overset_grid::field::Field3;
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
        // set non-physical is the only one there is.
        let mut fc = FlowConditions::new(0.8, 0.0, 0.0);
        fc.dt = 0.0;
        let mut b = free_block(9, &fc);
        let bad = Ijk::new(4, 4, 0);
        b.q.set_node(bad, crate::conditions::conservatives(&[-0.5, 0.8, 0.0, 0.0, 0.7]));
        let mut s = Scratch::default();
        let r = step_block(&mut b, &fc, None, &mut SerialComm, &mut s);
        assert_eq!(r.nonphysical, Some((b.to_global(bad), "ρ", -0.5)));
        let healthy = step_block(&mut free_block(9, &fc), &fc, None, &mut SerialComm, &mut s);
        assert_eq!(healthy.nonphysical, None);
    }

    // ---- step_block vs the composition of the scalar references ----------

    use crate::adi::tests::{chain, chain_pieces, keyed, sweeps_reference};
    use crate::adi::FLOPS_PER_NODE_PER_DIR as SWEEP_FLOPS;
    use crate::lanes::{select_isa, Isa};
    use crate::rhs::reference;
    use overset_grid::field::StateField;
    use overset_grid::index::IndexBox;
    use proptest::prelude::*;

    /// One timestep of a whole-grid block through the scalar references:
    /// the per-node residual and its L2 norm, the Δt scaling, the
    /// line-by-line sweeps, the update and the BCs.
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
        let nonphysical = nonphysical.map(|(p, v, x)| (b.to_global(p), v, x));
        flops += apply_bcs(b, fc);
        StepReport { flops, residual, nonphysical }
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
            b.grid_vel = Some(Field3::new(b.local_dims, [0.0; 3]));
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
                v[p] = [0.2 * (r(6) - 0.5), 0.2 * (r(7) - 0.5), 0.2 * (r(8) - 0.5)];
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

    /// Equal bits, signed zeros included; two NaNs count as equal (their
    /// payloads are not pinned).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Three steps of `step_block` on both ISAs against the reference
        /// step: 2-D and 3-D, open grids and O-grids (whole, or cut with the
        /// seam on the last piece), inviscid and viscous, with and without
        /// non-finite garbage in holes, the whole grid on one block or cut
        /// into a chain of pipelined subdomains. Every block owns `own_ni`
        /// nodes in `i`, so thin blocks put lane groups across row ends —
        /// but a whole O-grid at least 4 (the reference's cyclic solve needs
        /// 3 unknowns) and a piece of an `i`-chain at least 2 (a boundary
        /// condition at an `i` face reads the next node in, which a 1-node
        /// piece holds only in its halo, a step old).
        /// State bits on every step, the first non-physical node, and flops
        /// and the residual norm of the whole grid (a chain's flops summed
        /// over its pieces).
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
                (false, false) => own_ni,
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
                    // least of them in storage order.
                    let got = reports
                        .iter()
                        .filter_map(|r| r.nonphysical)
                        .min_by_key(|&(p, ..)| (p.k, p.j, p.i));
                    let agree = match (got, want_report.nonphysical) {
                        (Some((p, v, x)), Some((q, w, y))) => p == q && v == w && same(x, y),
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
