//! One implicit timestep on a block: the OVERFLOW phase of the OVERFLOW-D1
//! loop.

use crate::adi::{implicit_sweeps, SolverComm, SweepScratch};
use crate::bc::apply_bcs;
use crate::block::{Blank, Block};
use crate::conditions::FlowConditions;
use crate::rhs::{compute_residual, residual_l2};
use crate::turbulence::{compute_mu_t, WallGeometry};
use overset_grid::field::{StateField, NVAR};

/// Reusable scratch fields for stepping (avoids per-step allocation).
pub struct Scratch {
    pub res: StateField,
    /// The flow workspace — used first by the residual's node pass, then by
    /// the line sweeps — plus the kernel ISA (`sweep.isa`: the host's, until
    /// a test or bench sets `Isa::Scalar`).
    pub sweep: SweepScratch,
}

impl Scratch {
    pub fn for_block(block: &Block) -> Scratch {
        Scratch { res: StateField::new(block.local_dims), sweep: SweepScratch::default() }
    }
}

/// Outcome of one step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepReport {
    /// Estimated floating-point operations performed.
    pub flops: u64,
    /// L2 norm of the explicit residual before the update (diagnostic).
    pub residual: f64,
}

/// Advance the block one implicit timestep:
///
/// 1. halo exchange (interfaces and periodic wraps),
/// 2. turbulence model (when active),
/// 3. explicit residual,
/// 4. factored implicit sweeps (pipelined across subdomains),
/// 5. state update on field nodes,
/// 6. physical boundary conditions.
///
/// Each stage's work is charged through [`SolverComm::compute`] as it
/// completes, so a message-passing communicator stamps the pipelined carries
/// with the right clocks; a serial caller charges the returned
/// [`StepReport::flops`] in one lump instead (the 5-flop/node update is
/// charged per stage only and is not part of that total).
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
    let res_flops = compute_residual(block, fc, &mut scratch.res, &mut scratch.sweep);
    comm.compute(res_flops);
    flops += res_flops;
    let residual = residual_l2(block, &scratch.res);
    comm.trace_span("solver", "residual", t0);

    // dq enters the factored solve holding Δt·R.
    for v in scratch.res.as_mut_slice() {
        *v *= fc.dt;
    }
    // The sweeps charge their own work as they go.
    flops += implicit_sweeps(block, fc, &mut scratch.res, comm, &mut scratch.sweep);

    // Update field nodes.
    let ow = block.owned_local();
    let mut update_flops = 0u64;
    for p in ow.iter() {
        if block.iblank[p] != Blank::Field {
            continue;
        }
        update_flops += NVAR as u64;
        let dq = *scratch.res.node(p);
        let q = block.q.node_mut(p);
        for v in 0..NVAR {
            q[v] += dq[v];
        }
        // Positivity floors keep impulsive-start transients from crashing.
        crate::conditions::enforce_positivity(q);
    }
    comm.compute(update_flops);

    let bc_flops = apply_bcs(block, fc);
    comm.compute(bc_flops);
    StepReport { flops: flops + bc_flops, residual }
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
        let mut s = Scratch::for_block(&b);
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
        let mut s = Scratch::for_block(&b);
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
        let mut ss = Scratch::for_block(&small);
        let mut sb = Scratch::for_block(&big);
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
        let mut s = Scratch::for_block(&b);
        step_block(&mut b, &fc, None, &mut SerialComm, &mut s);
        assert_eq!(*b.q.node(f), imposed, "fringe overwritten by solver");
    }
}
