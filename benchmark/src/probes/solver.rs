//! `solver`: `step_block` with `SerialComm` on whole-grid blocks of each
//! system: the flow kernel with no messages, no ranks and no connectivity
//! around it.

use crate::record::Record;
use crate::spans::Spans;
use crate::workloads::{by_name, Workload};
use overflow_d::setup::build_block;
use overset_balance::Partition;
use overset_grid::transform::RigidTransform;
use overset_grid::Dims;
use overset_solver::{step_block, Scratch, SerialComm};

const STEPS: usize = 4;

pub fn probe(spans: &mut Spans, rec: &mut Record) {
    for (label, workload) in [("airfoil", "airfoil_flow"), ("store", "store_serial")] {
        let w: Workload = by_name(workload).expect("known workload");
        let cfg = w.config(1, false);
        let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
        let single = Partition::build(&dims, &vec![1; dims.len()]);
        let identity = vec![RigidTransform::IDENTITY; dims.len()];
        let mut blocks: Vec<_> = (0..dims.len())
            .map(|g| {
                let (block, wall) =
                    build_block(single.start[g], &single, &cfg.grids, &identity, &cfg.fc)
                        .expect("whole-grid block of a benchmark case");
                let scratch = Scratch::for_block(&block);
                (block, wall, scratch)
            })
            .collect();
        let mut step_all = || -> u64 {
            blocks
                .iter_mut()
                .map(|(b, wall, sc)| {
                    step_block(b, &cfg.fc, wall.as_ref(), &mut SerialComm, sc).flops
                })
                .sum()
        };
        // One warm-up step, then STEPS timed ones.
        step_all();
        let (flops, secs) = spans.span(&format!("solver.step_block.{label}"), |_| {
            (0..STEPS).map(|_| step_all()).sum::<u64>()
        });
        let points = (STEPS * cfg.total_points()) as f64;
        rec.timed(&format!("solver.step_block_ns_per_pt.{label}"), "ns", secs / points * 1e9);
        if label == "store" {
            rec.exact("solver.flops_per_pt", "flop", flops as f64 / points);
            rec.timed("solver.host_mflops", "Mflop/s", flops as f64 / secs / 1e6);
            // Computed from array sizes, not measured: cache misses are not in it.
            let (bytes, nodes) = blocks.iter().fold((0.0, 0.0), |(b, n), (block, _, _)| {
                (b + block.working_set_bytes(), n + block.local_dims.count() as f64)
            });
            rec.exact("solver.bytes_per_pt_computed", "B", bytes / nodes);
        }
    }
}
