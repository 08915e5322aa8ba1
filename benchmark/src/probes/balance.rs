//! `balance`: Algorithm 1 plus the partition build at the workload's rank
//! count — the part of set-up that grows with P.

use super::median_secs;
use crate::record::Record;
use crate::spans::Spans;
use crate::workloads::Workload;
use overset_balance::{fit_np_to_dims_min, static_balance, Partition};
use overset_grid::Dims;

pub fn probe(w: &Workload, spans: &mut Spans, rec: &mut Record) {
    let cfg = w.config(1, false);
    let sizes: Vec<usize> = cfg.grids.iter().map(|g| g.num_points()).collect();
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    // The driver's own rule: periodic O-grids keep two nodes per i-piece.
    let min_widths: Vec<[usize; 3]> =
        cfg.grids.iter().map(|g| if g.periodic_i { [2, 1, 1] } else { [1, 1, 1] }).collect();
    // The serial driver partitions one subdomain per grid.
    let ranks = if w.ranks == 0 { cfg.grids.len() } else { w.ranks };
    let secs = median_secs(spans, "balance.static", 21, || {
        let initial = static_balance(&sizes, ranks).expect("Algorithm 1 on a benchmark case");
        let np = fit_np_to_dims_min(&sizes, &dims, &initial.np, &min_widths)
            .expect("feasible partition of a benchmark case");
        Partition::build(&dims, &np)
    });
    rec.timed("balance.static_us", "us", secs * 1e6);
}
