//! `grid`: generation of the workload's overset system.

use super::median_secs;
use crate::record::Record;
use crate::spans::Spans;
use crate::workloads::{System, Workload};
use overset_grid::gen::{airfoil::airfoil_system, store::store_system};

pub fn probe(w: &Workload, spans: &mut Spans, rec: &mut Record) {
    let generate = || match w.system {
        System::Airfoil => airfoil_system(1.0),
        System::Store => store_system(0.55),
    };
    let secs = median_secs(spans, "grid.system", 5, generate);
    rec.timed("grid.gen_ms", "ms", secs * 1e3);
    let points: usize = generate().iter().map(|g| g.num_points()).sum();
    rec.exact("grid.points", "count", points as f64);
}
