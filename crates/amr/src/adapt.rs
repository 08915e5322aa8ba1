//! The adaption cycle: the off-body domain is "automatically repartitioned
//! during adaption in response to body motion and estimates of solution
//! error, facilitating both refinement and coarsening".
//!
//! Each cycle regenerates the brick system from the current refinement
//! oracle (proximity to the moved body ∪ error estimate) and transfers the
//! solution from the old bricks to the new by trilinear interpolation —
//! "each adaption step requires interpolation of information on the coarse
//! systems to the refined grids as well as re-distribution of data after
//! the adapt cycle".

use crate::connect::locate_any;
use crate::offbody::{generate, level_histogram, Brick, OffBodyConfig};
use overset_connectivity::{weights, Donor};
use overset_grid::field::{StateField, NVAR};
use overset_grid::Aabb;

/// Outcome of one adapt cycle.
#[derive(Clone, Debug)]
pub struct AdaptStats {
    pub bricks_before: usize,
    pub bricks_after: usize,
    pub hist_before: Vec<usize>,
    pub hist_after: Vec<usize>,
    /// Regions whose level rose / fell (sampled at new brick centers).
    pub refined: usize,
    pub coarsened: usize,
    /// Points whose state was transferred.
    pub points_transferred: usize,
}

/// Run one adapt cycle: regenerate bricks under `oracle` and transfer the
/// per-brick states. `states[i]` is brick `i`'s solution field (node-major,
/// matching `bricks[i].grid.dims`).
pub fn adapt_cycle(
    cfg: &OffBodyConfig,
    bricks: &[Brick],
    states: &[StateField],
    oracle: &dyn Fn(&Aabb, usize) -> bool,
    freestream: [f64; NVAR],
) -> (Vec<Brick>, Vec<StateField>, AdaptStats) {
    assert_eq!(bricks.len(), states.len());
    let new_bricks = generate(cfg, oracle);

    let mut refined = 0usize;
    let mut coarsened = 0usize;
    let mut transferred = 0usize;
    let mut new_states = Vec::with_capacity(new_bricks.len());
    for nb in &new_bricks {
        // Level-change bookkeeping at the brick center.
        if let Some(old) = locate_any(bricks, nb.bbox().center(), None) {
            let ol = bricks[old.brick].level;
            if nb.level > ol {
                refined += 1;
            } else if nb.level < ol {
                coarsened += 1;
            }
        }
        // Solution transfer: trilinear from the old system.
        let dims = nb.grid.dims;
        let state = StateField::from_fn(dims, |p| {
            let x = nb.grid.xyz(p);
            match locate_any(bricks, x, None) {
                Some(d) => {
                    transferred += 1;
                    let w = weights(&Donor { cell: d.cell, loc: d.loc }, false);
                    let od = bricks[d.brick].grid.dims;
                    let mut q = [0.0f64; NVAR];
                    for (ci, wi) in w.iter().enumerate() {
                        if *wi == 0.0 {
                            continue;
                        }
                        let node = overset_grid::Ijk::new(
                            (d.cell.i + (ci & 1)).min(od.ni - 1),
                            (d.cell.j + ((ci >> 1) & 1)).min(od.nj - 1),
                            (d.cell.k + ((ci >> 2) & 1)).min(od.nk - 1),
                        );
                        let qs = states[d.brick].node(node);
                        for v in 0..NVAR {
                            q[v] += wi * qs[v];
                        }
                    }
                    q
                }
                None => freestream,
            }
        });
        new_states.push(state);
    }

    let stats = AdaptStats {
        bricks_before: bricks.len(),
        bricks_after: new_bricks.len(),
        hist_before: level_histogram(bricks),
        hist_after: level_histogram(&new_bricks),
        refined,
        coarsened,
        points_transferred: transferred,
    };
    (new_bricks, new_states, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offbody::proximity_oracle;

    fn cfg() -> OffBodyConfig {
        OffBodyConfig {
            domain: Aabb::new([-4.0; 3], [4.0; 3]),
            bricks_per_axis: [2, 2, 2],
            cells_per_edge: 4,
            max_level: 2,
        }
    }

    fn freestream() -> [f64; NVAR] {
        [1.0, 0.5, 0.0, 0.0, 2.0]
    }

    fn uniform_states(bricks: &[Brick]) -> Vec<StateField> {
        bricks
            .iter()
            .map(|b| {
                let mut s = StateField::new(b.grid.dims);
                s.fill_uniform(freestream());
                s
            })
            .collect()
    }

    #[test]
    fn moving_body_refines_new_region_and_coarsens_old() {
        let c = cfg();
        let body0 = Aabb::new([-2.5, -0.5, -0.5], [-1.5, 0.5, 0.5]);
        let bricks0 = generate(&c, &proximity_oracle(vec![body0], 2));
        let states0 = uniform_states(&bricks0);
        // Body moves to the other side of the domain.
        let body1 = Aabb::new([1.5, -0.5, -0.5], [2.5, 0.5, 0.5]);
        let (bricks1, states1, stats) =
            adapt_cycle(&c, &bricks0, &states0, &proximity_oracle(vec![body1], 2), freestream());
        assert!(stats.refined > 0, "{stats:?}");
        assert!(stats.coarsened > 0, "{stats:?}");
        assert_eq!(bricks1.len(), states1.len());
        // Fine bricks now cluster on the +x side.
        let max_level = bricks1.iter().map(|b| b.level).max().unwrap();
        let fine_center: f64 = {
            let fine: Vec<f64> = bricks1
                .iter()
                .filter(|b| b.level == max_level)
                .map(|b| b.bbox().center()[0])
                .collect();
            fine.iter().sum::<f64>() / fine.len() as f64
        };
        assert!(fine_center > 0.0, "fine bricks at x = {fine_center}");
    }

    #[test]
    fn uniform_state_transfers_exactly() {
        let c = cfg();
        let bricks0 = generate(&c, &proximity_oracle(vec![Aabb::new([-0.5; 3], [0.5; 3])], 2));
        let states0 = uniform_states(&bricks0);
        let (b1, s1, stats) = adapt_cycle(
            &c,
            &bricks0,
            &states0,
            &proximity_oracle(vec![Aabb::new([-1.0; 3], [1.0; 3])], 2),
            freestream(),
        );
        assert!(stats.points_transferred > 0);
        for (b, s) in b1.iter().zip(&s1) {
            for p in b.grid.dims.iter() {
                let q = s.node(p);
                for (v, qv) in q.iter().enumerate() {
                    assert!(
                        (qv - freestream()[v]).abs() < 1e-12,
                        "transfer corrupted a uniform state"
                    );
                }
            }
        }
    }

    #[test]
    fn linear_field_transfers_exactly_on_refinement() {
        let c = cfg();
        let bricks0 = generate(&c, &|_: &Aabb, _| false); // all coarse
        let states0: Vec<StateField> = bricks0
            .iter()
            .map(|b| {
                StateField::from_fn(b.grid.dims, |p| {
                    let x = b.grid.xyz(p);
                    [x[0], x[1], x[2], x[0] + x[1], 1.0]
                })
            })
            .collect();
        // Refine everywhere by one level.
        let (b1, s1, _) = adapt_cycle(&c, &bricks0, &states0, &|_, l| l < 1, freestream());
        for (b, s) in b1.iter().zip(&s1) {
            assert_eq!(b.level, 1);
            for p in b.grid.dims.iter() {
                let x = b.grid.xyz(p);
                let q = s.node(p);
                assert!((q[0] - x[0]).abs() < 1e-9, "linear transfer error");
                assert!((q[3] - (x[0] + x[1])).abs() < 1e-9);
            }
        }
    }
}
