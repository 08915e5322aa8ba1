//! Analytic grid generators for the paper's test cases.
//!
//! The NASA grid systems used in the paper (V-22, delta wing, wing/pylon/
//! finned-store, X-38) are not publicly available; these generators build
//! synthetic equivalents whose *sizes, overlap topology and IGBP/gridpoint
//! ratios* match the numbers the paper reports, which is all that the
//! parallel-performance experiments depend on (see DESIGN.md §2).
//!
//! * [`airfoil`] — the 2-D oscillating NACA 0012 system (near-field O-grid,
//!   intermediate annulus, Cartesian background),
//! * [`revolution`] — body-of-revolution shell grids and spherical caps used
//!   as building blocks for the 3-D cases,
//! * [`delta_wing`] — the 4-grid descending delta wing system,
//! * [`store`] — the 16-grid wing/pylon/finned-store system.
//!
//! Each generator takes a resolution scale per index direction: Table 2's
//! coarsened / original / refined airfoil systems are the airfoil system
//! generated at 0.5×, 1× and 1.4×, not one system coarsened and refined.

pub mod airfoil;
pub mod delta_wing;
pub mod revolution;
pub mod store;

/// Geometric stretching of `n` values in `[0, 1]` clustered toward 0 with
/// ratio `r > 1` (`r = 1` gives uniform spacing). Used to cluster radial
/// layers toward viscous walls.
pub fn stretched(n: usize, r: f64) -> Vec<f64> {
    assert!(n >= 2);
    if (r - 1.0).abs() < 1e-12 {
        return (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
    }
    // Spacings form a geometric series h, h*r, h*r^2, ...
    let total: f64 = (r.powi(n as i32 - 1) - 1.0) / (r - 1.0);
    let h = 1.0 / total;
    let mut out = Vec::with_capacity(n);
    let mut x = 0.0f64;
    let mut dx = h;
    for _ in 0..n {
        out.push(x.min(1.0));
        x += dx;
        dx *= r;
    }
    out[n - 1] = 1.0;
    out
}

/// Geometric stretching of `n` values in `[0, 1]` with the *first interval*
/// pinned to `first_frac` of the span (the ratio is solved by bisection).
/// Unlike a fixed ratio, this keeps the near-wall cell size scaling
/// proportionally when the layer count grows with resolution.
pub fn stretched_first_cell(n: usize, first_frac: f64) -> Vec<f64> {
    assert!(n >= 2);
    let uniform = 1.0 / (n - 1) as f64;
    if first_frac >= uniform {
        return (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
    }
    // Find r > 1 with first-cell fraction h1(r) = (r - 1)/(r^(n-1) - 1).
    let h1 = |r: f64| -> f64 { (r - 1.0) / (r.powi(n as i32 - 1) - 1.0) };
    let (mut lo, mut hi) = (1.0 + 1e-9, 2.0);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if h1(mid) > first_frac {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    stretched(n, 0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretched_endpoints_and_monotonicity() {
        for &(n, r) in &[(2, 1.0), (10, 1.0), (10, 1.2), (33, 1.05)] {
            let s = stretched(n, r);
            assert_eq!(s.len(), n);
            assert_eq!(s[0], 0.0);
            assert!((s[n - 1] - 1.0).abs() < 1e-12);
            for w in s.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn stretched_first_cell_pins_first_interval() {
        for &(n, frac) in &[(40usize, 6.0e-4), (80, 6.0e-4), (160, 3.0e-4), (20, 0.02)] {
            let s = stretched_first_cell(n, frac);
            assert_eq!(s.len(), n);
            assert!((s[n - 1] - 1.0).abs() < 1e-12);
            let first = s[1] - s[0];
            assert!((first - frac).abs() < 0.05 * frac, "n={n}: first {first} vs {frac}");
        }
        // Coarser than uniform request degrades to uniform.
        let s = stretched_first_cell(5, 0.5);
        assert!((s[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stretched_clusters_toward_zero() {
        let s = stretched(20, 1.3);
        let first = s[1] - s[0];
        let last = s[19] - s[18];
        assert!(first < last / 5.0, "first {first} last {last}");
    }
}
