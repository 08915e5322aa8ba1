//! Algorithm 1: the static load-balance routine.
//!
//! Distributes `NP` processors over component grids proportionally to their
//! gridpoint counts `g(n)` via the paper's ε/τ tolerance iteration:
//!
//! ```text
//! 1. ε = G / NP, τ = 0, Δτ ~ 0.1
//! 2. DO until Σ np(n) = NP
//!      np(n) = int(g(n) / ε), subject to np(n) >= 1
//!      τ = τ + Δτ;  tighten ε by the tolerance
//! ```
//!
//! ε starts at the perfectly balanced points-per-processor value; each
//! iteration loosens the tolerance until the integer subdomain counts sum to
//! exactly `NP`. (The paper's text prints the update as `ε·(1+τ)`; for the
//! loop to close the "Σ np < NP" gap it describes, ε must *shrink* with τ,
//! so this implementation uses `ε = ε₀ / (1+τ)` — τ remains exactly the
//! paper's measure of the achieved load imbalance.)
//!
//! Degenerate integer cases (e.g. 3 processors over two equal grids) never
//! make the sum hit `NP` exactly; the paper's escape — perturb `g(n)` by the
//! grid index `n` and restart — is implemented too, plus a final greedy
//! exact-fit fallback so the routine is total.
//!
//! The routine also honours per-grid *minimum* subdomain counts, which is how
//! the dynamic scheme (Algorithm 2) re-runs it with extra processors granted
//! to connectivity-bound grids.

use overset_grid::{lattice_feasible_min, Dims};

/// Outcome of the static balance routine.
#[derive(Clone, Debug, PartialEq)]
pub struct StaticBalance {
    /// Processors assigned to each grid (Σ = NP, each ≥ 1).
    pub np: Vec<usize>,
    /// Final tolerance factor τ: 0 means perfectly balanced; larger values
    /// indicate higher degrees of load imbalance (paper's metric).
    pub tau: f64,
    /// Whether the index-perturbation escape hatch was needed.
    pub perturbed: bool,
}

/// Errors from impossible inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BalanceError {
    /// Fewer processors than grids (np(n) >= 1 unsatisfiable).
    TooFewProcessors { grids: usize, processors: usize },
    /// Σ of enforced minima exceeds NP.
    MinimaExceedProcessors { minima_sum: usize, processors: usize },
    /// No gridpoints at all.
    EmptySystem,
    /// [`fit_np_to_dims_min`] could not find splittable per-grid counts that sum
    /// to NP (pathological dimensions, e.g. all grids a single point wide).
    NoFeasibleFit { processors: usize },
}

impl std::fmt::Display for BalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BalanceError::TooFewProcessors { grids, processors } => {
                write!(f, "{processors} processors cannot cover {grids} grids (need >= 1 each)")
            }
            BalanceError::MinimaExceedProcessors { minima_sum, processors } => {
                write!(f, "enforced minima sum to {minima_sum} > {processors} processors")
            }
            BalanceError::EmptySystem => write!(f, "no gridpoints in any component grid"),
            BalanceError::NoFeasibleFit { processors } => {
                write!(f, "no lattice-splittable per-grid counts sum to {processors} processors")
            }
        }
    }
}

impl std::error::Error for BalanceError {}

/// Run Algorithm 1 with no per-grid minima.
pub fn static_balance(g: &[usize], nproc: usize) -> Result<StaticBalance, BalanceError> {
    static_balance_with_minima(g, nproc, &vec![1; g.len()])
}

/// Run Algorithm 1 with per-grid minimum subdomain counts (each effectively
/// at least 1).
pub fn static_balance_with_minima(
    g: &[usize],
    nproc: usize,
    minima: &[usize],
) -> Result<StaticBalance, BalanceError> {
    assert_eq!(g.len(), minima.len());
    let n = g.len();
    if n == 0 || g.iter().sum::<usize>() == 0 {
        return Err(BalanceError::EmptySystem);
    }
    if nproc < n {
        return Err(BalanceError::TooFewProcessors { grids: n, processors: nproc });
    }
    let minima: Vec<usize> = minima.iter().map(|&m| m.max(1)).collect();
    let minima_sum: usize = minima.iter().sum();
    if minima_sum > nproc {
        return Err(BalanceError::MinimaExceedProcessors { minima_sum, processors: nproc });
    }

    // Paper escape hatch: perturb g(n) by the grid index and restart when the
    // tolerance loop fails to converge.
    let mut gp: Vec<f64> = g.iter().map(|&x| x as f64).collect();
    for attempt in 0..6 {
        if let Some((np, tau)) = tolerance_loop(&gp, nproc, &minima) {
            return Ok(StaticBalance { np, tau, perturbed: attempt > 0 });
        }
        for (i, v) in gp.iter_mut().enumerate() {
            *v += (i + 1) as f64 * (attempt + 1) as f64;
        }
    }
    // Greedy exact fit: proportional floor assignment plus largest-remainder
    // distribution. Always succeeds; τ reported as the resulting imbalance.
    let np = exact_fit(&gp, nproc, &minima);
    let tau = imbalance_tau(g, &np);
    Ok(StaticBalance { np, tau, perturbed: true })
}

/// The ε/τ iteration itself. Returns `None` when it fails to hit NP exactly
/// within the iteration budget.
fn tolerance_loop(g: &[f64], nproc: usize, minima: &[usize]) -> Option<(Vec<usize>, f64)> {
    let total: f64 = g.iter().sum();
    let eps0 = total / nproc as f64;
    let dtau = 0.1;
    let mut tau = 0.0;
    for _ in 0..2000 {
        let eps = eps0 / (1.0 + tau);
        let np: Vec<usize> =
            g.iter().zip(minima).map(|(&gi, &mi)| ((gi / eps) as usize).max(mi)).collect();
        let sum: usize = np.iter().sum();
        if sum == nproc {
            return Some((np, tau));
        }
        if sum > nproc {
            // Overshot between tolerance steps: no exact fit on this path.
            return None;
        }
        tau += dtau;
    }
    None
}

/// Largest-remainder proportional assignment honouring minima.
fn exact_fit(g: &[f64], nproc: usize, minima: &[usize]) -> Vec<usize> {
    let total: f64 = g.iter().sum();
    let mut np: Vec<usize> = g
        .iter()
        .zip(minima)
        .map(|(&gi, &mi)| ((gi / total * nproc as f64).floor() as usize).max(mi))
        .collect();
    // Adjust downward if floors + minima overshoot.
    while np.iter().sum::<usize>() > nproc {
        // Shrink the grid with the fewest points per processor whose count
        // is still above its minimum.
        let cand = (0..g.len())
            .filter(|&i| np[i] > minima[i])
            .min_by(|&a, &b| {
                let ra = g[a] / np[a] as f64;
                let rb = g[b] / np[b] as f64;
                ra.partial_cmp(&rb).unwrap()
            })
            .expect("minima certified to fit");
        np[cand] -= 1;
    }
    // Distribute leftovers to the most loaded grids.
    while np.iter().sum::<usize>() < nproc {
        let cand = (0..g.len())
            .max_by(|&a, &b| {
                let ra = g[a] / np[a] as f64;
                let rb = g[b] / np[b] as f64;
                ra.partial_cmp(&rb).unwrap()
            })
            .unwrap();
        np[cand] += 1;
    }
    np
}

/// The paper's imbalance measure recovered from an assignment: the smallest
/// τ ≥ 0 such that every `np(n) = int(g(n)/ε₀·(1+τ))`-style bound is
/// satisfied; practically, `max(points per proc) / ideal - 1`.
pub fn imbalance_tau(g: &[usize], np: &[usize]) -> f64 {
    let total: f64 = g.iter().map(|&x| x as f64).sum();
    let nproc: usize = np.iter().sum();
    let ideal = total / nproc as f64;
    let worst = g.iter().zip(np).map(|(&gi, &ni)| gi as f64 / ni as f64).fold(0.0f64, f64::max);
    (worst / ideal - 1.0).max(0.0)
}

/// Largest lattice-feasible subdomain count ≤ `want` for this grid (1 is
/// always feasible for a non-empty grid).
fn feasible_at_most(dims: Dims, want: usize, min: [usize; 3]) -> usize {
    let mut k = want.min(dims.count()).max(1);
    while k > 1 && !lattice_feasible_min(dims, k, min) {
        k -= 1;
    }
    k
}

/// Smallest lattice-feasible count > `cur`, or `None` when the grid is
/// already at its splitting limit.
fn feasible_above(dims: Dims, cur: usize, min: [usize; 3]) -> Option<usize> {
    ((cur + 1)..=dims.count()).find(|&k| lattice_feasible_min(dims, k, min))
}

/// Repair a processor assignment so every grid's count is splittable by the
/// prime-factor rule, preserving Σ np = NP.
///
/// Algorithm 1 reasons only about point counts, so at large NP it can hand a
/// grid a *prime* subdomain count whose single factor exceeds every index
/// dimension — [`lattice_split`](overset_grid::decomp::lattice_split) would
/// panic. This pass clamps each grid down to its largest feasible count, then
/// regrants the freed processors greedily to the most loaded grid whose next
/// feasible count fits the remaining deficit (shrinking the least loaded
/// grid one notch when no grant fits). Assignments that are already feasible
/// — every configuration the seed could run — pass through unchanged.
///
/// `min_widths[n][t]` is the fewest nodes every piece of grid `n` must keep
/// along direction `t` (see [`lattice_feasible_min`]). The driver passes
/// `[2, 1, 1]` for periodic O-grids so the seam subdomain's cyclic solve is
/// never empty.
pub fn fit_np_to_dims_min(
    g: &[usize],
    dims: &[Dims],
    np: &[usize],
    min_widths: &[[usize; 3]],
) -> Result<Vec<usize>, BalanceError> {
    assert_eq!(g.len(), dims.len());
    assert_eq!(g.len(), np.len());
    assert_eq!(g.len(), min_widths.len());
    let nproc: usize = np.iter().sum();
    let mut fit: Vec<usize> = dims
        .iter()
        .zip(np)
        .zip(min_widths)
        .map(|((&d, &n), &m)| feasible_at_most(d, n, m))
        .collect();
    let per_proc = |fit: &[usize], i: usize| g[i] as f64 / fit[i] as f64;
    for _ in 0..(10 * nproc + 100) {
        // Invariant: clamping and shrinking only reduce, grants never exceed
        // the deficit, so Σ fit ≤ NP throughout.
        let deficit = nproc - fit.iter().sum::<usize>();
        if deficit == 0 {
            return Ok(fit);
        }
        // Grant to the most points-per-processor grid whose next feasible
        // count does not overshoot the deficit.
        let grant = (0..g.len())
            .filter_map(|i| feasible_above(dims[i], fit[i], min_widths[i]).map(|nx| (i, nx)))
            .filter(|&(i, nx)| nx - fit[i] <= deficit)
            .max_by(|&(a, _), &(b, _)| per_proc(&fit, a).partial_cmp(&per_proc(&fit, b)).unwrap());
        if let Some((i, nx)) = grant {
            fit[i] = nx;
            continue;
        }
        // No grant fits: free capacity by shrinking the least loaded grid
        // that can still give up a notch.
        let shrink = (0..g.len())
            .filter(|&i| fit[i] > 1)
            .min_by(|&a, &b| per_proc(&fit, a).partial_cmp(&per_proc(&fit, b)).unwrap());
        match shrink {
            Some(i) => fit[i] = feasible_at_most(dims[i], fit[i] - 1, min_widths[i]),
            None => break,
        }
    }
    Err(BalanceError::NoFeasibleFit { processors: nproc })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_grids_divisible() {
        let b = static_balance(&[1000, 1000, 1000], 9).unwrap();
        assert_eq!(b.np, vec![3, 3, 3]);
        assert!(b.tau < 0.2, "tau = {}", b.tau);
    }

    #[test]
    fn proportional_assignment() {
        let b = static_balance(&[4000, 2000, 2000], 8).unwrap();
        assert_eq!(b.np.iter().sum::<usize>(), 8);
        assert_eq!(b.np, vec![4, 2, 2]);
    }

    #[test]
    fn paper_degenerate_case_three_over_two_equal() {
        // Two equal grids, three processors: the pure tolerance loop cannot
        // decide; the index perturbation must break the tie.
        let b = static_balance(&[5000, 5000], 3).unwrap();
        assert_eq!(b.np.iter().sum::<usize>(), 3);
        assert!(b.np.iter().all(|&x| x >= 1));
        assert!(b.np.contains(&2) && b.np.contains(&1));
    }

    #[test]
    fn tiny_grid_still_gets_one() {
        let b = static_balance(&[100_000, 50], 8).unwrap();
        assert_eq!(b.np.iter().sum::<usize>(), 8);
        assert!(b.np[1] >= 1);
        assert!(b.np[0] >= 6);
    }

    #[test]
    fn minima_are_honoured() {
        let b = static_balance_with_minima(&[10_000, 10_000, 10_000], 12, &[1, 6, 1]).unwrap();
        assert_eq!(b.np.iter().sum::<usize>(), 12);
        assert!(b.np[1] >= 6, "np = {:?}", b.np);
    }

    #[test]
    fn errors_reported() {
        assert_eq!(
            static_balance(&[10, 10, 10], 2),
            Err(BalanceError::TooFewProcessors { grids: 3, processors: 2 })
        );
        assert_eq!(
            static_balance_with_minima(&[10, 10], 3, &[2, 2]),
            Err(BalanceError::MinimaExceedProcessors { minima_sum: 4, processors: 3 })
        );
        assert_eq!(static_balance(&[], 4), Err(BalanceError::EmptySystem));
        assert_eq!(static_balance(&[0, 0], 4), Err(BalanceError::EmptySystem));
    }

    #[test]
    fn airfoil_like_case() {
        // Three near-equal grids as in the paper's first test problem, on the
        // paper's processor counts.
        let g = [21_200, 21_275, 21_316];
        for nproc in [6, 9, 12, 18, 24] {
            let b = static_balance(&g, nproc).unwrap();
            assert_eq!(b.np.iter().sum::<usize>(), nproc, "nproc = {nproc}");
            // Near-equal grids should get near-equal processors.
            let mn = b.np.iter().min().unwrap();
            let mx = b.np.iter().max().unwrap();
            assert!(mx - mn <= 1, "nproc {nproc}: np = {:?}", b.np);
        }
    }

    #[test]
    fn store_like_case_many_grids() {
        // 16 grids of varied sizes on 16..61 processors: always exact.
        let g = [
            18_000, 28_000, 28_000, 14_000, 8_000, 10_000, 10_000, 10_000, 10_000, 13_000, 110_000,
            32_000, 17_000, 160_000, 100_000, 40_000,
        ];
        for nproc in [16, 18, 22, 28, 35, 42, 52, 61] {
            let b = static_balance(&g, nproc).unwrap();
            assert_eq!(b.np.iter().sum::<usize>(), nproc, "nproc = {nproc}");
            assert!(b.np.iter().all(|&x| x >= 1));
        }
    }

    #[test]
    fn tau_zero_means_perfect() {
        assert_eq!(imbalance_tau(&[100, 100], &[1, 1]), 0.0);
        let t = imbalance_tau(&[300, 100], &[1, 1]);
        assert!((t - 0.5).abs() < 1e-12, "tau = {t}"); // worst 300 vs ideal 200
    }

    #[test]
    fn larger_tau_for_worse_balance() {
        let good = imbalance_tau(&[100, 100, 100], &[1, 1, 1]);
        let bad = imbalance_tau(&[100, 100, 100], &[1, 1, 4]); // starves others? no: worst is 100/1 vs ideal 300/6=50
        assert!(bad > good);
    }

    #[test]
    fn single_grid_takes_all() {
        let b = static_balance(&[64_000], 24).unwrap();
        assert_eq!(b.np, vec![24]);
    }

    #[test]
    fn fit_is_identity_on_feasible_assignments() {
        let dims = [Dims::new(30, 20, 10), Dims::new(24, 18, 12)];
        let g = [6_000, 5_184];
        let np = [12, 8];
        assert_eq!(fit_np_to_dims_min(&g, &dims, &np, &[[1, 1, 1]; 2]).unwrap(), vec![12, 8]);
    }

    #[test]
    fn fit_repairs_prime_counts() {
        // 37 is prime and exceeds every dimension of the first grid; the
        // repair must trade with the second grid while keeping the sum.
        let dims = [Dims::new(29, 8, 15), Dims::new(32, 21, 28)];
        let g = [29 * 8 * 15, 32 * 21 * 28];
        let np = [37, 13];
        let fit = fit_np_to_dims_min(&g, &dims, &np, &[[1, 1, 1]; 2]).unwrap();
        assert_eq!(fit.iter().sum::<usize>(), 50);
        for (i, (&d, &n)) in dims.iter().zip(&fit).enumerate() {
            assert!(lattice_feasible_min(d, n, [1, 1, 1]), "grid {i}: np {n} infeasible for {d:?}");
        }
    }

    #[test]
    fn fit_handles_large_universes() {
        // Shapes and scale mirroring the store case at 512/1024 ranks, where
        // Algorithm 1 hands out prime counts like 73 and 47.
        let dims = [
            Dims::new(46, 25, 35),
            Dims::new(32, 21, 28),
            Dims::new(23, 14, 18),
            Dims::new(18, 9, 12),
        ];
        let g: Vec<usize> = dims.iter().map(|d| d.count()).collect();
        for nproc in [256usize, 512, 1024] {
            let b = static_balance(&g, nproc).unwrap();
            let fit = fit_np_to_dims_min(&g, &dims, &b.np, &[[1, 1, 1]; 4]).unwrap();
            assert_eq!(fit.iter().sum::<usize>(), nproc, "nproc = {nproc}");
            for (i, (&d, &n)) in dims.iter().zip(&fit).enumerate() {
                assert!(
                    lattice_feasible_min(d, n, [1, 1, 1]),
                    "nproc {nproc} grid {i}: np {n} for {d:?}"
                );
            }
        }
    }
}
