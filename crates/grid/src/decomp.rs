//! Prime-factor subdomain decomposition (the splitting half of Algorithm 1).
//!
//! Once the static balancer decides `np(n)` processors for grid `n`, the grid
//! is divided into `np(n)` subdomains: for each prime factor of `np(n)`
//! (largest first), the current pieces are each split along their largest
//! index dimension. This yields index spaces as close to cubic as possible,
//! minimizing subdomain surface area and hence communication (Fig. 4 of the
//! paper).

use crate::index::{Dims, IndexBox};

/// Prime factorization in descending order (e.g. `12 -> [3, 2, 2]`).
pub fn prime_factors(mut n: usize) -> Vec<usize> {
    assert!(n >= 1);
    let mut out = Vec::new();
    let mut d = 2;
    while d * d <= n {
        while n % d == 0 {
            out.push(d);
            n /= d;
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out
}

/// A subdomain of a component grid: the index box it owns plus its position
/// in the decomposition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Subdomain {
    /// Owned node box (half-open) in the parent grid's index space.
    pub boxx: IndexBox,
    /// Ordinal of this subdomain within its grid's decomposition.
    pub ordinal: usize,
}

/// A lattice decomposition of a grid's index space: `pgrid[d]` subdomains
/// along each direction, `pgrid[0]·pgrid[1]·pgrid[2] = np`. Subdomain
/// `ordinal = ci + px·(cj + py·ck)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decomp {
    pub pgrid: [usize; 3],
    pub subs: Vec<Subdomain>,
}

impl Decomp {
    /// Lattice coordinate of a subdomain ordinal.
    pub fn coord(&self, ordinal: usize) -> [usize; 3] {
        let [px, py, _] = self.pgrid;
        [ordinal % px, (ordinal / px) % py, ordinal / (px * py)]
    }

    /// Ordinal of a lattice coordinate.
    pub fn ordinal(&self, c: [usize; 3]) -> usize {
        c[0] + self.pgrid[0] * (c[1] + self.pgrid[1] * c[2])
    }

    /// Neighbor ordinal across a face (`dir`, min/max side), or `None` at
    /// the lattice edge.
    pub fn neighbor(&self, ordinal: usize, dir: usize, downstream: bool) -> Option<usize> {
        let mut c = self.coord(ordinal);
        if downstream {
            if c[dir] + 1 >= self.pgrid[dir] {
                return None;
            }
            c[dir] += 1;
        } else {
            if c[dir] == 0 {
                return None;
            }
            c[dir] -= 1;
        }
        Some(self.ordinal(c))
    }

    /// Wrap neighbor in `i` (for periodic O-grids split in `i`): the
    /// subdomain at the opposite `i` edge with the same `(j, k)` lattice
    /// coordinates. `None` when this subdomain is not at an `i` edge or the
    /// grid is not split in `i`.
    pub fn wrap_neighbor_i(&self, ordinal: usize, downstream: bool) -> Option<usize> {
        let px = self.pgrid[0];
        if px <= 1 {
            return None;
        }
        let mut c = self.coord(ordinal);
        if downstream {
            if c[0] != px - 1 {
                return None;
            }
            c[0] = 0;
        } else {
            if c[0] != 0 {
                return None;
            }
            c[0] = px - 1;
        }
        Some(self.ordinal(c))
    }
}

/// Assign the prime factors of `np` to directions (largest factor first,
/// each into the largest nominal dimension that can still accommodate it;
/// ties resolve i before j before k). `Err(f)` reports the first factor
/// that fits no direction.
fn fit_factors(dims: Dims, np: usize) -> Result<[usize; 3], usize> {
    let mut nominal = [dims.ni as f64, dims.nj as f64, dims.nk as f64];
    let mut pgrid = [1usize; 3];
    for f in prime_factors(np) {
        // Each subdomain must keep at least one node along the direction.
        let mut dir = None;
        let mut best = f64::NEG_INFINITY;
        for t in 0..3 {
            let fits = dims.get(t) / (pgrid[t] * f) >= 1;
            if fits && nominal[t] > best {
                best = nominal[t];
                dir = Some(t);
            }
        }
        let dir = dir.ok_or(f)?;
        pgrid[dir] *= f;
        nominal[dir] /= f as f64;
    }
    Ok(pgrid)
}

/// Can [`lattice_split`] decompose `dims` into `np` subdomains, every piece
/// keeping at least `min[t]` nodes along direction `t`? The prime-factor
/// rule places each prime factor of `np` whole into one index direction, so
/// e.g. a prime `np` larger than every dimension is infeasible even when the
/// grid has plenty of points. Balancers use this to keep per-grid processor
/// counts splittable (large-`P` universes otherwise hand a grid a prime count
/// that fits nowhere). `min = [1, 1, 1]` asks only for a non-empty piece;
/// periodic O-grids need `[2, 1, 1]` — the seam subdomain excludes the
/// duplicated wrap node from its cyclic solve, so a 1-node-wide piece there
/// owns an empty system.
pub fn lattice_feasible_min(dims: Dims, np: usize, min: [usize; 3]) -> bool {
    if np < 1 || np > dims.count() {
        return false;
    }
    match fit_factors(dims, np) {
        // split() hands out near-equal pieces, so the narrowest piece along
        // `t` has floor(n/p) nodes.
        Ok(pgrid) => (0..3).all(|t| dims.get(t) / pgrid[t] >= min[t].max(1)),
        Err(_) => false,
    }
}

/// Decompose a grid's index space into an `np`-subdomain lattice using the
/// paper's prime-factor rule: for each prime factor of `np` (largest first),
/// split along the (nominal) largest remaining dimension. The direction
/// sequence is decided once from the grid dimensions, so all subdomains
/// share the same cut planes — a regular lattice with aligned faces (which
/// is what makes halo exchange and cross-subdomain implicit lines well
/// defined).
pub fn lattice_split(dims: Dims, np: usize) -> Decomp {
    assert!(np >= 1);
    assert!(np <= dims.count(), "cannot split {dims:?} into {np} subdomains");
    let pgrid = fit_factors(dims, np).unwrap_or_else(|f| {
        panic!("factor {f} does not fit any dimension of {dims:?}");
    });
    // Materialize the lattice: split i, then j within, then k within.
    let mut subs = Vec::with_capacity(np);
    let i_pieces = dims.full_box().split(0, pgrid[0]);
    // Build in ordinal order: k outer, j middle, i inner.
    let mut boxes =
        vec![IndexBox::new(crate::index::Ijk::new(0, 0, 0), crate::index::Ijk::new(0, 0, 0)); np];
    for (ci, bi) in i_pieces.iter().enumerate() {
        for (cj, bj) in bi.split(1, pgrid[1]).iter().enumerate() {
            for (ck, bk) in bj.split(2, pgrid[2]).iter().enumerate() {
                let ordinal = ci + pgrid[0] * (cj + pgrid[1] * ck);
                boxes[ordinal] = *bk;
            }
        }
    }
    for (ordinal, boxx) in boxes.into_iter().enumerate() {
        subs.push(Subdomain { boxx, ordinal });
    }
    Decomp { pgrid, subs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Ijk;

    #[test]
    fn prime_factors_basic() {
        assert_eq!(prime_factors(1), Vec::<usize>::new());
        assert_eq!(prime_factors(12), vec![3, 2, 2]);
        assert_eq!(prime_factors(13), vec![13]);
        assert_eq!(prime_factors(60), vec![5, 3, 2, 2]);
    }

    #[test]
    fn split_preserves_node_count_and_disjointness() {
        let dims = Dims::new(20, 12, 8);
        for np in [1, 2, 3, 4, 6, 12, 24] {
            let subs = lattice_split(dims, np).subs;
            assert_eq!(subs.len(), np);
            let total: usize = subs.iter().map(|s| s.boxx.count()).sum();
            assert_eq!(total, dims.count());
            for a in 0..subs.len() {
                for b in (a + 1)..subs.len() {
                    assert!(
                        subs[a].boxx.intersect(&subs[b].boxx).is_none(),
                        "subdomains {a} and {b} overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn split_example_from_paper_np_12() {
        // np = 12 -> factors 3, 2, 2: largest dim split by 3, then largest
        // dim of each piece by 2, then by 2 again.
        let dims = Dims::new(30, 20, 10);
        let subs = lattice_split(dims, 12).subs;
        assert_eq!(subs.len(), 12);
        // Every piece is near-cubic with extents {5, 10, 10}.
        for s in &subs {
            let d = s.boxx.dims();
            let mut e = [d.ni, d.nj, d.nk];
            e.sort_unstable();
            assert_eq!(e, [5, 10, 10], "piece {d:?}");
        }
    }

    #[test]
    fn split_balances_counts_with_remainders() {
        let dims = Dims::new(11, 7, 3);
        let subs = lattice_split(dims, 5).subs;
        let counts: Vec<usize> = subs.iter().map(|s| s.boxx.count()).collect();
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        // Near-equal: within one i-slab row of each other.
        assert!((mx - mn) <= 7 * 3, "counts {counts:?}");
    }

    #[test]
    fn near_cubic_beats_slabs() {
        let dims = Dims::new(32, 32, 32);
        let prime_split = lattice_split(dims, 8).subs;
        // Slab decomposition for comparison.
        let slabs: Vec<Subdomain> = dims
            .full_box()
            .split(0, 8)
            .into_iter()
            .enumerate()
            .map(|(ordinal, boxx)| Subdomain { boxx, ordinal })
            .collect();
        let area =
            |subs: &[Subdomain]| -> usize { subs.iter().map(|s| s.boxx.surface_area()).sum() };
        assert!(area(&prime_split) < area(&slabs));
    }

    #[test]
    fn single_subdomain_is_whole_grid() {
        let dims = Dims::new(9, 9, 1);
        let subs = lattice_split(dims, 1).subs;
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].boxx, dims.full_box());
        assert_eq!(subs[0].boxx.lo, Ijk::new(0, 0, 0));
    }

    #[test]
    fn lattice_neighbors_consistent() {
        let d = lattice_split(Dims::new(24, 18, 12), 12);
        assert_eq!(d.subs.len(), 12);
        let np = 12;
        for o in 0..np {
            assert_eq!(d.ordinal(d.coord(o)), o);
            for dir in 0..3 {
                if let Some(n) = d.neighbor(o, dir, true) {
                    assert_eq!(d.neighbor(n, dir, false), Some(o));
                    // Faces align exactly.
                    let a = d.subs[o].boxx;
                    let b = d.subs[n].boxx;
                    assert_eq!(a.hi.get(dir), b.lo.get(dir));
                    for t in 0..3 {
                        if t != dir {
                            assert_eq!(a.lo.get(t), b.lo.get(t));
                            assert_eq!(a.hi.get(t), b.hi.get(t));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wrap_neighbor_only_at_i_edges() {
        let d = lattice_split(Dims::new(40, 10, 1), 4); // all splits in i
        assert_eq!(d.pgrid, [4, 1, 1]);
        assert_eq!(d.wrap_neighbor_i(0, false), Some(3));
        assert_eq!(d.wrap_neighbor_i(3, true), Some(0));
        assert_eq!(d.wrap_neighbor_i(1, false), None);
        let single = lattice_split(Dims::new(40, 40, 1), 1);
        assert_eq!(single.wrap_neighbor_i(0, false), None);
    }

    #[test]
    fn two_d_grid_splits_in_plane() {
        let dims = Dims::new(40, 30, 1);
        let subs = lattice_split(dims, 6).subs;
        for s in &subs {
            assert_eq!(s.boxx.dims().nk, 1);
        }
        assert!(subs.iter().map(|s| s.boxx.count()).max().unwrap() * 6 >= dims.count());
    }
}
