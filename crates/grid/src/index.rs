//! Index-space primitives: 3-D node indices, grid dimensions and index boxes.
//!
//! Layout convention used throughout the workspace: `i` is the fastest-varying
//! direction, then `j`, then `k` (Fortran order, matching the structured CFD
//! heritage of OVERFLOW). A point `(i, j, k)` in a grid of dimensions
//! `(ni, nj, nk)` maps to the linear offset `i + ni*(j + nj*k)`.

use std::fmt;

/// A node index in a structured grid.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ijk {
    pub i: usize,
    pub j: usize,
    pub k: usize,
}

impl Ijk {
    #[inline]
    pub const fn new(i: usize, j: usize, k: usize) -> Self {
        Self { i, j, k }
    }

    /// Component along direction `dir` (0 = i, 1 = j, 2 = k).
    #[inline]
    pub fn get(&self, dir: usize) -> usize {
        match dir {
            0 => self.i,
            1 => self.j,
            _ => self.k,
        }
    }

    /// Mutable component along direction `dir`.
    #[inline]
    pub fn set(&mut self, dir: usize, v: usize) {
        match dir {
            0 => self.i = v,
            1 => self.j = v,
            _ => self.k = v,
        }
    }
}

impl fmt::Debug for Ijk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.i, self.j, self.k)
    }
}

/// Dimensions (node counts) of a structured grid.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dims {
    pub ni: usize,
    pub nj: usize,
    pub nk: usize,
}

impl Dims {
    #[inline]
    pub const fn new(ni: usize, nj: usize, nk: usize) -> Self {
        Self { ni, nj, nk }
    }

    /// Total number of nodes.
    #[inline]
    pub const fn count(&self) -> usize {
        self.ni * self.nj * self.nk
    }

    /// Linear offset of a node (i-fastest layout).
    #[inline]
    pub fn offset(&self, p: Ijk) -> usize {
        debug_assert!(p.i < self.ni && p.j < self.nj && p.k < self.nk, "{p:?} out of {self:?}");
        p.i + self.ni * (p.j + self.nj * p.k)
    }

    /// Inverse of [`Dims::offset`].
    #[inline]
    pub fn unoffset(&self, mut off: usize) -> Ijk {
        let i = off % self.ni;
        off /= self.ni;
        let j = off % self.nj;
        let k = off / self.nj;
        Ijk::new(i, j, k)
    }

    /// Extent along `dir` (0 = i, 1 = j, 2 = k).
    #[inline]
    pub fn get(&self, dir: usize) -> usize {
        match dir {
            0 => self.ni,
            1 => self.nj,
            _ => self.nk,
        }
    }

    #[inline]
    pub fn contains(&self, p: Ijk) -> bool {
        p.i < self.ni && p.j < self.nj && p.k < self.nk
    }

    /// True when the grid is a single k-plane (the 2-D cases of the paper are
    /// run as single-plane grids with the k-direction inactive).
    #[inline]
    pub const fn is_two_d(&self) -> bool {
        self.nk == 1
    }

    /// Iterate all node indices in layout order (i fastest).
    pub fn iter(&self) -> impl Iterator<Item = Ijk> + '_ {
        let (ni, nj, nk) = (self.ni, self.nj, self.nk);
        (0..nk)
            .flat_map(move |k| (0..nj).flat_map(move |j| (0..ni).map(move |i| Ijk::new(i, j, k))))
    }

    /// The full index box `[0, ni) x [0, nj) x [0, nk)`.
    #[inline]
    pub fn full_box(&self) -> IndexBox {
        IndexBox { lo: Ijk::new(0, 0, 0), hi: Ijk::new(self.ni, self.nj, self.nk) }
    }
}

impl fmt::Debug for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.ni, self.nj, self.nk)
    }
}

/// A half-open box of node indices: `lo <= p < hi` componentwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IndexBox {
    pub lo: Ijk,
    pub hi: Ijk,
}

impl IndexBox {
    pub fn new(lo: Ijk, hi: Ijk) -> Self {
        debug_assert!(lo.i <= hi.i && lo.j <= hi.j && lo.k <= hi.k);
        Self { lo, hi }
    }

    /// Node counts along each direction.
    #[inline]
    pub fn dims(&self) -> Dims {
        Dims::new(self.hi.i - self.lo.i, self.hi.j - self.lo.j, self.hi.k - self.lo.k)
    }

    /// Number of nodes inside the box.
    #[inline]
    pub fn count(&self) -> usize {
        self.dims().count()
    }

    #[inline]
    pub fn contains(&self, p: Ijk) -> bool {
        p.i >= self.lo.i
            && p.i < self.hi.i
            && p.j >= self.lo.j
            && p.j < self.hi.j
            && p.k >= self.lo.k
            && p.k < self.hi.k
    }

    /// Surface area in "faces between nodes" units: the quantity the static
    /// balancer minimizes to reduce inter-subdomain communication.
    pub fn surface_area(&self) -> usize {
        let d = self.dims();
        if d.count() == 0 {
            return 0;
        }
        2 * (d.ni * d.nj + d.nj * d.nk + d.ni * d.nk)
    }

    /// Split this box along `dir` into `parts` pieces of near-equal node
    /// counts. Earlier pieces get the remainder nodes.
    pub fn split(&self, dir: usize, parts: usize) -> Vec<IndexBox> {
        assert!(parts >= 1);
        let n = self.dims().get(dir);
        assert!(parts <= n, "cannot split extent {n} into {parts} parts");
        let base = n / parts;
        let rem = n % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = self.lo.get(dir);
        for p in 0..parts {
            let len = base + usize::from(p < rem);
            let mut lo = self.lo;
            let mut hi = self.hi;
            lo.set(dir, start);
            hi.set(dir, start + len);
            out.push(IndexBox::new(lo, hi));
            start += len;
        }
        out
    }

    /// Iterate node indices in this box (i fastest).
    pub fn iter(&self) -> impl Iterator<Item = Ijk> + '_ {
        let (l, h) = (self.lo, self.hi);
        (l.k..h.k).flat_map(move |k| {
            (l.j..h.j).flat_map(move |j| (l.i..h.i).map(move |i| Ijk::new(i, j, k)))
        })
    }

    /// Intersection of two boxes, or `None` when empty.
    pub fn intersect(&self, other: &IndexBox) -> Option<IndexBox> {
        let lo = Ijk::new(
            self.lo.i.max(other.lo.i),
            self.lo.j.max(other.lo.j),
            self.lo.k.max(other.lo.k),
        );
        let hi = Ijk::new(
            self.hi.i.min(other.hi.i),
            self.hi.j.min(other.hi.j),
            self.hi.k.min(other.hi.k),
        );
        if lo.i < hi.i && lo.j < hi.j && lo.k < hi.k {
            Some(IndexBox::new(lo, hi))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_roundtrip() {
        let d = Dims::new(5, 7, 3);
        for p in d.iter() {
            assert_eq!(d.unoffset(d.offset(p)), p);
        }
        assert_eq!(d.count(), 105);
    }

    #[test]
    fn offset_is_i_fastest() {
        let d = Dims::new(4, 3, 2);
        assert_eq!(d.offset(Ijk::new(1, 0, 0)), 1);
        assert_eq!(d.offset(Ijk::new(0, 1, 0)), 4);
        assert_eq!(d.offset(Ijk::new(0, 0, 1)), 12);
    }

    #[test]
    fn box_split_counts_preserved() {
        let b = Dims::new(10, 6, 4).full_box();
        for dir in 0..3 {
            for parts in 1..=b.dims().get(dir) {
                let pieces = b.split(dir, parts);
                assert_eq!(pieces.len(), parts);
                let total: usize = pieces.iter().map(|p| p.count()).sum();
                assert_eq!(total, b.count());
                // Near-equal: extents differ by at most one node.
                let exts: Vec<usize> = pieces.iter().map(|p| p.dims().get(dir)).collect();
                let (mn, mx) = (exts.iter().min().unwrap(), exts.iter().max().unwrap());
                assert!(mx - mn <= 1);
            }
        }
    }

    #[test]
    fn box_intersection() {
        let a = IndexBox::new(Ijk::new(0, 0, 0), Ijk::new(4, 4, 4));
        let b = IndexBox::new(Ijk::new(2, 2, 2), Ijk::new(6, 6, 6));
        let c = a.intersect(&b).unwrap();
        assert_eq!(c, IndexBox::new(Ijk::new(2, 2, 2), Ijk::new(4, 4, 4)));
        let far = IndexBox::new(Ijk::new(9, 9, 9), Ijk::new(10, 10, 10));
        assert!(a.intersect(&far).is_none());
    }

    #[test]
    fn two_d_detection() {
        assert!(Dims::new(10, 10, 1).is_two_d());
        assert!(!Dims::new(10, 10, 2).is_two_d());
    }

    #[test]
    fn surface_area_prefers_cubes() {
        let cube = IndexBox::new(Ijk::new(0, 0, 0), Ijk::new(4, 4, 4));
        let slab = IndexBox::new(Ijk::new(0, 0, 0), Ijk::new(16, 2, 2));
        assert_eq!(cube.count(), slab.count());
        assert!(cube.surface_area() < slab.surface_area());
    }
}
