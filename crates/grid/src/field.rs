//! Dense 3-D fields over structured-grid index spaces.

use crate::index::{Dims, Ijk};
use std::ops::{Index, IndexMut};

/// A dense 3-D field of `T` in `i`-fastest layout.
#[derive(Clone, PartialEq, Debug)]
pub struct Field3<T> {
    dims: Dims,
    data: Vec<T>,
}

impl<T: Clone> Field3<T> {
    pub fn new(dims: Dims, fill: T) -> Self {
        Self { dims, data: vec![fill; dims.count()] }
    }

    pub fn from_fn(dims: Dims, mut f: impl FnMut(Ijk) -> T) -> Self {
        let mut data = Vec::with_capacity(dims.count());
        for k in 0..dims.nk {
            for j in 0..dims.nj {
                for i in 0..dims.ni {
                    data.push(f(Ijk::new(i, j, k)));
                }
            }
        }
        Self { dims, data }
    }

    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }
}

impl<T> Field3<T> {
    /// The field of `dims` over `data`, given in `i`-fastest layout.
    pub fn from_vec(dims: Dims, data: Vec<T>) -> Self {
        assert_eq!(data.len(), dims.count(), "{} values for {dims:?}", data.len());
        Self { dims, data }
    }

    #[inline]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, p: Ijk) -> Option<&T> {
        if self.dims.contains(p) {
            Some(&self.data[self.dims.offset(p)])
        } else {
            None
        }
    }
}

impl<T> Index<Ijk> for Field3<T> {
    type Output = T;
    #[inline]
    fn index(&self, p: Ijk) -> &T {
        &self.data[self.dims.offset(p)]
    }
}

impl<T> IndexMut<Ijk> for Field3<T> {
    #[inline]
    fn index_mut(&mut self, p: Ijk) -> &mut T {
        let off = self.dims.offset(p);
        &mut self.data[off]
    }
}

/// A field of `N` doubles per node stored field-major: one contiguous
/// `i`-fastest array per component, component `c` of the node at storage
/// offset `s` at `c * count + s`. Four consecutive nodes of a component are
/// one vector load; a node's `N` values are `N` loads a component apart.
#[derive(Clone, PartialEq, Debug)]
pub struct SoaField<const N: usize> {
    dims: Dims,
    data: Vec<f64>,
}

impl<const N: usize> SoaField<N> {
    /// Every node at `fill`.
    pub fn new(dims: Dims, fill: [f64; N]) -> Self {
        let n = dims.count();
        let mut data = Vec::with_capacity(N * n);
        for x in fill {
            data.resize(data.len() + n, x);
        }
        Self { dims, data }
    }

    /// Every node at zero, on freshly zeroed pages: a large field costs no
    /// memory until its values are written.
    pub fn zeroed(dims: Dims) -> Self {
        Self { dims, data: vec![0.0; N * dims.count()] }
    }

    #[inline]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Every component, one after the other.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Component `c` of every node, in storage order.
    #[inline]
    pub fn component(&self, c: usize) -> &[f64] {
        let n = self.dims.count();
        &self.data[c * n..(c + 1) * n]
    }

    /// The `N` components, each writable on its own.
    pub fn components_mut(&mut self) -> [&mut [f64]; N] {
        let n = self.dims.count().max(1);
        let mut parts = self.data.chunks_exact_mut(n);
        std::array::from_fn(|_| parts.next().unwrap_or_default())
    }

    /// The values of the node at storage offset `s`.
    #[inline]
    pub fn at(&self, s: usize) -> [f64; N] {
        let n = self.dims.count();
        std::array::from_fn(|c| self.data[c * n + s])
    }

    /// Set the values of the node at storage offset `s`.
    #[inline]
    pub fn set(&mut self, s: usize, x: [f64; N]) {
        let n = self.dims.count();
        for (c, x) in x.into_iter().enumerate() {
            self.data[c * n + s] = x;
        }
    }

    /// The values of node `p`.
    #[inline]
    pub fn node(&self, p: Ijk) -> [f64; N] {
        self.at(self.dims.offset(p))
    }

    /// Set the values of node `p`.
    #[inline]
    pub fn set_node(&mut self, p: Ijk, x: [f64; N]) {
        self.set(self.dims.offset(p), x)
    }
}

/// Number of conserved variables per node (ρ, ρu, ρv, ρw, e).
pub const NVAR: usize = 5;

/// A field of `NVAR` conserved variables per node, stored interleaved
/// (`[q0..q4]` contiguous per node) so a node's state is one cache line.
#[derive(Clone, PartialEq, Debug)]
pub struct StateField {
    dims: Dims,
    data: Vec<f64>,
}

impl StateField {
    pub fn new(dims: Dims) -> Self {
        Self { dims, data: vec![0.0; dims.count() * NVAR] }
    }

    pub fn from_fn(dims: Dims, mut f: impl FnMut(Ijk) -> [f64; NVAR]) -> Self {
        let mut data = Vec::with_capacity(dims.count() * NVAR);
        for k in 0..dims.nk {
            for j in 0..dims.nj {
                for i in 0..dims.ni {
                    data.extend_from_slice(&f(Ijk::new(i, j, k)));
                }
            }
        }
        Self { dims, data }
    }

    #[inline]
    pub fn dims(&self) -> Dims {
        self.dims
    }

    #[inline]
    pub fn node(&self, p: Ijk) -> &[f64; NVAR] {
        let off = self.dims.offset(p) * NVAR;
        self.data[off..off + NVAR].try_into().unwrap()
    }

    #[inline]
    pub fn node_mut(&mut self, p: Ijk) -> &mut [f64; NVAR] {
        let off = self.dims.offset(p) * NVAR;
        (&mut self.data[off..off + NVAR]).try_into().unwrap()
    }

    #[inline]
    pub fn set_node(&mut self, p: Ijk, q: [f64; NVAR]) {
        let off = self.dims.offset(p) * NVAR;
        self.data[off..off + NVAR].copy_from_slice(&q);
    }

    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn fill_uniform(&mut self, q: [f64; NVAR]) {
        for chunk in self.data.chunks_exact_mut(NVAR) {
            chunk.copy_from_slice(&q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_from_fn_and_index() {
        let d = Dims::new(3, 4, 2);
        let f = Field3::from_fn(d, |p| (p.i + 10 * p.j + 100 * p.k) as i32);
        assert_eq!(f[Ijk::new(2, 3, 1)], 132);
        assert_eq!(*f.get(Ijk::new(0, 0, 0)).unwrap(), 0);
        assert!(f.get(Ijk::new(3, 0, 0)).is_none());
    }

    #[test]
    fn state_field_node_roundtrip() {
        let d = Dims::new(4, 3, 2);
        let mut s = StateField::new(d);
        let q = [1.0, 2.0, 3.0, 4.0, 5.0];
        s.set_node(Ijk::new(3, 2, 1), q);
        assert_eq!(*s.node(Ijk::new(3, 2, 1)), q);
        assert_eq!(*s.node(Ijk::new(0, 0, 0)), [0.0; 5]);
        s.node_mut(Ijk::new(0, 0, 0))[4] = 9.0;
        assert_eq!(s.node(Ijk::new(0, 0, 0))[4], 9.0);
    }

    #[test]
    fn state_field_uniform_fill() {
        let mut s = StateField::new(Dims::new(2, 2, 2));
        let q = [1.0, 0.1, 0.2, 0.3, 2.5];
        s.fill_uniform(q);
        for p in s.dims().iter() {
            assert_eq!(*s.node(p), q);
        }
    }
}
