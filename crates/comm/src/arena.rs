//! Step-scoped allocation reuse: a recycling pool of `Vec<T>` buffers.
//!
//! Message payloads move *by value* through the comm layer (`send` takes
//! ownership; `recv` hands back the sender's vector). Without reuse, every
//! halo exchange, line-solve carry and donor-search round allocates its
//! buffers anew. `VecPool` closes the loop: finished vectors are parked,
//! and the next `take` hands one back with its capacity intact.
//!
//! Vectors travel between ranks, so a rank's pool holds whatever capacities
//! its peers sent it. Two rules keep that from ratcheting up:
//! * `take(len)` hands out the parked vector with the least capacity that
//!   holds `len`, or a fresh one of exactly `len`; it never grows a parked
//!   vector, so no buffer gets larger than the largest message it carried.
//! * `end_step` drops every vector that sat parked through a whole step
//!   without a `take` using it, so a pool holds at most one step's working
//!   set: the vectors parked during the step just ended.

/// A recycling pool of `Vec<T>` buffers. `take` returns an empty vector
/// with room for the caller's message, `put` parks a vector for reuse and
/// `end_step` lets go of what the step left idle.
#[derive(Debug)]
pub struct VecPool<T> {
    /// Parked vectors, each with whether it was already parked when the
    /// current step began.
    free: Vec<(Vec<T>, bool)>,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> VecPool<T> {
    pub const fn new() -> Self {
        VecPool { free: Vec::new() }
    }

    /// An empty vector with capacity for `len` elements: the parked one
    /// with the least such capacity (the first of equals), or else a fresh
    /// one of exactly `len`.
    pub fn take(&mut self, len: usize) -> Vec<T> {
        let fit = (self.free.iter().enumerate())
            .filter(|(_, (v, _))| v.capacity() >= len)
            .min_by_key(|(_, (v, _))| v.capacity());
        match fit {
            Some((i, _)) => self.free.swap_remove(i).0,
            None => Vec::with_capacity(len),
        }
    }

    /// Park a vector for reuse. Its contents are dropped now; its
    /// capacity survives for a later `take`.
    pub fn put(&mut self, mut v: Vec<T>) {
        v.clear();
        self.free.push((v, false));
    }

    /// Close a step: drop the vectors that were parked before it began and
    /// that no `take` used during it.
    pub fn end_step(&mut self) {
        self.free.retain(|&(_, idle)| !idle);
        for (_, idle) in &mut self.free {
            *idle = true;
        }
    }

    /// Number of parked buffers (diagnostics / tests).
    pub fn parked(&self) -> usize {
        self.free.len()
    }

    /// Heap bytes held by the parked buffers (diagnostics / tests).
    pub fn parked_bytes(&self) -> usize {
        self.free.iter().map(|(v, _)| v.capacity() * std::mem::size_of::<T>()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycles_capacity() {
        let mut pool: VecPool<u32> = VecPool::new();
        let mut v = pool.take(100);
        v.extend(0..100);
        let cap = v.capacity();
        assert!(cap >= 100);
        pool.put(v);
        assert_eq!(pool.parked(), 1);
        assert_eq!(pool.parked_bytes(), 4 * cap);
        let w = pool.take(100);
        assert!(w.is_empty());
        assert_eq!(w.capacity(), cap);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn take_on_empty_pool_is_fresh() {
        let mut pool: VecPool<String> = VecPool::new();
        let v = pool.take(0);
        assert!(v.is_empty() && v.capacity() == 0);
        let v = pool.take(7);
        assert!(v.is_empty() && v.capacity() == 7);
    }

    #[test]
    fn take_is_best_fit() {
        let mut pool: VecPool<u8> = VecPool::new();
        for cap in [64, 16, 32, 16] {
            pool.put(Vec::with_capacity(cap));
        }
        assert_eq!(pool.take(20).capacity(), 32);
        assert_eq!(pool.take(16).capacity(), 16);
        assert_eq!(pool.take(1).capacity(), 16);
        assert_eq!(pool.parked(), 1);
        assert_eq!(pool.take(64).capacity(), 64);
    }

    #[test]
    fn a_parked_vector_is_never_grown() {
        let mut pool: VecPool<u8> = VecPool::new();
        pool.put(Vec::with_capacity(8));
        let v = pool.take(9);
        assert_eq!(v.capacity(), 9, "fresh, of exactly the length asked for");
        assert_eq!(pool.parked_bytes(), 8, "the short one stays parked as it was");
    }

    #[test]
    fn end_step_drops_what_the_step_left_idle() {
        let mut pool: VecPool<u8> = VecPool::new();
        pool.put(Vec::with_capacity(8));
        pool.put(Vec::with_capacity(4));
        pool.end_step();
        assert_eq!(pool.parked(), 2, "parked during the step: kept");
        // The next step takes one of them and parks a new one.
        let used = pool.take(8);
        pool.put(Vec::with_capacity(2));
        pool.put(used);
        pool.end_step();
        assert_eq!(pool.parked(), 2, "the idle 4 went");
        assert_eq!(pool.parked_bytes(), 10);
        pool.end_step();
        assert_eq!(pool.parked(), 0);
    }

    /// `pool.take(len)`, counting in `fresh` whether it had to allocate.
    fn take_counted<T>(pool: &mut VecPool<T>, len: usize, fresh: &mut usize) -> Vec<T> {
        let parked = pool.parked();
        let v = pool.take(len);
        *fresh += usize::from(pool.parked() == parked);
        v
    }

    #[test]
    fn a_steady_mixed_demand_allocates_nothing_after_warm_up() {
        // Three ranks in a ring each send one buffer of every size to the
        // next and park what they receive.
        let sizes = [40, 3, 17, 40, 9];
        let mut pools: Vec<VecPool<u64>> = (0..3).map(|_| VecPool::new()).collect();
        let step = |pools: &mut [VecPool<u64>]| {
            let mut fresh = 0;
            let mut inbox: Vec<Vec<Vec<u64>>> = vec![Vec::new(); pools.len()];
            for (r, pool) in pools.iter_mut().enumerate() {
                for &len in &sizes {
                    let mut v = take_counted(pool, len, &mut fresh);
                    v.extend(0..len as u64);
                    inbox[(r + 1) % 3].push(v);
                }
            }
            for (pool, got) in pools.iter_mut().zip(inbox) {
                got.into_iter().for_each(|v| pool.put(v));
                pool.end_step();
            }
            (fresh, pools.iter().map(VecPool::parked_bytes).collect::<Vec<_>>())
        };
        let (fresh, warm) = step(&mut pools);
        assert_eq!(fresh, 15);
        for _ in 0..5 {
            assert_eq!(step(&mut pools), (0, warm.clone()));
        }
    }

    #[test]
    fn a_one_way_chain_allocates_only_its_deficit_after_warm_up() {
        // A cyclic line chain of two ranks: rank 0 sends the forward carry
        // and then the correction, rank 1 answers the forward carry with
        // the back substitution, in the buffer the carry arrived in. Rank 0
        // sends two buffers a step and gets one back, so it must allocate
        // one a step; rank 1 gains one, and `end_step` lets it go a step
        // later instead of keeping every one.
        let (fwd, back, corr) = (50, 40, 20);
        let mut pools = [VecPool::<u64>::new(), VecPool::new()];
        let mut step = || {
            let mut fresh = 0;
            let mut f = take_counted(&mut pools[0], fwd, &mut fresh);
            f.resize(fwd, 0);
            f.clear();
            f.resize(back, 1);
            pools[0].put(f);
            let mut c = take_counted(&mut pools[0], corr, &mut fresh);
            c.resize(corr, 2);
            pools[1].put(c);
            for p in &mut pools {
                p.end_step();
            }
            (fresh, [pools[0].parked_bytes(), pools[1].parked_bytes()])
        };
        for _ in 0..6 {
            assert_eq!(step(), (1, [0, 8 * fwd]), "one fresh buffer a step, parked bytes flat");
        }
    }
}
