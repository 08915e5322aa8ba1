//! Processor partitions: the mapping from a per-grid processor assignment
//! (`np(n)` from Algorithms 1/2) to concrete per-rank subdomains (via the
//! prime-factor splitting of the grid crate).

use overset_grid::decomp::{lattice_split, Decomp};
use overset_grid::{Dims, IndexBox, Subdomain};

/// One rank's assignment within a partition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RankAssignment {
    /// Component grid this rank works on.
    pub grid: usize,
    /// Owned index box within that grid.
    pub boxx: IndexBox,
    /// Ordinal of this rank among the grid's subdomains.
    pub ordinal: usize,
}

/// A full partition of an overset system over `nranks` processors.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Per-grid processor counts.
    pub np: Vec<usize>,
    /// Per-rank assignments, rank-major (grid 0's subdomains first).
    pub ranks: Vec<RankAssignment>,
    /// First rank of each grid (grid n owns ranks `start[n]..start[n]+np[n]`).
    pub start: Vec<usize>,
    /// Per-grid lattice decomposition (for neighbor topology).
    pub decomp: Vec<Decomp>,
}

impl Partition {
    /// Build a partition from grid dimensions and per-grid processor counts.
    pub fn build(dims: &[Dims], np: &[usize]) -> Partition {
        assert_eq!(dims.len(), np.len());
        let mut ranks = Vec::with_capacity(np.iter().sum());
        let mut start = Vec::with_capacity(np.len());
        let mut decomp = Vec::with_capacity(np.len());
        for (grid, (&d, &n)) in dims.iter().zip(np).enumerate() {
            start.push(ranks.len());
            let dec = lattice_split(d, n);
            for sub in &dec.subs {
                let Subdomain { boxx, ordinal } = *sub;
                ranks.push(RankAssignment { grid, boxx, ordinal });
            }
            decomp.push(dec);
        }
        Partition { np: np.to_vec(), ranks, start, decomp }
    }

    /// Global rank of a (grid, lattice ordinal) pair.
    pub fn rank_of(&self, grid: usize, ordinal: usize) -> usize {
        self.start[grid] + ordinal
    }

    /// Face-neighbor global ranks of a rank, including periodic-wrap links
    /// in `i` when `periodic_i[grid]` is set (wrap links only when the grid
    /// is actually split in `i`; a single-`i` block self-wraps locally).
    /// Face order: IMin, IMax, JMin, JMax, KMin, KMax.
    pub fn neighbors_of(&self, rank: usize, periodic_i: bool) -> [Option<usize>; 6] {
        let a = self.ranks[rank];
        let dec = &self.decomp[a.grid];
        let mut out = [None; 6];
        for dir in 0..3 {
            for (fi, downstream) in [(2 * dir, false), (2 * dir + 1, true)] {
                let mut n = dec.neighbor(a.ordinal, dir, downstream);
                if n.is_none() && dir == 0 && periodic_i {
                    n = dec.wrap_neighbor_i(a.ordinal, downstream);
                }
                out[fi] = n.map(|o| self.rank_of(a.grid, o));
            }
        }
        out
    }

    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Which grid a rank works on.
    pub fn grid_of_rank(&self, rank: usize) -> usize {
        self.ranks[rank].grid
    }

    /// Global ranks assigned to a grid.
    pub fn ranks_of_grid(&self, grid: usize) -> std::ops::Range<usize> {
        self.start[grid]..self.start[grid] + self.np[grid]
    }

    /// The vector `grid_of_rank` used by Algorithm 2.
    pub fn grid_of_rank_vec(&self) -> Vec<usize> {
        self.ranks.iter().map(|r| r.grid).collect()
    }

    /// Locate the rank owning node `p` of `grid` (every node belongs to
    /// exactly one subdomain box).
    pub fn owner_of(&self, grid: usize, p: overset_grid::Ijk) -> usize {
        let r = self.ranks_of_grid(grid);
        for rank in r {
            if self.ranks[rank].boxx.contains(p) {
                return rank;
            }
        }
        panic!("node {p:?} of grid {grid} not owned by any rank");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_grid::Ijk;

    #[test]
    fn build_counts_and_coverage() {
        let dims = [Dims::new(20, 20, 1), Dims::new(10, 30, 1)];
        let p = Partition::build(&dims, &[3, 2]);
        assert_eq!(p.nranks(), 5);
        assert_eq!(p.ranks_of_grid(0), 0..3);
        assert_eq!(p.ranks_of_grid(1), 3..5);
        // Every node of each grid owned by exactly one rank.
        for (g, d) in dims.iter().enumerate() {
            for node in d.iter() {
                let owners = p.ranks_of_grid(g).filter(|&r| p.ranks[r].boxx.contains(node)).count();
                assert_eq!(owners, 1, "node {node:?} of grid {g}");
            }
        }
    }

    #[test]
    fn owner_of_matches_boxes() {
        let dims = [Dims::new(16, 16, 4)];
        let p = Partition::build(&dims, &[8]);
        for node in dims[0].iter() {
            let r = p.owner_of(0, node);
            assert!(p.ranks[r].boxx.contains(node));
            assert_eq!(p.grid_of_rank(r), 0);
        }
    }

    #[test]
    fn flow_imbalance_unit_for_even_split() {
        // Max over mean points per rank is 1: every rank owns as many.
        let p = Partition::build(&[Dims::new(16, 16, 16)], &[8]);
        let counts: Vec<usize> = p.ranks.iter().map(|r| r.boxx.count()).collect();
        assert_eq!(counts.iter().max(), counts.iter().min());
    }

    #[test]
    fn grid_of_rank_vec_matches() {
        let p = Partition::build(&[Dims::new(8, 8, 1), Dims::new(8, 8, 1)], &[2, 3]);
        assert_eq!(p.grid_of_rank_vec(), vec![0, 0, 1, 1, 1]);
        assert_eq!(p.owner_of(1, Ijk::new(0, 0, 0)), 2);
    }
}
