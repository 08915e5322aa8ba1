//! Per-rank system setup: building blocks, wall geometry and the routing
//! topology from a partition. A partition's "ranks" are its subdomains —
//! block ids; which rank owns a block is the topology's to say.

use overset_balance::Partition;
use overset_comm::OversetError;
use overset_connectivity::Topology;
use overset_grid::curvilinear::{BcKind, CurvilinearGrid, Face};
use overset_grid::transform::RigidTransform;
use overset_solver::bc::apply_bcs;
use overset_solver::conditions::conservatives;
use overset_solver::{Block, FlowConditions, WallGeometry};

/// Build the routing topology (replicated on every rank) of the partition's
/// blocks laid out over `nranks` ranks. The two layouts that have callers
/// exist: one block per rank, and every block on the one rank of a
/// single-processor run. Fails on any other rank count, and when the search
/// hierarchy does not describe every grid, names an unknown grid, or has a
/// grid search itself for donors.
pub fn build_topology(
    partition: &Partition,
    search_order: &[Vec<usize>],
    nranks: usize,
) -> Result<Topology, OversetError> {
    let ngrids = partition.np.len();
    let nblocks = partition.nranks();
    if nranks != 1 && nranks != nblocks {
        return Err(OversetError::Setup(format!(
            "{nblocks} blocks on {nranks} ranks: neither one block per rank nor all on one"
        )));
    }
    if search_order.len() != ngrids {
        return Err(OversetError::Setup(format!(
            "search_order describes {} grids but the partition has {ngrids}",
            search_order.len()
        )));
    }
    if let Some(&bad) = search_order.iter().flatten().find(|&&g| g >= ngrids) {
        return Err(OversetError::Setup(format!("search_order references grid {bad} of {ngrids}")));
    }
    if let Some(g) = (0..ngrids).find(|&g| search_order[g].contains(&g)) {
        return Err(OversetError::Setup(format!("search_order of grid {g} names grid {g} itself")));
    }
    Ok(Topology {
        blocks_of_grid: (0..ngrids).map(|g| partition.ranks_of_grid(g)).collect(),
        rank_of_block: (0..nblocks).map(|b| if nranks == 1 { 0 } else { b }).collect(),
        search_order: search_order.to_vec(),
    })
}

/// Build this rank's block (and wall geometry when its grid has a JMin
/// wall), applying the cumulative motion transform of the grid.
pub fn build_block(
    rank: usize,
    partition: &Partition,
    grids: &[CurvilinearGrid],
    cumulative: &[RigidTransform],
    fc: &FlowConditions,
) -> Result<(Block, Option<WallGeometry>), OversetError> {
    if rank >= partition.ranks.len() {
        return Err(OversetError::Setup(format!(
            "rank {rank} outside the {}-rank partition",
            partition.ranks.len()
        )));
    }
    let a = partition.ranks[rank];
    let grid = grids.get(a.grid).ok_or_else(|| {
        OversetError::Setup(format!(
            "partition references grid {} but only {} grids exist",
            a.grid,
            grids.len()
        ))
    })?;
    if cumulative.len() != grids.len() {
        return Err(OversetError::Setup(format!(
            "{} cumulative transforms for {} grids",
            cumulative.len(),
            grids.len()
        )));
    }
    let neighbors = partition.neighbors_of(rank, grid.periodic_i);
    let mut block = Block::from_grid(a.grid, grid, a.boxx, neighbors, fc);
    let t = &cumulative[a.grid];
    if !t.is_identity() {
        block.set_geometry_transform(t);
    }
    let wall = match grid.patch_on(Face::JMin) {
        Some(BcKind::Wall { .. }) => {
            let mut w = WallGeometry::from_grid(grid, a.boxx);
            if !t.is_identity() {
                for p in &mut w.wall_xyz {
                    *p = t.apply(*p);
                }
            }
            Some(w)
        }
        _ => None,
    };
    // A freestream field meeting a no-slip wall is an impulsive start whose
    // shear (freestream over one near-wall cell) is unsolvably stiff at fine
    // resolution. Initialize walled grids with a boundary-layer-like
    // velocity profile instead, and apply the BCs once so the first
    // residual already sees consistent wall data.
    if wall.is_some() {
        apply_boundary_layer_profile(&mut block, &wall, fc);
    }
    apply_bcs(&mut block, fc);
    Ok((block, wall))
}

/// Scale the velocity toward zero across a thin layer near the wall
/// (thickness ~8% of the grid's wall-normal extent), keeping density and
/// pressure at freestream.
fn apply_boundary_layer_profile(
    block: &mut Block,
    wall: &Option<WallGeometry>,
    fc: &FlowConditions,
) {
    let Some(w) = wall else { return };
    let q_inf = fc.freestream();
    let u_inf = [q_inf[1] / q_inf[0], q_inf[2] / q_inf[0], q_inf[3] / q_inf[0]];
    let p_inf = overset_solver::conditions::pressure(&q_inf);
    let dims = block.local_dims;
    for p in dims.iter().collect::<Vec<_>>() {
        // Wall point of this node's (i, k) column (clamped into the owned
        // column range for halo nodes).
        let gi = p.i.saturating_sub(block.halo[0]).min(w.ni - 1);
        let gk = p.k.saturating_sub(block.halo[2]).min(w.nk - 1);
        let wp = w.wall_xyz[gi + w.ni * gk];
        // Column-local layer thickness: the profile must not depend on the
        // domain decomposition (a rank-averaged δ would).
        let delta = (0.08 * w.delta_col[gi + w.ni * gk]).max(1e-12);
        let x = block.coords[p];
        let d = ((x[0] - wp[0]).powi(2) + (x[1] - wp[1]).powi(2) + (x[2] - wp[2]).powi(2)).sqrt();
        let f = (d / delta).tanh();
        let vel = [u_inf[0] * f, u_inf[1] * f, u_inf[2] * f];
        block.q.set_node(p, conservatives(&[q_inf[0], vel[0], vel[1], vel[2], p_inf]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_grid::gen::airfoil::airfoil_system;
    use overset_grid::Dims;

    #[test]
    fn topology_matches_partition() {
        let grids = airfoil_system(0.15);
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
        let bal = overset_balance::static_balance(&sizes, 6).unwrap();
        let p = Partition::build(&dims, &bal.np);
        let order = overset_grid::gen::airfoil::airfoil_search_order();
        let topo = build_topology(&p, &order, 6).unwrap();
        assert_eq!(topo.rank_of_block, [0, 1, 2, 3, 4, 5]);
        for g in 0..3 {
            assert_eq!(topo.blocks_of_grid[g], p.ranks_of_grid(g));
            for b in topo.blocks_of_grid[g].clone() {
                assert_eq!(topo.grid_of_block(b), g);
            }
        }
        // The single-processor layout: the same blocks, all on rank 0.
        let serial = build_topology(&p, &order, 1).unwrap();
        assert_eq!(serial.rank_of_block, [0; 6]);
        assert_eq!(serial.blocks_of_grid, topo.blocks_of_grid);
    }

    #[test]
    fn blocks_cover_grids_without_overlap() {
        let grids = airfoil_system(0.15);
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
        let bal = overset_balance::static_balance(&sizes, 9).unwrap();
        let p = Partition::build(&dims, &bal.np);
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let cum = vec![RigidTransform::IDENTITY; 3];
        let mut per_grid_nodes = [0usize; 3];
        for r in 0..9 {
            let (b, wall) = build_block(r, &p, &grids, &cum, &fc).unwrap();
            per_grid_nodes[b.grid_id] += b.owned_count();
            // Only the near grid (grid 0) has a wall.
            assert_eq!(wall.is_some(), b.grid_id == 0);
        }
        for g in 0..3 {
            assert_eq!(per_grid_nodes[g], grids[g].num_points());
        }
    }

    #[test]
    fn cumulative_transform_applies_to_block_and_wall() {
        let grids = airfoil_system(0.15);
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let p = Partition::build(&dims, &[1, 1, 1]);
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let mut cum = vec![RigidTransform::IDENTITY; 3];
        cum[0] = RigidTransform::translation([5.0, 0.0, 0.0]);
        let (b, wall) = build_block(0, &p, &grids, &cum, &fc).unwrap();
        let bb = overset_connectivity::protocol::owned_bbox(&b);
        assert!(bb.center()[0] > 4.0, "block not translated: {:?}", bb.center());
        let w = wall.unwrap();
        assert!(w.wall_xyz.iter().all(|p| p[0] > 3.0));
    }

    #[test]
    fn invalid_setups_are_reported_not_panicked() {
        let grids = airfoil_system(0.15);
        let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
        let p = Partition::build(&dims, &[1, 1, 1]);
        // Hierarchy shorter than the grid count.
        let e = build_topology(&p, &[vec![1]], 3).unwrap_err();
        assert!(e.to_string().contains("search_order"));
        // Hierarchy naming a grid that does not exist.
        let e = build_topology(&p, &[vec![9], vec![0], vec![0]], 3).unwrap_err();
        assert!(e.to_string().contains("grid 9"));
        // Hierarchy asking a grid's own blocks for its donors.
        let e = build_topology(&p, &[vec![1], vec![1, 2], vec![0]], 3).unwrap_err();
        assert!(e.to_string().contains("grid 1 names grid 1 itself"), "{e}");
        // A layout between the two that exist.
        let order = overset_grid::gen::airfoil::airfoil_search_order();
        let e = build_topology(&p, &order, 2).unwrap_err();
        assert!(e.to_string().contains("3 blocks on 2 ranks"));
        // Rank outside the partition.
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let cum = vec![RigidTransform::IDENTITY; 3];
        let Err(e) = build_block(99, &p, &grids, &cum, &fc) else {
            panic!("out-of-range rank accepted")
        };
        assert!(e.to_string().contains("rank 99"));
        // Transform list not matching the grid count.
        let Err(e) = build_block(0, &p, &grids, &[RigidTransform::IDENTITY], &fc) else {
            panic!("short transform list accepted")
        };
        assert!(e.to_string().contains("transforms"));
    }
}
