//! Per-rank system setup: building blocks, wall geometry and the routing
//! topology from a partition. A partition's "ranks" are its subdomains —
//! block ids; which rank owns a block is the topology's to say.

use overset_balance::Partition;
use overset_comm::OversetError;
use overset_connectivity::Topology;
use overset_grid::curvilinear::{BcKind, CurvilinearGrid, Face};
use overset_grid::field::NVAR;
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
    let t = &cumulative[a.grid];
    let mut block = Block::from_grid_posed(a.grid, grid, a.boxx, neighbors, fc, t);
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
    let ni = block.local_dims.ni;
    let rows = block.coords.as_slice().chunks_exact(ni);
    let rows = rows.zip(block.q.as_mut_slice().chunks_exact_mut(ni * NVAR));
    for (r, (x, q)) in rows.enumerate() {
        // The row's k; its nodes' wall points lie in the row of (i, k)
        // columns (clamped into the owned column range for halo nodes).
        let gk = (r / block.local_dims.nj).saturating_sub(block.halo[2]).min(w.nk - 1);
        for (i, (x, q)) in x.iter().zip(q.chunks_exact_mut(NVAR)).enumerate() {
            let col = i.saturating_sub(block.halo[0]).min(w.ni - 1) + w.ni * gk;
            let wp = w.wall_xyz[col];
            // Column-local layer thickness: the profile must not depend on
            // the domain decomposition (a rank-averaged δ would).
            let delta = (0.08 * w.delta_col[col]).max(1e-12);
            let d =
                ((x[0] - wp[0]).powi(2) + (x[1] - wp[1]).powi(2) + (x[2] - wp[2]).powi(2)).sqrt();
            let f = (d / delta).tanh();
            let vel = [u_inf[0] * f, u_inf[1] * f, u_inf[2] * f];
            q.copy_from_slice(&conservatives(&[q_inf[0], vel[0], vel[1], vel[2], p_inf]));
        }
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

    /// The inert-metric fallback of `Block::recompute_metrics` fires on no
    /// node of the store ×0.55 system (serial, P = 18, P = 256) or of the
    /// airfoil ×1.0 system (serial, P = 6): every halo node past a physical
    /// edge is extrapolated, and no grid collapses a face onto itself.
    #[test]
    fn no_block_of_the_benchmark_systems_needs_the_inert_metric() {
        use crate::driver::grid_min_widths;
        use overset_balance::fit_np_to_dims_min;
        for (cfg, ranks) in [
            (crate::store_case(0.55, 1), &[1, 18, 256][..]),
            (crate::airfoil_case(1.0, 1), &[1, 6]),
        ] {
            let sizes: Vec<usize> = cfg.grids.iter().map(|g| g.num_points()).collect();
            let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
            let unmoved = vec![RigidTransform::IDENTITY; dims.len()];
            for &p in ranks {
                let np = if p == 1 {
                    vec![1; dims.len()]
                } else {
                    let np = overset_balance::static_balance(&sizes, p).unwrap().np;
                    fit_np_to_dims_min(&sizes, &dims, &np, &grid_min_widths(&cfg.grids)).unwrap()
                };
                let partition = Partition::build(&dims, &np);
                for b in 0..partition.nranks() {
                    let (mut block, _) =
                        build_block(b, &partition, &cfg.grids, &unmoved, &cfg.fc).unwrap();
                    let inert = block.recompute_metrics();
                    assert_eq!(inert, 0, "{} on {p}: block {b}", cfg.name);
                }
            }
        }
    }

    /// Why a non-periodic grid may still be cut one node wide in `i`
    /// (DESIGN.md §6): the census of raising `grid_min_widths`' non-periodic
    /// minimum to 2 along `i`, over eight systems (store ×0.3, ×0.55, ×1.0;
    /// airfoil ×0.5, ×1.0; delta wing ×0.1, ×0.2, ×0.4) at every P from 1 to
    /// 256. A pair *re-partitions* when the repaired counts or the boxes
    /// differ, or only one of the two is feasible. It also counts the pairs
    /// whose partition today holds a one-node-wide piece of a non-periodic
    /// grid on an `i` face with a physical boundary condition (one that
    /// reads the node inside it: far field, wall, symmetry, extrapolation,
    /// axis) — all on the far-field faces of backgrounds, none in a pair
    /// the benchmark runs — and names three pairs that would move.
    #[test]
    fn raising_the_non_periodic_minimum_width_would_re_partition_the_census() {
        use crate::driver::grid_min_widths;
        use overset_balance::{fit_np_to_dims_min, static_balance};
        use overset_grid::curvilinear::Face;
        use overset_grid::gen::{delta_wing, store};
        use overset_grid::{BcKind, GridKind};
        let systems = [
            ("store 0.3", store::store_system(0.3)),
            ("store 0.55", store::store_system(0.55)),
            ("store 1.0", store::store_system(1.0)),
            ("airfoil 0.5", airfoil_system(0.5)),
            ("airfoil 1.0", airfoil_system(1.0)),
            ("delta 0.1", delta_wing::delta_wing_system(0.1)),
            ("delta 0.2", delta_wing::delta_wing_system(0.2)),
            ("delta 0.4", delta_wing::delta_wing_system(0.4)),
        ];
        let (mut pairs, mut moved, mut one_wide) = (0, Vec::new(), Vec::new());
        for (name, grids) in &systems {
            let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
            let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
            let today = grid_min_widths(grids);
            let two: Vec<[usize; 3]> = today.iter().map(|w| [2, w[1], w[2]]).collect();
            let physical = |g: &CurvilinearGrid, face| {
                let kind = g.patch_on(face);
                kind.is_some_and(|k| !matches!(k, BcKind::OversetOuter | BcKind::PeriodicI))
            };
            for p in 1..=256 {
                pairs += 1;
                let Ok(balanced) = static_balance(&sizes, p) else { continue };
                let fit = |widths: &[[usize; 3]]| {
                    let np = fit_np_to_dims_min(&sizes, &dims, &balanced.np, widths).ok()?;
                    let part = Partition::build(&dims, &np);
                    Some((np, part.ranks.iter().map(|r| r.boxx).collect::<Vec<_>>(), part))
                };
                let (now, raised) = (fit(&today), fit(&two));
                let key = |f: &Option<(Vec<usize>, Vec<_>, Partition)>| {
                    f.as_ref().map(|(np, boxes, _)| (np.clone(), boxes.clone()))
                };
                if key(&now) != key(&raised) {
                    moved.push((*name, p));
                }
                let Some((_, _, part)) = now else { continue };
                let thin_on_face: Vec<_> = part
                    .ranks
                    .iter()
                    .filter_map(|r| {
                        let g = &grids[r.grid];
                        let (lo, hi) = (r.boxx.lo.i, r.boxx.hi.i);
                        let face = if lo == 0 { Face::IMin } else { Face::IMax };
                        let on_face = lo == 0 || hi == g.dims().ni;
                        (!g.periodic_i && hi - lo == 1 && on_face && physical(g, face))
                            .then(|| (g.kind, g.patch_on(face)))
                    })
                    .collect();
                // Every such piece lies on the far-field face of a background.
                let far = (GridKind::Background, Some(BcKind::Farfield));
                assert!(thin_on_face.iter().all(|&k| k == far), "{name} on {p}: {thin_on_face:?}");
                if !thin_on_face.is_empty() {
                    one_wide.push((*name, p));
                }
            }
        }
        assert_eq!(pairs, 2048);
        for pair in [("delta 0.4", 64), ("delta 0.1", 256), ("store 0.3", 256)] {
            assert!(moved.contains(&pair), "{pair:?} should re-partition");
        }
        // The benchmark's pairs hold no such piece.
        for pair in [("store 0.55", 18), ("store 0.55", 256), ("airfoil 1.0", 6)] {
            assert!(!one_wide.contains(&pair), "{pair:?} cuts a physical i face one wide");
        }
        let per =
            |list: &[(&str, usize)], name: &str| list.iter().filter(|(n, _)| *n == name).count();
        let census: Vec<(usize, usize)> =
            systems.iter().map(|(n, _)| (per(&moved, n), per(&one_wide, n))).collect();
        // Per system: (re-partitioned pairs, pairs with a one-wide piece on
        // a physical `i` face today).
        let want = [(134, 38), (67, 14), (33, 0), (43, 39), (6, 6), (103, 91), (110, 95), (38, 35)];
        assert_eq!(
            (moved.len(), one_wide.len(), census),
            (534, 318, want.to_vec()),
            "re-partitioned pairs, pairs with a one-wide physical i piece, and both per system"
        );
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
