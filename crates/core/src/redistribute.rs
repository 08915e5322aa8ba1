//! State redistribution after a dynamic repartition (Algorithm 2): when the
//! per-grid processor counts change, every node's state must move from its
//! old owner to its new owner. Both partitions are globally known, so each
//! rank computes exactly which box intersections to send and receive — no
//! negotiation traffic.

use overset_balance::Partition;
use overset_comm::Comm;
use overset_grid::field::NVAR;
use overset_grid::index::IndexBox;
use overset_solver::Block;

const TAG_REDIST: u64 = 300;

/// Move state from `old_block` (this rank's block under `old`) into
/// `new_block` (this rank's freshly built block under `new`). Returns the
/// number of nodes this rank sent over the network.
pub fn redistribute_state(
    old_block: &Block,
    new_block: &mut Block,
    old: &Partition,
    new: &Partition,
    comm: &mut Comm,
) -> usize {
    let me = comm.rank();
    let nranks = comm.size();
    assert_eq!(old.nranks(), nranks);
    assert_eq!(new.nranks(), nranks);

    let my_old = old.ranks[me];
    let my_new = new.ranks[me];

    // Local fast path: overlap between my old and my new box (same grid).
    if my_old.grid == my_new.grid {
        if let Some(overlap) = my_old.boxx.intersect(&my_new.boxx) {
            let data = old_block.pack_box(global_to_local(old_block, overlap));
            new_block.unpack_box(global_to_local(new_block, overlap), &data);
        }
    }

    // Sends: parts of my old box owned by other ranks in the new partition.
    let mut sent_nodes = 0usize;
    for dst in 0..nranks {
        if dst == me {
            continue;
        }
        let their_new = new.ranks[dst];
        if their_new.grid != my_old.grid {
            continue;
        }
        if let Some(overlap) = my_old.boxx.intersect(&their_new.boxx) {
            let data = old_block.pack_box(global_to_local(old_block, overlap));
            let bytes = data.len() * 8;
            sent_nodes += overlap.count();
            comm.send(dst, TAG_REDIST, data, bytes);
        }
    }

    // Receives: parts of my new box owned by other ranks in the old
    // partition, in rank order (deterministic).
    for src in 0..nranks {
        if src == me {
            continue;
        }
        let their_old = old.ranks[src];
        if their_old.grid != my_new.grid {
            continue;
        }
        if let Some(overlap) = their_old.boxx.intersect(&my_new.boxx) {
            let data: Vec<f64> = comm.recv(src, TAG_REDIST);
            assert_eq!(data.len(), overlap.count() * NVAR);
            new_block.unpack_box(global_to_local(new_block, overlap), &data);
        }
    }
    sent_nodes
}

/// Convert a global-index box to the block's local indices.
fn global_to_local(block: &Block, b: IndexBox) -> IndexBox {
    IndexBox::new(block.to_local(b.lo), block.to_local(b.hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_comm::{MachineModel, Universe};
    use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
    use overset_grid::field::Field3;
    use overset_grid::transform::RigidTransform;
    use overset_grid::Dims;
    use overset_solver::FlowConditions;

    /// Two grids over 5 ranks, repartitioned from [2, 3] to [3, 2]: every
    /// node's state must survive the move.
    #[test]
    fn repartition_preserves_every_node_state() {
        let d0 = Dims::new(24, 18, 1);
        let d1 = Dims::new(20, 20, 1);
        let mk_grid = |d: Dims, name: &str, off: f64| {
            let coords = Field3::from_fn(d, |p| [off + 0.1 * p.i as f64, 0.1 * p.j as f64, 0.0]);
            CurvilinearGrid::new(name, coords, GridKind::Background)
        };
        let grids = vec![mk_grid(d0, "a", 0.0), mk_grid(d1, "b", 50.0)];
        let dims = [d0, d1];
        let old = Partition::build(&dims, &[2, 3]);
        let new = Partition::build(&dims, &[3, 2]);
        let fc = FlowConditions::new(0.8, 0.0, 0.0);

        let out = Universe::builder().ranks(5).machine(&MachineModel::modern()).run(|comm| {
            let cum = vec![RigidTransform::IDENTITY; 2];
            let (mut ob, _) =
                crate::setup::build_block(comm.rank(), &old, &grids, &cum, &fc).unwrap();
            // Tag every owned node with a unique value derived from its
            // global index and grid.
            for p in ob.owned_local().iter() {
                let g = ob.to_global(p);
                let tag = (ob.grid_id * 1_000_000 + g.i * 1000 + g.j) as f64;
                ob.q.set_node(p, [tag, tag + 0.1, tag + 0.2, tag + 0.3, tag + 0.4]);
            }
            let (mut nb, _) =
                crate::setup::build_block(comm.rank(), &new, &grids, &cum, &fc).unwrap();
            let sent = redistribute_state(&ob, &mut nb, &old, &new, comm);
            // Verify every owned node of the new block.
            let mut errors = 0usize;
            for p in nb.owned_local().iter() {
                let g = nb.to_global(p);
                let tag = (nb.grid_id * 1_000_000 + g.i * 1000 + g.j) as f64;
                if (nb.q.node(p)[0] - tag).abs() > 1e-12 {
                    errors += 1;
                }
            }
            (errors, sent)
        });
        for o in &out {
            assert_eq!(o.result.0, 0, "corrupted nodes after redistribution");
        }
        let total_sent: usize = out.iter().map(|o| o.result.1).sum();
        assert!(total_sent > 0, "no network traffic despite repartition");
    }
}
