//! The message-passing implementation of the solver's communication hooks:
//! halo exchange (interface faces and periodic wraps) and pipelined
//! line-solve carries, over the virtual-time rank runtime.

use overset_comm::{Comm, VecPool, WorkClass};
use overset_grid::field::NVAR;
use overset_grid::index::{Ijk, IndexBox};
use overset_solver::adi::implicit_neighbor;
use overset_solver::{Block, SolverComm, HALO};

const TAG_HALO: u64 = 100; // + sender's face (0..6)
const TAG_WRAP: u64 = 110; // + sender's wrap face (0..2)
const TAG_LINE: u64 = 200; // + dir*2 + (0 = forward, 1 = backward)

/// Solver communication over the rank runtime. The halo pool recycles
/// received exchange buffers into the next pack and the line pool does the
/// same for the pipelined line-solve carries; each send takes a buffer of
/// its message's length (`VecPool::take`). Sends and receives are symmetric
/// across a face link, so the halo pool stays balanced; a line chain's end
/// ranks are not (the cyclic sweep's first rank sends two passes and gets
/// one back), and the driver's `end_step` lets their surplus go. The two
/// are kept apart because their sizes differ.
pub struct MpSolverComm<'a> {
    pub comm: &'a mut Comm,
    pub halo_pool: &'a mut VecPool<f64>,
    pub line_pool: &'a mut VecPool<f64>,
}

/// Is this face of the block a periodic wrap link (as opposed to an
/// interior subdomain interface)?
fn is_wrap_face(block: &Block, face: usize) -> bool {
    if face >= 2 || block.neighbor[face].is_none() {
        return false;
    }
    if face == 0 {
        block.owned.lo.i == 0
    } else {
        block.owned.hi.i == block.grid_dims.ni
    }
}

/// Local box of the data a wrap partner needs from this rank.
fn wrap_pack_box(block: &Block, face: usize) -> IndexBox {
    let ow = block.owned_local();
    let mut lo = ow.lo;
    let mut hi = ow.hi;
    if face == 0 {
        // I own global i = 0..: partner (at the i-max end) needs global
        // {0, 1, 2}: its seam node (ni-1 duplicates 0) plus two ghosts.
        let base = block.to_local(Ijk::new(0, block.owned.lo.j, block.owned.lo.k)).i;
        lo.set(0, base);
        hi.set(0, base + HALO + 1);
    } else {
        // I own global i up to ni-1: partner needs global {ni-3, ni-2}
        // (its ghosts below i = 0; ni-1 is the duplicate of 0).
        let ni = block.grid_dims.ni;
        let base = block.to_local(Ijk::new(ni - 1 - HALO, block.owned.lo.j, block.owned.lo.k)).i;
        lo.set(0, base);
        hi.set(0, base + HALO);
    }
    IndexBox::new(lo, hi)
}

/// Local box this rank's wrap ghosts occupy (receive side of `face`).
fn wrap_unpack_box(block: &Block, face: usize) -> IndexBox {
    let ow = block.owned_local();
    let mut lo = ow.lo;
    let mut hi = ow.hi;
    if face == 0 {
        // Ghosts below owned i: global {-2, -1} ≡ {ni-3, ni-2}.
        lo.set(0, ow.lo.i - HALO);
        hi.set(0, ow.lo.i);
    } else {
        // Seam node (global ni-1, owned) plus ghosts beyond: ≡ {0, 1, 2}.
        lo.set(0, ow.hi.i - 1);
        hi.set(0, ow.hi.i - 1 + HALO + 1);
    }
    IndexBox::new(lo, hi)
}

impl SolverComm for MpSolverComm<'_> {
    fn exchange_halo(&mut self, block: &mut Block) {
        let t0 = self.comm.now();
        if block.self_wrap_i {
            block.fill_self_wrap();
        }
        // Send everything first (asynchronous sends), then receive.
        for face in 0..6 {
            let Some(nb) = block.neighbor[face] else { continue };
            let (tag, pack) = if is_wrap_face(block, face) {
                (TAG_WRAP, wrap_pack_box(block, face))
            } else {
                (TAG_HALO, block.layer_box(face, HALO, false))
            };
            let mut data = self.halo_pool.take(pack.count() * NVAR);
            block.pack_box_into(pack, &mut data);
            let bytes = data.len() * 8;
            self.comm.send(nb, tag + face as u64, data, bytes);
        }
        for face in 0..6 {
            let Some(nb) = block.neighbor[face] else { continue };
            if is_wrap_face(block, face) {
                // My wrap partner sent with *its* wrap face tag (the
                // opposite i face).
                let their_face = face ^ 1;
                let data: Vec<f64> = self.comm.recv(nb, TAG_WRAP + their_face as u64);
                block.unpack_box(wrap_unpack_box(block, face), &data);
                self.halo_pool.put(data);
            } else {
                let their_face = face ^ 1;
                let data: Vec<f64> = self.comm.recv(nb, TAG_HALO + their_face as u64);
                block.unpack_face(face, HALO, &data);
                self.halo_pool.put(data);
            }
        }
        self.comm.trace_complete("solver", "exchange_halo", t0, &[]);
    }

    fn send_line(&mut self, block: &Block, dir: usize, downstream: bool, data: Vec<f64>) {
        let target =
            implicit_neighbor(block, dir, downstream).expect("send_line with no implicit neighbor");
        // Forward carries travel downstream; backward solutions upstream.
        let tag = TAG_LINE + 2 * dir as u64 + u64::from(!downstream);
        let bytes = data.len() * 8;
        self.comm.send(target, tag, data, bytes);
    }

    fn recv_line(
        &mut self,
        block: &Block,
        dir: usize,
        from_upstream: bool,
        len: usize,
    ) -> Vec<f64> {
        let source = implicit_neighbor(block, dir, !from_upstream)
            .expect("recv_line with no implicit neighbor");
        let tag = TAG_LINE + 2 * dir as u64 + u64::from(!from_upstream);
        let data: Vec<f64> = self.comm.recv(source, tag);
        assert_eq!(
            data.len(),
            len,
            "line carry length mismatch: rank {} grid {} owned {:?} dir {dir} from_upstream {from_upstream} src {source}",
            self.comm.rank(),
            block.grid_id,
            block.owned
        );
        data
    }

    fn take_buf(&mut self, len: usize) -> Vec<f64> {
        self.line_pool.take(len)
    }

    fn recycle_buf(&mut self, buf: Vec<f64>) {
        self.line_pool.put(buf);
    }

    fn compute(&mut self, flops: u64) {
        self.comm.compute(flops, WorkClass::Flow);
    }

    fn now(&self) -> f64 {
        self.comm.now()
    }

    fn trace_span(&mut self, cat: &'static str, name: &'static str, start: f64) {
        self.comm.trace_complete(cat, name, start, &[]);
    }
}
