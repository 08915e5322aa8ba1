//! `comm`: rank spawn, point-to-point and collective costs of the runtime on
//! each of its scheduling paths, through `Universe::builder()...try_run`.

use super::median_secs;
use crate::record::Record;
use crate::spans::Spans;
use overset_comm::{Comm, MachineModel, Universe};
use std::time::Instant;

const P: usize = 256;

/// Run `body` on `ranks` ranks (`workers` = 0: one thread per rank) and
/// return rank 0's result.
fn universe(ranks: usize, workers: usize, body: impl Fn(&mut Comm) -> f64 + Send + Sync) -> f64 {
    let mut b = Universe::builder().ranks(ranks).machine(&MachineModel::ibm_sp2());
    if workers > 0 {
        b = b.max_threads(workers);
    }
    b.try_run(body).expect("probe universe")[0].result
}

/// Seconds per round trip between ranks 0 and 1, timed on rank 0.
fn pingpong(ranks: usize, workers: usize, iters: usize) -> f64 {
    universe(ranks, workers, move |c| {
        let t = Instant::now();
        match c.rank() {
            0 => {
                for i in 0..iters as u64 {
                    c.send(1, 7, i, 8);
                    let _: u64 = c.recv(1, 8);
                }
            }
            1 => {
                for _ in 0..iters {
                    let i: u64 = c.recv(0, 7);
                    c.send(0, 8, i, 8);
                }
            }
            _ => {}
        }
        t.elapsed().as_secs_f64() / iters as f64
    })
}

pub fn probe(spans: &mut Spans, rec: &mut Record) {
    let spawn = median_secs(spans, "comm.spawn.p256", 5, || universe(P, 1, |_| 0.0));
    rec.timed("comm.spawn_us_per_rank", "us", spawn / P as f64 * 1e6);

    // mn1: coroutine switch + mailbox on one worker. mn2: ranks 0 and 1 sit
    // on different workers (rank % 2), so every message is a cross-thread
    // wake-up. threads: the 1:1 default. The last two move no end-to-end
    // metric; they exist so a change to one scheduling path cannot regress
    // the others unseen.
    let (mn1, _) = spans.span("comm.pingpong.mn1", |_| pingpong(2, 1, 20_000));
    let (mn2, _) = spans.span("comm.pingpong.mn2", |_| pingpong(3, 2, 5_000));
    let (threads, _) = spans.span("comm.pingpong.threads", |_| pingpong(2, 0, 5_000));
    rec.timed("comm.pingpong_us.mn1", "us", mn1 * 1e6);
    rec.timed("comm.pingpong_us.mn2", "us", mn2 * 1e6);
    rec.timed("comm.pingpong_us.threads", "us", threads * 1e6);

    const ROUNDS: usize = 50;
    let per_round = |body: fn(&mut Comm)| {
        move |c: &mut Comm| {
            let t = Instant::now();
            for _ in 0..ROUNDS {
                body(c);
            }
            t.elapsed().as_secs_f64() / ROUNDS as f64
        }
    };
    let (allgather, _) = spans.span("comm.allgather.p256", |_| {
        universe(P, 1, per_round(|c| drop(c.allgather(c.rank() as u64, 8))))
    });
    let (barrier, _) =
        spans.span("comm.barrier.p256", |_| universe(P, 1, per_round(Comm::barrier)));
    let (ring, _) = spans.span("comm.ring.p256", |_| {
        universe(
            P,
            1,
            per_round(|c| {
                let (me, n) = (c.rank(), c.size());
                c.send((me + 1) % n, 9, me as u64, 8);
                let _: u64 = c.recv((me + n - 1) % n, 9);
            }),
        )
    });
    rec.timed("comm.allgather_us.p256", "us", allgather * 1e6);
    rec.timed("comm.barrier_us.p256", "us", barrier * 1e6);
    rec.timed("comm.ring_msgs_per_s.p256", "1/s", P as f64 / ring);
}
