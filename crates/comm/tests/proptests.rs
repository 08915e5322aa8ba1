//! Property-based tests of the virtual-time runtime: determinism, clock
//! monotonicity and collective semantics under arbitrary communication
//! patterns.

use overset_comm::{MachineModel, Universe, WorkClass};
use proptest::prelude::*;

fn machine() -> MachineModel {
    MachineModel::ibm_sp2()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A ring exchange with arbitrary per-rank work is deterministic and
    /// every clock is monotone (≥ its own compute time).
    #[test]
    fn ring_exchange_deterministic(
        nranks in 2usize..8,
        work in prop::collection::vec(0u64..2_000_000, 2..8),
        bytes in 1usize..100_000,
    ) {
        let work = std::sync::Arc::new(work);
        let run = || {
            let w = std::sync::Arc::clone(&work);
            Universe::builder().ranks(nranks).machine(&machine()).run(move |c| {
                let me = c.rank();
                c.compute(w[me % w.len()], WorkClass::Flow);
                let next = (me + 1) % c.size();
                let prev = (me + c.size() - 1) % c.size();
                c.send(next, 1, me as u64, bytes);
                let got: u64 = c.recv(prev, 1);
                c.barrier();
                (got, c.now())
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.result.0, y.result.0);
            prop_assert_eq!(x.result.1.to_bits(), y.result.1.to_bits());
        }
        // Ring values correct.
        for (r, o) in a.iter().enumerate() {
            let prev = (r + nranks - 1) % nranks;
            prop_assert_eq!(o.result.0, prev as u64);
        }
        // Post-barrier clocks identical and at least the max compute time.
        let t = a[0].result.1;
        let max_work = (0..nranks)
            .map(|r| machine().compute_time(work[r % work.len()] as f64, WorkClass::Flow, 0.0))
            .fold(0.0f64, f64::max);
        prop_assert!(t >= max_work);
        for o in &a {
            prop_assert_eq!(o.result.1.to_bits(), t.to_bits());
        }
    }

    /// Allgather returns rank-ordered contributions for any rank count, and
    /// repeated rounds never mix generations.
    #[test]
    fn allgather_semantics(
        nranks in 1usize..10,
        rounds in 1usize..12,
    ) {
        let out = Universe::builder().ranks(nranks).machine(&machine()).run(move |c| {
            (0..rounds)
                .map(|round| c.allgather(c.rank() * 1000 + round, 8).to_vec())
                .collect::<Vec<_>>()
        });
        for o in &out {
            for (round, v) in o.result.iter().enumerate() {
                prop_assert_eq!(v.len(), nranks);
                for (r, &x) in v.iter().enumerate() {
                    prop_assert_eq!(x, r * 1000 + round);
                }
            }
        }
    }

    /// Virtual time respects the machine: more flops or more bytes never
    /// make a run finish earlier.
    #[test]
    fn virtual_time_monotone_in_work(
        flops in 1_000_000u64..100_000_000,
        extra in 100_000u64..100_000_000,
        bytes in 1usize..1_000_000,
    ) {
        let t = |f: u64, by: usize| {
            let out = Universe::builder().ranks(2).machine(&machine()).run(move |c| {
                if c.rank() == 0 {
                    c.compute(f, WorkClass::Flow);
                    c.send(1, 0, (), by);
                } else {
                    c.recv::<()>(0, 0);
                }
                c.barrier();
                c.now()
            });
            out[0].result
        };
        prop_assert!(t(flops + extra, bytes) > t(flops, bytes));
        prop_assert!(t(flops, bytes * 2) > t(flops, bytes));
    }

    /// Messages between many pairs with shuffled receive order (by tag)
    /// always deliver the right payloads.
    #[test]
    fn tagged_delivery_with_reordering(
        nmsg in 1usize..20,
    ) {
        let out = Universe::builder().ranks(2).machine(&machine()).run(move |c| {
            if c.rank() == 0 {
                for t in 0..nmsg as u64 {
                    c.send(1, t, t * 7, 64);
                }
                Vec::new()
            } else {
                // Receive in reverse tag order.
                (0..nmsg as u64).rev().map(|t| (t, c.recv::<u64>(0, t))).collect()
            }
        });
        for (t, v) in &out[1].result {
            prop_assert_eq!(*v, t * 7);
        }
        prop_assert_eq!(out[1].result.len(), nmsg);
    }
}
