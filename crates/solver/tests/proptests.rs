//! Property-based tests of solver invariants.

use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
use overset_grid::field::Field3;
use overset_grid::Dims;
use overset_solver::adi::{implicit_sweeps, Scratch, SerialComm};
use overset_solver::conditions::{conservatives, pressure, primitives, FlowConditions};
use overset_solver::rhs::compute_residual;
use overset_solver::{select_isa, Block, Isa};
use proptest::prelude::*;

fn wavy_block(n: usize, amp: f64, fc: &FlowConditions) -> Block {
    let d = Dims::new(n, n, n);
    let coords = Field3::from_fn(d, |p| {
        let (x, y, z) = (p.i as f64 * 0.3, p.j as f64 * 0.3, p.k as f64 * 0.3);
        [x + amp * (2.0 * y).sin(), y + amp * (1.5 * z).cos() - amp, z + amp * (1.0 * x).sin()]
    });
    let g = CurvilinearGrid::new("w", coords, GridKind::Background);
    Block::from_grid(0, &g, d.full_box(), [None; 6], fc)
}

/// Both ISAs worth testing on this host: the portable scalar lanes and, on
/// AVX2 hardware, the vector path (`select_isa()` degrades to Scalar
/// elsewhere, making the comparison trivially true rather than wrong).
fn isas() -> [Isa; 2] {
    [Isa::Scalar, select_isa()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole-sweep bit-equality on ragged line counts: a 5³/6³/7³ block has
    /// 25/36/49 implicit lines per direction — mostly not divisible by the
    /// lane width — so the tail-group replication path is exercised. The
    /// full ADI update must be bit-identical across ISAs.
    #[test]
    fn batched_sweeps_bit_equal_scalar_on_ragged_lines(
        mach in 0.2f64..1.5,
        dt in 0.01f64..0.4,
        amp in 0.0f64..0.06,
        n in 5usize..8,
        seed in 1u64..(1 << 60),
    ) {
        let mut fc = FlowConditions::new(mach, 0.0, 0.0);
        fc.dt = dt;
        let b = wavy_block(n, amp, &fc);
        let mut s = seed | 1;
        let mut draw = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut ws = Scratch::default();
        let dq0: Vec<f64> = ws.increment(&b).iter().map(|_| draw()).collect();
        let mut results: Vec<Vec<u64>> = Vec::new();
        for isa in isas() {
            ws.isa = isa;
            ws.increment(&b).copy_from_slice(&dq0);
            implicit_sweeps(&b, &fc, &mut SerialComm, &mut ws);
            results.push(ws.increment(&b).iter().map(|x| x.to_bits()).collect());
        }
        prop_assert_eq!(&results[0], &results[1], "sweep bits diverged across ISAs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Freestream preservation: zero residual at uniform flow on arbitrary
    /// smooth curvilinear grids at any Mach and angle.
    #[test]
    fn freestream_preserved_on_wavy_grids(
        mach in 0.1f64..2.0,
        alpha in -20.0f64..20.0,
        amp in 0.0f64..0.08,
    ) {
        let fc = FlowConditions::new(mach, alpha, 0.0);
        let b = wavy_block(7, amp, &fc);
        let (_, l2) = compute_residual(&b, &fc, &mut Scratch::default());
        prop_assert!(l2 < 1e-9, "res {}", l2);
    }

    /// Primitive/conservative conversions round-trip for physical states.
    #[test]
    fn state_conversions_roundtrip(
        rho in 0.01f64..10.0,
        u in -3.0f64..3.0,
        v in -3.0f64..3.0,
        w in -3.0f64..3.0,
        p in 0.01f64..10.0,
    ) {
        let q = conservatives(&[rho, u, v, w, p]);
        let back = primitives(&q);
        prop_assert!((back[0] - rho).abs() < 1e-10);
        prop_assert!((back[4] - p).abs() < 1e-9);
        prop_assert!((pressure(&q) - p).abs() < 1e-9);
    }

    /// The implicit operator is a contraction on impulses: the update stays
    /// finite and no component exceeds the impulse magnitude.
    #[test]
    fn implicit_sweep_is_stable_contraction(
        mach in 0.1f64..1.6,
        dt in 0.01f64..0.5,
        ci in 2usize..5, cj in 2usize..5, ck in 2usize..5,
    ) {
        let mut fc = FlowConditions::new(mach, 0.0, 0.0);
        fc.dt = dt;
        let b = wavy_block(7, 0.03, &fc);
        // The impulse at owned node (ci, cj, ck) of the whole-grid block.
        let mut ws = Scratch::default();
        let (n3, at) = (b.owned_count(), ci + 7 * (cj + 7 * ck));
        let dq = ws.increment(&b);
        for (v, x) in [1.0, 0.5, -0.2, 0.1, 2.0].into_iter().enumerate() {
            dq[v * n3 + at] = x;
        }
        implicit_sweeps(&b, &fc, &mut SerialComm, &mut ws);
        let dq = ws.increment(&b);
        prop_assert!((0..5).all(|v| dq[v * n3 + at].is_finite()));
        let mx = dq.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        prop_assert!(mx <= 2.0 + 1e-9, "new extremum {mx}");
    }
}
