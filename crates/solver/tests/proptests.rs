//! Property-based tests of solver invariants.

use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
use overset_grid::field::{Field3, StateField};
use overset_grid::{Dims, Ijk};
use overset_solver::adi::{implicit_sweeps, SerialComm, SweepScratch};
use overset_solver::conditions::{
    conservatives, enforce_positivity, pressure, primitives, FlowConditions,
};
use overset_solver::kernels::{
    backward_segment_lanes, forward_segment_lanes, solve_lanes, solve_periodic_lanes,
};
use overset_solver::rhs::{compute_residual, residual_l2};
use overset_solver::tridiag::{self, ForwardCarry};
use overset_solver::{select_isa, Block, Isa, W};
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

/// Deterministic diagonally-dominant random systems, lane-interleaved
/// (`len == n * W`).
fn lane_systems(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let (mut a, mut b, mut c, mut d) =
        (vec![0.0; n * W], vec![0.0; n * W], vec![0.0; n * W], vec![0.0; n * W]);
    for i in 0..n * W {
        a[i] = -(0.2 + 0.3 * next().abs());
        c[i] = -(0.2 + 0.3 * next().abs());
        b[i] = 1.5 + a[i].abs() + c[i].abs() + next().abs();
        d[i] = 4.0 * next();
    }
    (a, b, c, d)
}

/// Deinterleave one lane from a lane-major array.
fn lane_of(src: &[f64], l: usize) -> Vec<f64> {
    src.chunks(W).map(|r| r[l]).collect()
}

/// Both ISAs worth testing on this host: the portable scalar lanes and, on
/// AVX2 hardware, the vector path (`select_isa()` degrades to Scalar
/// elsewhere, making the comparison trivially true rather than wrong).
fn isas() -> [Isa; 2] {
    [Isa::Scalar, select_isa()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lane-batched open Thomas solve is bit-identical, lane by lane,
    /// to the scalar solver on every ISA.
    #[test]
    fn batched_thomas_bit_equals_scalar(n in 2usize..48, seed in 1u64..(1 << 60)) {
        let (a, b, c, d0) = lane_systems(n, seed);
        for isa in isas() {
            let mut d = d0.clone();
            let mut cp = vec![0.0; n * W];
            solve_lanes(isa, &a, &b, &c, &mut d, &mut cp);
            for l in 0..W {
                let mut ds = lane_of(&d0, l);
                tridiag::solve(&lane_of(&a, l), &lane_of(&b, l), &lane_of(&c, l), &mut ds);
                for i in 0..n {
                    prop_assert_eq!(
                        d[i * W + l].to_bits(), ds[i].to_bits(),
                        "row {} lane {} ({:?})", i, l, isa
                    );
                }
            }
        }
    }

    /// The lane-batched periodic (Sherman–Morrison) solve is bit-identical
    /// to the scalar one.
    #[test]
    fn batched_periodic_thomas_bit_equals_scalar(n in 3usize..48, seed in 1u64..(1 << 60)) {
        let (a, b, c, d0) = lane_systems(n, seed);
        for isa in isas() {
            let mut d = d0.clone();
            let (mut bb, mut z, mut cp) =
                (vec![0.0; n * W], vec![0.0; n * W], vec![0.0; n * W]);
            solve_periodic_lanes(isa, &a, &b, &c, &mut d, &mut bb, &mut z, &mut cp);
            for l in 0..W {
                let mut ds = lane_of(&d0, l);
                tridiag::solve_periodic(&lane_of(&a, l), &lane_of(&b, l), &lane_of(&c, l), &mut ds);
                for i in 0..n {
                    prop_assert_eq!(
                        d[i * W + l].to_bits(), ds[i].to_bits(),
                        "row {} lane {} ({:?})", i, l, isa
                    );
                }
            }
        }
    }

    /// The pipelined segment kernels — forward elimination with a carry,
    /// back substitution with a downstream unknown — are bit-identical to
    /// the scalar segment functions across an arbitrary 3-way split of the
    /// line.
    #[test]
    fn batched_pipelined_segments_bit_equal_scalar(
        n1 in 1usize..12, n2 in 1usize..12, n3 in 1usize..12,
        seed in 1u64..(1 << 60),
    ) {
        let ns = [n1, n2, n3];
        let n: usize = ns.iter().sum();
        let (a, b, c, d0) = lane_systems(n, seed);
        for isa in isas() {
            // Lane-batched pipeline over the three segments.
            let mut d = d0.clone();
            let mut cp = vec![0.0; n * W];
            let mut carry: Option<([f64; W], [f64; W])> = None;
            let mut row = 0;
            for &len in &ns {
                let (lo, hi) = (row * W, (row + len) * W);
                let c_in = carry.as_ref().map(|(cc, dd)| (cc, dd));
                carry = Some(forward_segment_lanes(
                    isa, &a[lo..hi], &b[lo..hi], &c[lo..hi], &mut d[lo..hi],
                    &mut cp[lo..hi], c_in,
                ));
                row += len;
            }
            let mut x_down: Option<[f64; W]> = None;
            for &len in ns.iter().rev() {
                row -= len;
                let (lo, hi) = (row * W, (row + len) * W);
                x_down = Some(backward_segment_lanes(
                    isa, &cp[lo..hi], &mut d[lo..hi], x_down.as_ref(),
                ));
            }
            // Scalar pipeline per lane.
            for l in 0..W {
                let (al, bl, cl) = (lane_of(&a, l), lane_of(&b, l), lane_of(&c, l));
                let mut ds = lane_of(&d0, l);
                let mut cps = vec![0.0; n];
                let mut sc: Option<ForwardCarry> = None;
                let mut row = 0;
                for &len in &ns {
                    let (lo, hi) = (row, row + len);
                    sc = Some(tridiag::forward_segment(
                        &al[lo..hi], &bl[lo..hi], &cl[lo..hi], &mut ds[lo..hi],
                        &mut cps[lo..hi], sc,
                    ));
                    row += len;
                }
                let mut xd: Option<f64> = None;
                for &len in ns.iter().rev() {
                    row -= len;
                    let (lo, hi) = (row, row + len);
                    xd = Some(tridiag::backward_segment(&cps[lo..hi], &mut ds[lo..hi], xd));
                }
                for i in 0..n {
                    prop_assert_eq!(
                        d[i * W + l].to_bits(), ds[i].to_bits(),
                        "row {} lane {} ({:?})", i, l, isa
                    );
                }
            }
        }
    }

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
        let mut dq0 = StateField::new(b.local_dims);
        for k in 0..b.local_dims.nk {
            for j in 0..b.local_dims.nj {
                for i in 0..b.local_dims.ni {
                    let v = [draw(), draw(), draw(), draw(), draw()];
                    dq0.set_node(Ijk::new(i, j, k), v);
                }
            }
        }
        let mut results: Vec<Vec<u64>> = Vec::new();
        for isa in isas() {
            let mut dq = dq0.clone();
            let mut ws = SweepScratch::default();
            ws.isa = isa;
            implicit_sweeps(&b, &fc, &mut dq, &mut SerialComm, &mut ws);
            results.push(dq.as_slice().iter().map(|x| x.to_bits()).collect());
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
        let mut res = StateField::new(b.local_dims);
        compute_residual(&b, &fc, &mut res, &mut SweepScratch::default());
        prop_assert!(residual_l2(&b, &res) < 1e-9, "res {}", residual_l2(&b, &res));
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

    /// Positivity enforcement: output always has positive density and
    /// pressure, and physical states pass through untouched.
    #[test]
    fn positivity_floor_properties(
        rho in -1.0f64..5.0,
        u in -10.0f64..10.0,
        e in -5.0f64..20.0,
    ) {
        let mut q = [rho, rho * u, 0.0, 0.0, e];
        enforce_positivity(&mut q);
        prop_assert!(q[0] > 0.0);
        prop_assert!(pressure(&q) > 0.0);
        prop_assert!(q.iter().all(|x| x.is_finite()));
        // Healthy states are untouched.
        let mut healthy = conservatives(&[1.0, 0.5, 0.1, 0.0, 0.7]);
        let orig = healthy;
        let clamped = enforce_positivity(&mut healthy);
        prop_assert!(!clamped);
        prop_assert_eq!(healthy, orig);
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
        let mut dq = StateField::new(b.local_dims);
        let c = b.to_local(overset_grid::Ijk::new(ci, cj, ck));
        dq.set_node(c, [1.0, 0.5, -0.2, 0.1, 2.0]);
        implicit_sweeps(&b, &fc, &mut dq, &mut SerialComm, &mut SweepScratch::default());
        let out = dq.node(c);
        prop_assert!(out.iter().all(|x| x.is_finite()));
        let mx = dq.as_slice().iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        prop_assert!(mx <= 2.0 + 1e-9, "new extremum {mx}");
    }
}
