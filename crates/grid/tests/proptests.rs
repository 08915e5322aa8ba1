//! Property-based tests of the grid substrate: index spaces, rigid
//! transforms, metrics and the prime-factor lattice decomposition.

use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
use overset_grid::decomp::lattice_split;
use overset_grid::field::Field3;
use overset_grid::metrics::{
    compute_metrics, metric_at, metrics_into, metrics_of, total_volume, Metric, MetricField,
    METRIC_COMPONENTS,
};
use overset_grid::transform::{Quat, RigidTransform};
use overset_grid::{Aabb, Dims};
use proptest::prelude::*;

proptest! {
    /// Linear offsets round-trip for arbitrary dims.
    #[test]
    fn offsets_roundtrip(ni in 1usize..20, nj in 1usize..20, nk in 1usize..8) {
        let d = Dims::new(ni, nj, nk);
        for p in d.iter() {
            prop_assert_eq!(d.unoffset(d.offset(p)), p);
        }
    }

    /// The lattice split covers the grid exactly with np disjoint boxes and
    /// preserves face alignment between neighbors.
    #[test]
    fn lattice_split_exact_cover(
        ni in 4usize..48, nj in 4usize..48, nk in 1usize..12,
        np in 1usize..24,
    ) {
        let dims = Dims::new(ni, nj, nk);
        prop_assume!(np <= dims.count());
        // Factors must fit in the dims; skip combos the splitter rejects.
        let result = std::panic::catch_unwind(|| lattice_split(dims, np));
        prop_assume!(result.is_ok());
        let dec = result.unwrap();
        prop_assert_eq!(dec.subs.len(), np);
        let total: usize = dec.subs.iter().map(|s| s.boxx.count()).sum();
        prop_assert_eq!(total, dims.count());
        prop_assert_eq!(dec.pgrid[0] * dec.pgrid[1] * dec.pgrid[2], np);
        for s in &dec.subs {
            prop_assert_eq!(dec.ordinal(dec.coord(s.ordinal)), s.ordinal);
        }
    }

    /// Rigid transforms preserve pairwise distances and compose correctly.
    #[test]
    fn rigid_transform_isometry(
        axis in prop::array::uniform3(-1.0f64..1.0),
        angle in -3.0f64..3.0,
        pivot in prop::array::uniform3(-5.0f64..5.0),
        tr in prop::array::uniform3(-5.0f64..5.0),
        a in prop::array::uniform3(-10.0f64..10.0),
        b in prop::array::uniform3(-10.0f64..10.0),
    ) {
        prop_assume!(axis.iter().map(|x| x * x).sum::<f64>() > 1e-6);
        let t = RigidTransform {
            rotation: Quat::from_axis_angle(axis, angle),
            pivot,
            translation: tr,
        };
        let (ta, tb) = (t.apply(a), t.apply(b));
        let d0: f64 = (0..3).map(|i| (a[i] - b[i]).powi(2)).sum::<f64>().sqrt();
        let d1: f64 = (0..3).map(|i| (ta[i] - tb[i]).powi(2)).sum::<f64>().sqrt();
        prop_assert!((d0 - d1).abs() < 1e-9 * (1.0 + d0));
        // inverse(t) ∘ t = id
        let back = t.inverse().apply(ta);
        for i in 0..3 {
            prop_assert!((back[i] - a[i]).abs() < 1e-9);
        }
        // then() composition agrees with sequential application.
        let t2 = RigidTransform::rotation_about(b, [0.0, 0.0, 1.0], 0.5);
        let comp = t.then(&t2);
        let seq = t2.apply(t.apply(a));
        let one = comp.apply(a);
        for i in 0..3 {
            prop_assert!((seq[i] - one[i]).abs() < 1e-9);
        }
    }

    /// Metric volumes are invariant under rigid motion (grids never stretch).
    #[test]
    fn metric_volume_rigid_invariant(
        angle in -1.5f64..1.5,
        tr in prop::array::uniform3(-3.0f64..3.0),
        n in 4usize..8,
    ) {
        let d = Dims::new(n, n, n);
        let h = 0.3;
        let coords = Field3::from_fn(d, |p| {
            [
                h * p.i as f64 + 0.02 * (p.j as f64).sin(),
                h * p.j as f64,
                h * p.k as f64 + 0.01 * (p.i as f64).cos(),
            ]
        });
        let g0 = CurvilinearGrid::new("t", coords, GridKind::Background);
        let mut g1 = g0.clone();
        g1.apply_transform(&RigidTransform {
            rotation: Quat::from_axis_angle([0.3, 1.0, -0.5], angle),
            pivot: [1.0, 0.0, 0.0],
            translation: tr,
        });
        let v0 = total_volume(&compute_metrics(&g0));
        let v1 = total_volume(&compute_metrics(&g1));
        prop_assert!((v0 - v1).abs() < 1e-8 * v0.abs().max(1.0));
    }

    /// AABB union/intersection algebra.
    #[test]
    fn aabb_algebra(
        amin in prop::array::uniform3(-5.0f64..0.0),
        asize in prop::array::uniform3(0.1f64..5.0),
        bmin in prop::array::uniform3(-5.0f64..0.0),
        bsize in prop::array::uniform3(0.1f64..5.0),
        p in prop::array::uniform3(-6.0f64..6.0),
    ) {
        let a = Aabb::new(amin, [amin[0] + asize[0], amin[1] + asize[1], amin[2] + asize[2]]);
        let b = Aabb::new(bmin, [bmin[0] + bsize[0], bmin[1] + bsize[1], bmin[2] + bsize[2]]);
        let u = a.union(&b);
        // Union contains both boxes' sample corners.
        prop_assert!(u.contains(a.min) && u.contains(a.max));
        prop_assert!(u.contains(b.min) && u.contains(b.max));
        // Containment implies intersection.
        if a.contains(p) && b.contains(p) {
            prop_assert!(a.intersects(&b));
        }
        // Inflation is monotone.
        prop_assert!(a.inflate(0.5).contains(a.min));
    }
}

/// A random curvilinear field of `d` from `seed`: a sheared, stretched box
/// whose every node is jittered by up to a fifth of a cell — or, with
/// `wrap`, the halo-wrapped coordinates of a self-wrapping O-grid block: an
/// annulus of period `d.ni - 5` (its grid's node `ni - 1` duplicates node 0)
/// whose `i` runs two nodes past the seam on either side, every wrapped
/// node a bit-exact copy of the node it mirrors.
fn random_field(d: Dims, seed: u64, wrap: bool) -> Field3<[f64; 3]> {
    let jitter = |n: [usize; 3], c: u64| {
        let mut h =
            seed ^ ((n[0] as u64) << 40) ^ ((n[1] as u64) << 20) ^ (n[2] as u64) ^ (c << 58);
        h = (h ^ (h >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        0.2 * ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
    };
    Field3::from_fn(d, |p| {
        let (j, k) = (p.j as f64, p.k as f64);
        if wrap {
            let period = d.ni - 5;
            let i = (p.i as isize - 2).rem_euclid(period as isize) as usize;
            let th = -2.0 * std::f64::consts::PI * i as f64 / period as f64;
            let n = [i, p.j, p.k];
            let r = 1.0 + 0.3 * (j + jitter(n, 0));
            [r * th.cos(), r * th.sin(), 0.2 * (k + jitter(n, 1))]
        } else {
            let n = [p.i, p.j, p.k];
            let (i, j, k) = (p.i as f64 + jitter(n, 0), j + jitter(n, 1), k + jitter(n, 2));
            [0.2 * i + 0.05 * j, 0.1 * j * (1.0 + 0.1 * j) + 0.03 * k, 0.3 * k + 0.02 * i]
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `metrics_into` (row-hoisted, field-major) equals `metric_at` (per
    /// node, through the grid's index closure) on every node to the bit —
    /// term `c` of the node at storage offset `s` at `c * count + s` of the
    /// field's one array, and read back through `MetricField::metric` — and
    /// `metrics_of` equals `metrics_into`, a node without a finite Jacobian
    /// stored as computed on both sides and counted: random 3-D
    /// and 2-D (`nk = 1`) fields with 1–4 nodes along an axis as often as
    /// more, and the halo-wrapped coordinates of a self-wrapping O-grid
    /// block.
    #[test]
    fn row_metrics_bit_equal_per_node_metrics(
        seed in 1u64..(1 << 60),
        n in prop::array::uniform3(0usize..12),
        shape in 0usize..3,
    ) {
        let axis = |x: usize| if x < 6 { 1 + x % 4 } else { x - 1 };
        let d = match shape {
            0 => Dims::new(axis(n[0]), axis(n[1]), axis(n[2])),
            1 => Dims::new(axis(n[0]), axis(n[1]), 1),
            _ => Dims::new(8 + n[0], 2 + n[1] % 6, 1 + n[2] % 5),
        };
        let coords = random_field(d, seed, shape == 2);
        let mut got = MetricField::new(d, [f64::NAN; METRIC_COMPONENTS]);
        let singular = metrics_into(&coords, &mut got);
        // The one-write construction is the same rows into a new field.
        let (fresh, fresh_singular) = metrics_of(&coords);
        let field_bits = |f: &MetricField| -> Vec<u64> {
            f.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        prop_assert!(field_bits(&fresh) == field_bits(&got) && fresh_singular == singular);
        prop_assert_eq!(got.as_slice().len(), METRIC_COMPONENTS * d.count());
        let grid = CurvilinearGrid::new("random", coords, GridKind::NearBody);
        let mut want_singular = 0;
        for p in d.iter() {
            let want = metric_at(&grid, p);
            want_singular += usize::from(!want.jac.is_finite());
            let bits = |m: &Metric| {
                let v = [m.xi, m.eta, m.zeta, [m.jac; 3]];
                v.map(|t| t.map(f64::to_bits))
            };
            prop_assert_eq!(bits(&got.metric(p)), bits(&want), "{:?} of {:?}", p, d);
            let s = d.offset(p);
            for (c, x) in want.components().into_iter().enumerate() {
                let term = got.as_slice()[c * d.count() + s];
                prop_assert_eq!(term.to_bits(), x.to_bits(), "term {} of {:?}", c, p);
            }
        }
        prop_assert_eq!(singular, want_singular);
    }
}
