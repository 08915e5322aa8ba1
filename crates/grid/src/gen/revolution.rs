//! Building-block generators for the 3-D cases: shells around bodies of
//! revolution, shells around ellipsoids, and Cartesian box grids.
//!
//! All near-body shells use `i` = azimuth (periodic with a duplicated seam
//! node), `j` = radial layers (wall at `j = 0`), and `k` = axial or polar
//! stations. Polar shells exclude a small cone around each pole (degenerate
//! axis handling adds nothing to the parallel cost structure the paper
//! measures; the excluded edges use extrapolation closures).

use crate::bbox::Aabb;
use crate::curvilinear::{BcKind, BoundaryPatch, CurvilinearGrid, Face, GridKind, Solid};
use crate::field::Field3;
use crate::gen::{stretched, stretched_first_cell};
use crate::index::{Dims, Ijk};
use std::f64::consts::PI;

/// Shell grid around a body of revolution along the x-axis.
///
/// * `x0..x1` — axial extent,
/// * `profile(s)` — body radius at normalized axial position `s ∈ [0,1]`
///   (must be > 0 everywhere),
/// * `outer(s)` — outer shell radius at `s` (must exceed `profile(s)`).
#[allow(clippy::too_many_arguments)]
pub fn shell_of_revolution(
    name: &str,
    ni: usize,
    nj: usize,
    nk: usize,
    x0: f64,
    x1: f64,
    profile: impl Fn(f64) -> f64,
    outer: impl Fn(f64) -> f64,
    viscous: bool,
) -> CurvilinearGrid {
    assert!(ni >= 5 && nj >= 3 && nk >= 2);
    let dims = Dims::new(ni, nj, nk);
    let radial =
        if viscous { stretched_first_cell(nj, 0.57 / nj as f64) } else { stretched(nj, 1.0) };
    let coords = Field3::from_fn(dims, |p: Ijk| {
        // Clockwise azimuth so (i, j, k) = (θ, r, x) is right-handed (J > 0).
        let th = -2.0 * PI * (p.i % (ni - 1)) as f64 / (ni - 1) as f64;
        let s = p.k as f64 / (nk - 1) as f64;
        let rw = profile(s);
        let ro = outer(s);
        debug_assert!(ro > rw && rw > 0.0);
        let r = rw + radial[p.j] * (ro - rw);
        let x = x0 + s * (x1 - x0);
        [x, r * th.cos(), r * th.sin()]
    });
    let mut g = CurvilinearGrid::new(name, coords, GridKind::NearBody);
    g.periodic_i = true;
    g.viscous = viscous;
    g.patches = vec![
        BoundaryPatch { face: Face::JMin, kind: BcKind::Wall { viscous } },
        BoundaryPatch { face: Face::JMax, kind: BcKind::OversetOuter },
        BoundaryPatch { face: Face::IMin, kind: BcKind::PeriodicI },
        BoundaryPatch { face: Face::IMax, kind: BcKind::PeriodicI },
        BoundaryPatch { face: Face::KMin, kind: BcKind::Extrapolate },
        BoundaryPatch { face: Face::KMax, kind: BcKind::Extrapolate },
    ];
    g
}

/// Shell grid around an ellipsoid, in stretched spherical coordinates:
/// `i` = azimuth (periodic), `j` = radial from the surface outward by the
/// additive distance `outer_pad` (additive, not multiplicative, so thin
/// bodies still get a thick overlap collar for donor coverage),
/// `k` = polar angle over `[1.5%, 98.5%]` of `[0,π]`.
#[allow(clippy::too_many_arguments)]
pub fn ellipsoid_shell(
    name: &str,
    ni: usize,
    nj: usize,
    nk: usize,
    center: [f64; 3],
    radii: [f64; 3],
    outer_pad: f64,
    viscous: bool,
) -> CurvilinearGrid {
    assert!(ni >= 5 && nj >= 3 && nk >= 3 && outer_pad > 0.0);
    let dims = Dims::new(ni, nj, nk);
    let radial =
        if viscous { stretched_first_cell(nj, 0.57 / nj as f64) } else { stretched(nj, 1.0) };
    let coords = Field3::from_fn(dims, |p: Ijk| {
        let th = 2.0 * PI * (p.i % (ni - 1)) as f64 / (ni - 1) as f64;
        let phi = PI * (0.015 + 0.97 * p.k as f64 / (nk - 1) as f64);
        let t = radial[p.j];
        // Unit-sphere direction mapped through the padded ellipsoid radii.
        let dir = [phi.sin() * th.cos(), phi.sin() * th.sin(), phi.cos()];
        [
            center[0] + (radii[0] + t * outer_pad) * dir[0],
            center[1] + (radii[1] + t * outer_pad) * dir[1],
            center[2] + (radii[2] + t * outer_pad) * dir[2],
        ]
    });
    let mut g = CurvilinearGrid::new(name, coords, GridKind::NearBody);
    g.periodic_i = true;
    g.viscous = viscous;
    g.patches = vec![
        BoundaryPatch { face: Face::JMin, kind: BcKind::Wall { viscous } },
        BoundaryPatch { face: Face::JMax, kind: BcKind::OversetOuter },
        BoundaryPatch { face: Face::IMin, kind: BcKind::PeriodicI },
        BoundaryPatch { face: Face::IMax, kind: BcKind::PeriodicI },
        BoundaryPatch { face: Face::KMin, kind: BcKind::Extrapolate },
        BoundaryPatch { face: Face::KMax, kind: BcKind::Extrapolate },
    ];
    g.solids = vec![Solid::Ellipsoid { center, radii }];
    g
}

/// A rectangular curvilinear box grid (used for fin grids and pylon grids):
/// uniform in each direction over `aabb`, wall on the requested face.
pub fn box_grid(
    name: &str,
    dims: Dims,
    aabb: Aabb,
    wall: Option<Face>,
    viscous: bool,
) -> CurvilinearGrid {
    let e = aabb.extent();
    let step = |n: usize, ext: f64| if n > 1 { ext / (n - 1) as f64 } else { 0.0 };
    let (hx, hy, hz) = (step(dims.ni, e[0]), step(dims.nj, e[1]), step(dims.nk, e[2]));
    let coords = Field3::from_fn(dims, |p: Ijk| {
        [
            aabb.min[0] + hx * p.i as f64,
            aabb.min[1] + hy * p.j as f64,
            aabb.min[2] + hz * p.k as f64,
        ]
    });
    let mut g = CurvilinearGrid::new(name, coords, GridKind::NearBody);
    g.viscous = viscous;
    g.patches = Face::ALL
        .iter()
        .map(|&f| BoundaryPatch {
            face: f,
            kind: if Some(f) == wall { BcKind::Wall { viscous } } else { BcKind::OversetOuter },
        })
        .collect();
    g
}

/// A Cartesian background grid over `aabb` with roughly `target` points,
/// materialized as a curvilinear grid, far-field on every face by default.
pub fn background_box(name: &str, aabb: Aabb, target: usize) -> CurvilinearGrid {
    let e = aabb.extent();
    let vol = e[0] * e[1] * e[2];
    assert!(vol > 0.0);
    let h = (vol / target as f64).cbrt();
    let n = |ext: f64| ((ext / h).round() as usize).max(2) + 1;
    let dims = Dims::new(n(e[0]), n(e[1]), n(e[2]));
    let mut g = box_grid(name, dims, aabb, None, false);
    g.kind = GridKind::Background;
    g.patches =
        Face::ALL.iter().map(|&f| BoundaryPatch { face: f, kind: BcKind::Farfield }).collect();
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::compute_metrics;

    #[test]
    fn shell_wall_on_body() {
        let g = shell_of_revolution("s", 33, 9, 11, 0.0, 4.0, |_| 0.5, |_| 2.0, true);
        let d = g.dims();
        for k in 0..d.nk {
            for i in 0..d.ni {
                let p = g.xyz(Ijk::new(i, 0, k));
                let r = (p[1] * p[1] + p[2] * p[2]).sqrt();
                assert!((r - 0.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn shell_metrics_positive() {
        let g = shell_of_revolution(
            "s",
            25,
            7,
            9,
            -1.0,
            3.0,
            |s| 0.3 + 0.1 * (PI * s).sin(),
            |_| 1.5,
            false,
        );
        let m = compute_metrics(&g);
        for p in g.dims().iter() {
            assert!(m.metric(p).jac > 0.0, "J <= 0 at {p:?}");
        }
    }

    #[test]
    fn ellipsoid_shell_wall_on_surface() {
        let c = [1.0, 2.0, 3.0];
        let r = [2.0, 1.0, 0.5];
        let g = ellipsoid_shell("e", 25, 7, 13, c, r, 2.5, true);
        let d = g.dims();
        for k in 0..d.nk {
            for i in 0..d.ni {
                let p = g.xyz(Ijk::new(i, 0, k));
                let s: f64 = (0..3).map(|t| ((p[t] - c[t]) / r[t]).powi(2)).sum();
                assert!((s - 1.0).abs() < 1e-9, "wall point off ellipsoid: {s}");
            }
        }
    }

    #[test]
    fn ellipsoid_shell_metrics_positive() {
        let g = ellipsoid_shell("e", 21, 6, 11, [0.0; 3], [1.0, 1.0, 0.2], 3.0, false);
        let m = compute_metrics(&g);
        for p in g.dims().iter() {
            assert!(m.metric(p).jac.abs() > 0.0);
        }
        // Orientation must be consistent across the grid.
        let signs: Vec<bool> = g.dims().iter().map(|p| m.metric(p).jac > 0.0).collect();
        assert!(signs.iter().all(|&s| s == signs[0]), "mixed orientation");
    }

    #[test]
    fn background_box_hits_target_size() {
        let aabb = Aabb::new([0.0; 3], [4.0, 2.0, 1.0]);
        let g = background_box("bg", aabb, 50_000);
        let n = g.num_points();
        assert!((30_000..80_000).contains(&n), "n = {n}");
        assert_eq!(g.kind, GridKind::Background);
    }

    #[test]
    fn box_grid_wall_patch() {
        let g = box_grid(
            "fin",
            Dims::new(5, 6, 7),
            Aabb::new([0.0; 3], [1.0; 3]),
            Some(Face::JMin),
            true,
        );
        assert_eq!(g.patch_on(Face::JMin), Some(BcKind::Wall { viscous: true }));
        assert_eq!(g.patch_on(Face::IMax), Some(BcKind::OversetOuter));
    }
}
