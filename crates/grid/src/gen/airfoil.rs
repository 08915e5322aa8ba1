//! The 2-D oscillating NACA 0012 airfoil system (Section 4.1 of the paper).
//!
//! Three single-plane grids with roughly equal point counts:
//!
//! 1. a near-field O-grid that defines the airfoil and extends about one
//!    chord from the surface (this grid rotates with the pitching motion),
//! 2. an intermediate circular (annular) grid out to about three chords,
//! 3. a square Cartesian background grid out to seven chords.
//!
//! At the paper's composite size (~64K points) the IGBP/gridpoint ratio is
//! about 44e-3.

use crate::curvilinear::{BcKind, BoundaryPatch, CurvilinearGrid, Face, GridKind, Solid};
use crate::field::Field3;
use crate::gen::stretched_first_cell;
use crate::index::{Dims, Ijk};

/// NACA 0012 half-thickness at chordwise position `x ∈ [0, 1]` (classic
/// open trailing edge: thickness ≈ 0.25% chord at x = 1). The small blunt
/// base keeps the O-grid cells at the trailing edge nondegenerate — a
/// zero-thickness TE would give sliver cells whose Jacobians make the
/// rotating-grid problem unsolvably stiff.
pub fn naca0012_thickness(x: f64) -> f64 {
    let x = x.clamp(0.0, 1.0);
    0.6 * (0.2969 * x.sqrt() - 0.1260 * x - 0.3516 * x * x + 0.2843 * x * x * x
        - 0.1015 * x * x * x * x)
}

/// Surface point `s ∈ [0, 1)` around the airfoil, starting at the trailing
/// edge, running along the lower surface to the leading edge and back along
/// the upper surface (counter-clockwise).
fn surface_point(s: f64) -> [f64; 2] {
    // Moderate cosine clustering toward LE and TE: a pure cosine map makes
    // trailing-edge cells so thin that the azimuthal CFL of the *rotating*
    // grid becomes untenable; blending 60% cosine with 40% uniform keeps
    // resolution at the edges without the extreme aspect ratios.
    const W: f64 = 0.6;
    let cluster = |t: f64, reverse: bool| -> f64 {
        let cosine = if reverse {
            0.5 * (1.0 - (std::f64::consts::PI * t).cos())
        } else {
            0.5 * (1.0 + (std::f64::consts::PI * t).cos())
        };
        let linear = if reverse { t } else { 1.0 - t };
        W * cosine + (1.0 - W) * linear
    };
    if s < 0.5 {
        let t = s / 0.5; // 0 at TE, 1 at LE, lower surface
        let x = cluster(t, false);
        [x, -naca0012_thickness(x)]
    } else {
        let t = (s - 0.5) / 0.5; // 0 at LE, 1 at TE, upper surface
        let x = cluster(t, true);
        [x, naca0012_thickness(x)]
    }
}

/// Near-field O-grid: `ni` wrap-around nodes (last duplicates first), `nj`
/// radial layers from the surface to a circle of radius `outer` about the
/// quarter chord, geometrically clustered at the wall.
pub fn near_grid(ni: usize, nj: usize, outer: f64) -> CurvilinearGrid {
    assert!(ni >= 5 && nj >= 3);
    let dims = Dims::new(ni, nj, 1);
    // First wall cell pinned to ~0.048/nj of the layer span: the near-wall
    // spacing then scales like 1/resolution instead of collapsing
    // geometrically as layers are added.
    let radial = stretched_first_cell(nj, 0.048 / nj as f64);
    let center = [0.25, 0.0];
    let coords = Field3::from_fn(dims, |p: Ijk| {
        let s = (p.i % (ni - 1)) as f64 / (ni - 1) as f64;
        let sp = surface_point(s);
        // Angular coordinate: the surface angle about the quarter chord at
        // the wall, blended toward a *uniform* angular distribution at the
        // outer ring. Without the blend, the surface's cosine clustering
        // would concentrate outer-ring points near the trailing-edge angle,
        // producing extreme-aspect cells at the interpolation boundary.
        let ang_s = (sp[1] - center[1]).atan2(sp[0] - center[0]);
        let mut ang_u = -2.0 * std::f64::consts::PI * s;
        // Unwrap to the branch nearest the surface angle.
        while ang_u - ang_s > std::f64::consts::PI {
            ang_u -= 2.0 * std::f64::consts::PI;
        }
        while ang_s - ang_u > std::f64::consts::PI {
            ang_u += 2.0 * std::f64::consts::PI;
        }
        let t = radial[p.j];
        let ang = ang_s + t * (ang_u - ang_s);
        let r_s = ((sp[0] - center[0]).powi(2) + (sp[1] - center[1]).powi(2)).sqrt();
        let r = r_s + t * (outer - r_s);
        [center[0] + r * ang.cos(), center[1] + r * ang.sin(), 0.0]
    });
    let mut g = CurvilinearGrid::new("airfoil-near", coords, GridKind::NearBody);
    g.periodic_i = true;
    g.viscous = true;
    g.turbulent = true;
    g.work_weight = 1.0;
    g.patches = vec![
        BoundaryPatch { face: Face::JMin, kind: BcKind::Wall { viscous: true } },
        BoundaryPatch { face: Face::JMax, kind: BcKind::OversetOuter },
        BoundaryPatch { face: Face::IMin, kind: BcKind::PeriodicI },
        BoundaryPatch { face: Face::IMax, kind: BcKind::PeriodicI },
    ];
    // Hole-cutting solid: a thin slab hugging the airfoil. Points of other
    // grids inside it are blanked.
    g.solids = vec![Solid::Ellipsoid { center: [0.5, 0.0, 0.0], radii: [0.52, 0.07, 1.0] }];
    g
}

/// Intermediate annular grid from radius `inner` to `outer` about the quarter
/// chord. Stationary.
pub fn intermediate_grid(ni: usize, nj: usize, inner: f64, outer: f64) -> CurvilinearGrid {
    let dims = Dims::new(ni, nj, 1);
    let center = [0.25, 0.0];
    let coords = Field3::from_fn(dims, |p: Ijk| {
        // Clockwise azimuth: (i, j, k=z) right-handed, matching the O-grid.
        let th = -2.0 * std::f64::consts::PI * (p.i % (ni - 1)) as f64 / (ni - 1) as f64;
        let r = inner + (outer - inner) * p.j as f64 / (nj - 1) as f64;
        [center[0] + r * th.cos(), center[1] + r * th.sin(), 0.0]
    });
    let mut g = CurvilinearGrid::new("airfoil-mid", coords, GridKind::NearBody);
    g.periodic_i = true;
    g.viscous = false;
    g.patches = vec![
        BoundaryPatch { face: Face::JMin, kind: BcKind::OversetOuter },
        BoundaryPatch { face: Face::JMax, kind: BcKind::OversetOuter },
        BoundaryPatch { face: Face::IMin, kind: BcKind::PeriodicI },
        BoundaryPatch { face: Face::IMax, kind: BcKind::PeriodicI },
    ];
    g
}

/// Square Cartesian background grid spanning `[-half, half]^2` around the
/// quarter chord, materialized as a curvilinear grid (OVERFLOW-D1 treats all
/// component grids uniformly).
pub fn background_grid(n: usize, half: f64) -> CurvilinearGrid {
    let dims = Dims::new(n, n, 1);
    let center = [0.25, 0.0];
    let h = 2.0 * half / (n - 1) as f64;
    let coords = Field3::from_fn(dims, |p: Ijk| {
        [center[0] - half + h * p.i as f64, center[1] - half + h * p.j as f64, 0.0]
    });
    let mut g = CurvilinearGrid::new("airfoil-bg", coords, GridKind::Background);
    g.viscous = false;
    g.patches = vec![
        BoundaryPatch { face: Face::IMin, kind: BcKind::Farfield },
        BoundaryPatch { face: Face::IMax, kind: BcKind::Farfield },
        BoundaryPatch { face: Face::JMin, kind: BcKind::Farfield },
        BoundaryPatch { face: Face::JMax, kind: BcKind::Farfield },
    ];
    g
}

/// The paper-size three-grid airfoil system (~64K composite points) scaled by
/// `scale` in each in-plane direction (`scale = 0.5` quarters the point count,
/// matching the "coarsened" case of Table 2; `scale = 2.0` gives the
/// "refined" case).
pub fn airfoil_system(scale: f64) -> Vec<CurvilinearGrid> {
    let s = |n: usize| -> usize { ((n as f64 * scale).round() as usize).max(5) };
    // Base sizes chosen so the composite is ~63.6K points, split roughly
    // equally among the three grids as in the paper.
    vec![
        near_grid(s(265), s(80), 1.1),
        intermediate_grid(s(185), s(115), 0.85, 3.0),
        background_grid(s(146), 7.0),
    ]
}

/// Hierarchical donor-search lists for the airfoil system: each grid searches
/// the adjacent grid in the hierarchy first, then the remaining one.
pub fn airfoil_search_order() -> Vec<Vec<usize>> {
    vec![vec![1, 2], vec![0, 2], vec![1, 0]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thickness_closed_te() {
        assert!(naca0012_thickness(0.0).abs() < 1e-12);
        // Open TE: small blunt base.
        let te = naca0012_thickness(1.0);
        assert!(te > 1e-4 && te < 3e-3, "te = {te}");
        // Max thickness ~6% of chord (half-thickness) near x = 0.3.
        let t = naca0012_thickness(0.3);
        assert!(t > 0.055 && t < 0.065, "t = {t}");
    }

    #[test]
    fn near_grid_wall_is_on_airfoil() {
        let g = near_grid(65, 17, 1.1);
        let d = g.dims();
        for i in 0..d.ni {
            let p = g.xyz(Ijk::new(i, 0, 0));
            let t = naca0012_thickness(p[0]);
            assert!(p[1].abs() <= t + 1e-9, "wall point off surface: {p:?}");
        }
        // Outer ring on the circle of radius 1.1.
        for i in 0..d.ni {
            let p = g.xyz(Ijk::new(i, d.nj - 1, 0));
            let r = ((p[0] - 0.25).powi(2) + p[1].powi(2)).sqrt();
            assert!((r - 1.1).abs() < 1e-9);
        }
    }

    #[test]
    fn near_grid_metrics_untangled() {
        let g = near_grid(129, 33, 1.1);
        let m = crate::metrics::compute_metrics(&g);
        let mut neg = 0;
        for p in g.dims().iter() {
            if m.metric(p).jac <= 0.0 {
                neg += 1;
            }
        }
        assert_eq!(neg, 0, "found {neg} non-positive Jacobians");
    }

    #[test]
    fn wrap_duplicates_first_node() {
        let g = near_grid(65, 9, 1.1);
        let d = g.dims();
        for j in 0..d.nj {
            let a = g.xyz(Ijk::new(0, j, 0));
            let b = g.xyz(Ijk::new(d.ni - 1, j, 0));
            assert!((a[0] - b[0]).abs() < 1e-12 && (a[1] - b[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn system_sizes_match_paper() {
        let sys = airfoil_system(1.0);
        let total: usize = sys.iter().map(|g| g.num_points()).sum();
        // Paper: 63.6K composite.
        assert!((60_000..68_000).contains(&total), "composite size {total} out of band");
        // Roughly equal thirds.
        for g in &sys {
            let frac = g.num_points() as f64 / total as f64;
            assert!((0.25..0.42).contains(&frac), "{}: {frac}", g.name);
        }
    }

    #[test]
    fn scaled_system_quarters_points() {
        let full: usize = airfoil_system(1.0).iter().map(|g| g.num_points()).sum();
        let coarse: usize = airfoil_system(0.5).iter().map(|g| g.num_points()).sum();
        let ratio = full as f64 / coarse as f64;
        assert!((3.4..4.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn grids_nest_geometrically() {
        let sys = airfoil_system(0.3);
        let near = sys[0].bounding_box();
        let mid = sys[1].bounding_box();
        let bg = sys[2].bounding_box();
        // Near grid fits inside intermediate, intermediate inside background.
        assert!(mid.contains([near.max[0], 0.0, 0.0]));
        assert!(bg.contains(mid.min) && bg.contains(mid.max));
    }
}
