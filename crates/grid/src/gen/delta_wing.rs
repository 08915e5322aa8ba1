//! The descending delta wing system (Section 4.2 of the paper).
//!
//! Four grids, a composite of ~1 million points at full scale, with an
//! IGBP/gridpoint ratio of about 33e-3: three curvilinear grids (the wing,
//! the jet pipe, and the jet plume region) moving slowly (M = 0.064) with
//! respect to a fourth, stationary Cartesian background grid. Viscous terms
//! are active in all directions on all four grids and no turbulence model is
//! used, matching the paper.

use crate::bbox::Aabb;
use crate::curvilinear::{CurvilinearGrid, Solid};
use crate::gen::revolution::{background_box, ellipsoid_shell, shell_of_revolution};

/// Scale a node count (keeps a floor so tiny scales still yield valid grids).
fn sc(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(5)
}

/// Build the four-grid delta-wing system. `scale` multiplies node counts in
/// every direction (`1.0` reproduces the paper's ~1M composite size;
/// `0.5` is ~1/8 the points and is the bench default).
pub fn delta_wing_system(scale: f64) -> Vec<CurvilinearGrid> {
    // Wing: flattened ellipsoid ("delta planform" stand-in), chord 4, span 3,
    // thickness 0.25, centered at the origin.
    let wing_radii = [2.0, 1.5, 0.125];
    let mut wing = ellipsoid_shell(
        "wing",
        sc(121, scale),
        sc(33, scale),
        sc(81, scale),
        [0.0, 0.0, 0.0],
        wing_radii,
        1.2,
        true,
    );
    wing.turbulent = false;
    // Sub-surface hole-cutting solid (slightly inside the true surface).
    wing.solids = vec![Solid::Ellipsoid { center: [0.0; 3], radii: [1.9, 1.4, 0.095] }];

    // Jet pipe: body of revolution hanging below the wing, axis along x.
    let mut pipe = shell_of_revolution(
        "pipe",
        sc(97, scale),
        sc(25, scale),
        sc(49, scale),
        -0.5,
        1.5,
        |_| 0.15,
        |_| 0.6,
        true,
    );
    // Offset the pipe below the wing.
    pipe.apply_transform(&crate::transform::RigidTransform::translation([0.0, 0.0, -0.6]));
    // Sub-surface solid (radius 0.12 vs the 0.15 body).
    pipe.solids =
        vec![Solid::Cylinder { p0: [-0.45, 0.0, -0.6], p1: [1.45, 0.0, -0.6], radius: 0.12 }];

    // Jet plume region: finer shell beneath the pipe exit capturing the jet.
    let mut plume = shell_of_revolution(
        "plume",
        sc(81, scale),
        sc(41, scale),
        sc(41, scale),
        1.55,
        4.0,
        |_| 0.05,
        |s| 0.5 + 0.7 * s,
        true,
    );
    plume.apply_transform(&crate::transform::RigidTransform::translation([0.0, 0.0, -0.6]));
    // The plume grid wraps no solid body (its inner radius is a small core
    // excluded from the flow for grid regularity; treated as overset inner
    // boundary rather than a wall).
    if let Some(p) = plume.patches.iter_mut().find(|p| p.face == crate::curvilinear::Face::JMin) {
        p.kind = crate::curvilinear::BcKind::OversetOuter;
    }

    // Stationary Cartesian background.
    let bg_target = ((421_000) as f64 * scale.powi(3)).max(2_000.0) as usize;
    let bg = background_box("dw-bg", Aabb::new([-6.0, -5.0, -6.0], [8.0, 5.0, 4.0]), bg_target);

    vec![wing, pipe, plume, bg]
}

/// Donor-search hierarchy for the delta-wing system: near-body grids search
/// each other first, then the background; the background searches the
/// near-body grids nearest first.
pub fn delta_wing_search_order() -> Vec<Vec<usize>> {
    vec![
        vec![1, 2, 3], // wing -> pipe, plume, background
        vec![0, 2, 3], // pipe
        vec![1, 0, 3], // plume
        vec![0, 1, 2], // background
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::compute_metrics;

    #[test]
    fn full_scale_size_matches_paper() {
        let sys = delta_wing_system(1.0);
        assert_eq!(sys.len(), 4);
        let total: usize = sys.iter().map(|g| g.num_points()).sum();
        // Paper: "composite total of about 1 million gridpoints".
        assert!((850_000..1_200_000).contains(&total), "total = {total}");
    }

    #[test]
    fn reduced_scale_shrinks_cubically() {
        let full: usize = delta_wing_system(1.0).iter().map(|g| g.num_points()).sum();
        let half: usize = delta_wing_system(0.5).iter().map(|g| g.num_points()).sum();
        let ratio = full as f64 / half as f64;
        assert!((5.0..12.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn all_grids_viscous_no_turbulence() {
        for g in delta_wing_system(0.3) {
            if g.kind == crate::curvilinear::GridKind::NearBody {
                assert!(g.viscous, "{} not viscous", g.name);
            }
            assert!(!g.turbulent, "{} turbulent", g.name);
        }
    }

    #[test]
    fn near_body_grids_inside_background() {
        let sys = delta_wing_system(0.25);
        let bg = sys[3].bounding_box();
        for g in &sys[..3] {
            let b = g.bounding_box();
            assert!(bg.contains(b.min) && bg.contains(b.max), "{} outside bg", g.name);
        }
    }

    #[test]
    fn metrics_valid_on_all_grids() {
        for g in delta_wing_system(0.2) {
            let m = compute_metrics(&g);
            let signs: Vec<bool> = g.dims().iter().map(|p| m.metric(p).jac > 0.0).collect();
            assert!(
                signs.iter().all(|&s| s == signs[0]),
                "{}: inconsistent cell orientation",
                g.name
            );
        }
    }
}
