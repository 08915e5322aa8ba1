//! Body-fitted curvilinear component grids.
//!
//! A Chimera overset system is a set of these (plus uniform Cartesian
//! background grids) that overlap by one or more cells. Each grid carries its
//! physical boundary-condition patches, physical attributes (viscous terms
//! active, turbulence model) and the solid geometry it wraps (used by the
//! hole cutter in the connectivity crate).

use crate::bbox::Aabb;
use crate::field::Field3;
use crate::index::{Dims, Ijk};
use crate::transform::RigidTransform;

/// Which of the six logical faces of a structured grid a patch lives on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Face {
    IMin,
    IMax,
    JMin,
    JMax,
    KMin,
    KMax,
}

impl Face {
    pub const ALL: [Face; 6] =
        [Face::IMin, Face::IMax, Face::JMin, Face::JMax, Face::KMin, Face::KMax];

    /// Direction normal to the face (0 = i, 1 = j, 2 = k).
    pub fn dir(&self) -> usize {
        match self {
            Face::IMin | Face::IMax => 0,
            Face::JMin | Face::JMax => 1,
            Face::KMin | Face::KMax => 2,
        }
    }

    /// True for the `*Min` faces.
    pub fn is_min(&self) -> bool {
        matches!(self, Face::IMin | Face::JMin | Face::KMin)
    }
}

/// Physical boundary-condition kinds applied at grid faces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BcKind {
    /// Solid wall; `viscous` selects no-slip (true) or slip/inviscid (false).
    Wall { viscous: bool },
    /// Characteristic freestream far-field.
    Farfield,
    /// Outer boundary of an embedded grid: values come from Chimera
    /// interpolation (these nodes are inter-grid boundary points).
    OversetOuter,
    /// Periodic wrap (O-grids wrap in `i`).
    PeriodicI,
    /// Symmetry plane (zero normal gradient, reflected normal velocity).
    Symmetry,
    /// Axis/degenerate line (averaging closure).
    Axis,
    /// Extrapolation outflow.
    Extrapolate,
}

/// A boundary patch covering a full grid face.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BoundaryPatch {
    pub face: Face,
    pub kind: BcKind,
}

/// Role of a grid within the overset hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GridKind {
    /// Body-fitted grid around (part of) a solid component.
    NearBody,
    /// Topologically simple background grid.
    Background,
}

/// Analytic solid geometry used by the hole cutter. Shapes are described in
/// the grid's *current* (world) coordinates; moving a grid also moves its
/// solids.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Solid {
    /// Ellipsoid with the given center and semi-axes.
    Ellipsoid { center: [f64; 3], radii: [f64; 3] },
    /// Finite cylinder from `p0` to `p1` with the given radius.
    Cylinder { p0: [f64; 3], p1: [f64; 3], radius: f64 },
    /// Axis-aligned-at-creation box, tracked through motion by its transform.
    /// NOTE: rotation degrades this to its enclosing AABB; use
    /// [`Solid::OrientedSlab`] for thin plates on rotating bodies.
    Slab { aabb: Aabb },
    /// Oriented box: center, orthonormal axes and half-extents. Transforms
    /// exactly under rigid motion (the right solid for fins).
    OrientedSlab { center: [f64; 3], axes: [[f64; 3]; 3], half: [f64; 3] },
}

impl Solid {
    /// Does the solid contain the point (with a safety margin `pad` so fringe
    /// points straddling the surface are also excluded from donor stencils)?
    pub fn contains(&self, p: [f64; 3], pad: f64) -> bool {
        match *self {
            Solid::Ellipsoid { center, radii } => {
                let mut s = 0.0;
                for d in 0..3 {
                    let r = radii[d] + pad;
                    if r <= 0.0 {
                        return false;
                    }
                    let t = (p[d] - center[d]) / r;
                    s += t * t;
                }
                s <= 1.0
            }
            Solid::Cylinder { p0, p1, radius } => {
                let axis = [p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]];
                let len2: f64 = axis.iter().map(|a| a * a).sum();
                if len2 == 0.0 {
                    return false;
                }
                let rel = [p[0] - p0[0], p[1] - p0[1], p[2] - p0[2]];
                let t = (rel[0] * axis[0] + rel[1] * axis[1] + rel[2] * axis[2]) / len2;
                let tl = t.clamp(0.0, 1.0);
                // Reject points beyond the (padded) caps.
                let cap_pad = pad / len2.sqrt();
                if t < -cap_pad || t > 1.0 + cap_pad {
                    return false;
                }
                let closest = [p0[0] + tl * axis[0], p0[1] + tl * axis[1], p0[2] + tl * axis[2]];
                let d2: f64 = (0..3).map(|d| (p[d] - closest[d]).powi(2)).sum();
                d2 <= (radius + pad) * (radius + pad)
            }
            Solid::Slab { aabb } => aabb.inflate(pad).contains(p),
            Solid::OrientedSlab { center, axes, half } => {
                let d = [p[0] - center[0], p[1] - center[1], p[2] - center[2]];
                (0..3).all(|i| {
                    let proj = d[0] * axes[i][0] + d[1] * axes[i][1] + d[2] * axes[i][2];
                    proj.abs() <= half[i] + pad
                })
            }
        }
    }

    /// An oriented slab from an axis-aligned box (before any rotation).
    pub fn oriented_slab_from_aabb(aabb: Aabb) -> Solid {
        let c = aabb.center();
        let e = aabb.extent();
        Solid::OrientedSlab {
            center: c,
            axes: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            half: [0.5 * e[0], 0.5 * e[1], 0.5 * e[2]],
        }
    }

    /// Bounding box of the solid (used as a cheap pre-check by the hole
    /// cutter: most grid nodes are rejected without a detailed containment
    /// test).
    pub fn bbox(&self) -> Aabb {
        match *self {
            Solid::Ellipsoid { center, radii } => Aabb::new(
                [center[0] - radii[0], center[1] - radii[1], center[2] - radii[2]],
                [center[0] + radii[0], center[1] + radii[1], center[2] + radii[2]],
            ),
            Solid::Cylinder { p0, p1, radius } => {
                let mut b = Aabb::EMPTY;
                b.include(p0);
                b.include(p1);
                b.inflate(radius)
            }
            Solid::Slab { aabb } => aabb,
            Solid::OrientedSlab { center, axes, half } => {
                let mut ext = [0.0f64; 3];
                for t in 0..3 {
                    ext[t] = (0..3).map(|i| axes[i][t].abs() * half[i]).sum();
                }
                Aabb::new(
                    [center[0] - ext[0], center[1] - ext[1], center[2] - ext[2]],
                    [center[0] + ext[0], center[1] + ext[1], center[2] + ext[2]],
                )
            }
        }
    }

    pub fn transformed(&self, t: &RigidTransform) -> Solid {
        match *self {
            Solid::Ellipsoid { center, radii } => {
                Solid::Ellipsoid { center: t.apply(center), radii }
            }
            Solid::Cylinder { p0, p1, radius } => {
                Solid::Cylinder { p0: t.apply(p0), p1: t.apply(p1), radius }
            }
            Solid::OrientedSlab { center, axes, half } => Solid::OrientedSlab {
                center: t.apply(center),
                axes: [
                    t.rotation.rotate(axes[0]),
                    t.rotation.rotate(axes[1]),
                    t.rotation.rotate(axes[2]),
                ],
                half,
            },
            Solid::Slab { aabb } => {
                // Transform the 8 corners and take the new AABB (conservative
                // under rotation, exact under translation).
                let mut b = Aabb::EMPTY;
                for ci in 0..8 {
                    let c = [
                        if ci & 1 == 0 { aabb.min[0] } else { aabb.max[0] },
                        if ci & 2 == 0 { aabb.min[1] } else { aabb.max[1] },
                        if ci & 4 == 0 { aabb.min[2] } else { aabb.max[2] },
                    ];
                    b.include(t.apply(c));
                }
                Solid::Slab { aabb: b }
            }
        }
    }
}

/// A body-fitted curvilinear component grid (also used, with analytically
/// regular coordinates, for the stationary Cartesian background grids when
/// they participate in the general donor-search machinery).
#[derive(Clone, Debug)]
pub struct CurvilinearGrid {
    /// Human-readable name (e.g. "airfoil-near", "store-fin-2").
    pub name: String,
    /// Node coordinates.
    pub coords: Field3<[f64; 3]>,
    pub kind: GridKind,
    /// Boundary-condition patches, one per face that needs one.
    pub patches: Vec<BoundaryPatch>,
    /// O-grid periodic wrap in the i-direction.
    pub periodic_i: bool,
    /// Viscous terms active on this grid.
    pub viscous: bool,
    /// Baldwin–Lomax algebraic turbulence model active on this grid.
    pub turbulent: bool,
    /// Solid geometry owned by this grid (cuts holes in overlapping grids).
    pub solids: Vec<Solid>,
    /// Relative per-point work weight (the paper notes viscous/turbulent
    /// grids cost more per point; the static balancer may weight by this).
    pub work_weight: f64,
}

impl CurvilinearGrid {
    pub fn new(name: impl Into<String>, coords: Field3<[f64; 3]>, kind: GridKind) -> Self {
        Self {
            name: name.into(),
            coords,
            kind,
            patches: Vec::new(),
            periodic_i: false,
            viscous: false,
            turbulent: false,
            solids: Vec::new(),
            work_weight: 1.0,
        }
    }

    #[inline]
    pub fn dims(&self) -> Dims {
        self.coords.dims()
    }

    #[inline]
    pub fn num_points(&self) -> usize {
        self.dims().count()
    }

    #[inline]
    pub fn xyz(&self, p: Ijk) -> [f64; 3] {
        self.coords[p]
    }

    /// Bounding box of all nodes.
    pub fn bounding_box(&self) -> Aabb {
        Aabb::from_points(self.coords.as_slice().iter())
    }

    /// Apply a rigid transform to every node and to the owned solids.
    pub fn apply_transform(&mut self, t: &RigidTransform) {
        for p in self.coords.as_mut_slice() {
            *p = t.apply(*p);
        }
        for s in &mut self.solids {
            *s = s.transformed(t);
        }
    }

    /// The boundary patch on a face, if any.
    pub fn patch_on(&self, face: Face) -> Option<BcKind> {
        self.patches.iter().find(|p| p.face == face).map(|p| p.kind)
    }

    /// Is the grid 2-D (single k-plane)? The paper's oscillating-airfoil case
    /// runs this way.
    pub fn is_two_d(&self) -> bool {
        self.dims().is_two_d()
    }

    /// Approximate cell edge length at a node: the distance to the next node
    /// in `i` (used to scale donor-search tolerances).
    pub fn local_spacing(&self, p: Ijk) -> f64 {
        let d = self.dims();
        let q = if p.i + 1 < d.ni {
            Ijk::new(p.i + 1, p.j, p.k)
        } else if p.i > 0 {
            Ijk::new(p.i - 1, p.j, p.k)
        } else {
            return 0.0;
        };
        let (a, b) = (self.coords[p], self.coords[q]);
        ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid(n: usize) -> CurvilinearGrid {
        let d = Dims::new(n, n, n);
        let h = 1.0 / (n - 1) as f64;
        let coords = Field3::from_fn(d, |p| [p.i as f64 * h, p.j as f64 * h, p.k as f64 * h]);
        CurvilinearGrid::new("unit", coords, GridKind::Background)
    }

    #[test]
    fn bounding_box_of_unit_cube() {
        let g = unit_grid(5);
        let b = g.bounding_box();
        assert_eq!(b.min, [0.0; 3]);
        assert_eq!(b.max, [1.0; 3]);
    }

    #[test]
    fn transform_moves_grid_and_bbox() {
        let mut g = unit_grid(3);
        g.apply_transform(&RigidTransform::translation([10.0, 0.0, 0.0]));
        let b = g.bounding_box();
        assert!((b.min[0] - 10.0).abs() < 1e-12 && (b.max[0] - 11.0).abs() < 1e-12);
    }

    #[test]
    fn ellipsoid_containment_with_pad() {
        let s = Solid::Ellipsoid { center: [0.0; 3], radii: [1.0, 2.0, 3.0] };
        assert!(s.contains([0.9, 0.0, 0.0], 0.0));
        assert!(!s.contains([1.1, 0.0, 0.0], 0.0));
        assert!(s.contains([1.1, 0.0, 0.0], 0.2));
    }

    #[test]
    fn cylinder_containment() {
        let s = Solid::Cylinder { p0: [0.0; 3], p1: [0.0, 0.0, 4.0], radius: 1.0 };
        assert!(s.contains([0.5, 0.0, 2.0], 0.0));
        assert!(!s.contains([1.5, 0.0, 2.0], 0.0));
        assert!(!s.contains([0.0, 0.0, 5.0], 0.0));
        assert!(s.contains([0.0, 0.0, 4.05], 0.1));
    }

    #[test]
    fn solid_transform_moves_ellipsoid() {
        let s = Solid::Ellipsoid { center: [1.0, 0.0, 0.0], radii: [0.5; 3] };
        let t =
            RigidTransform::rotation_about([0.0; 3], [0.0, 0.0, 1.0], std::f64::consts::FRAC_PI_2);
        match s.transformed(&t) {
            Solid::Ellipsoid { center, .. } => {
                assert!((center[0]).abs() < 1e-12 && (center[1] - 1.0).abs() < 1e-12);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn local_spacing_of_uniform_grid() {
        let g = unit_grid(5);
        let h = g.local_spacing(Ijk::new(0, 0, 0));
        assert!((h - 0.25).abs() < 1e-12);
    }
}
