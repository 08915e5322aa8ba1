//! Rigid-body transforms: unit-quaternion rotation plus translation.
//!
//! Grid motion in the dynamic overset scheme never stretches or distorts a
//! component grid — components move rigidly (Section 2 of the paper) — so a
//! rigid transform fully describes one step of grid motion.

/// A unit quaternion `(w, x, y, z)`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Quat {
    pub w: f64,
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Quat {
    pub const IDENTITY: Quat = Quat { w: 1.0, x: 0.0, y: 0.0, z: 0.0 };

    /// Rotation of `angle` radians about (unnormalized) `axis`.
    pub fn from_axis_angle(axis: [f64; 3], angle: f64) -> Self {
        let n = (axis[0] * axis[0] + axis[1] * axis[1] + axis[2] * axis[2]).sqrt();
        if n == 0.0 {
            return Self::IDENTITY;
        }
        let (s, c) = (0.5 * angle).sin_cos();
        Quat { w: c, x: s * axis[0] / n, y: s * axis[1] / n, z: s * axis[2] / n }
    }

    pub fn norm(&self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    pub fn normalized(&self) -> Quat {
        let n = self.norm();
        Quat { w: self.w / n, x: self.x / n, y: self.y / n, z: self.z / n }
    }

    pub fn conjugate(&self) -> Quat {
        Quat { w: self.w, x: -self.x, y: -self.y, z: -self.z }
    }

    /// Hamilton product `self * rhs` (apply `rhs` first, then `self`).
    pub fn mul(&self, rhs: &Quat) -> Quat {
        Quat {
            w: self.w * rhs.w - self.x * rhs.x - self.y * rhs.y - self.z * rhs.z,
            x: self.w * rhs.x + self.x * rhs.w + self.y * rhs.z - self.z * rhs.y,
            y: self.w * rhs.y - self.x * rhs.z + self.y * rhs.w + self.z * rhs.x,
            z: self.w * rhs.z + self.x * rhs.y - self.y * rhs.x + self.z * rhs.w,
        }
    }

    /// Rotate a vector. Inlined: the grid-motion loops call it once per
    /// node.
    #[inline]
    pub fn rotate(&self, v: [f64; 3]) -> [f64; 3] {
        // v' = v + 2*q_v x (q_v x v + w*v)
        let q = [self.x, self.y, self.z];
        let t = [
            2.0 * (q[1] * v[2] - q[2] * v[1]),
            2.0 * (q[2] * v[0] - q[0] * v[2]),
            2.0 * (q[0] * v[1] - q[1] * v[0]),
        ];
        [
            v[0] + self.w * t[0] + q[1] * t[2] - q[2] * t[1],
            v[1] + self.w * t[1] + q[2] * t[0] - q[0] * t[2],
            v[2] + self.w * t[2] + q[0] * t[1] - q[1] * t[0],
        ]
    }
}

/// A rigid transform: rotate about `pivot`, then translate.
///
/// `p' = pivot + R (p - pivot) + translation`
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RigidTransform {
    pub rotation: Quat,
    pub pivot: [f64; 3],
    pub translation: [f64; 3],
}

impl RigidTransform {
    pub const IDENTITY: RigidTransform =
        RigidTransform { rotation: Quat::IDENTITY, pivot: [0.0; 3], translation: [0.0; 3] };

    pub fn rotation_about(pivot: [f64; 3], axis: [f64; 3], angle: f64) -> Self {
        RigidTransform {
            rotation: Quat::from_axis_angle(axis, angle),
            pivot,
            translation: [0.0; 3],
        }
    }

    pub fn translation(t: [f64; 3]) -> Self {
        RigidTransform { rotation: Quat::IDENTITY, pivot: [0.0; 3], translation: t }
    }

    /// The transformed point. Inlined across crates: block motion, grid
    /// velocities and connectivity's posed lookups call it once per point.
    #[inline]
    pub fn apply(&self, p: [f64; 3]) -> [f64; 3] {
        let rel = [p[0] - self.pivot[0], p[1] - self.pivot[1], p[2] - self.pivot[2]];
        let r = self.rotation.rotate(rel);
        [
            self.pivot[0] + r[0] + self.translation[0],
            self.pivot[1] + r[1] + self.translation[1],
            self.pivot[2] + r[2] + self.translation[2],
        ]
    }

    pub fn is_identity(&self) -> bool {
        self == &Self::IDENTITY
    }

    /// Largest displacement this transform produces over the corners of
    /// `bb`. Rigid maps are affine, so the maximum over a box is attained
    /// at a corner; this bounds the motion of every point inside.
    pub fn max_corner_displacement(&self, bb: &crate::bbox::Aabb) -> f64 {
        let mut worst: f64 = 0.0;
        for ci in 0..8 {
            let p = [
                if ci & 1 == 0 { bb.min[0] } else { bb.max[0] },
                if ci & 2 == 0 { bb.min[1] } else { bb.max[1] },
                if ci & 4 == 0 { bb.min[2] } else { bb.max[2] },
            ];
            let q = self.apply(p);
            let d2: f64 = (0..3).map(|d| (q[d] - p[d]).powi(2)).sum();
            worst = worst.max(d2.sqrt());
        }
        worst
    }

    /// True when applying this transform to any point of `bb` moves it by
    /// at most a relative epsilon of the box diagonal — i.e. the motion is
    /// indistinguishable from no motion for connectivity purposes. Exact
    /// identities short-circuit without touching the corners.
    pub fn is_negligible_for(&self, bb: &crate::bbox::Aabb) -> bool {
        if self.is_identity() {
            return true;
        }
        let scale = bb.diagonal().max(1.0);
        self.max_corner_displacement(bb) <= 1e-12 * scale
    }

    /// The inverse transform: `self.inverse().apply(self.apply(x)) == x`.
    pub fn inverse(&self) -> RigidTransform {
        let rinv = self.rotation.conjugate();
        let t_inv = rinv.rotate([-self.translation[0], -self.translation[1], -self.translation[2]]);
        RigidTransform { rotation: rinv, pivot: self.pivot, translation: t_inv }
    }

    /// Composition: the transform equivalent to applying `self` first, then
    /// `second` (`result.apply(x) == second.apply(self.apply(x))`).
    pub fn then(&self, second: &RigidTransform) -> RigidTransform {
        let rotation = second.rotation.mul(&self.rotation).normalized();
        // Keep this transform's pivot; pick the translation so the composed
        // affine map agrees at the pivot (equal linear parts + agreement at
        // one point => equal everywhere).
        let image = second.apply(self.apply(self.pivot));
        RigidTransform {
            rotation,
            pivot: self.pivot,
            translation: [
                image[0] - self.pivot[0],
                image[1] - self.pivot[1],
                image[2] - self.pivot[2],
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: [f64; 3], b: [f64; 3], tol: f64) -> bool {
        a.iter().zip(b.iter()).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn quat_rotates_90_about_z() {
        let q = Quat::from_axis_angle([0.0, 0.0, 1.0], std::f64::consts::FRAC_PI_2);
        assert!(close(q.rotate([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], 1e-12));
        assert!(close(q.rotate([0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0], 1e-12));
    }

    #[test]
    fn quat_mul_composes_rotations() {
        let a = Quat::from_axis_angle([0.0, 0.0, 1.0], 0.3);
        let b = Quat::from_axis_angle([0.0, 0.0, 1.0], 0.5);
        let c = a.mul(&b);
        let d = Quat::from_axis_angle([0.0, 0.0, 1.0], 0.8);
        assert!((c.w - d.w).abs() < 1e-12 && (c.z - d.z).abs() < 1e-12);
    }

    /// `rotate` against the rotation matrix of the unit quaternion.
    #[test]
    fn quat_matrix_matches_rotate() {
        let q = Quat::from_axis_angle([1.0, 2.0, 3.0], 0.7);
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        let m = [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ];
        let v = [0.3, -0.8, 0.5];
        let mv = [
            m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
            m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
            m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
        ];
        assert!(close(mv, q.rotate(v), 1e-12));
    }

    #[test]
    fn rigid_transform_about_pivot() {
        let t =
            RigidTransform::rotation_about([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], std::f64::consts::PI);
        // Pivot is fixed; a point at the origin maps to (2, 0, 0).
        assert!(close(t.apply([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0], 1e-12));
        assert!(close(t.apply([0.0, 0.0, 0.0]), [2.0, 0.0, 0.0], 1e-12));
    }

    #[test]
    fn rigid_transform_preserves_distances() {
        let t = RigidTransform {
            rotation: Quat::from_axis_angle([1.0, 1.0, 0.2], 1.1),
            pivot: [0.5, -0.3, 2.0],
            translation: [1.0, 2.0, 3.0],
        };
        let a = [0.0, 0.0, 0.0];
        let b = [1.0, 2.0, -1.0];
        let (ta, tb) = (t.apply(a), t.apply(b));
        let d0: f64 = (0..3).map(|i| (a[i] - b[i]).powi(2)).sum::<f64>().sqrt();
        let d1: f64 = (0..3).map(|i| (ta[i] - tb[i]).powi(2)).sum::<f64>().sqrt();
        assert!((d0 - d1).abs() < 1e-12);
    }

    #[test]
    fn inverse_roundtrips() {
        let t = RigidTransform {
            rotation: Quat::from_axis_angle([0.3, -1.0, 0.2], 0.9),
            pivot: [1.0, -2.0, 0.5],
            translation: [0.4, 0.1, -0.7],
        };
        let inv = t.inverse();
        for p in [[0.0; 3], [2.0, -1.0, 3.0], [-5.0, 0.2, 0.9]] {
            let q = inv.apply(t.apply(p));
            for d in 0..3 {
                assert!((q[d] - p[d]).abs() < 1e-12, "{q:?} vs {p:?}");
            }
        }
    }

    #[test]
    fn then_composes_like_sequential_application() {
        let a = RigidTransform {
            rotation: Quat::from_axis_angle([0.0, 0.0, 1.0], 0.4),
            pivot: [1.0, 2.0, 0.0],
            translation: [0.1, -0.2, 0.3],
        };
        let b = RigidTransform {
            rotation: Quat::from_axis_angle([1.0, 1.0, 0.0], -0.7),
            pivot: [-3.0, 0.5, 2.0],
            translation: [0.0, 1.0, 0.0],
        };
        let c = a.then(&b);
        for p in [[0.0, 0.0, 0.0], [1.0, -2.0, 3.0], [5.5, 0.1, -0.4]] {
            let seq = b.apply(a.apply(p));
            let comp = c.apply(p);
            for d in 0..3 {
                assert!((seq[d] - comp[d]).abs() < 1e-12, "{seq:?} vs {comp:?}");
            }
        }
        // Identity laws.
        let id = RigidTransform::IDENTITY;
        let ia = id.then(&a);
        for p in [[0.3, 0.7, -0.2]] {
            let x = ia.apply(p);
            let y = a.apply(p);
            for d in 0..3 {
                assert!((x[d] - y[d]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn negligible_motion_detection() {
        let bb = crate::bbox::Aabb { min: [0.0; 3], max: [1.0, 2.0, 3.0] };
        assert!(RigidTransform::IDENTITY.is_negligible_for(&bb));
        // A zero translation is the identity bit-for-bit.
        assert!(RigidTransform::translation([0.0; 3]).is_negligible_for(&bb));
        // Sub-epsilon translation: negligible but not the exact identity.
        let tiny = RigidTransform::translation([1e-15, 0.0, 0.0]);
        assert!(!tiny.is_identity() && tiny.is_negligible_for(&bb));
        // Real motion is not negligible.
        assert!(!RigidTransform::translation([1e-3, 0.0, 0.0]).is_negligible_for(&bb));
        let rot = RigidTransform::rotation_about([0.5, 1.0, 1.5], [0.0, 0.0, 1.0], 0.01);
        assert!(!rot.is_negligible_for(&bb));
    }
}
