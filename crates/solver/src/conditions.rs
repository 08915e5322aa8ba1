//! Flow conditions, nondimensionalization and state conversions.
//!
//! Nondimensionalization follows the OVERFLOW convention: density by ρ∞,
//! velocity by the freestream *sound speed* a∞, pressure by ρ∞ a∞². Thus
//! ρ∞ = 1, a∞ = 1, p∞ = 1/γ and the freestream speed is the Mach number.

use overset_grid::field::NVAR;

/// Ratio of specific heats for air.
pub const GAMMA: f64 = 1.4;

/// Laminar Prandtl number.
pub const PRANDTL: f64 = 0.72;

/// Turbulent Prandtl number.
pub const PRANDTL_T: f64 = 0.9;

/// Freestream and model configuration for one case.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FlowConditions {
    /// Freestream Mach number.
    pub mach: f64,
    /// Angle of attack, radians (in the x–y plane).
    pub alpha: f64,
    /// Reynolds number based on the reference length and freestream speed.
    pub reynolds: f64,
    /// Time step (nondimensional).
    pub dt: f64,
}

impl FlowConditions {
    pub fn new(mach: f64, alpha_deg: f64, reynolds: f64) -> Self {
        FlowConditions { mach, alpha: alpha_deg.to_radians(), reynolds, dt: 0.05 }
    }

    /// Freestream conserved state `[ρ, ρu, ρv, ρw, e]`.
    pub fn freestream(&self) -> [f64; NVAR] {
        let u = self.mach * self.alpha.cos();
        let v = self.mach * self.alpha.sin();
        let w = 0.0;
        let p = 1.0 / GAMMA;
        let e = p / (GAMMA - 1.0) + 0.5 * (u * u + v * v + w * w);
        [1.0, u, v, w, e]
    }

    /// Viscous-flux coefficient: with velocities scaled by a∞, the
    /// nondimensional viscous terms carry `M∞ / Re` (Re being built on the
    /// freestream *speed*).
    pub fn viscous_coefficient(&self) -> f64 {
        if self.reynolds <= 0.0 {
            0.0
        } else {
            self.mach / self.reynolds
        }
    }
}

/// Pressure from a conserved state.
#[inline]
pub fn pressure(q: &[f64; NVAR]) -> f64 {
    let inv_rho = 1.0 / q[0];
    (GAMMA - 1.0) * (q[4] - 0.5 * inv_rho * (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]))
}

/// Sound speed from a conserved state.
#[inline]
pub fn sound_speed(q: &[f64; NVAR]) -> f64 {
    (GAMMA * pressure(q) / q[0]).sqrt()
}

/// Primitive variables `[ρ, u, v, w, p]` from a conserved state.
#[inline]
pub fn primitives(q: &[f64; NVAR]) -> [f64; NVAR] {
    let inv_rho = 1.0 / q[0];
    [q[0], q[1] * inv_rho, q[2] * inv_rho, q[3] * inv_rho, pressure(q)]
}

/// Conserved state from primitives `[ρ, u, v, w, p]`.
#[inline]
pub fn conservatives(w: &[f64; NVAR]) -> [f64; NVAR] {
    let (rho, u, v, ww, p) = (w[0], w[1], w[2], w[3], w[4]);
    [rho, rho * u, rho * v, rho * ww, p / (GAMMA - 1.0) + 0.5 * rho * (u * u + v * v + ww * ww)]
}

/// Sutherland constant over T∞ (sea level).
pub const SUTHERLAND_S: f64 = 110.4 / 288.15;

/// Sutherland's law for nondimensional molecular viscosity, with
/// temperature `T = γ p / ρ` normalized so `T∞ = 1` (a∞-based scaling).
#[inline]
pub fn sutherland_viscosity(q: &[f64; NVAR]) -> f64 {
    let t = GAMMA * pressure(q) / q[0];
    const S: f64 = SUTHERLAND_S;
    t.powf(1.5) * (1.0 + S) / (t + S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freestream_roundtrip() {
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let q = fc.freestream();
        assert_eq!(q[0], 1.0);
        assert!((q[1] - 0.8).abs() < 1e-15);
        assert!((pressure(&q) - 1.0 / GAMMA).abs() < 1e-15);
        assert!((sound_speed(&q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_rotates_velocity() {
        let fc = FlowConditions::new(1.6, 10.0, 0.0);
        let q = fc.freestream();
        let speed = (q[1] * q[1] + q[2] * q[2]).sqrt();
        assert!((speed - 1.6).abs() < 1e-12);
        assert!((q[2] / q[1] - 10.0f64.to_radians().tan()).abs() < 1e-12);
    }

    #[test]
    fn primitive_conservative_roundtrip() {
        let w = [1.3, 0.4, -0.2, 0.1, 0.9];
        let q = conservatives(&w);
        let w2 = primitives(&q);
        for t in 0..NVAR {
            assert!((w[t] - w2[t]).abs() < 1e-14, "var {t}");
        }
    }

    #[test]
    fn viscous_coefficient_inviscid_case() {
        assert_eq!(FlowConditions::new(0.8, 0.0, 0.0).viscous_coefficient(), 0.0);
        let c = FlowConditions::new(0.8, 0.0, 1.0e6).viscous_coefficient();
        assert!((c - 0.8e-6).abs() < 1e-18);
    }

    #[test]
    fn sutherland_at_freestream_is_unity() {
        let fc = FlowConditions::new(0.8, 0.0, 1.0e6);
        let mu = sutherland_viscosity(&fc.freestream());
        assert!((mu - 1.0).abs() < 1e-12, "mu = {mu}");
    }

    #[test]
    fn sutherland_increases_with_temperature() {
        // Hotter gas (higher p at same rho) is more viscous.
        let cold = conservatives(&[1.0, 0.0, 0.0, 0.0, 1.0 / GAMMA]);
        let hot = conservatives(&[1.0, 0.0, 0.0, 0.0, 2.0 / GAMMA]);
        assert!(sutherland_viscosity(&hot) > sutherland_viscosity(&cold));
    }
}
