//! Lane-batched compute kernels for the implicit line sweeps.
//!
//! Every kernel here processes up to [`W`] *independent* problems side by
//! side — one SIMD lane per implicit line or per node — and performs, on
//! each lane, exactly the operation sequence of the scalar reference forms
//! in the tests of [`crate::adi`] and [`crate::rhs`]. Only vertical
//! (per-lane) `add`, `sub`, `mul`, `div` are used: no horizontal
//! reductions, no FMA. AVX2 executes those correctly rounded per lane, so
//! the batched results are **bit-identical** to the scalar ones; the
//! `Isa::Scalar` path (hosts without AVX2) runs the same batched structure
//! with `[f64; 4]` lanes.
//!
//! The *sweep group* kernels ([`sweep_forward_group`] and friends) are what
//! [`crate::adi::implicit_sweeps`] drives over lane-transposed scratch —
//! including the Sherman–Morrison periodic variant and the pipelined chunk
//! carries. Layout: row `c`, variable `v`, lane `l` of a value array at
//! `(c * NVAR + v) * W + l`; eigenvalue rows are shifted by one (`r = c + 1`)
//! so rows `-1` and `n` hold the halo frames.

use crate::adi::BETA;
use crate::lanes::{Lane4, W};
use overset_grid::field::NVAR;
use overset_grid::index::{Dims, IndexBox};
use overset_grid::metrics::Metric;

/// Lane-interleaved footprint of one node row (`NVAR` variables × `W` lanes).
pub const NVW: usize = NVAR * W;

/// Define a lane-batched kernel: a generic body monomorphized over
/// [`Lane4`], dispatched at runtime to scalar lanes or to an
/// `#[target_feature(enable = "avx2")]` instantiation. Exported so sibling
/// crates (connectivity) define their kernels with the same dispatch.
#[macro_export]
macro_rules! lane_kernel {
    (
        $(#[$meta:meta])*
        pub fn $name:ident<L>($($arg:ident : $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$meta])*
        #[allow(clippy::too_many_arguments)]
        pub fn $name(isa: $crate::Isa, $($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn inner<L: $crate::Lane4>($($arg: $ty),*) $(-> $ret)? $body
            match isa {
                $crate::Isa::Scalar => inner::<$crate::ScalarLanes>($($arg),*),
                #[cfg(target_arch = "x86_64")]
                $crate::Isa::Avx2 => {
                    #[target_feature(enable = "avx2")]
                    #[allow(clippy::too_many_arguments)]
                    unsafe fn inner_avx2($($arg: $ty),*) $(-> $ret)? {
                        inner::<$crate::AvxLanes>($($arg),*)
                    }
                    // SAFETY: `Isa::Avx2` is only produced by
                    // `lanes::select_isa` after runtime AVX2 detection.
                    unsafe { inner_avx2($($arg),*) }
                }
                #[cfg(not(target_arch = "x86_64"))]
                $crate::Isa::Avx2 => inner::<$crate::ScalarLanes>($($arg),*),
            }
        }
    };
}

/// SoA field offsets of the cached characteristic frames (`fr` arrays,
/// layout `fr[field * stride + m]` for node index `m`): metric normal `k`,
/// tangents `t1`/`t2`, density, velocity, sound speed, the five signed
/// eigenvalues, and the spectral radius.
pub const FR_K: usize = 0;
pub const FR_T1: usize = 3;
pub const FR_T2: usize = 6;
pub const FR_RHO: usize = 9;
pub const FR_U: usize = 10;
pub const FR_C: usize = 13;
pub const FR_LAM: usize = 14;
pub const FR_SIG: usize = 19;
/// Number of SoA frame fields.
pub const FR_FIELDS: usize = 20;

/// SoA field offsets of the residual's per-direction node cache: pressure,
/// JST pressure switch ν, scaled spectral radius σ̂, contravariant flux F̂.
pub const RC_P: usize = 0;
pub const RC_NU: usize = 1;
pub const RC_SIG: usize = 2;
pub const RC_F: usize = 3;
/// Number of per-direction node-cache fields.
pub const RC_FIELDS: usize = 8;

/// SoA field offsets of the thin-layer node cache: velocity, kinetic energy
/// per unit mass, a² = γp/ρ, Sutherland viscosity.
pub const VC_U: usize = 0;
pub const VC_KE: usize = 3;
pub const VC_A2: usize = 4;
pub const VC_MUL: usize = 5;
/// Number of thin-layer node-cache fields.
pub const VC_FIELDS: usize = 6;

/// Offset strides of an `i`-fastest array of dimensions `d`.
#[inline]
pub(crate) fn strides(d: Dims) -> [usize; 3] {
    [1, d.ni, d.ni * d.nj]
}

/// The interleaved state of the node at storage offset `s`.
#[inline(always)]
pub(crate) fn node_at(q: &[f64], s: usize) -> &[f64; NVAR] {
    q[s * NVAR..(s + 1) * NVAR].try_into().unwrap()
}

/// A box of nodes walked row by row in storage order (`i` fastest): where
/// each row starts in block storage (`src`) and in a flat SoA laid out over
/// an enclosing box (`dst`). The pointwise kernels run four consecutive
/// nodes of a row per lane group; a ragged row tail replicates its last
/// node into the padding lanes and stores only the real ones.
#[derive(Clone, Copy, Debug)]
pub struct Rows {
    /// Row length and row counts.
    pub ni: usize,
    pub nj: usize,
    pub nk: usize,
    pub src: usize,
    pub src_j: usize,
    pub src_k: usize,
    pub dst: usize,
    pub dst_j: usize,
    pub dst_k: usize,
}

impl Rows {
    /// Rows of `sub` inside storage of dimensions `storage`, paired with
    /// their positions in an SoA laid out over `soa` (`sub ⊆ soa`).
    pub fn new(storage: Dims, sub: IndexBox, soa: IndexBox) -> Rows {
        let sd = sub.dims();
        let ([_, src_j, src_k], [_, dst_j, dst_k]) = (strides(storage), strides(soa.dims()));
        Rows {
            ni: sd.ni,
            nj: sd.nj,
            nk: sd.nk,
            src: storage.offset(sub.lo),
            src_j,
            src_k,
            dst: (sub.lo.i - soa.lo.i)
                + (sub.lo.j - soa.lo.j) * dst_j
                + (sub.lo.k - soa.lo.k) * dst_k,
            dst_j,
            dst_k,
        }
    }

    /// `(src, dst)` offsets of every row start.
    #[inline(always)]
    pub fn starts(self) -> impl Iterator<Item = (usize, usize)> {
        (0..self.nk).flat_map(move |k| {
            (0..self.nj).map(move |j| {
                (
                    self.src + j * self.src_j + k * self.src_k,
                    self.dst + j * self.dst_j + k * self.dst_k,
                )
            })
        })
    }
}

/// Conserved state of `nv` consecutive nodes from the interleaved storage,
/// one node per lane (padding lanes replicate node `nv - 1`).
#[inline(always)]
fn gather_state<L: Lane4>(q: &[f64], s: usize, nv: usize) -> [L; NVAR] {
    let q = &q[s * NVAR..(s + nv) * NVAR];
    std::array::from_fn(|v| L::from_array(std::array::from_fn(|l| q[l.min(nv - 1) * NVAR + v])))
}

/// Metric row of direction `dir`, Jacobian and grid velocity of `nv`
/// consecutive nodes, one node per lane.
#[inline(always)]
fn gather_geometry<L: Lane4>(
    met: &[Metric],
    vel: &[[f64; 3]],
    dir: usize,
    s: usize,
    nv: usize,
) -> ([L; 3], L, [L; 3]) {
    let (met, vel) = (&met[s..s + nv], &vel[s..s + nv]);
    let g: [[f64; 3]; W] = std::array::from_fn(|l| met[l.min(nv - 1)].grad(dir));
    (
        std::array::from_fn(|t| L::from_array(std::array::from_fn(|l| g[l][t]))),
        L::from_array(std::array::from_fn(|l| met[l.min(nv - 1)].jac)),
        std::array::from_fn(|t| L::from_array(std::array::from_fn(|l| vel[l.min(nv - 1)][t]))),
    )
}

/// `pressure(q)` on four lanes, in the scalar operation order.
#[inline(always)]
fn pressure_lanes<L: Lane4>(q: &[L; NVAR], inv_rho: L) -> L {
    let gm1 = L::splat(crate::conditions::GAMMA - 1.0);
    let ke2 = q[1].mul(q[1]).add(q[2].mul(q[2])).add(q[3].mul(q[3]));
    gm1.mul(q[4].sub(L::splat(0.5).mul(inv_rho).mul(ke2)))
}

lane_kernel! {
    /// Pointwise characteristic frames + forward transform over the owned
    /// nodes in storage order: for every node of `rows` compute the local
    /// characteristic frame of direction `dir` straight from the block
    /// arrays (`q` interleaved state, `met`, `vel`) and transform the
    /// conservative RHS `dw` (five fields × `stride`, in place) to
    /// characteristic variables. The frame is written to the SoA `fr`
    /// ([`FR_K`]..). Each lane performs exactly the operation sequence of
    /// the scalar `char_frame` + `to_char` pair in the tests of [`crate::adi`], so
    /// results are bit-identical across lanes and ISAs.
    pub fn frames_forward_rows<L>(
        rows: Rows,
        dir: usize,
        q: &[f64],
        met: &[Metric],
        vel: &[[f64; 3]],
        stride: usize,
        dw: &mut [f64],
        fr: &mut [f64],
    ) {
        let zero = L::splat(0.0);
        let one = L::splat(1.0);
        let half = L::splat(0.5);
        let gm1 = L::splat(crate::conditions::GAMMA - 1.0);
        let gam = L::splat(crate::conditions::GAMMA);
        for (s0, m0) in rows.starts() {
            let mut i = 0;
            while i < rows.ni {
                let nv = (rows.ni - i).min(W);
                let m = m0 + i;
                let qn = gather_state::<L>(q, s0 + i, nv);
                let [q0, q1, q2, q3, _] = qn;
                let ([g0, g1, g2], jac, [vg0, vg1, vg2]) =
                    gather_geometry::<L>(met, vel, dir, s0 + i, nv);

                // char_frame, lanewise in the scalar operation order.
                let s0v = g0.mul(jac);
                let s1 = g1.mul(jac);
                let s2 = g2.mul(jac);
                let ssq = s0v.mul(s0v).add(s1.mul(s1)).add(s2.mul(s2)).sqrt();
                let floor = L::splat(1e-300);
                let s_norm = L::select(ssq.lt(floor), floor, ssq);
                let k0 = s0v.div(s_norm);
                let k1 = s1.div(s_norm);
                let k2 = s2.div(s_norm);
                // Deterministic tangent basis: branch -> per-lane select of
                // the reference axis, then the identical cross products.
                let tangent_x = k0.abs().lt(L::splat(0.9));
                let ax = L::select(tangent_x, one, zero);
                let ay = L::select(tangent_x, zero, one);
                let az = zero;
                let mut t10 = k1.mul(az).sub(k2.mul(ay));
                let mut t11 = k2.mul(ax).sub(k0.mul(az));
                let mut t12 = k0.mul(ay).sub(k1.mul(ax));
                let n1 = t10.mul(t10).add(t11.mul(t11)).add(t12.mul(t12)).sqrt();
                t10 = t10.div(n1);
                t11 = t11.div(n1);
                t12 = t12.div(n1);
                let t20 = k1.mul(t12).sub(k2.mul(t11));
                let t21 = k2.mul(t10).sub(k0.mul(t12));
                let t22 = k0.mul(t11).sub(k1.mul(t10));
                let rho = q0;
                let u0 = q1.div(rho);
                let u1 = q2.div(rho);
                let u2 = q3.div(rho);
                // sound_speed(q) in the scalar operation order.
                let press = pressure_lanes(&qn, one.div(q0));
                let carg = gam.mul(press).div(q0);
                let cfloor = L::splat(1e-12);
                let c = L::select(carg.lt(cfloor), cfloor, carg).sqrt();
                let u_rel_n = s0v
                    .mul(u0.sub(vg0))
                    .add(s1.mul(u1.sub(vg1)))
                    .add(s2.mul(u2.sub(vg2)));
                let u_tilde = u_rel_n.div(jac);
                let c_tilde = c.mul(s_norm).div(jac);
                let sigma = u_tilde.abs().add(c_tilde);

                // (A macro, not a closure: a closure body would be compiled
                // outside the kernel's `target_feature` scope.)
                macro_rules! put {
                    ($f:expr, $x:expr) => {
                        $x.store_n(&mut fr[$f * stride + m..], nv)
                    };
                }
                put!(FR_K, k0);
                put!(FR_K + 1, k1);
                put!(FR_K + 2, k2);
                put!(FR_T1, t10);
                put!(FR_T1 + 1, t11);
                put!(FR_T1 + 2, t12);
                put!(FR_T2, t20);
                put!(FR_T2 + 1, t21);
                put!(FR_T2 + 2, t22);
                put!(FR_RHO, rho);
                put!(FR_U, u0);
                put!(FR_U + 1, u1);
                put!(FR_U + 2, u2);
                put!(FR_C, c);
                put!(FR_LAM, u_tilde);
                put!(FR_LAM + 1, u_tilde);
                put!(FR_LAM + 2, u_tilde);
                put!(FR_LAM + 3, u_tilde.add(c_tilde));
                put!(FR_LAM + 4, u_tilde.sub(c_tilde));
                put!(FR_SIG, sigma);

                // to_char, lanewise in the scalar operation order.
                let w0 = L::load_n(&dw[m..], nv);
                let w1 = L::load_n(&dw[stride + m..], nv);
                let w2 = L::load_n(&dw[2 * stride + m..], nv);
                let w3 = L::load_n(&dw[3 * stride + m..], nv);
                let w4 = L::load_n(&dw[4 * stride + m..], nv);
                let d_rho = w0;
                let du0 = w1.sub(u0.mul(d_rho)).div(rho);
                let du1 = w2.sub(u1.mul(d_rho)).div(rho);
                let du2 = w3.sub(u2.mul(d_rho)).div(rho);
                let ke = half.mul(u0.mul(u0).add(u1.mul(u1)).add(u2.mul(u2)));
                let dp = gm1.mul(
                    w4.add(ke.mul(d_rho)).sub(u0.mul(w1)).sub(u1.mul(w2)).sub(u2.mul(w3)),
                );
                let un = k0.mul(du0).add(k1.mul(du1)).add(k2.mul(du2));
                let c2 = c.mul(c);
                let dp_rc = dp.div(rho.mul(c));
                d_rho.sub(dp.div(c2)).store_n(&mut dw[m..], nv);
                t10.mul(du0).add(t11.mul(du1)).add(t12.mul(du2)).store_n(&mut dw[stride + m..], nv);
                t20.mul(du0)
                    .add(t21.mul(du1))
                    .add(t22.mul(du2))
                    .store_n(&mut dw[2 * stride + m..], nv);
                un.add(dp_rc).store_n(&mut dw[3 * stride + m..], nv);
                un.sub(dp_rc).store_n(&mut dw[4 * stride + m..], nv);
                i += W;
            }
        }
    }
}

lane_kernel! {
    /// Pointwise inverse characteristic transform (`from_char`) over the
    /// first `mm` nodes of the SoA: `dw` enters holding the characteristic
    /// solution (five fields × `stride`) and leaves holding conservative
    /// increments, using the frame SoA written by [`frames_forward_rows`].
    /// Scalar operation order per lane, so results are bit-identical across
    /// ISAs.
    pub fn from_char_lanes<L>(
        mm: usize,
        stride: usize,
        fr: &[f64],
        dw: &mut [f64],
    ) {
        let half = L::splat(0.5);
        let gm1 = L::splat(crate::conditions::GAMMA - 1.0);
        let mut m = 0;
        while m < mm {
            let nv = (mm - m).min(W);
            macro_rules! get {
                ($f:expr) => {
                    L::load_n(&fr[$f * stride + m..], nv)
                };
            }
            let k0 = get!(FR_K);
            let k1 = get!(FR_K + 1);
            let k2 = get!(FR_K + 2);
            let t10 = get!(FR_T1);
            let t11 = get!(FR_T1 + 1);
            let t12 = get!(FR_T1 + 2);
            let t20 = get!(FR_T2);
            let t21 = get!(FR_T2 + 1);
            let t22 = get!(FR_T2 + 2);
            let rho = get!(FR_RHO);
            let u0 = get!(FR_U);
            let u1 = get!(FR_U + 1);
            let u2 = get!(FR_U + 2);
            let c = get!(FR_C);
            let w0 = L::load_n(&dw[m..], nv);
            let w1 = L::load_n(&dw[stride + m..], nv);
            let w2 = L::load_n(&dw[2 * stride + m..], nv);
            let w3 = L::load_n(&dw[3 * stride + m..], nv);
            let w4 = L::load_n(&dw[4 * stride + m..], nv);

            let dp = half.mul(rho).mul(c).mul(w3.sub(w4));
            let un = half.mul(w3.add(w4));
            let d_rho = w0.add(dp.div(c.mul(c)));
            let du0 = t10.mul(w1).add(t20.mul(w2)).add(k0.mul(un));
            let du1 = t11.mul(w1).add(t21.mul(w2)).add(k1.mul(un));
            let du2 = t12.mul(w1).add(t22.mul(w2)).add(k2.mul(un));
            let ke = half.mul(u0.mul(u0).add(u1.mul(u1)).add(u2.mul(u2)));
            d_rho.store_n(&mut dw[m..], nv);
            u0.mul(d_rho).add(rho.mul(du0)).store_n(&mut dw[stride + m..], nv);
            u1.mul(d_rho).add(rho.mul(du1)).store_n(&mut dw[2 * stride + m..], nv);
            u2.mul(d_rho).add(rho.mul(du2)).store_n(&mut dw[3 * stride + m..], nv);
            ke.mul(d_rho)
                .add(rho.mul(u0.mul(du0).add(u1.mul(du1)).add(u2.mul(du2))))
                .add(dp.div(gm1))
                .store_n(&mut dw[4 * stride + m..], nv);
            m += W;
        }
    }
}

lane_kernel! {
    /// Residual node pass of one direction: for every node of `rows` the
    /// static pressure, the scaled spectral radius σ̂ = |Û_rel| + c|Ŝ| and the
    /// contravariant ALE flux F̂ of direction `dir`, written to the node
    /// cache ([`RC_P`], [`RC_SIG`], [`RC_F`]..). Each lane runs the exact
    /// operation sequence of the scalar `pressure` / `spectral_radius` /
    /// `hat_flux` reference in [`crate::rhs`].
    pub fn flux_node_rows<L>(
        rows: Rows,
        dir: usize,
        q: &[f64],
        met: &[Metric],
        vel: &[[f64; 3]],
        stride: usize,
        cache: &mut [f64],
    ) {
        let one = L::splat(1.0);
        let gam = L::splat(crate::conditions::GAMMA);
        for (s0, m0) in rows.starts() {
            let mut i = 0;
            while i < rows.ni {
                let nv = (rows.ni - i).min(W);
                let m = m0 + i;
                let qn = gather_state::<L>(q, s0 + i, nv);
                let ([g0, g1, g2], jac, [vg0, vg1, vg2]) =
                    gather_geometry::<L>(met, vel, dir, s0 + i, nv);
                // Ŝ = J ∇ξ.
                let s0v = g0.mul(jac);
                let s1 = g1.mul(jac);
                let s2 = g2.mul(jac);
                let inv_rho = one.div(qn[0]);
                let u0 = qn[1].mul(inv_rho);
                let u1 = qn[2].mul(inv_rho);
                let u2 = qn[3].mul(inv_rho);
                let p = pressure_lanes(&qn, inv_rho);
                let u_s = s0v.mul(u0).add(s1.mul(u1)).add(s2.mul(u2));
                let ug_s = s0v.mul(vg0).add(s1.mul(vg1)).add(s2.mul(vg2));
                let u_rel = u_s.sub(ug_s);
                // σ̂: the relative contravariant speed is re-summed in
                // `spectral_radius`'s own association.
                let s_norm = s0v.mul(s0v).add(s1.mul(s1)).add(s2.mul(s2)).sqrt();
                let u_rel_sr = s0v
                    .mul(u0.sub(vg0))
                    .add(s1.mul(u1.sub(vg1)))
                    .add(s2.mul(u2.sub(vg2)));
                let c = gam.mul(p).div(qn[0]).max(L::splat(1e-12)).sqrt();
                let sigma = u_rel_sr.abs().add(c.mul(s_norm));

                macro_rules! put {
                    ($f:expr, $x:expr) => {
                        $x.store_n(&mut cache[$f * stride + m..], nv)
                    };
                }
                put!(RC_P, p);
                put!(RC_SIG, sigma);
                put!(RC_F, qn[0].mul(u_rel));
                put!(RC_F + 1, qn[1].mul(u_rel).add(s0v.mul(p)));
                put!(RC_F + 2, qn[2].mul(u_rel).add(s1.mul(p)));
                put!(RC_F + 3, qn[3].mul(u_rel).add(s2.mul(p)));
                put!(RC_F + 4, qn[4].mul(u_rel).add(p.mul(u_s)));
                i += W;
            }
        }
    }
}

lane_kernel! {
    /// JST pressure switch ν = |p₊ − 2p + p₋| / max(p₊ + 2p + p₋, 10⁻¹²)
    /// for every node of `rows` (SoA positions only), from the cached
    /// pressures `mstep` entries apart along the differenced direction.
    pub fn nu_rows<L>(rows: Rows, mstep: usize, p: &[f64], nu: &mut [f64]) {
        let two = L::splat(2.0);
        for (_, m0) in rows.starts() {
            let mut i = 0;
            while i < rows.ni {
                let nv = (rows.ni - i).min(W);
                let m = m0 + i;
                let pm = L::load_n(&p[m - mstep..], nv);
                let pc = L::load_n(&p[m..], nv);
                let pp = L::load_n(&p[m + mstep..], nv);
                let num = pp.sub(two.mul(pc)).add(pm);
                let den = pp.add(two.mul(pc)).add(pm).max(L::splat(1e-12));
                num.div(den).abs().store_n(&mut nu[m..], nv);
                i += W;
            }
        }
    }
}

lane_kernel! {
    /// Thin-layer node pass: velocity, kinetic energy, a² = γp/ρ and the
    /// Sutherland viscosity of every node of `rows`, written to the node
    /// cache ([`VC_U`]..) in the operation order of the scalar
    /// `viscous_face_flux` reference (`powf` stays the libm call, per lane).
    pub fn viscous_node_rows<L>(rows: Rows, q: &[f64], stride: usize, cache: &mut [f64]) {
        use crate::conditions::SUTHERLAND_S;
        let one = L::splat(1.0);
        let half = L::splat(0.5);
        let gam = L::splat(crate::conditions::GAMMA);
        for (s0, m0) in rows.starts() {
            let mut i = 0;
            while i < rows.ni {
                let nv = (rows.ni - i).min(W);
                let m = m0 + i;
                let qn = gather_state::<L>(q, s0 + i, nv);
                let u0 = qn[1].div(qn[0]);
                let u1 = qn[2].div(qn[0]);
                let u2 = qn[3].div(qn[0]);
                let ke = half.mul(u0.mul(u0).add(u1.mul(u1)).add(u2.mul(u2)));
                let a2 = gam.mul(pressure_lanes(&qn, one.div(qn[0]))).div(qn[0]);
                let t = a2.max(L::splat(1e-12));
                let t15 = L::from_array(t.to_array().map(|x| x.powf(1.5)));
                let mu_l = t15.mul(L::splat(1.0 + SUTHERLAND_S)).div(t.add(L::splat(SUTHERLAND_S)));

                macro_rules! put {
                    ($f:expr, $x:expr) => {
                        $x.store_n(&mut cache[$f * stride + m..], nv)
                    };
                }
                put!(VC_U, u0);
                put!(VC_U + 1, u1);
                put!(VC_U + 2, u2);
                put!(VC_KE, ke);
                put!(VC_A2, a2);
                put!(VC_MUL, mu_l);
                i += W;
            }
        }
    }
}

/// One Thomas forward-elimination step on four lanes:
/// `bp = b - a·cp₋`, `cp = c/bp`, `dp = (d - a·dp₋)/bp` — the exact
/// operation order of the scalar Thomas algorithm's inner loop.
#[inline(always)]
fn thomas_step<L: Lane4>(a: L, b: L, c: L, d: L, prev_cp: L, prev_dp: L) -> (L, L) {
    let bp = b.sub(a.mul(prev_cp));
    (c.div(bp), d.sub(a.mul(prev_dp)).div(bp))
}

/// First Thomas row (no upstream coupling): `cp = c/b`, `dp = d/b`.
#[inline(always)]
fn thomas_first<L: Lane4>(b: L, c: L, d: L) -> (L, L) {
    (c.div(b), d.div(b))
}

/// Sweep-row implicit coefficients for one characteristic variable, on four
/// lanes — the vector form of `row_abc` in the tests of [`crate::adi`] (identity rows are
/// blended to `(0, 1, 0)` afterwards by the caller).
#[inline(always)]
fn coeffs<L: Lane4>(dt: L, tbd: L, lam_m: L, sig_m: L, sig_0: L, lam_p: L, sig_p: L) -> (L, L, L) {
    let beta = L::splat(BETA);
    let a = dt.mul(L::splat(-0.5).mul(lam_m).sub(beta.mul(sig_m)));
    let b = L::splat(1.0).add(tbd.mul(sig_0));
    let cc = dt.mul(L::splat(0.5).mul(lam_p).sub(beta.mul(sig_p)));
    (a, b, cc)
}

lane_kernel! {
    /// Forward-eliminate one lane group of an *open* implicit sweep: up to
    /// [`W`] lines over `n` nodes, `NVAR` independent systems per line.
    ///
    /// `lam`/`sig` hold the eigenvalues and spectral radii in shifted rows
    /// (`r = c + 1`, rows `0` and `n + 1` are the halo frames); `idm` holds
    /// the per-node identity masks (sign bit set on blanked rows). `d` is
    /// the characteristic RHS in/out; `cp` receives the normalized
    /// super-diagonals. `carry_cp`/`carry_dp` enter holding the upstream
    /// pipeline carry when `have_carry` and leave holding this group's
    /// last-row carry.
    pub fn sweep_forward_group<L>(
        dt: f64,
        n: usize,
        lam: &[f64],
        sig: &[f64],
        idm: &[f64],
        d: &mut [f64],
        cp: &mut [f64],
        carry_cp: &mut [f64; NVW],
        carry_dp: &mut [f64; NVW],
        have_carry: bool,
    ) {
        let zero = L::splat(0.0);
        let one = L::splat(1.0);
        let dtv = L::splat(dt);
        // 2.0 * BETA * dt with scalar left-associated rounding.
        let tbd = L::splat(2.0 * BETA * dt);
        let mut pcp: [L; NVAR] = [zero; NVAR];
        let mut pdp: [L; NVAR] = [zero; NVAR];
        for v in 0..NVAR {
            pcp[v] = L::load(&carry_cp[v * W..]);
            pdp[v] = L::load(&carry_dp[v * W..]);
        }
        for c in 0..n {
            let first = c == 0 && !have_carry;
            let sig_m = L::load(&sig[c * W..]);
            let sig_0 = L::load(&sig[(c + 1) * W..]);
            let sig_p = L::load(&sig[(c + 2) * W..]);
            let ident = L::load(&idm[c * W..]);
            for v in 0..NVAR {
                let lam_m = L::load(&lam[(c * NVAR + v) * W..]);
                let lam_p = L::load(&lam[((c + 2) * NVAR + v) * W..]);
                let (a, b, cc) = coeffs(dtv, tbd, lam_m, sig_m, sig_0, lam_p, sig_p);
                let a = L::select(ident, zero, a);
                let b = L::select(ident, one, b);
                let cc = L::select(ident, zero, cc);
                let dv = L::select(ident, zero, L::load(&d[(c * NVAR + v) * W..]));
                let (cpv, dnew) = if first {
                    thomas_first(b, cc, dv)
                } else {
                    thomas_step(a, b, cc, dv, pcp[v], pdp[v])
                };
                cpv.store(&mut cp[(c * NVAR + v) * W..]);
                dnew.store(&mut d[(c * NVAR + v) * W..]);
                pcp[v] = cpv;
                pdp[v] = dnew;
            }
        }
        for v in 0..NVAR {
            pcp[v].store(&mut carry_cp[v * W..]);
            pdp[v].store(&mut carry_dp[v * W..]);
        }
    }
}

lane_kernel! {
    /// Back-substitute one lane group of an open sweep. `seed` is the
    /// downstream rank's first unknowns (lane-interleaved), `None` when this
    /// group owns the end of its lines.
    pub fn sweep_backward_group<L>(
        n: usize,
        cp: &[f64],
        d: &mut [f64],
        seed: Option<&[f64; NVW]>,
    ) {
        let mut next: [L; NVAR] = [L::splat(0.0); NVAR];
        for v in 0..NVAR {
            let row = ((n - 1) * NVAR + v) * W;
            let mut x = L::load(&d[row..]);
            if let Some(xd) = seed {
                x = x.sub(L::load(&cp[row..]).mul(L::load(&xd[v * W..])));
                x.store(&mut d[row..]);
            }
            next[v] = x;
        }
        for c in (0..n.saturating_sub(1)).rev() {
            for (v, nx) in next.iter_mut().enumerate() {
                let row = (c * NVAR + v) * W;
                let x = L::load(&d[row..]).sub(L::load(&cp[row..]).mul(*nx));
                x.store(&mut d[row..]);
                *nx = x;
            }
        }
    }
}

lane_kernel! {
    /// Forward-eliminate one lane group of the *cyclic* (Sherman–Morrison)
    /// `i`-sweep: two right-hand sides per system (`y` physical, `z`
    /// rank-one correction column) plus the per-line corner parameters
    /// `alpha`/`gamma` (set at the first row of the chain, consumed at the
    /// last). Flags mirror the scalar code: `is_first`/`is_last` say whether
    /// this rank owns the chain ends.
    pub fn periodic_forward_group<L>(
        dt: f64,
        n: usize,
        lam: &[f64],
        sig: &[f64],
        idm: &[f64],
        y: &mut [f64],
        z: &mut [f64],
        cp: &mut [f64],
        alpha: &mut [f64; NVW],
        gamma: &mut [f64; NVW],
        carry_cp: &mut [f64; NVW],
        carry_y: &mut [f64; NVW],
        carry_z: &mut [f64; NVW],
        have_carry: bool,
        is_first: bool,
        is_last: bool,
    ) {
        let zero = L::splat(0.0);
        let one = L::splat(1.0);
        let dtv = L::splat(dt);
        let tbd = L::splat(2.0 * BETA * dt);
        let mut pcp: [L; NVAR] = [zero; NVAR];
        let mut py: [L; NVAR] = [zero; NVAR];
        let mut pz: [L; NVAR] = [zero; NVAR];
        let mut al: [L; NVAR] = [zero; NVAR];
        let mut ga: [L; NVAR] = [zero; NVAR];
        for v in 0..NVAR {
            pcp[v] = L::load(&carry_cp[v * W..]);
            py[v] = L::load(&carry_y[v * W..]);
            pz[v] = L::load(&carry_z[v * W..]);
            al[v] = L::load(&alpha[v * W..]);
            ga[v] = L::load(&gamma[v * W..]);
        }
        for c in 0..n {
            let first = c == 0 && !have_carry;
            let sig_m = L::load(&sig[c * W..]);
            let sig_0 = L::load(&sig[(c + 1) * W..]);
            let sig_p = L::load(&sig[(c + 2) * W..]);
            let ident = L::load(&idm[c * W..]);
            for v in 0..NVAR {
                let lam_m = L::load(&lam[(c * NVAR + v) * W..]);
                let lam_p = L::load(&lam[((c + 2) * NVAR + v) * W..]);
                let (a, b, cc) = coeffs(dtv, tbd, lam_m, sig_m, sig_0, lam_p, sig_p);
                let a = L::select(ident, zero, a);
                let mut b = L::select(ident, one, b);
                let cc = L::select(ident, zero, cc);
                let mut u_rhs = zero;
                if is_first && c == 0 {
                    // Corner entries of the cyclic system.
                    ga[v] = b.neg();
                    al[v] = a;
                    b = b.sub(ga[v]);
                    u_rhs = ga[v];
                }
                if is_last && c == n - 1 {
                    // Coupling of the last row back to node 0 through the
                    // duplicated seam node's frame.
                    let beta = cc;
                    b = b.sub(al[v].mul(beta).div(ga[v]));
                    u_rhs = beta;
                }
                let yv = L::select(ident, zero, L::load(&y[(c * NVAR + v) * W..]));
                let (bp, ynum, znum) = if first {
                    (b, yv, u_rhs)
                } else {
                    (
                        b.sub(a.mul(pcp[v])),
                        yv.sub(a.mul(py[v])),
                        u_rhs.sub(a.mul(pz[v])),
                    )
                };
                let cpv = cc.div(bp);
                let ynew = ynum.div(bp);
                let znew = znum.div(bp);
                cpv.store(&mut cp[(c * NVAR + v) * W..]);
                ynew.store(&mut y[(c * NVAR + v) * W..]);
                znew.store(&mut z[(c * NVAR + v) * W..]);
                pcp[v] = cpv;
                py[v] = ynew;
                pz[v] = znew;
            }
        }
        for v in 0..NVAR {
            pcp[v].store(&mut carry_cp[v * W..]);
            py[v].store(&mut carry_y[v * W..]);
            pz[v].store(&mut carry_z[v * W..]);
            al[v].store(&mut alpha[v * W..]);
            ga[v].store(&mut gamma[v * W..]);
        }
    }
}

lane_kernel! {
    /// Back-substitute one lane group of the cyclic sweep: both the
    /// physical RHS `y` and the correction column `z`. `seed` holds the
    /// downstream rank's first unknowns for both (`y_next`, `z_next`).
    pub fn periodic_backward_group<L>(
        n: usize,
        cp: &[f64],
        y: &mut [f64],
        z: &mut [f64],
        seed: Option<(&[f64; NVW], &[f64; NVW])>,
    ) {
        let mut ny: [L; NVAR] = [L::splat(0.0); NVAR];
        let mut nz: [L; NVAR] = [L::splat(0.0); NVAR];
        for v in 0..NVAR {
            let row = ((n - 1) * NVAR + v) * W;
            let mut yv = L::load(&y[row..]);
            let mut zv = L::load(&z[row..]);
            if let Some((ynext, znext)) = seed {
                let cpv = L::load(&cp[row..]);
                yv = yv.sub(cpv.mul(L::load(&ynext[v * W..])));
                zv = zv.sub(cpv.mul(L::load(&znext[v * W..])));
                yv.store(&mut y[row..]);
                zv.store(&mut z[row..]);
            }
            ny[v] = yv;
            nz[v] = zv;
        }
        for c in (0..n.saturating_sub(1)).rev() {
            for v in 0..NVAR {
                let row = (c * NVAR + v) * W;
                let cpv = L::load(&cp[row..]);
                let yv = L::load(&y[row..]).sub(cpv.mul(ny[v]));
                let zv = L::load(&z[row..]).sub(cpv.mul(nz[v]));
                yv.store(&mut y[row..]);
                zv.store(&mut z[row..]);
                ny[v] = yv;
                nz[v] = zv;
            }
        }
    }
}

lane_kernel! {
    /// Apply the Sherman–Morrison correction `y ← y − fact·z` to one lane
    /// group (fact is constant per line and variable).
    pub fn periodic_correct_group<L>(
        n: usize,
        fact: &[f64; NVW],
        y: &mut [f64],
        z: &[f64],
    ) {
        let mut fv: [L; NVAR] = [L::splat(0.0); NVAR];
        for v in 0..NVAR {
            fv[v] = L::load(&fact[v * W..]);
        }
        for c in 0..n {
            for (v, &f) in fv.iter().enumerate() {
                let row = (c * NVAR + v) * W;
                let yv = L::load(&y[row..]).sub(f.mul(L::load(&z[row..])));
                yv.store(&mut y[row..]);
            }
        }
    }
}
