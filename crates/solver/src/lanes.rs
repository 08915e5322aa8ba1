//! Lane-batching utilities for the compute kernels.
//!
//! The hot loops of this codebase — line-implicit eliminations, trilinear
//! Newton inversions, containment tests — are all *batches of independent
//! scalar problems*: one implicit line, one candidate cell, one node. The
//! kernels in [`crate::kernels`] (and the connectivity crate) batch `W`
//! such problems side by side, **one SIMD lane per problem**, and perform
//! exactly the scalar operation sequence on each lane. Because AVX2's
//! `add/sub/mul/div/sqrt` are IEEE-754 correctly rounded *per lane* and no
//! horizontal operations (or FMA contractions) are ever used, each lane's
//! result is bit-identical to the scalar code — the batched-vs-scalar tests
//! and proptests pin this.
//!
//! Dispatch is resolved once per run: [`select_isa`] feature-detects AVX2
//! the first time it is called and caches the answer; kernels take the
//! resulting [`Isa`] value and monomorphize over the [`Lane4`] trait, whose
//! two implementations ([`ScalarLanes`], and `AvxLanes` on x86-64) execute
//! the same per-lane arithmetic. Under `Isa::Scalar` the batched structure
//! runs unchanged, only the lane arithmetic is carried out by scalar
//! instructions.

use std::sync::atomic::{AtomicU8, Ordering};

/// Lane width of every batched kernel (f64 lanes in one AVX2 register).
pub const W: usize = 4;

/// Which instruction set carries the lane arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Isa {
    /// Portable fallback: the batched kernels run with `[f64; 4]` lanes.
    /// The default, so library entry points that never see a driver config
    /// stay conservative; the driver upgrades to the detected ISA.
    #[default]
    Scalar,
    /// AVX2 `__m256d` lanes (x86-64 only, runtime-detected).
    Avx2,
}

/// 0 = unknown, 1 = unsupported, 2 = supported.
static AVX2_STATE: AtomicU8 = AtomicU8::new(0);

/// Does the host support AVX2? Feature-detected once, then cached.
pub fn avx2_supported() -> bool {
    match AVX2_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            #[cfg(target_arch = "x86_64")]
            let yes = std::arch::is_x86_feature_detected!("avx2");
            #[cfg(not(target_arch = "x86_64"))]
            let yes = false;
            AVX2_STATE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
    }
}

/// The dispatch for a run: AVX2 when the host has it, scalar lanes
/// otherwise.
pub fn select_isa() -> Isa {
    if avx2_supported() {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

/// Four f64 lanes with IEEE-exact per-lane arithmetic.
///
/// Masks (from [`Lane4::lt`] / [`Lane4::mask`]) follow AVX2 `blendv`
/// semantics: only the **sign bit** of each lane decides a select. The
/// scalar implementation reproduces this exactly.
pub trait Lane4: Copy {
    fn splat(x: f64) -> Self;
    /// Load 4 lanes from `src[0..4]`.
    fn load(src: &[f64]) -> Self;
    /// Store 4 lanes to `dst[0..4]`.
    fn store(self, dst: &mut [f64]);
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    fn sqrt(self) -> Self;
    fn neg(self) -> Self;
    fn abs(self) -> Self;
    /// Lanewise [`f64::max`]: a NaN lane yields the other operand, so a
    /// non-finite value read from a blanked node cannot poison the maximum.
    fn max(self, o: Self) -> Self;
    /// Lanewise `self < o`: all-ones lanes where true, zero where false.
    fn lt(self, o: Self) -> Self;
    /// Lanewise `self <= o` mask.
    fn le(self, o: Self) -> Self;
    /// Per-lane select: lanes where `mask`'s sign bit is set take `a`,
    /// otherwise `b` (AVX2 `blendv` semantics).
    fn select(mask: Self, a: Self, b: Self) -> Self;
    /// The 4 × 4 transpose: lane `l` of output `r` is lane `r` of input `l`
    /// (data movement only, exact).
    fn transpose(rows: [Self; W]) -> [Self; W];
    /// The lanes' sign bits, lane `l`'s in bit `l`: a mask read out of the
    /// lanes (no arithmetic).
    fn signs(self) -> u32;
    fn to_array(self) -> [f64; W];
    fn from_array(a: [f64; W]) -> Self {
        Self::load(&a)
    }
    /// Load the first `n` lanes from `src[..n]`; the rest replicate lane
    /// `n - 1` (ragged row tails: padding lanes compute on real data and are
    /// never stored).
    #[inline(always)]
    fn load_n(src: &[f64], n: usize) -> Self {
        if n == W {
            Self::load(src)
        } else {
            let src = &src[..n];
            Self::from_array([src[0], src[1.min(n - 1)], src[2.min(n - 1)], src[n - 1]])
        }
    }
    /// Store the first `n` lanes to `dst[..n]` (lane by lane: a `memcpy`
    /// call would cost a tail more than its arithmetic).
    #[inline(always)]
    fn store_n(self, dst: &mut [f64], n: usize) {
        if n == W {
            self.store(dst);
        } else {
            for (d, x) in dst[..n].iter_mut().zip(self.to_array()) {
                *d = x;
            }
        }
    }
    /// Lane `l` from `src[idx[l]]`: the lanes of lines that are not
    /// neighbours in memory.
    ///
    /// # Safety
    ///
    /// Every index is below `src.len()`.
    #[inline(always)]
    unsafe fn gather(src: &[f64], idx: [usize; W]) -> Self {
        // SAFETY: in bounds by the caller's contract.
        unsafe {
            Self::from_array([
                *src.get_unchecked(idx[0]),
                *src.get_unchecked(idx[1]),
                *src.get_unchecked(idx[2]),
                *src.get_unchecked(idx[3]),
            ])
        }
    }
    /// Lane `l` to `dst[idx[l]]`, in lane order: of lanes that share an
    /// index, the last one stays.
    ///
    /// # Safety
    ///
    /// Every index is below `dst.len()`.
    #[inline(always)]
    unsafe fn scatter(self, dst: &mut [f64], idx: [usize; W]) {
        let a = self.to_array();
        for (&i, x) in idx.iter().zip(a) {
            // SAFETY: in bounds by the caller's contract.
            unsafe { *dst.get_unchecked_mut(i) = x };
        }
    }
    /// Build a select mask from per-lane booleans (sign bit set when true).
    fn mask(flags: [bool; W]) -> Self {
        let mut m = [0.0f64; W];
        for (v, f) in m.iter_mut().zip(flags) {
            if f {
                *v = f64::from_bits(1u64 << 63);
            }
        }
        Self::load(&m)
    }
}

/// Portable lane implementation: plain `[f64; 4]` arithmetic, lane by lane,
/// in the same per-lane operation order as the AVX2 path.
#[derive(Clone, Copy)]
pub struct ScalarLanes(pub [f64; W]);

macro_rules! lanewise {
    ($a:expr, $b:expr, $op:tt) => {{
        let (a, b) = ($a, $b);
        ScalarLanes([a.0[0] $op b.0[0], a.0[1] $op b.0[1], a.0[2] $op b.0[2], a.0[3] $op b.0[3]])
    }};
}

impl Lane4 for ScalarLanes {
    #[inline(always)]
    fn splat(x: f64) -> Self {
        ScalarLanes([x; W])
    }
    #[inline(always)]
    fn load(src: &[f64]) -> Self {
        ScalarLanes([src[0], src[1], src[2], src[3]])
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64]) {
        dst[..W].copy_from_slice(&self.0);
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        lanewise!(self, o, +)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        lanewise!(self, o, -)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        lanewise!(self, o, *)
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        lanewise!(self, o, /)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        ScalarLanes(self.0.map(f64::sqrt))
    }
    #[inline(always)]
    fn neg(self) -> Self {
        ScalarLanes(self.0.map(|x| -x))
    }
    #[inline(always)]
    fn abs(self) -> Self {
        ScalarLanes(self.0.map(f64::abs))
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        ScalarLanes([
            self.0[0].max(o.0[0]),
            self.0[1].max(o.0[1]),
            self.0[2].max(o.0[2]),
            self.0[3].max(o.0[3]),
        ])
    }
    #[inline(always)]
    fn lt(self, o: Self) -> Self {
        Self::mask([self.0[0] < o.0[0], self.0[1] < o.0[1], self.0[2] < o.0[2], self.0[3] < o.0[3]])
    }
    #[inline(always)]
    fn le(self, o: Self) -> Self {
        Self::mask([
            self.0[0] <= o.0[0],
            self.0[1] <= o.0[1],
            self.0[2] <= o.0[2],
            self.0[3] <= o.0[3],
        ])
    }
    #[inline(always)]
    fn select(mask: Self, a: Self, b: Self) -> Self {
        let pick = |l: usize| if mask.0[l].to_bits() >> 63 != 0 { a.0[l] } else { b.0[l] };
        ScalarLanes([pick(0), pick(1), pick(2), pick(3)])
    }
    #[inline(always)]
    fn transpose(r: [Self; W]) -> [Self; W] {
        let [a, b, c, d] = r.map(|x| x.0);
        [
            ScalarLanes([a[0], b[0], c[0], d[0]]),
            ScalarLanes([a[1], b[1], c[1], d[1]]),
            ScalarLanes([a[2], b[2], c[2], d[2]]),
            ScalarLanes([a[3], b[3], c[3], d[3]]),
        ]
    }
    #[inline(always)]
    fn signs(self) -> u32 {
        let bit = |l: usize| ((self.0[l].to_bits() >> 63) as u32) << l;
        bit(0) | bit(1) | bit(2) | bit(3)
    }
    #[inline(always)]
    fn to_array(self) -> [f64; W] {
        self.0
    }
}

#[cfg(target_arch = "x86_64")]
pub use avx::AvxLanes;

#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{Lane4, W};
    use std::arch::x86_64::*;

    /// AVX2 lane implementation. Methods compile to single `vaddpd`-class
    /// instructions once inlined into a `#[target_feature(enable = "avx2")]`
    /// kernel body; they must only be *executed* on AVX2-capable hosts,
    /// which the [`super::select_isa`] dispatch guarantees.
    #[derive(Clone, Copy)]
    pub struct AvxLanes(pub __m256d);

    impl Lane4 for AvxLanes {
        #[inline(always)]
        fn splat(x: f64) -> Self {
            AvxLanes(unsafe { _mm256_set1_pd(x) })
        }
        #[inline(always)]
        fn load(src: &[f64]) -> Self {
            assert!(src.len() >= W);
            AvxLanes(unsafe { _mm256_loadu_pd(src.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, dst: &mut [f64]) {
            assert!(dst.len() >= W);
            unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            AvxLanes(unsafe { _mm256_add_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            AvxLanes(unsafe { _mm256_sub_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            AvxLanes(unsafe { _mm256_mul_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            AvxLanes(unsafe { _mm256_div_pd(self.0, o.0) })
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            AvxLanes(unsafe { _mm256_sqrt_pd(self.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            // XOR the sign bit: exact, matches scalar `-x` bit-for-bit.
            AvxLanes(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }
        #[inline(always)]
        fn abs(self) -> Self {
            AvxLanes(unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0) })
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // `vmaxpd(o, self)` is `o > self ? o : self` (a NaN `o` loses);
            // a NaN `self` is then replaced by `o` — `f64::max` per lane.
            AvxLanes(unsafe {
                let nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(self.0, self.0);
                _mm256_blendv_pd(_mm256_max_pd(o.0, self.0), o.0, nan)
            })
        }
        #[inline(always)]
        fn lt(self, o: Self) -> Self {
            AvxLanes(unsafe { _mm256_cmp_pd::<_CMP_LT_OQ>(self.0, o.0) })
        }
        #[inline(always)]
        fn le(self, o: Self) -> Self {
            AvxLanes(unsafe { _mm256_cmp_pd::<_CMP_LE_OQ>(self.0, o.0) })
        }
        #[inline(always)]
        fn select(mask: Self, a: Self, b: Self) -> Self {
            AvxLanes(unsafe { _mm256_blendv_pd(b.0, a.0, mask.0) })
        }
        #[inline(always)]
        fn transpose(r: [Self; W]) -> [Self; W] {
            // SAFETY: register shuffles only, on a host with AVX2 (see the
            // type's doc).
            unsafe {
                // Pairs within 128-bit halves, then the halves across.
                let t0 = _mm256_unpacklo_pd(r[0].0, r[1].0);
                let t1 = _mm256_unpackhi_pd(r[0].0, r[1].0);
                let t2 = _mm256_unpacklo_pd(r[2].0, r[3].0);
                let t3 = _mm256_unpackhi_pd(r[2].0, r[3].0);
                [
                    AvxLanes(_mm256_permute2f128_pd::<0x20>(t0, t2)),
                    AvxLanes(_mm256_permute2f128_pd::<0x20>(t1, t3)),
                    AvxLanes(_mm256_permute2f128_pd::<0x31>(t0, t2)),
                    AvxLanes(_mm256_permute2f128_pd::<0x31>(t1, t3)),
                ]
            }
        }
        #[inline(always)]
        fn signs(self) -> u32 {
            unsafe { _mm256_movemask_pd(self.0) as u32 }
        }
        #[inline(always)]
        fn to_array(self) -> [f64; W] {
            let mut out = [0.0; W];
            self.store(&mut out);
            out
        }
        #[inline(always)]
        fn from_array(a: [f64; W]) -> Self {
            AvxLanes(unsafe { _mm256_set_pd(a[3], a[2], a[1], a[0]) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_scalar(a: [f64; W], b: [f64; W]) -> Vec<[f64; W]> {
        run_ops::<ScalarLanes>(a, b)
    }

    fn run_ops<L: Lane4>(a: [f64; W], b: [f64; W]) -> Vec<[f64; W]> {
        let (x, y) = (L::load(&a), L::load(&b));
        let t = L::transpose([x, y, x.neg(), y.neg()]);
        vec![
            t[0].to_array(),
            t[1].to_array(),
            t[2].to_array(),
            t[3].to_array(),
            x.add(y).to_array(),
            x.sub(y).to_array(),
            x.mul(y).to_array(),
            x.div(y).to_array(),
            x.sqrt().to_array(),
            x.neg().to_array(),
            x.abs().to_array(),
            x.max(y).to_array(),
            L::from_array(a).max(L::splat(f64::NAN)).to_array(),
            L::splat(f64::NAN).max(y).to_array(),
            L::load_n(&a, 2).to_array(),
            L::select(x.lt(y), x, y).to_array(),
            L::select(x.le(y), y, x).to_array(),
            [x.signs(), x.lt(y).signs(), L::splat(-0.0).signs(), L::splat(f64::NAN).neg().signs()]
                .map(f64::from),
        ]
    }

    #[test]
    fn scalar_lanes_match_plain_f64() {
        let a = [1.5, -2.25, 3.0, 0.1];
        let b = [0.5, 4.0, -1.5, 7.0];
        let all = ops_scalar(a, b);
        let (t, got) = all.split_at(W);
        for (r, row) in t.iter().enumerate() {
            assert_eq!(*row, [a[r], b[r], -a[r], -b[r]], "transpose row {r}");
        }
        for l in 0..W {
            assert_eq!(got[0][l].to_bits(), (a[l] + b[l]).to_bits());
            assert_eq!(got[1][l].to_bits(), (a[l] - b[l]).to_bits());
            assert_eq!(got[2][l].to_bits(), (a[l] * b[l]).to_bits());
            assert_eq!(got[3][l].to_bits(), (a[l] / b[l]).to_bits());
            assert_eq!(got[4][l].to_bits(), a[l].sqrt().to_bits());
            assert_eq!(got[5][l].to_bits(), (-a[l]).to_bits());
            assert_eq!(got[6][l].to_bits(), a[l].abs().to_bits());
            assert_eq!(got[7][l].to_bits(), a[l].max(b[l]).to_bits());
            assert_eq!(got[8][l].to_bits(), a[l].to_bits(), "NaN on the right loses");
            assert_eq!(got[9][l].to_bits(), b[l].to_bits(), "NaN on the left loses");
            assert_eq!(got[10][l].to_bits(), a[l.min(1)].to_bits());
        }
        assert_eq!(got[13], [2.0, 10.0, 15.0, 15.0], "sign bits, lane l in bit l");
        let mut out = [9.0; W];
        ScalarLanes(a).store_n(&mut out, 3);
        assert_eq!(out, [a[0], a[1], a[2], 9.0]);
    }

    #[test]
    fn gather_and_scatter_follow_their_indices() {
        let src: Vec<f64> = (0..12).map(f64::from).collect();
        let idx = [9, 1, 5, 5];
        // SAFETY: every index is below 12.
        let x = unsafe { ScalarLanes::gather(&src, idx) };
        assert_eq!(x.to_array(), [9.0, 1.0, 5.0, 5.0]);
        let mut dst = [0.0; 12];
        // SAFETY: as above.
        unsafe { ScalarLanes([1.0, 2.0, 3.0, 4.0]).scatter(&mut dst, idx) };
        assert_eq!((dst[9], dst[1], dst[5], dst[0]), (1.0, 2.0, 4.0, 0.0), "the last lane stays");
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx_lanes_bit_match_scalar_lanes() {
        if !avx2_supported() {
            return; // gate dormant on scalar-only hosts
        }
        // Exercised through a #[target_feature] shim so the intrinsics are
        // compiled with AVX2 enabled, as the kernels do.
        #[target_feature(enable = "avx2")]
        unsafe fn go(a: [f64; W], b: [f64; W]) -> Vec<[f64; W]> {
            run_ops::<AvxLanes>(a, b)
        }
        let a = [1.5, -2.25, 3.0e-200, 0.1];
        let b = [0.5, 4.0, -1.5e3, 7.0];
        let want = ops_scalar(a, b);
        let got = unsafe { go(a, b) };
        for (w, g) in want.iter().zip(&got) {
            for l in 0..W {
                assert_eq!(w[l].to_bits(), g[l].to_bits(), "lane {l}");
            }
        }
    }

    #[test]
    fn isa_selection_follows_the_host() {
        let want = if avx2_supported() { Isa::Avx2 } else { Isa::Scalar };
        assert_eq!(select_isa(), want);
    }

    #[test]
    fn mask_select_uses_sign_bit_only() {
        let m = ScalarLanes::mask([true, false, true, false]);
        let a = ScalarLanes::splat(1.0);
        let b = ScalarLanes::splat(2.0);
        assert_eq!(ScalarLanes::select(m, a, b).to_array(), [1.0, 2.0, 1.0, 2.0]);
    }
}
