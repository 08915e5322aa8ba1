//! Lane-batched compute kernels of the flow phase.
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
//! The *row* kernels (the residual's passes, the sweeps' pointwise
//! transforms) walk rows of nodes, four consecutive nodes per lane group.
//! The *sweep group* kernels ([`sweep_forward_group`],
//! [`sweep_backward_group`]) are what [`crate::adi::implicit_sweeps`] drives,
//! pipelined chunk carries included; a [`Cyclic`] part adds the
//! Sherman–Morrison correction column of an O-grid's `i`-lines, which
//! [`periodic_correct_group`] then applies. They solve every group in place
//! in the SoA, addressing its lines through a [`LaneRows`]: whole lane
//! groups where the four lines are neighbours in memory, lane by lane
//! otherwise. Both kinds check the extent of what they will touch once and
//! then load and store unchecked.

use crate::adi::BETA;
use crate::block::Blank;
use crate::conditions::{GAMMA, PRANDTL, PRANDTL_T};
use crate::lanes::{Lane4, W};
use crate::rhs::{K2, K4};
use overset_grid::field::{SoaField, NVAR};
use overset_grid::index::{Dims, IndexBox};
use overset_grid::metrics::{MetricField, JAC, METRIC_COMPONENTS};

/// Lane-interleaved footprint of one node row (`NVAR` variables × `W` lanes).
pub const NVW: usize = NVAR * W;

/// Define a lane-batched kernel: a generic body monomorphized over
/// [`Lane4`], dispatched at runtime to scalar lanes or to an
/// `#[target_feature(enable = "avx2")]` instantiation. Exported so sibling
/// crates (connectivity) define their kernels with the same dispatch.
///
/// The body must not call lane methods from inside a closure: a closure is
/// compiled outside the `target_feature` scope, so its lane arithmetic
/// becomes out-of-line calls. Use loops, `#[inline(always)]` functions and
/// local `macro_rules!` instead.
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
/// tangent `t1`, density, velocity, sound speed, then the operator rows of
/// the implicit sweeps ([`FR_OP`]..), which the forward elimination
/// overwrites with its normalized super-diagonals as it reads them (one
/// field per eigenvalue class, the back substitution's only input past the
/// increment). Density, velocity and sound speed do not depend on the
/// direction. 14 fields in all: the second tangent t2 = k × t1, the class
/// eigenvalues and the spectral radius are exact functions of these and are
/// formed where they are read, in the operation order of the scalar
/// `char_frame` reference.
pub const FR_K: usize = 0;
pub const FR_T1: usize = 3;
pub const FR_RHO: usize = 6;
pub const FR_U: usize = 7;
pub const FR_C: usize = 10;
pub const FR_OP: usize = 11;
pub const FR_IDM: usize = FR_OP + E_IDM;
/// Number of SoA frame fields.
pub const FR_FIELDS: usize = FR_OP + E_FIELDS;

/// The eigenvalue classes of the characteristic fields: Ũ (entropy and the
/// two shears), Ũ + c̃, Ũ − c̃. Fields of a class share their implicit
/// coefficients, super-diagonals and Sherman–Morrison correction column.
pub const NCLASS: usize = 3;
pub const CLASS: [usize; NVAR] = [0, 0, 0, 1, 2];
/// A field of each class (where a class value travels in per-field data).
pub const CLASS_FIELD: [usize; NCLASS] = [0, 3, 4];
// The super-diagonals of the classes take the operator rows' places.
const _: () = assert!(NCLASS == E_FIELDS);

/// The fields of one row of an implicit operator, in frame-SoA order from
/// [`FR_OP`] on: the J-scaled contravariant speed Ũ and sound speed c̃ (the
/// class eigenvalues are Ũ, Ũ + c̃, Ũ − c̃ and the spectral radius |Ũ| + c̃),
/// and the identity mask (sign bit set on blanked nodes).
pub const E_UT: usize = 0;
pub const E_CT: usize = 1;
pub const E_IDM: usize = 2;
pub const E_FIELDS: usize = 3;
/// The two frames just outside a group's lines (rows `-1` and `n`), lane
/// interleaved: Ũ and c̃ of each, `[lo, hi]`.
pub const EDGE_FIELDS: usize = E_IDM;
pub const EDGE_LEN: usize = 2 * EDGE_FIELDS * W;

/// SoA field offsets of the residual's per-direction node cache: pressure,
/// JST pressure switch ν, scaled spectral radius σ̂, contravariant flux F̂,
/// the conserved state, and two sign-bit masks (field node; not a hole).
pub const RC_P: usize = 0;
pub const RC_NU: usize = 1;
pub const RC_SIG: usize = 2;
pub const RC_F: usize = 3;
pub const RC_Q: usize = 8;
pub const RC_FIELD: usize = 13;
pub const RC_LIVE: usize = 14;
/// Number of per-direction node-cache fields.
pub const RC_FIELDS: usize = 15;

/// SoA field offsets of the thin-layer node cache: velocity, kinetic energy
/// per unit mass, a² = γp/ρ, Sutherland viscosity, the scaled metric row
/// Ŝ = J∇η, the Jacobian, the eddy viscosity and the field-node mask. Only
/// the Jacobian and the mask are filled on an inviscid block.
pub const VC_U: usize = 0;
pub const VC_KE: usize = 3;
pub const VC_A2: usize = 4;
pub const VC_MUL: usize = 5;
pub const VC_S: usize = 6;
pub const VC_J: usize = 9;
pub const VC_MUT: usize = 10;
pub const VC_FIELD: usize = 11;
/// Number of thin-layer node-cache fields.
pub const VC_FIELDS: usize = 12;

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

/// A box of nodes walked row by row in storage order (`i` fastest), with
/// where each row starts in two flat `i`-fastest arrays laid out over
/// enclosing boxes (block storage, the owned nodes).
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
    /// Rows of `sub`, addressed in an array over `src` and one over `dst`
    /// (`sub ⊆ src, dst`; block storage is `local_dims.full_box()`).
    pub fn new(sub: IndexBox, src: IndexBox, dst: IndexBox) -> Rows {
        let at = |b: IndexBox| {
            let [_, sj, sk] = strides(b.dims());
            let o = (sub.lo.i - b.lo.i) + (sub.lo.j - b.lo.j) * sj + (sub.lo.k - b.lo.k) * sk;
            (o, sj, sk)
        };
        let sd = sub.dims();
        let ((src, src_j, src_k), (dst, dst_j, dst_k)) = (at(src), at(dst));
        Rows { ni: sd.ni, nj: sd.nj, nk: sd.nk, src, src_j, src_k, dst, dst_j, dst_k }
    }

    /// Number of nodes in the box.
    #[inline]
    pub fn count(self) -> usize {
        self.ni * self.nj * self.nk
    }

    /// The `src` offset of the box's `t`-th node in storage order.
    #[inline]
    pub fn src_of(self, t: usize) -> usize {
        let (i, r) = (t % self.ni, t / self.ni);
        self.src + i + (r % self.nj) * self.src_j + (r / self.nj) * self.src_k
    }

    /// One past the largest `src` offset of the box (0 for an empty box):
    /// the `src` offsets only grow in storage order.
    #[inline]
    pub fn src_end(self) -> usize {
        match self.count() {
            0 => 0,
            n => self.src_of(n - 1) + 1,
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

/// The `src` offsets of a [`Rows`] box's nodes in storage order, walked
/// across row ends.
struct SrcWalk {
    rows: Rows,
    /// The next node's place in its row and its row's in its plane, and
    /// where that row and plane start.
    i: usize,
    j: usize,
    row: usize,
    plane: usize,
}

impl SrcWalk {
    fn new(rows: Rows) -> Self {
        SrcWalk { rows, i: 0, j: 0, row: rows.src, plane: rows.src }
    }

    /// The next node's offset.
    #[inline(always)]
    fn next(&mut self) -> usize {
        let s = self.row + self.i;
        self.i += 1;
        if self.i == self.rows.ni {
            self.i = 0;
            self.j += 1;
            if self.j == self.rows.nj {
                self.j = 0;
                self.plane += self.rows.src_k;
                self.row = self.plane;
            } else {
                self.row += self.rows.src_j;
            }
        }
        s
    }

    /// The offsets of the next `nv` nodes, one per lane (padding lanes
    /// replicate node `nv - 1`).
    #[inline(always)]
    fn group(&mut self, nv: usize) -> [usize; W] {
        let mut s = [0; W];
        for x in &mut s[..nv] {
            *x = self.next();
        }
        for l in nv..W {
            s[l] = s[nv - 1];
        }
        s
    }
}

/// Conserved state of `nv` consecutive nodes from the interleaved storage,
/// one node per lane (padding lanes replicate node `nv - 1`). A full group
/// moves its first four variables through a register transpose.
#[inline(always)]
fn gather_state<L: Lane4>(q: &[f64], s: usize, nv: usize) -> [L; NVAR] {
    let q = &q[s * NVAR..(s + nv) * NVAR];
    if nv == W {
        let [q0, q1, q2, q3] = L::transpose([
            L::load(q),
            L::load(&q[NVAR..]),
            L::load(&q[2 * NVAR..]),
            L::load(&q[3 * NVAR..]),
        ]);
        let q4 = L::from_array([q[4], q[NVAR + 4], q[2 * NVAR + 4], q[3 * NVAR + 4]]);
        return [q0, q1, q2, q3, q4];
    }
    let mut out = [L::splat(0.0); NVAR];
    for (v, o) in out.iter_mut().enumerate() {
        let mut a = [0.0; W];
        for (l, x) in a.iter_mut().enumerate() {
            *x = q[l.min(nv - 1) * NVAR + v];
        }
        *o = L::from_array(a);
    }
    out
}

/// The rows of a row kernel's nodes in a field-major metric field.
fn metric_rows(met: &MetricField, s0: usize, n: usize) -> FieldRows<&[f64], 1> {
    FieldRows::new(met.as_slice(), METRIC_COMPONENTS, met.dims().count(), [s0], n)
}

/// The rows of a row kernel's nodes in a field-major grid velocity.
fn velocity_rows(vel: Option<&SoaField<3>>, s0: usize, n: usize) -> Option<FieldRows<&[f64], 1>> {
    vel.map(|v| FieldRows::new(v.as_slice(), 3, v.dims().count(), [s0], n))
}

/// Metric row of direction `dir` and Jacobian of nodes `i..i + nv` of a
/// row, one node per lane: a vector load per term.
///
/// # Safety
///
/// `i + nv` at most the row length given to [`metric_rows`], `1 <= nv <= W`.
#[inline(always)]
unsafe fn metric_lanes<L: Lane4>(
    met: &FieldRows<&[f64], 1>,
    dir: usize,
    i: usize,
    nv: usize,
) -> ([L; 3], L) {
    // SAFETY: the terms are below METRIC_COMPONENTS; the rest is the
    // caller's contract.
    unsafe {
        let g0 = met.get::<L>(3 * dir, 0, i, nv);
        let g1 = met.get::<L>(3 * dir + 1, 0, i, nv);
        let g2 = met.get::<L>(3 * dir + 2, 0, i, nv);
        ([g0, g1, g2], met.get::<L>(JAC, 0, i, nv))
    }
}

/// Grid velocity of nodes `i..i + nv` of a row, one node per lane; zero
/// where the block has no velocity field.
///
/// # Safety
///
/// As for [`metric_lanes`].
#[inline(always)]
unsafe fn velocity_lanes<L: Lane4>(
    vel: &Option<FieldRows<&[f64], 1>>,
    i: usize,
    nv: usize,
) -> [L; 3] {
    match vel {
        // SAFETY: the components are below 3; the rest is the caller's
        // contract.
        Some(v) => unsafe {
            [v.get::<L>(0, 0, i, nv), v.get::<L>(1, 0, i, nv), v.get::<L>(2, 0, i, nv)]
        },
        None => [L::splat(0.0); 3],
    }
}

/// The cross product `a × b`, lanewise: how the frame kernels form both
/// tangents.
#[inline(always)]
fn cross<L: Lane4>([a0, a1, a2]: [L; 3], [b0, b1, b2]: [L; 3]) -> [L; 3] {
    [a1.mul(b2).sub(a2.mul(b1)), a2.mul(b0).sub(a0.mul(b2)), a0.mul(b1).sub(a1.mul(b0))]
}

/// Conserved state of the nodes at storage offsets `s`, one per lane:
/// [`gather_state`]'s transposed load when they are four consecutive nodes,
/// lane by lane otherwise.
#[inline(always)]
fn gather_state_at<L: Lane4>(q: &[f64], s: [usize; W]) -> [L; NVAR] {
    if s[W - 1] == s[0] + (W - 1) {
        return gather_state(q, s[0], W);
    }
    let mut out = [L::splat(0.0); NVAR];
    for (v, o) in out.iter_mut().enumerate() {
        let mut a = [0.0; W];
        for (x, &s) in a.iter_mut().zip(&s) {
            *x = q[s * NVAR + v];
        }
        *o = L::from_array(a);
    }
    out
}

/// Component `c` of the nodes at storage offsets `s`, one per lane, from a
/// field-major array of `n` values per component: one vector load when the
/// four nodes are consecutive, lane by lane otherwise.
///
/// # Safety
///
/// `(c + 1) * n <= a.len()` and every offset below `n`.
#[inline(always)]
unsafe fn component_at<L: Lane4>(a: &[f64], n: usize, c: usize, s: [usize; W]) -> L {
    let at = s.map(|s| c * n + s);
    // SAFETY: by the caller's contract.
    unsafe {
        if s[W - 1] == s[0] + (W - 1) {
            load_at(a, at[0])
        } else {
            L::gather(a, at)
        }
    }
}

/// Metric row of direction `dir` and Jacobian of the nodes at storage
/// offsets `s`, one per lane.
///
/// # Safety
///
/// Every offset below the field's node count.
#[inline(always)]
unsafe fn metric_at<L: Lane4>(met: &MetricField, dir: usize, s: [usize; W]) -> ([L; 3], L) {
    let (a, n) = (met.as_slice(), met.dims().count());
    // SAFETY: the terms are below METRIC_COMPONENTS; the offsets are the
    // caller's contract.
    unsafe {
        let g0 = component_at::<L>(a, n, 3 * dir, s);
        let g1 = component_at::<L>(a, n, 3 * dir + 1, s);
        let g2 = component_at::<L>(a, n, 3 * dir + 2, s);
        ([g0, g1, g2], component_at::<L>(a, n, JAC, s))
    }
}

/// Grid velocity of the nodes at storage offsets `s`, one per lane; zero
/// where the block has no velocity field.
///
/// # Safety
///
/// Every offset below the field's node count.
#[inline(always)]
unsafe fn velocity_at<L: Lane4>(vel: Option<&SoaField<3>>, s: [usize; W]) -> [L; 3] {
    let Some(vel) = vel else { return [L::splat(0.0); 3] };
    let (a, n) = (vel.as_slice(), vel.dims().count());
    // SAFETY: the components are below 3; the offsets are the caller's
    // contract.
    unsafe {
        [
            component_at::<L>(a, n, 0, s),
            component_at::<L>(a, n, 1, s),
            component_at::<L>(a, n, 2, s),
        ]
    }
}

/// Sign-bit masks of `nv` consecutive nodes: field nodes, and nodes that are
/// not holes (padding lanes replicate node `nv - 1`).
#[inline(always)]
fn blank_masks<L: Lane4>(ib: &[Blank], s: usize, nv: usize) -> (L, L) {
    let (mut field, mut live) = ([false; W], [false; W]);
    for l in 0..W {
        let b = ib[s + l.min(nv - 1)];
        field[l] = b == Blank::Field;
        live[l] = b != Blank::Hole;
    }
    (L::mask(field), L::mask(live))
}

/// `pressure(q)` on four lanes, in the scalar operation order.
#[inline(always)]
fn pressure_lanes<L: Lane4>(q: &[L; NVAR], inv_rho: L) -> L {
    let gm1 = L::splat(GAMMA - 1.0);
    let ke2 = q[1].mul(q[1]).add(q[2].mul(q[2])).add(q[3].mul(q[3]));
    gm1.mul(q[4].sub(L::splat(0.5).mul(inv_rho).mul(ke2)))
}

/// Lanes `i..i + W` of `a`, without a bounds check.
///
/// # Safety
///
/// `i + W <= a.len()`.
#[inline(always)]
unsafe fn load_at<L: Lane4>(a: &[f64], i: usize) -> L {
    debug_assert!(i + W <= a.len());
    // SAFETY: in bounds by the caller's contract.
    L::load(unsafe { a.get_unchecked(i..i + W) })
}

/// Store `x` to lanes `i..i + W` of `a`, without a bounds check.
///
/// # Safety
///
/// `i + W <= a.len()`.
#[inline(always)]
unsafe fn store_at<L: Lane4>(x: L, a: &mut [f64], i: usize) {
    debug_assert!(i + W <= a.len());
    // SAFETY: in bounds by the caller's contract.
    x.store(unsafe { a.get_unchecked_mut(i..i + W) })
}

/// The rows a row kernel reads and writes in a field-major array (field
/// `f` from `f * stride`): `n` values from each offset in `at`. [`Self::new`]
/// checks once that every such row lies inside the array, so a full lane
/// group needs no check of its own — the per-access checks cost the
/// kernels a quarter of their time.
struct FieldRows<A, const K: usize> {
    a: A,
    stride: usize,
    at: [usize; K],
    fields: usize,
    n: usize,
}

impl<A: AsRef<[f64]>, const K: usize> FieldRows<A, K> {
    fn new(a: A, fields: usize, stride: usize, at: [usize; K], n: usize) -> Self {
        let len = a.as_ref().len();
        assert!(fields * stride <= len && at.iter().all(|&o| o + n <= stride), "rows outside");
        FieldRows { a, stride, at, fields, n }
    }

    /// Where lane group `i..i + nv` of field `f` in row `k` starts.
    #[inline(always)]
    fn index(&self, f: usize, k: usize, i: usize, nv: usize) -> usize {
        debug_assert!(f < self.fields && i + nv <= self.n && (1..=W).contains(&nv));
        f * self.stride + self.at[k] + i
    }

    /// Lanes `i..i + nv` of field `f` in row `k`. The padding lanes of a
    /// ragged tail hold what follows the row in the array (the kernels
    /// never store their results), or replicate the last lane where the
    /// array ends first.
    ///
    /// # Safety
    ///
    /// `f` below the `fields`, `i + nv` at most the `n`, given to
    /// [`Self::new`]; `1 <= nv <= W`.
    #[inline(always)]
    unsafe fn get<L: Lane4>(&self, f: usize, k: usize, i: usize, nv: usize) -> L {
        let (at, a) = (self.index(f, k, i, nv), self.a.as_ref());
        if nv == W {
            // SAFETY: `new` checked at[k] + n <= stride and fields * stride
            // <= len, so at + W <= (f + 1) * stride <= len.
            unsafe { load_at(a, at) }
        } else {
            match a.get(at..at + W) {
                Some(lanes) => L::load(lanes),
                None => L::load_n(&a[at..], nv),
            }
        }
    }
}

impl<A: AsRef<[f64]> + AsMut<[f64]>, const K: usize> FieldRows<A, K> {
    /// Store the first `nv` lanes of `x` to lanes `i..` of field `f` in
    /// row `k`.
    ///
    /// # Safety
    ///
    /// As for [`Self::get`].
    #[inline(always)]
    unsafe fn put<L: Lane4>(&mut self, f: usize, k: usize, i: usize, nv: usize, x: L) {
        let at = self.index(f, k, i, nv);
        if nv == W {
            // SAFETY: as in `get`.
            unsafe { store_at(x, self.a.as_mut(), at) }
        } else {
            x.store_n(&mut self.a.as_mut()[at..], nv)
        }
    }
}

/// Run `$body` over the nodes `0..$n` of a row in lane groups: `$i` is a
/// group's first node and `$nv` its node count — the constant [`W`] for the
/// full groups, so their loads and stores compile to plain vector moves,
/// then the count of the ragged tail. (Syntax only: the body is expanded in
/// place, not a closure.)
macro_rules! lane_groups {
    ($n:expr, |$i:ident, $nv:ident| $body:block) => {{
        let n = $n;
        let mut $i = 0;
        while $i + W <= n {
            let $nv = W;
            $body
            $i += W;
        }
        if $i < n {
            let $nv = n - $i;
            $body
        }
    }};
}

lane_kernel! {
    /// Pointwise characteristic frames + forward transform over the owned
    /// nodes in storage order: for every node of `rows` compute the local
    /// characteristic frame of direction `dir` straight from the block
    /// arrays (`q` interleaved state, `met`, `vel` — `None` on a block that
    /// has not moved, zero velocity) and transform the
    /// conservative RHS `dw` (five fields × `stride`, in place) to
    /// characteristic variables. The frame is written to the SoA `fr`
    /// ([`FR_K`]..), with the identity mask of the blanking `ib` (sign bit
    /// set on blanked nodes: their rows are solved as `x = 0`). Density,
    /// velocity and sound speed are computed only when `fresh`; otherwise
    /// they are read back from `fr`, where the block's first direction left
    /// them. Each lane performs exactly the
    /// operation sequence of the scalar `char_frame` + `to_char` pair in the
    /// tests of [`crate::adi`], so results are bit-identical across lanes
    /// and ISAs.
    ///
    /// The SoA holds the nodes of `rows` in storage order (`rows`' `dst` is
    /// its own box), so the kernel walks the flat index `m = 0..mm` in full
    /// lane groups across row ends, each lane gathering from its own
    /// storage offset; only the last group is ragged.
    pub fn frames_forward_rows<L>(
        rows: Rows,
        dir: usize,
        fresh: bool,
        q: &[f64],
        met: &MetricField,
        vel: Option<&SoaField<3>>,
        ib: &[Blank],
        stride: usize,
        dw: &mut [f64],
        fr: &mut [f64],
    ) {
        let zero = L::splat(0.0);
        let one = L::splat(1.0);
        let half = L::splat(0.5);
        let gm1 = L::splat(GAMMA - 1.0);
        let gam = L::splat(GAMMA);
        let mm = rows.count();
        assert!(
            rows.dst == 0 && rows.dst_j == rows.ni && rows.dst_k == rows.ni * rows.nj,
            "the frame SoA is not the box's own"
        );
        let end = rows.src_end();
        assert!(end <= met.dims().count(), "rows outside the metrics");
        assert!(vel.is_none_or(|v| end <= v.dims().count()), "rows outside the velocity");
        let mut frr = FieldRows::new(&mut *fr, FR_FIELDS, stride, [0], mm);
        let mut dwr = FieldRows::new(&mut *dw, NVAR, stride, [0], mm);
        let mut walk = SrcWalk::new(rows);
        lane_groups!(mm, |i, nv| {
            let s = walk.group(nv);
            // SAFETY: the walk's offsets are below `end`, checked above.
            let ([g0, g1, g2], jac) = unsafe { metric_at::<L>(met, dir, s) };
            let [vg0, vg1, vg2] = unsafe { velocity_at::<L>(vel, s) };

            // char_frame, lanewise in the scalar operation order.
            let s0v = g0.mul(jac);
            let s1 = g1.mul(jac);
            let s2 = g2.mul(jac);
            let ssq = s0v.mul(s0v).add(s1.mul(s1)).add(s2.mul(s2)).sqrt();
            // `f64::max`, as `char_frame` floors it (a NaN yields the floor).
            let s_norm = ssq.max(L::splat(1e-300));
            let k0 = s0v.div(s_norm);
            let k1 = s1.div(s_norm);
            let k2 = s2.div(s_norm);
            // Deterministic tangent basis: branch -> per-lane select of
            // the reference axis, then the identical cross products.
            let tangent_x = k0.abs().lt(L::splat(0.9));
            let a = [L::select(tangent_x, one, zero), L::select(tangent_x, zero, one), zero];
            let [t10, t11, t12] = cross([k0, k1, k2], a);
            let n1 = t10.mul(t10).add(t11.mul(t11)).add(t12.mul(t12)).sqrt();
            let (t10, t11, t12) = (t10.div(n1), t11.div(n1), t12.div(n1));
            let [t20, t21, t22] = cross([k0, k1, k2], [t10, t11, t12]);

            // (Macros, not closures: a closure body would be compiled
            // outside the kernel's `target_feature` scope.)
            macro_rules! put {
                ($f:expr, $x:expr) => {
                    // SAFETY: the fields are below FR_FIELDS and
                    // `lane_groups!` keeps i + nv <= mm.
                    unsafe { frr.put($f, 0, i, nv, $x) }
                };
            }
            macro_rules! get {
                ($f:expr) => {
                    // SAFETY: as for `put!`.
                    unsafe { frr.get::<L>($f, 0, i, nv) }
                };
            }
            let (rho, u0, u1, u2, c) = if fresh {
                let qn = gather_state_at::<L>(q, s);
                let rho = qn[0];
                let u0 = qn[1].div(rho);
                let u1 = qn[2].div(rho);
                let u2 = qn[3].div(rho);
                // sound_speed(q) in the scalar operation order.
                let press = pressure_lanes(&qn, one.div(rho));
                let carg = gam.mul(press).div(rho);
                let c = carg.sqrt();
                put!(FR_RHO, rho);
                put!(FR_U, u0);
                put!(FR_U + 1, u1);
                put!(FR_U + 2, u2);
                put!(FR_C, c);
                (rho, u0, u1, u2, c)
            } else {
                (get!(FR_RHO), get!(FR_U), get!(FR_U + 1), get!(FR_U + 2), get!(FR_C))
            };
            let u_rel_n = s0v
                .mul(u0.sub(vg0))
                .add(s1.mul(u1.sub(vg1)))
                .add(s2.mul(u2.sub(vg2)));
            put!(FR_K, k0);
            put!(FR_K + 1, k1);
            put!(FR_K + 2, k2);
            put!(FR_T1, t10);
            put!(FR_T1 + 1, t11);
            put!(FR_T1 + 2, t12);
            put!(FR_OP + E_UT, u_rel_n.div(jac));
            put!(FR_OP + E_CT, c.mul(s_norm).div(jac));
            let mut blanked = [false; W];
            for (b, &s) in blanked.iter_mut().zip(&s) {
                *b = ib[s] != Blank::Field;
            }
            put!(FR_IDM, L::mask(blanked));

            // to_char, lanewise in the scalar operation order.
            // SAFETY (the loads and stores of `dwr`): fields below NVAR,
            // and `lane_groups!` keeps i + nv <= mm.
            let mut w = [zero; NVAR];
            for (v, x) in w.iter_mut().enumerate() {
                *x = unsafe { dwr.get::<L>(v, 0, i, nv) };
            }
            let [w0, w1, w2, w3, w4] = w;
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
            let w = [
                d_rho.sub(dp.div(c2)),
                t10.mul(du0).add(t11.mul(du1)).add(t12.mul(du2)),
                t20.mul(du0).add(t21.mul(du1)).add(t22.mul(du2)),
                un.add(dp_rc),
                un.sub(dp_rc),
            ];
            for (v, x) in w.into_iter().enumerate() {
                unsafe { dwr.put(v, 0, i, nv, x) };
            }
        });
    }
}

lane_kernel! {
    /// Pointwise inverse characteristic transform (`from_char`) over the
    /// first `mm` nodes of the SoA: `dw` enters holding the characteristic
    /// solution (five fields × `stride`) and leaves holding conservative
    /// increments, using the frame SoA written by [`frames_forward_rows`]
    /// and forming t2 = k × t1 as that kernel did. Scalar operation order
    /// per lane, so results are bit-identical across ISAs.
    pub fn from_char_lanes<L>(
        mm: usize,
        stride: usize,
        fr: &[f64],
        dw: &mut [f64],
    ) {
        let half = L::splat(0.5);
        let gm1 = L::splat(GAMMA - 1.0);
        let fr = FieldRows::new(fr, FR_FIELDS, stride, [0], mm);
        let mut dw = FieldRows::new(dw, NVAR, stride, [0], mm);
        lane_groups!(mm, |m, nv| {
            macro_rules! get {
                ($f:expr) => {
                    // SAFETY: the fields are below FR_FIELDS and
                    // `lane_groups!` keeps m + nv <= mm.
                    unsafe { fr.get::<L>($f, 0, m, nv) }
                };
            }
            let k0 = get!(FR_K);
            let k1 = get!(FR_K + 1);
            let k2 = get!(FR_K + 2);
            let t10 = get!(FR_T1);
            let t11 = get!(FR_T1 + 1);
            let t12 = get!(FR_T1 + 2);
            let [t20, t21, t22] = cross([k0, k1, k2], [t10, t11, t12]);
            let rho = get!(FR_RHO);
            let u0 = get!(FR_U);
            let u1 = get!(FR_U + 1);
            let u2 = get!(FR_U + 2);
            let c = get!(FR_C);
            // SAFETY (the loads and stores of `dw`): fields below NVAR, and
            // `lane_groups!` keeps m + nv <= mm.
            let mut w = [half; NVAR];
            for (v, x) in w.iter_mut().enumerate() {
                *x = unsafe { dw.get::<L>(v, 0, m, nv) };
            }
            let [w0, w1, w2, w3, w4] = w;

            let dp = half.mul(rho).mul(c).mul(w3.sub(w4));
            let un = half.mul(w3.add(w4));
            let d_rho = w0.add(dp.div(c.mul(c)));
            let du0 = t10.mul(w1).add(t20.mul(w2)).add(k0.mul(un));
            let du1 = t11.mul(w1).add(t21.mul(w2)).add(k1.mul(un));
            let du2 = t12.mul(w1).add(t22.mul(w2)).add(k2.mul(un));
            let ke = half.mul(u0.mul(u0).add(u1.mul(u1)).add(u2.mul(u2)));
            let w = [
                d_rho,
                u0.mul(d_rho).add(rho.mul(du0)),
                u1.mul(d_rho).add(rho.mul(du1)),
                u2.mul(d_rho).add(rho.mul(du2)),
                ke.mul(d_rho)
                    .add(rho.mul(u0.mul(du0).add(u1.mul(du1)).add(u2.mul(du2))))
                    .add(dp.div(gm1)),
            ];
            for (v, x) in w.into_iter().enumerate() {
                unsafe { dw.put(v, 0, m, nv, x) };
            }
        });
    }
}

/// Store `x` (one variable per input, one node per lane) as the interleaved
/// state of the first `nv` nodes at storage offsets `s`: four consecutive
/// nodes through [`gather_state`]'s register transpose, lane by lane
/// otherwise (a padding lane is never stored).
///
/// # Safety
///
/// `(s[l] + 1) * NVAR <= q.len()` for every lane below `nv`.
#[inline(always)]
unsafe fn scatter_state<L: Lane4>(x: [L; NVAR], q: &mut [f64], s: [usize; W], nv: usize) {
    let q4 = x[4].to_array();
    // SAFETY (every store below): in bounds by the caller's contract; a
    // node's first four variables are one vector store, its fifth follows
    // them.
    unsafe {
        if nv == W && s[W - 1] == s[0] + (W - 1) {
            let rows = L::transpose([x[0], x[1], x[2], x[3]]);
            for (l, row) in rows.into_iter().enumerate() {
                store_at(row, q, (s[0] + l) * NVAR);
                *q.get_unchecked_mut((s[0] + l) * NVAR + 4) = q4[l];
            }
            return;
        }
        let vars = [x[0].to_array(), x[1].to_array(), x[2].to_array(), x[3].to_array(), q4];
        for (l, &s) in s[..nv].iter().enumerate() {
            for (v, var) in vars.iter().enumerate() {
                *q.get_unchecked_mut(s * NVAR + v) = var[l];
            }
        }
    }
}

lane_kernel! {
    /// The state update, fused with the last active direction's inverse
    /// characteristic transform: `dw` holds that direction's characteristic
    /// solution (five fields × `stride`) and `fr` its frames, as
    /// [`from_char_lanes`] reads them; every field node of `rows` (blanking
    /// `ib`) gets `q += Δq` in the interleaved state `q`, other nodes keep
    /// their bits. Walks the owned nodes in storage order in full lane
    /// groups across row ends, as [`frames_forward_rows`] does, and leaves
    /// `dw` as it found it. Returns the number of field nodes updated and
    /// the SoA index of the first lane group with an updated node that is
    /// non-finite or has ρ ≤ 0 or p ≤ 0 (the predicate of the scalar
    /// `first_nonphysical`, which re-reads that group for the report). Each
    /// lane runs the scalar `from_char`, `+=` and `pressure` operation
    /// sequence, so the state is bit-identical across lanes and ISAs.
    ///
    /// The one pass over the updated state: where per-step reductions over
    /// it (minimum ρ and p, maximum |q|) belong.
    pub fn update_rows<L>(
        rows: Rows,
        stride: usize,
        fr: &[f64],
        dw: &[f64],
        ib: &[Blank],
        q: &mut [f64],
    ) -> (u64, Option<usize>) {
        let (zero, one, half) = (L::splat(0.0), L::splat(1.0), L::splat(0.5));
        let (inf, gm1) = (L::splat(f64::INFINITY), L::splat(GAMMA - 1.0));
        let mm = rows.count();
        assert!(
            rows.dst == 0 && rows.dst_j == rows.ni && rows.dst_k == rows.ni * rows.nj,
            "the frame SoA is not the box's own"
        );
        let end = rows.src_end();
        assert!(end <= ib.len() && end * NVAR <= q.len(), "rows outside the block");
        let fr = FieldRows::new(fr, FR_FIELDS, stride, [0], mm);
        let dw = FieldRows::new(dw, NVAR, stride, [0], mm);
        let mut walk = SrcWalk::new(rows);
        let (mut updated, mut first_bad) = (0u64, None);
        lane_groups!(mm, |m, nv| {
            let s = walk.group(nv);
            macro_rules! get {
                ($f:expr) => {
                    // SAFETY: the fields are below FR_FIELDS and
                    // `lane_groups!` keeps m + nv <= mm.
                    unsafe { fr.get::<L>($f, 0, m, nv) }
                };
            }
            // from_char, lanewise in the scalar operation order.
            let k0 = get!(FR_K);
            let k1 = get!(FR_K + 1);
            let k2 = get!(FR_K + 2);
            let t10 = get!(FR_T1);
            let t11 = get!(FR_T1 + 1);
            let t12 = get!(FR_T1 + 2);
            let [t20, t21, t22] = cross([k0, k1, k2], [t10, t11, t12]);
            let rho = get!(FR_RHO);
            let u0 = get!(FR_U);
            let u1 = get!(FR_U + 1);
            let u2 = get!(FR_U + 2);
            let c = get!(FR_C);
            let mut w = [zero; NVAR];
            for (v, x) in w.iter_mut().enumerate() {
                // SAFETY: v < NVAR and `lane_groups!` keeps m + nv <= mm.
                *x = unsafe { dw.get::<L>(v, 0, m, nv) };
            }
            let [w0, w1, w2, w3, w4] = w;
            let dp = half.mul(rho).mul(c).mul(w3.sub(w4));
            let un = half.mul(w3.add(w4));
            let d_rho = w0.add(dp.div(c.mul(c)));
            let du0 = t10.mul(w1).add(t20.mul(w2)).add(k0.mul(un));
            let du1 = t11.mul(w1).add(t21.mul(w2)).add(k1.mul(un));
            let du2 = t12.mul(w1).add(t22.mul(w2)).add(k2.mul(un));
            let ke = half.mul(u0.mul(u0).add(u1.mul(u1)).add(u2.mul(u2)));
            let dq = [
                d_rho,
                u0.mul(d_rho).add(rho.mul(du0)),
                u1.mul(d_rho).add(rho.mul(du1)),
                u2.mul(d_rho).add(rho.mul(du2)),
                ke.mul(d_rho)
                    .add(rho.mul(u0.mul(du0).add(u1.mul(du1)).add(u2.mul(du2))))
                    .add(dp.div(gm1)),
            ];

            // q += Δq on field nodes; the others are stored back unchanged.
            let old = gather_state_at::<L>(q, s);
            let mut is_field = [false; W];
            for (f, &s) in is_field.iter_mut().zip(&s) {
                // SAFETY: the walk's offsets are below `end`, checked above.
                *f = unsafe { *ib.get_unchecked(s) } == Blank::Field;
            }
            let field = L::mask(is_field);
            let mut new = old;
            for (x, (o, d)) in new.iter_mut().zip(old.into_iter().zip(dq)) {
                *x = L::select(field, o.add(d), o);
            }
            // SAFETY: as for `ib`.
            unsafe { scatter_state(new, q, s, nv) };

            // first_nonphysical's predicate: 0 < ρ < ∞ and 0 < p < ∞ (a NaN
            // fails every comparison).
            let p = pressure_lanes(&new, one.div(new[0]));
            macro_rules! finite_pos {
                ($x:expr) => {
                    L::select(zero.lt($x), $x.lt(inf), zero)
                };
            }
            let ok = L::select(finite_pos!(new[0]), finite_pos!(p), zero);
            let lanes = (1u32 << nv) - 1;
            let fields = field.signs() & lanes;
            updated += u64::from(fields.count_ones());
            if first_bad.is_none() && fields & !ok.signs() != 0 {
                first_bad = Some(m);
            }
        });
        (updated, first_bad)
    }
}

lane_kernel! {
    /// Residual node pass of one direction over a row of `n` nodes (block
    /// storage offsets `s0..`, node-cache positions `m0..`): the static
    /// pressure, the scaled spectral radius σ̂ = |Û_rel| + c|Ŝ|, the
    /// contravariant ALE flux F̂ of direction `dir`, the conserved state and
    /// the blanking masks ([`RC_P`], [`RC_SIG`], [`RC_F`].., [`RC_Q`]..,
    /// [`RC_FIELD`], [`RC_LIVE`]); `vel` is `None` on a block that has not
    /// moved (zero velocity). Each lane runs the exact operation
    /// sequence of the scalar `pressure` / `spectral_radius` / `hat_flux`
    /// reference in [`crate::rhs`].
    pub fn flux_node_row<L>(
        n: usize,
        s0: usize,
        m0: usize,
        dir: usize,
        q: &[f64],
        ib: &[Blank],
        met: &MetricField,
        vel: Option<&SoaField<3>>,
        stride: usize,
        cache: &mut [f64],
    ) {
        let one = L::splat(1.0);
        let gam = L::splat(GAMMA);
        let mut out = FieldRows::new(cache, RC_FIELDS, stride, [m0], n);
        let (q, ib) = (&q[s0 * NVAR..(s0 + n) * NVAR], &ib[s0..s0 + n]);
        let (met, vel) = (metric_rows(met, s0, n), velocity_rows(vel, s0, n));
        lane_groups!(n, |i, nv| {
            let qn = gather_state::<L>(q, i, nv);
            // SAFETY: `lane_groups!` keeps i + nv <= n.
            let ([g0, g1, g2], jac) = unsafe { metric_lanes::<L>(&met, dir, i, nv) };
            let [vg0, vg1, vg2] = unsafe { velocity_lanes::<L>(&vel, i, nv) };
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
            let c = gam.mul(p).div(qn[0]).sqrt();
            let sigma = u_rel_sr.abs().add(c.mul(s_norm));
            let (field, live) = blank_masks::<L>(ib, i, nv);

            macro_rules! put {
                ($f:expr, $x:expr) => {
                    // SAFETY: the fields are below RC_FIELDS and `lane_groups!`
                    // keeps i + nv <= n.
                    unsafe { out.put(($f), 0, i, nv, $x) }
                };
            }
            put!(RC_P, p);
            put!(RC_SIG, sigma);
            put!(RC_F, qn[0].mul(u_rel));
            put!(RC_F + 1, qn[1].mul(u_rel).add(s0v.mul(p)));
            put!(RC_F + 2, qn[2].mul(u_rel).add(s1.mul(p)));
            put!(RC_F + 3, qn[3].mul(u_rel).add(s2.mul(p)));
            put!(RC_F + 4, qn[4].mul(u_rel).add(p.mul(u_s)));
            for (v, &x) in qn.iter().enumerate() {
                put!(RC_Q + v, x);
            }
            put!(RC_FIELD, field);
            put!(RC_LIVE, live);
        });
    }
}

lane_kernel! {
    /// JST pressure switch ν = |p₊ − 2p + p₋| / (p₊ + 2p + p₋)
    /// over a row of `n` nodes of the node cache: node `i`'s pressures at
    /// `at[0] + i` (behind), `at[1] + i` (its own), `at[2] + i` (ahead); its
    /// ν lands at `at[1] + i`.
    pub fn nu_row<L>(n: usize, at: [usize; 3], stride: usize, cache: &mut [f64]) {
        let two = L::splat(2.0);
        let mut rows = FieldRows::new(cache, RC_NU + 1, stride, at, n);
        lane_groups!(n, |i, nv| {
            // SAFETY: RC_P and RC_NU are below RC_NU + 1 and `lane_groups!`
            // keeps i + nv <= n.
            unsafe {
                let pm = rows.get::<L>(RC_P, 0, i, nv);
                let pc = rows.get::<L>(RC_P, 1, i, nv);
                let pp = rows.get::<L>(RC_P, 2, i, nv);
                let num = pp.sub(two.mul(pc)).add(pm);
                let den = pp.add(two.mul(pc)).add(pm);
                rows.put(RC_NU, 1, i, nv, num.div(den).abs());
            }
        });
    }
}

lane_kernel! {
    /// Face assembly of one direction over a row of `n` nodes: node `i`'s
    /// neighbour `k − 2` along the direction sits at node-cache position
    /// `at[k] + i`. Adds the central difference of the cached F̂ and the two
    /// JST dissipative face fluxes to the increment (`dw`, field stride
    /// `mm`, the row from `t0`) on field nodes only. The blanking branches
    /// of the scalar form become selects: the third difference is computed
    /// on every lane and kept where both stencil ends are field nodes and
    /// the far node of the face is not a hole.
    pub fn assemble_row<L>(
        n: usize,
        at: [usize; 5],
        stride: usize,
        cache: &[f64],
        mm: usize,
        t0: usize,
        dw: &mut [f64],
    ) {
        let zero = L::splat(0.0);
        let half = L::splat(0.5);
        let two = L::splat(2.0);
        let (k2, k4) = (L::splat(K2), L::splat(K4));
        let (plus, minus) = (L::splat(1.0), L::splat(-1.0));
        let rows = FieldRows::new(cache, RC_FIELDS, stride, at, n);
        let mut dw = FieldRows::new(dw, NVAR, mm, [t0], n);
        lane_groups!(n, |i, nv| {
            macro_rules! get {
                ($f:expr, $k:expr) => {
                    // SAFETY: the fields are below RC_FIELDS and `lane_groups!`
                    // keeps i + nv <= n.
                    unsafe { rows.get::<L>($f, $k, i, nv) }
                };
            }
            // ε₂, ε₄, σ̂·sign and the third-difference mask of the face
            // toward neighbour `m1`, whose stencil ends are `sm` (behind the
            // node) and `sp` (beyond `m1`).
            macro_rules! face {
                ($m1:expr, $sm:expr, $sp:expr, $sign:expr) => {{
                    let eps2 = k2.mul(get!(RC_NU, 2).max(get!(RC_NU, $m1)));
                    let eps4 = k4.sub(eps2).max(zero);
                    let sigma = half.mul(get!(RC_SIG, 2).add(get!(RC_SIG, $m1)));
                    let (fm, fp) = (get!(RC_FIELD, $sm), get!(RC_FIELD, $sp));
                    let ok = L::select(fm, L::select(fp, get!(RC_LIVE, $m1), fp), fm);
                    (eps2, eps4, sigma.mul($sign), ok)
                }};
            }
            let (e2h, e4h, sgh, okh) = face!(3, 1, 4, plus);
            let (e2l, e4l, sgl, okl) = face!(1, 3, 0, minus);
            let field = get!(RC_FIELD, 2);
            for v in 0..NVAR {
                let f = RC_Q + v;
                let (qmm, qm, q0) = (get!(f, 0), get!(f, 1), get!(f, 2));
                let (qp, qpp) = (get!(f, 3), get!(f, 4));
                let d1 = qp.sub(q0);
                let third = qpp.sub(qp).sub(two.mul(d1)).add(q0.sub(qm));
                let d = e2h.mul(d1);
                let d_hi = L::select(okh, d.sub(e4h.mul(third)), d).mul(sgh);
                let d1 = qm.sub(q0);
                let third = qmm.sub(qm).sub(two.mul(d1)).add(q0.sub(qp));
                let d = e2l.mul(d1);
                let d_lo = L::select(okl, d.sub(e4l.mul(third)), d).mul(sgl);
                let df = get!(RC_F + v, 3).sub(get!(RC_F + v, 1));
                // SAFETY: v < NVAR and `lane_groups!` keeps i + nv <= n.
                let r = unsafe { dw.get::<L>(v, 0, i, nv) };
                let r_new = r.sub(half.mul(df)).add(d_hi.sub(d_lo));
                unsafe { dw.put(v, 0, i, nv, L::select(field, r_new, r)) };
            }
        });
    }
}

lane_kernel! {
    /// Thin-layer node pass over a row of `n` nodes (block storage offsets
    /// `s0..`, node-cache positions `m0..`): the Jacobian and the field mask
    /// and, when `viscous`, velocity, kinetic energy, a² = γp/ρ, the
    /// Sutherland viscosity, Ŝ = J∇η and the eddy viscosity ([`VC_U`]..;
    /// zero where `mu_t` is `None`, before the model first runs), in the
    /// operation order of the scalar `viscous_face_flux` reference (`powf`
    /// stays the libm call, per lane).
    pub fn viscous_node_row<L>(
        n: usize,
        s0: usize,
        m0: usize,
        viscous: bool,
        q: &[f64],
        ib: &[Blank],
        met: &MetricField,
        mu_t: Option<&[f64]>,
        stride: usize,
        cache: &mut [f64],
    ) {
        use crate::conditions::SUTHERLAND_S;
        let one = L::splat(1.0);
        let half = L::splat(0.5);
        let gam = L::splat(GAMMA);
        let mut out = FieldRows::new(cache, VC_FIELDS, stride, [m0], n);
        let (q, ib) = (&q[s0 * NVAR..(s0 + n) * NVAR], &ib[s0..s0 + n]);
        let (met, mu_t) = (metric_rows(met, s0, n), mu_t.map(|m| &m[s0..s0 + n]));
        lane_groups!(n, |i, nv| {
            macro_rules! put {
                ($f:expr, $x:expr) => {
                    // SAFETY: the fields are below VC_FIELDS and `lane_groups!`
                    // keeps i + nv <= n.
                    unsafe { out.put(($f), 0, i, nv, $x) }
                };
            }
            // SAFETY: `lane_groups!` keeps i + nv <= n.
            let ([e0, e1, e2], jac) = unsafe { metric_lanes::<L>(&met, 1, i, nv) };
            put!(VC_J, jac);
            put!(VC_FIELD, blank_masks::<L>(ib, i, nv).0);
            if viscous {
                let qn = gather_state::<L>(q, i, nv);
                let u0 = qn[1].div(qn[0]);
                let u1 = qn[2].div(qn[0]);
                let u2 = qn[3].div(qn[0]);
                let ke = half.mul(u0.mul(u0).add(u1.mul(u1)).add(u2.mul(u2)));
                let a2 = gam.mul(pressure_lanes(&qn, one.div(qn[0]))).div(qn[0]);
                let mut t15 = a2.to_array();
                for x in t15.iter_mut() {
                    *x = x.powf(1.5);
                }
                let t15 = L::from_array(t15);
                let mu_l = t15.mul(L::splat(1.0 + SUTHERLAND_S)).div(a2.add(L::splat(SUTHERLAND_S)));
                put!(VC_U, u0);
                put!(VC_U + 1, u1);
                put!(VC_U + 2, u2);
                put!(VC_KE, ke);
                put!(VC_A2, a2);
                put!(VC_MUL, mu_l);
                put!(VC_S, e0.mul(jac));
                put!(VC_S + 1, e1.mul(jac));
                put!(VC_S + 2, e2.mul(jac));
                put!(VC_MUT, match mu_t {
                    Some(m) => L::load_n(&m[i..], nv),
                    None => L::splat(0.0),
                });
            }
        });
    }
}

lane_kernel! {
    /// Last residual pass over a row of `n` nodes, whose neighbours `k − 1`
    /// along η sit at thin-layer node-cache positions `at[k] + i`: on field
    /// nodes add the difference of the two thin-layer viscous face fluxes
    /// (when `viscous`), divide by the Jacobian and scale the increment
    /// (`dw`, field stride `mm`, the row from `t0`) by `dt`. Returns the
    /// row's field-node count and `sum` plus their squared residuals
    /// (before `dt`), added node by node as the scalar `residual_l2` does.
    pub fn finish_row<L>(
        n: usize,
        at: [usize; 3],
        viscous: bool,
        coef: f64,
        stride: usize,
        cache: &[f64],
        dt: f64,
        mm: usize,
        t0: usize,
        dw: &mut [f64],
        sum: f64,
    ) -> (u64, f64) {
        let zero = L::splat(0.0);
        let one = L::splat(1.0);
        let half = L::splat(0.5);
        let three = L::splat(3.0);
        let coef = L::splat(coef);
        let (pr, pr_t, gm1) = (L::splat(PRANDTL), L::splat(PRANDTL_T), L::splat(GAMMA - 1.0));
        let dt = L::splat(dt);
        let (mut nodes, mut sum) = (0u64, sum);
        let rows = FieldRows::new(cache, VC_FIELDS, stride, at, n);
        let mut dw = FieldRows::new(dw, NVAR, mm, [t0], n);
        lane_groups!(n, |i, nv| {
            macro_rules! get {
                ($f:expr, $k:expr) => {
                    // SAFETY: the fields are below VC_FIELDS and `lane_groups!`
                    // keeps i + nv <= n.
                    unsafe { rows.get::<L>($f, $k, i, nv) }
                };
            }
            let mut old = [zero; NVAR];
            for (v, o) in old.iter_mut().enumerate() {
                // SAFETY: v < NVAR and `lane_groups!` keeps i + nv <= n.
                *o = unsafe { dw.get::<L>(v, 0, i, nv) };
            }
            let mut r = old;
            if viscous {
                // Viscous flux at the η-face toward neighbour `k1`, in the
                // Q̂ equation: `sign` × (0, μ(m₁Δu + ⅓(Ŝ·Δu)Ŝ/J),
                // m₁(μΔke + k/(γ−1)·Δa²)), the mass entry left out.
                macro_rules! face {
                    ($k1:expr, $sign:expr) => {{
                        let sv0 = half.mul(get!(VC_S, 1).add(get!(VC_S, $k1)));
                        let sv1 = half.mul(get!(VC_S + 1, 1).add(get!(VC_S + 1, $k1)));
                        let sv2 = half.mul(get!(VC_S + 2, 1).add(get!(VC_S + 2, $k1)));
                        let jf = half.mul(get!(VC_J, 1).add(get!(VC_J, $k1)));
                        let m1f = sv0.mul(sv0).add(sv1.mul(sv1)).add(sv2.mul(sv2)).div(jf);
                        let du0 = get!(VC_U, $k1).sub(get!(VC_U, 1));
                        let du1 = get!(VC_U + 1, $k1).sub(get!(VC_U + 1, 1));
                        let du2 = get!(VC_U + 2, $k1).sub(get!(VC_U + 2, 1));
                        let s_du = sv0.mul(du0).add(sv1.mul(du1)).add(sv2.mul(du2));
                        let mu_l = half.mul(get!(VC_MUL, 1).add(get!(VC_MUL, $k1)));
                        let mu_tf = half.mul(get!(VC_MUT, 1).add(get!(VC_MUT, $k1)));
                        let mu = mu_l.add(mu_tf);
                        let (cmu, j3) = (coef.mul(mu), three.mul(jf));
                        let fm0 = cmu.mul(m1f.mul(du0).add(s_du.mul(sv0).div(j3)));
                        let fm1 = cmu.mul(m1f.mul(du1).add(s_du.mul(sv1).div(j3)));
                        let fm2 = cmu.mul(m1f.mul(du2).add(s_du.mul(sv2).div(j3)));
                        let k_heat = mu_l.div(pr).add(mu_tf.div(pr_t));
                        let dke = get!(VC_KE, $k1).sub(get!(VC_KE, 1));
                        let da2 = get!(VC_A2, $k1).sub(get!(VC_A2, 1));
                        let fe = coef.mul(m1f).mul(mu.mul(dke).add(k_heat.div(gm1).mul(da2)));
                        let sign = L::splat($sign);
                        [sign.mul(fm0), sign.mul(fm1), sign.mul(fm2), sign.mul(fe)]
                    }};
                }
                let hi = face!(2, 1.0);
                let lo = face!(0, -1.0);
                // The mass flux is zero on both faces: 0 − 0 is added.
                r[0] = r[0].add(zero.sub(zero));
                for v in 1..NVAR {
                    r[v] = r[v].add(hi[v - 1].sub(lo[v - 1]));
                }
            }
            let inv_j = one.div(get!(VC_J, 1));
            for x in r.iter_mut() {
                *x = x.mul(inv_j);
            }
            let sq = r[0]
                .mul(r[0])
                .add(r[1].mul(r[1]))
                .add(r[2].mul(r[2]))
                .add(r[3].mul(r[3]))
                .add(r[4].mul(r[4]));
            let field = get!(VC_FIELD, 1);
            let (fa, sa) = (field.to_array(), sq.to_array());
            for l in 0..nv {
                if fa[l].is_sign_negative() {
                    nodes += 1;
                    sum += sa[l];
                }
            }
            for v in 0..NVAR {
                // SAFETY: as for the loads above.
                unsafe { dw.put(v, 0, i, nv, L::select(field, r[v].mul(dt), old[v])) };
            }
        });
        (nodes, sum)
    }
}

/// Where a lane group's lines sit in a field-major SoA over the owned nodes
/// (the increment, the frame SoA's operator rows, the super-diagonals and
/// the correction column all share this layout): lane `l`'s row `c` of field
/// `f` at `f * field + at[l] + c * row`. Four lines that are neighbours in
/// memory (`k`-lines, and `j`-lines but where a group crosses a row end)
/// load and store whole lane groups; the others gather and scatter lane by
/// lane: `i`-lines, a row apart, and a chunk's ragged last group, whose
/// padding lanes repeat its last line's offset. A padding lane computes what
/// its line's lane computes, so its stores change nothing.
#[derive(Clone, Copy, Debug)]
pub struct LaneRows {
    at: [usize; W],
    row: usize,
    field: usize,
    contiguous: bool,
}

impl LaneRows {
    /// The lines starting at `at`, `row` apart from node to node, in an SoA
    /// of field stride `field`.
    pub fn new(at: [usize; W], row: usize, field: usize) -> LaneRows {
        let contiguous = (1..W).all(|l| at[l] == at[0] + l);
        LaneRows { at, row, field, contiguous }
    }

    /// Lane `l`'s index of row `c`, field `f`.
    #[inline(always)]
    pub fn index(self, l: usize, c: usize, f: usize) -> usize {
        f * self.field + self.at[l] + c * self.row
    }

    /// Check that rows `0..n`, fields `0..fields` of every lane lie inside
    /// an array of `len` values (the farthest lane's last one is the
    /// farthest).
    fn check(self, n: usize, fields: usize, len: usize) {
        let far = self.at.into_iter().max().unwrap_or(0);
        assert!(
            n == 0 || far + (n - 1) * self.row + (fields - 1) * self.field < len,
            "lane rows outside"
        );
    }

    /// Row `c` of field `f`, one line per lane.
    ///
    /// # Safety
    ///
    /// `c` and `f` are below the rows and fields [`Self::check`]ed against
    /// `a`'s length.
    #[inline(always)]
    unsafe fn get<L: Lane4>(self, a: &[f64], c: usize, f: usize) -> L {
        let (at, o) = (self.at, f * self.field + c * self.row);
        // SAFETY: in bounds by the caller's contract.
        unsafe {
            if self.contiguous {
                load_at(a, at[0] + o)
            } else {
                L::gather(a, [at[0] + o, at[1] + o, at[2] + o, at[3] + o])
            }
        }
    }

    /// Store `x` to row `c` of field `f`, one line per lane.
    ///
    /// # Safety
    ///
    /// As for [`Self::get`].
    #[inline(always)]
    unsafe fn put<L: Lane4>(self, x: L, a: &mut [f64], c: usize, f: usize) {
        let (at, o) = (self.at, f * self.field + c * self.row);
        // SAFETY: in bounds by the caller's contract.
        unsafe {
            if self.contiguous {
                store_at(x, a, at[0] + o)
            } else {
                x.scatter(a, [at[0] + o, at[1] + o, at[2] + o, at[3] + o])
            }
        }
    }
}

/// Sweep-row implicit coefficients for one eigenvalue class, on four lanes —
/// the vector form of `row_abc` in the tests of [`crate::adi`].
#[inline(always)]
fn coeffs<L: Lane4>(dt: L, tbd: L, lam_m: L, sig_m: L, sig_0: L, lam_p: L, sig_p: L) -> (L, L, L) {
    let beta = L::splat(BETA);
    let a = dt.mul(L::splat(-0.5).mul(lam_m).sub(beta.mul(sig_m)));
    let b = L::splat(1.0).add(tbd.mul(sig_0));
    let cc = dt.mul(L::splat(0.5).mul(lam_p).sub(beta.mul(sig_p)));
    (a, b, cc)
}

/// The class eigenvalues (Ũ, Ũ + c̃, Ũ − c̃) and the spectral radius
/// |Ũ| + c̃ of operator row `r - 1` of a lane group, `r` in `0..=n + 1`:
/// rows `-1` and `n` are the edge frames. Operation order of the scalar
/// `char_frame` reference.
///
/// # Safety
///
/// Rows `0..n`, fields [`E_UT`] and [`E_CT`] of `op` at `at` are checked.
#[inline(always)]
unsafe fn eigen_row<L: Lane4>(
    op: &[f64],
    at: LaneRows,
    edge: &[f64; EDGE_LEN],
    n: usize,
    r: usize,
) -> ([L; NCLASS], L) {
    let (ut, ct) = if r == 0 || r == n + 1 {
        let e = if r == 0 { edge } else { &edge[EDGE_FIELDS * W..] };
        (L::load(&e[E_UT * W..]), L::load(&e[E_CT * W..]))
    } else {
        // SAFETY: by the caller's contract.
        unsafe { (at.get::<L>(op, r - 1, E_UT), at.get::<L>(op, r - 1, E_CT)) }
    };
    ([ut, ut.add(ct), ut.sub(ct)], ut.abs().add(ct))
}

/// Values carried per line and field from one rank's segment of a line to
/// the next one's by the forward pass, in the order of its messages: the
/// super-diagonal `cp` and the RHS `d` on every line, then — on cyclic
/// lines only — the correction column `z` and the corner parameters α, γ.
pub const FWD_CARRIES: usize = 5;

/// The cyclic part of a lane group's line solve (the Sherman–Morrison
/// `i`-sweep of an O-grid): the rank-one correction column `z`, solved as a
/// second right-hand side beside `d`, and the chain ends this rank owns.
/// `z` depends on the operator only and so is kept per eigenvalue class,
/// laid out like `cp`.
pub struct Cyclic<'a> {
    pub z: &'a mut [f64],
    /// This rank owns the chain's first row (the corner parameters α, γ are
    /// set there) / its last row (which couples back to row 0 through them).
    pub first: bool,
    pub last: bool,
}

lane_kernel! {
    /// Forward-eliminate one lane group of an implicit sweep in place: up to
    /// [`W`] lines of `n` nodes at `at`, `NVAR` independent systems per
    /// line, the fields of one eigenvalue class sharing their coefficients
    /// and super-diagonals (the scalar recurrence computes them
    /// identically).
    ///
    /// `op` enters holding the operator rows ([`E_FIELDS`] fields: Ũ, c̃
    /// and the identity mask — sign bit set on blanked rows) and leaves
    /// holding the normalized super-diagonals, class `e` in field `e`: row
    /// `c`'s are stored once its operator has been read. `edge` holds the
    /// frames just outside the lines. `d` is the characteristic RHS in/out.
    /// `carry`
    /// (per field, [`FWD_CARRIES`] rows) enters holding the upstream pipeline
    /// carry when `have_carry` — zero otherwise — and leaves holding this
    /// group's last-row carry. A `cyclic` group also eliminates its `z`
    /// column and closes the corner rows of the chain ends it owns.
    pub fn sweep_forward_group<L>(
        dt: f64,
        n: usize,
        at: LaneRows,
        op: &mut [f64],
        edge: &[f64; EDGE_LEN],
        d: &mut [f64],
        carry: &mut [[f64; NVW]; FWD_CARRIES],
        have_carry: bool,
        cyclic: Option<Cyclic<'_>>,
    ) {
        let mut cyclic = cyclic;
        let (zero, one) = (L::splat(0.0), L::splat(1.0));
        // 2.0 * BETA * dt with scalar left-associated rounding.
        let (dtv, tbd) = (L::splat(dt), L::splat(2.0 * BETA * dt));
        at.check(n, E_FIELDS, op.len());
        at.check(n, NVAR, d.len());
        if let Some(cy) = &cyclic {
            at.check(n, NCLASS, cy.z.len());
        }
        let [c_cp, c_d, c_z, c_al, c_ga] = carry;
        let [mut pcp, mut pz, mut al, mut ga] = [[zero; NCLASS]; 4];
        let mut pdp: [L; NVAR] = [zero; NVAR];
        for e in 0..NCLASS {
            let f = CLASS_FIELD[e] * W;
            pcp[e] = L::load(&c_cp[f..]);
            pz[e] = L::load(&c_z[f..]);
            al[e] = L::load(&c_al[f..]);
            ga[e] = L::load(&c_ga[f..]);
        }
        for v in 0..NVAR {
            pdp[v] = L::load(&c_d[v * W..]);
        }
        // SAFETY (every `eigen_row` and lane-row access below): rows below
        // `n`, fields below those just checked. Each operator row's
        // eigenvalues are formed once and rolled along, so row `c` is read
        // before its super-diagonals overwrite it.
        let (mut lo, mut mid) =
            unsafe { (eigen_row::<L>(op, at, edge, n, 0), eigen_row::<L>(op, at, edge, n, 1)) };
        for c in 0..n {
            let first = c == 0 && !have_carry;
            let hi = unsafe { eigen_row::<L>(op, at, edge, n, c + 2) };
            // Row `c` of the operator, blanked rows blended to (0, 1, 0).
            let ident = unsafe { at.get::<L>(op, c, E_IDM) };
            let mut abc = [(zero, one, zero); NCLASS];
            for (e, x) in abc.iter_mut().enumerate() {
                let (a, b, cc) = coeffs(dtv, tbd, lo.0[e], lo.1, mid.1, hi.0[e], hi.1);
                *x = (L::select(ident, zero, a), L::select(ident, one, b), L::select(ident, zero, cc));
            }
            (lo, mid) = (mid, hi);
            let mut bp = [zero; NCLASS];
            for e in 0..NCLASS {
                let (a, mut b, cc) = abc[e];
                // The cyclic system's corner rows, and the row's entry `u` of
                // the rank-one column.
                let mut u = zero;
                if let Some(cy) = &cyclic {
                    if cy.first && c == 0 {
                        ga[e] = b.neg();
                        al[e] = a;
                        b = b.sub(ga[e]);
                        u = ga[e];
                    }
                    if cy.last && c == n - 1 {
                        // Coupling of the last row back to node 0 through the
                        // duplicated seam node's frame.
                        b = b.sub(al[e].mul(cc).div(ga[e]));
                        u = cc;
                    }
                }
                // bp = b - a·cp₋, cp = c/bp — the scalar Thomas step.
                bp[e] = if first { b } else { b.sub(a.mul(pcp[e])) };
                pcp[e] = cc.div(bp[e]);
                unsafe { at.put(pcp[e], op, c, e) };
                if let Some(cy) = &mut cyclic {
                    pz[e] = if first { u } else { u.sub(a.mul(pz[e])) }.div(bp[e]);
                    unsafe { at.put(pz[e], cy.z, c, e) };
                }
            }
            for v in 0..NVAR {
                let e = CLASS[v];
                let dv = L::select(ident, zero, unsafe { at.get::<L>(d, c, v) });
                // dp = (d - a·dp₋)/bp, or d/b on the first row.
                pdp[v] = if first { dv } else { dv.sub(abc[e].0.mul(pdp[v])) }.div(bp[e]);
                unsafe { at.put(pdp[v], d, c, v) };
            }
        }
        for v in 0..NVAR {
            let (e, f) = (CLASS[v], v * W);
            pcp[e].store(&mut c_cp[f..]);
            pdp[v].store(&mut c_d[f..]);
            pz[e].store(&mut c_z[f..]);
            al[e].store(&mut c_al[f..]);
            ga[e].store(&mut c_ga[f..]);
        }
    }
}

lane_kernel! {
    /// Back-substitute one lane group in place (`d` at `at`, with the
    /// super-diagonals `cp` that [`sweep_forward_group`] left) and,
    /// on cyclic lines, its correction column `z` (a field per class, like
    /// `cp`). `seed` is the downstream rank's first unknowns
    /// (lane-interleaved per field: `x`, then `z` on cyclic lines), `None`
    /// when this group owns the end of its lines.
    pub fn sweep_backward_group<L>(
        n: usize,
        at: LaneRows,
        cp: &[f64],
        d: &mut [f64],
        z: Option<&mut [f64]>,
        seed: Option<&[[f64; NVW]; 2]>,
    ) {
        let mut z = z;
        at.check(n, NVAR, d.len());
        at.check(n, NCLASS, cp.len());
        if let Some(z) = &z {
            at.check(n, NCLASS, z.len());
        }
        // SAFETY (every lane-row access below): rows below `n`, fields below
        // those just checked.
        let mut next: [L; NVAR] = [L::splat(0.0); NVAR];
        let mut nz: [L; NCLASS] = [L::splat(0.0); NCLASS];
        for v in 0..NVAR {
            let mut x = unsafe { at.get::<L>(d, n - 1, v) };
            if let Some([xd, _]) = seed {
                let cpv = unsafe { at.get::<L>(cp, n - 1, CLASS[v]) };
                x = x.sub(cpv.mul(L::load(&xd[v * W..])));
                unsafe { at.put(x, d, n - 1, v) };
            }
            next[v] = x;
        }
        if let Some(z) = &mut z {
            for e in 0..NCLASS {
                let mut zv = unsafe { at.get::<L>(z, n - 1, e) };
                if let Some([_, zd]) = seed {
                    let cpv = unsafe { at.get::<L>(cp, n - 1, e) };
                    zv = zv.sub(cpv.mul(L::load(&zd[CLASS_FIELD[e] * W..])));
                    unsafe { at.put(zv, z, n - 1, e) };
                }
                nz[e] = zv;
            }
        }
        for c in (0..n.saturating_sub(1)).rev() {
            let mut cpe = [L::splat(0.0); NCLASS];
            for (e, x) in cpe.iter_mut().enumerate() {
                *x = unsafe { at.get::<L>(cp, c, e) };
            }
            for (v, nx) in next.iter_mut().enumerate() {
                let x = unsafe { at.get::<L>(d, c, v) }.sub(cpe[CLASS[v]].mul(*nx));
                unsafe { at.put(x, d, c, v) };
                *nx = x;
            }
            if let Some(z) = &mut z {
                for (e, nx) in nz.iter_mut().enumerate() {
                    let zv = unsafe { at.get::<L>(z, c, e) }.sub(cpe[e].mul(*nx));
                    unsafe { at.put(zv, z, c, e) };
                    *nx = zv;
                }
            }
        }
    }
}

lane_kernel! {
    /// Apply the Sherman–Morrison correction `y ← y − fact·z` in place to
    /// one lane group at `at` (`fact` is constant per line and field; `z`
    /// per class).
    pub fn periodic_correct_group<L>(
        n: usize,
        at: LaneRows,
        fact: &[f64; NVW],
        y: &mut [f64],
        z: &[f64],
    ) {
        at.check(n, NVAR, y.len());
        at.check(n, NCLASS, z.len());
        let mut fv: [L; NVAR] = [L::splat(0.0); NVAR];
        for v in 0..NVAR {
            fv[v] = L::load(&fact[v * W..]);
        }
        for c in 0..n {
            for (v, &f) in fv.iter().enumerate() {
                // SAFETY: rows below `n`, fields below those just checked.
                unsafe {
                    let yv = at.get::<L>(y, c, v).sub(f.mul(at.get::<L>(z, c, CLASS[v])));
                    at.put(yv, y, c, v);
                }
            }
        }
    }
}
