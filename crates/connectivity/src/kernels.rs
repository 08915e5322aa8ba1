//! Lane-batched connectivity kernels: trilinear Newton inversion and
//! solid-containment tests.
//!
//! Both kernels batch up to [`W`] *independent* scalar problems — one
//! candidate cell (or one pending query point) per SIMD lane for the
//! Newton inversion, one node per lane for the containment tests — and
//! perform on each lane exactly the operation sequence of the scalar code
//! in [`crate::donor`] / [`crate::holes`]. Only vertical per-lane
//! `add/sub/mul/div/abs` and comparisons are used (no horizontal
//! reductions, no FMA), so every lane's result is bit-identical to the
//! scalar reference: donors, walk outcomes, blanking verdicts and the
//! flop charges derived from them do not depend on the selected
//! [`Isa`]. The batched-vs-scalar tests and proptests pin this.
//!
//! Dispatch reuses the solver's exported [`overset_solver::lane_kernel!`]
//! macro: one generic body, monomorphized to `[f64; 4]` scalar lanes or to
//! an `#[target_feature(enable = "avx2")]` AVX2 instantiation.

use overset_grid::curvilinear::Solid;
use overset_grid::Aabb;
use overset_solver::{lane_kernel, Lane4, W};

/// Number of corner slots a batched cell gathers (2×2×2 trilinear box).
pub const CORNERS: usize = 8;

/// Per-lane boolean from a comparison mask (sign-bit semantics, matching
/// AVX2 `blendv` and [`Lane4::select`]).
fn signs<M: Lane4>(m: M) -> [bool; W] {
    m.to_array().map(|v| v.to_bits() >> 63 == 1)
}

/// Scalar-order clamp on lanes: `if x < lo { lo } else if x > hi { hi }
/// else { x }` — the exact branch structure of `f64::clamp`, so NaN lanes
/// pass through unchanged just as they do in the scalar code.
fn clamp_lanes<M: Lane4>(x: M, lo: f64, hi: f64) -> M {
    let lo = M::splat(lo);
    let hi = M::splat(hi);
    M::select(x.lt(lo), lo, M::select(hi.lt(x), hi, x))
}

lane_kernel! {
    /// Newton inversion of `W` independent trilinear cell maps — the
    /// batched form of `donor::invert_cell`, one `(cell, target)` problem
    /// per lane. Every Newton step evaluates the trilinear map *and* its
    /// Jacobian for all lanes at once and performs the scalar 3×3
    /// Cramer solve per lane in the scalar operation order.
    ///
    /// Layouts: `corners[(cidx * 3 + m) * W + l]` holds component `m` of
    /// corner `cidx = di + 2·dj + 4·dk` for lane `l` (2-D blocks leave the
    /// `dk = 1` slots unread); `targets`/`t_out` hold component `m` of
    /// lane `l` at `m * W + l`.
    ///
    /// Per lane the iteration count, convergence and the singular-Jacobian
    /// early-out (`ok_out[l] = false`, mirroring the scalar `None`) follow
    /// the scalar control flow exactly: converged lanes freeze while the
    /// rest keep iterating, and a lane's `(t, iters)` never depends on
    /// which other problems share the batch.
    pub fn invert_cells_lanes<L>(
        two_d: bool,
        corners: &[f64],
        targets: &[f64],
        t_out: &mut [f64],
        iters_out: &mut [u64; W],
        ok_out: &mut [bool; W],
    ) {
        let one = L::splat(1.0);
        let zero = L::splat(0.0);
        let tgt = [
            L::load(&targets[0..W]),
            L::load(&targets[W..2 * W]),
            L::load(&targets[2 * W..3 * W]),
        ];
        let mut t = [L::splat(0.5), L::splat(0.5), if two_d { zero } else { L::splat(0.5) }];
        let mut done = [false; W];
        let mut ok = [true; W];
        let mut iters = [0u64; W];
        let kmax = if two_d { 1 } else { 2 };
        for _ in 0..8 {
            if done.iter().all(|&d| d) {
                break;
            }
            for (it, &d) in iters.iter_mut().zip(done.iter()) {
                if !d {
                    *it += 1;
                }
            }
            // Trilinear evaluation + Jacobian, corner loop in the scalar
            // (dk, dj, di) order with the scalar product association.
            let mut x = [zero; 3];
            let mut dx = [[zero; 3]; 3];
            for dk in 0..kmax {
                let wk = if two_d {
                    one
                } else if dk == 0 {
                    one.sub(t[2])
                } else {
                    t[2]
                };
                let gk = L::splat(if dk == 0 { -1.0 } else { 1.0 });
                for dj in 0..2 {
                    let wj = if dj == 0 { one.sub(t[1]) } else { t[1] };
                    let gj = L::splat(if dj == 0 { -1.0 } else { 1.0 });
                    for di in 0..2 {
                        let wi = if di == 0 { one.sub(t[0]) } else { t[0] };
                        let gi = L::splat(if di == 0 { -1.0 } else { 1.0 });
                        let w = wi.mul(wj).mul(wk);
                        let cidx = di + 2 * dj + 4 * dk;
                        for m in 0..3 {
                            let c = L::load(&corners[(cidx * 3 + m) * W..]);
                            x[m] = x[m].add(w.mul(c));
                            dx[0][m] = dx[0][m].add(gi.mul(wj).mul(wk).mul(c));
                            dx[1][m] = dx[1][m].add(wi.mul(gj).mul(wk).mul(c));
                            if !two_d {
                                dx[2][m] = dx[2][m].add(wi.mul(wj).mul(gk).mul(c));
                            }
                        }
                    }
                }
            }
            if two_d {
                dx[2] = [zero, zero, one];
            }
            let r = [tgt[0].sub(x[0]), tgt[1].sub(x[1]), tgt[2].sub(x[2])];
            let rn = r[0].mul(r[0]).add(r[1].mul(r[1])).add(r[2].mul(r[2]));
            // a[m][d] = dx[d][m]: the scalar J^T layout.
            let a = [
                [dx[0][0], dx[1][0], dx[2][0]],
                [dx[0][1], dx[1][1], dx[2][1]],
                [dx[0][2], dx[1][2], dx[2][2]],
            ];
            let det = a[0][0]
                .mul(a[1][1].mul(a[2][2]).sub(a[1][2].mul(a[2][1])))
                .sub(a[0][1].mul(a[1][0].mul(a[2][2]).sub(a[1][2].mul(a[2][0]))))
                .add(a[0][2].mul(a[1][0].mul(a[2][1]).sub(a[1][1].mul(a[2][0]))));
            let det_abs = det.abs().to_array();
            for l in 0..W {
                if !done[l] && det_abs[l] < 1e-300 {
                    ok[l] = false;
                    done[l] = true;
                }
            }
            let inv_det = one.div(det);
            let dt = [
                inv_det.mul(
                    r[0].mul(a[1][1].mul(a[2][2]).sub(a[1][2].mul(a[2][1])))
                        .sub(a[0][1].mul(r[1].mul(a[2][2]).sub(a[1][2].mul(r[2]))))
                        .add(a[0][2].mul(r[1].mul(a[2][1]).sub(a[1][1].mul(r[2])))),
                ),
                inv_det.mul(
                    a[0][0].mul(r[1].mul(a[2][2]).sub(a[1][2].mul(r[2])))
                        .sub(r[0].mul(a[1][0].mul(a[2][2]).sub(a[1][2].mul(a[2][0]))))
                        .add(a[0][2].mul(a[1][0].mul(r[2]).sub(r[1].mul(a[2][0])))),
                ),
                inv_det.mul(
                    a[0][0].mul(a[1][1].mul(r[2]).sub(r[1].mul(a[2][1])))
                        .sub(a[0][1].mul(a[1][0].mul(r[2]).sub(r[1].mul(a[2][0]))))
                        .add(r[0].mul(a[1][0].mul(a[2][1]).sub(a[1][1].mul(a[2][0])))),
                ),
            ];
            let mut nt = [t[0].add(dt[0]), t[1].add(dt[1]), t[2]];
            if !two_d {
                nt[2] = t[2].add(dt[2]);
            }
            for v in nt.iter_mut() {
                *v = clamp_lanes(*v, -3.0, 4.0);
            }
            // Freeze lanes that are already done (converged earlier, or
            // singular this very step — the scalar code returns before the
            // update in both cases, and a singular lane's t is unused).
            let keep = L::mask(done);
            for m in 0..3 {
                t[m] = L::select(keep, t[m], nt[m]);
            }
            let rn_a = rn.to_array();
            let sum_dt = dt[0].abs().add(dt[1].abs()).add(dt[2].abs()).to_array();
            for l in 0..W {
                if !done[l] && (rn_a[l] < 1e-16 || sum_dt[l] < 1e-8) {
                    done[l] = true;
                }
            }
        }
        for m in 0..3 {
            t[m].store(&mut t_out[m * W..]);
        }
        *iters_out = iters;
        *ok_out = ok;
    }
}

lane_kernel! {
    /// Batched point-in-bbox pre-check and solid containment test — the
    /// hole cutter's per-node verdicts for `W` nodes at once, one node per
    /// lane. `xs[m * W + l]` holds coordinate `m` of lane `l`; `pads[l]`
    /// the node's hole pad. `in_box[l]` reproduces
    /// `bb.contains(x)` and `inside[l]` reproduces `solid.contains(x, pad)`
    /// exactly: all verdicts come from comparisons of identically-computed
    /// values, so blanking cannot depend on the `Isa` carrying them.
    pub fn containment_lanes<L>(
        solid: &Solid,
        bb: &Aabb,
        xs: &[f64],
        pads: &[f64],
        in_box: &mut [bool; W],
        inside: &mut [bool; W],
    ) {
        let x = [L::load(&xs[0..W]), L::load(&xs[W..2 * W]), L::load(&xs[2 * W..3 * W])];
        let pad = L::load(&pads[0..W]);
        // Padded-box pre-check: x >= min && x <= max, per axis.
        let mut inb = [true; W];
        for (d, &xd) in x.iter().enumerate() {
            let ge = signs(L::splat(bb.min[d]).le(xd));
            let le = signs(xd.le(L::splat(bb.max[d])));
            for l in 0..W {
                inb[l] = inb[l] && ge[l] && le[l];
            }
        }
        *in_box = inb;
        let mut ins = [true; W];
        match *solid {
            Solid::Ellipsoid { center, radii } => {
                let mut s = L::splat(0.0);
                for d in 0..3 {
                    let r = L::splat(radii[d]).add(pad);
                    let bad = signs(r.le(L::splat(0.0)));
                    for l in 0..W {
                        ins[l] = ins[l] && !bad[l];
                    }
                    let t = x[d].sub(L::splat(center[d])).div(r);
                    s = s.add(t.mul(t));
                }
                let le1 = signs(s.le(L::splat(1.0)));
                for l in 0..W {
                    ins[l] = ins[l] && le1[l];
                }
            }
            Solid::Cylinder { p0, p1, radius } => {
                let axis = [p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]];
                let len2: f64 = axis.iter().map(|a| a * a).sum();
                if len2 == 0.0 {
                    ins = [false; W];
                } else {
                    let rel =
                        [x[0].sub(L::splat(p0[0])), x[1].sub(L::splat(p0[1])), x[2].sub(L::splat(p0[2]))];
                    let t = rel[0]
                        .mul(L::splat(axis[0]))
                        .add(rel[1].mul(L::splat(axis[1])))
                        .add(rel[2].mul(L::splat(axis[2])))
                        .div(L::splat(len2));
                    let tl = clamp_lanes(t, 0.0, 1.0);
                    let cap_pad = pad.div(L::splat(len2.sqrt()));
                    let below = signs(t.lt(cap_pad.neg()));
                    let above = signs(L::splat(1.0).add(cap_pad).lt(t));
                    let mut d2 = L::splat(0.0);
                    for d in 0..3 {
                        let closest = L::splat(p0[d]).add(tl.mul(L::splat(axis[d])));
                        let dd = x[d].sub(closest);
                        d2 = d2.add(dd.mul(dd));
                    }
                    let rp = L::splat(radius).add(pad);
                    let hit = signs(d2.le(rp.mul(rp)));
                    for l in 0..W {
                        ins[l] = !below[l] && !above[l] && hit[l];
                    }
                }
            }
            Solid::Slab { aabb } => {
                for (d, &xd) in x.iter().enumerate() {
                    let lo = L::splat(aabb.min[d]).sub(pad);
                    let hi = L::splat(aabb.max[d]).add(pad);
                    let ge = signs(lo.le(xd));
                    let le = signs(xd.le(hi));
                    for l in 0..W {
                        ins[l] = ins[l] && ge[l] && le[l];
                    }
                }
            }
            Solid::OrientedSlab { center, axes, half } => {
                let d = [
                    x[0].sub(L::splat(center[0])),
                    x[1].sub(L::splat(center[1])),
                    x[2].sub(L::splat(center[2])),
                ];
                for i in 0..3 {
                    let proj = d[0]
                        .mul(L::splat(axes[i][0]))
                        .add(d[1].mul(L::splat(axes[i][1])))
                        .add(d[2].mul(L::splat(axes[i][2])));
                    let okp = signs(proj.abs().le(L::splat(half[i]).add(pad)));
                    for l in 0..W {
                        ins[l] = ins[l] && okp[l];
                    }
                }
            }
        }
        *inside = ins;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_solver::Isa;

    /// Deterministic LCG doubles in [0, 1).
    fn rng(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / (1u64 << 53) as f64
    }

    #[test]
    fn containment_matches_scalar_for_every_solid() {
        let solids = [
            Solid::Ellipsoid { center: [0.2, -0.1, 0.4], radii: [1.0, 0.6, 0.8] },
            Solid::Cylinder { p0: [-1.0, 0.0, 0.0], p1: [1.0, 0.5, 0.2], radius: 0.5 },
            Solid::Slab { aabb: Aabb::new([-0.5, -0.5, -0.5], [0.5, 0.7, 0.9]) },
            Solid::OrientedSlab {
                center: [0.1, 0.2, 0.3],
                axes: [[1.0, 0.0, 0.0], [0.0, 0.8, 0.6], [0.0, -0.6, 0.8]],
                half: [0.4, 0.3, 0.5],
            },
        ];
        let mut seed = 0x5eed;
        for solid in &solids {
            let bb = solid.bbox().inflate(0.3);
            for _ in 0..64 {
                let mut xs = [0.0f64; 3 * W];
                let mut pads = [0.0f64; W];
                for l in 0..W {
                    for m in 0..3 {
                        xs[m * W + l] = 4.0 * rng(&mut seed) - 2.0;
                    }
                    pads[l] = 0.3 * rng(&mut seed);
                }
                for isa in [Isa::Scalar, overset_solver::select_isa()] {
                    let (mut inb, mut ins) = ([false; W], [false; W]);
                    containment_lanes(isa, solid, &bb, &xs, &pads, &mut inb, &mut ins);
                    for l in 0..W {
                        let x = [xs[l], xs[W + l], xs[2 * W + l]];
                        assert_eq!(inb[l], bb.contains(x), "{solid:?} in_box lane {l}");
                        assert_eq!(ins[l], solid.contains(x, pads[l]), "{solid:?} inside lane {l}");
                    }
                }
            }
        }
    }
}
