//! Shared fixtures of the unit tests.

use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
use overset_grid::field::Field3;
use overset_grid::index::Dims;

/// A smooth non-orthogonal grid of dimensions `d`: a wavy box, or — when
/// `periodic` — an annulus wrapping in `i` (node `ni-1` duplicates node 0)
/// extruded along `k`.
pub fn wavy_grid(d: Dims, periodic: bool) -> CurvilinearGrid {
    let coords = Field3::from_fn(d, |p| {
        let (i, j, k) = (p.i as f64, p.j as f64, p.k as f64);
        if periodic {
            let th = -2.0 * std::f64::consts::PI * (p.i % (d.ni - 1)) as f64 / (d.ni - 1) as f64;
            let r = 1.0 + 0.25 * j + 0.01 * (0.7 * k).sin();
            [r * th.cos(), r * th.sin(), 0.2 * k + 0.01 * (1.1 * j).sin()]
        } else {
            [
                0.2 * i + 0.03 * (1.3 * j).sin(),
                0.15 * j + 0.02 * (0.9 * k).cos() + 0.02 * (0.8 * i).sin(),
                0.25 * k + 0.02 * (1.1 * i).sin(),
            ]
        }
    });
    let mut g = CurvilinearGrid::new("wavy", coords, GridKind::NearBody);
    g.periodic_i = periodic;
    g
}

/// Equal bits, signed zeros and NaN payloads included, but not a NaN's
/// sign. Which operand's NaN a binary operation passes on is the machine's
/// choice (x86: the first), and the register allocator may commute a sum
/// or a product; `abs` makes positive NaNs where arithmetic makes negative
/// ones. So the sign of a NaN made from NaNs of both signs is not the
/// program's to pin.
pub fn same_bits(a: f64, b: f64) -> bool {
    const SIGN: u64 = 1 << 63;
    a.to_bits() == b.to_bits() || (a.is_nan() && a.to_bits() | SIGN == b.to_bits() | SIGN)
}
