//! Domain connectivity for dynamic overset grids — the DCF3D analogue of
//! the OVERFLOW-D reproduction.
//!
//! Moving-grid simulations must re-establish intergrid connectivity at every
//! timestep: cut holes where grids intersect solid surfaces, identify the
//! inter-grid boundary points (IGBPs), search donor cells in overlapping
//! grids, and interpolate boundary values. This crate implements:
//!
//! * [`holes`] — analytic hole cutting and fringe/IGBP identification,
//! * [`donor`] — the stencil-walk donor search with Newton inversion of the
//!   trilinear cell map,
//! * [`inverse_map`] — DCF3D-style auxiliary Cartesian inverse maps: O(1)
//!   walk seeds, coarse occupancy masks for request pruning, and ternary
//!   solid masks for masked hole cutting,
//! * [`interp`] — trilinear interpolation of the conserved state,
//! * `serial` (tests only) — the single-address-space connectivity
//!   solution: the independent reference the protocol on one rank is tested
//!   against,
//! * [`protocol`] — the distributed donor-search protocol (bounding-box
//!   routing, asynchronous request service in place or by message,
//!   candidate forwarding, and the "nth-level restart" donor cache),
//! * [`kernels`] — lane-batched (SIMD) forms of the trilinear Newton
//!   inversion and the hole cutter's containment tests, bit-identical to
//!   the scalar code per lane,
//! * [`context`] — what a rank keeps for a run: its [`RankBlock`]s (block,
//!   inverse-map lifecycle, donor cache) and the [`Connectivity`] that owns
//!   the arena and runs the step over them.

pub mod arena;
pub mod context;
pub mod donor;
pub mod holes;
pub mod interp;
pub mod inverse_map;
pub mod kernels;
pub mod protocol;
#[cfg(test)]
mod serial;

pub use arena::ConnArena;
pub use context::{Connectivity, MapSlot, RankBlock};
pub use donor::{
    walk_search, walk_search_batch, walk_search_isa, BatchQuery, Donor, SearchCost, SearchOutcome,
};
pub use holes::{cut_holes_and_find_fringe, Igbp};
pub use interp::{interpolate, weights};
pub use inverse_map::{
    classify_solids_into, occupancy_admits_posed, BinClass, InverseMap, FLOPS_PER_INCR_UPDATE,
    OCC_WORDS,
};
pub use protocol::{connect_distributed, DonorCache, Topology};
