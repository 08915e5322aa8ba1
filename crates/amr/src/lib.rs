//! The adaptive overset Cartesian scheme of Section 5 — the paper's "future
//! work" direction, implemented: near-body curvilinear grids for viscous
//! resolution plus an automatically adapted system of off-body Cartesian
//! bricks, executed with the entirely coarse-grain grouping strategy
//! (Algorithm 3) and O(1) Cartesian connectivity.
//!
//! * [`offbody`] — octree-style generation of seven-parameter Cartesian
//!   bricks, refinement by proximity to the near-body grids,
//! * [`adapt`] — the adapt cycle: regenerate under a motion + solution-error
//!   oracle and transfer the solution,
//! * [`connect`] — O(1) donor location among bricks (no stencil walks),
//! * [`scheme`] — the running system: group-parallel flow solve (rayon:
//!   one task per group — the paper's "clusters of shared-memory
//!   processors"), connectivity, and adapt cycles for an X-38-like body.

pub mod adapt;
pub mod connect;
pub mod offbody;
pub mod scheme;

pub use adapt::{adapt_cycle, AdaptStats};
pub use connect::{build_adjacency, locate_any, BrickDonor};
pub use offbody::{generate, level_histogram, proximity_oracle, Brick, OffBodyConfig};
pub use scheme::{AdaptiveScheme, SchemeConfig, SchemeReport};
