//! Structured grid infrastructure for the OVERFLOW-D reproduction.
//!
//! This crate provides the index-space and geometric substrate used by every
//! other crate in the workspace:
//!
//! * [`index`] — 3-D index spaces, boxes and iteration order,
//! * [`field`] — dense 3-D scalar/vector fields in `i`-fastest layout,
//! * [`bbox`] — axis-aligned bounding boxes,
//! * [`transform`] — rigid-body transforms (quaternion rotation + translation),
//! * [`curvilinear`] / [`cartesian`] — the two grid kinds of the Chimera
//!   scheme: body-fitted curvilinear component grids and uniform Cartesian
//!   background grids (the latter fully described by seven parameters, as the
//!   paper emphasizes),
//! * [`metrics`] — finite-difference metric terms and cell Jacobians,
//! * [`decomp`] — prime-factor subdomain splitting used by the static load
//!   balancer (Algorithm 1 of the paper),
//! * [`gen`] — analytic grid generators for the paper's three test cases
//!   (oscillating airfoil, descending delta wing, finned-store separation),
//!   each at a chosen resolution scale (Table 2's scaling study).

pub mod bbox;
pub mod cartesian;
pub mod curvilinear;
pub mod decomp;
pub mod field;
pub mod gen;
pub mod index;
pub mod metrics;
pub mod transform;

pub use bbox::Aabb;
pub use cartesian::CartesianGrid;
pub use curvilinear::{BcKind, BoundaryPatch, CurvilinearGrid, GridKind};
pub use decomp::{lattice_feasible_min, prime_factors, Subdomain};
pub use field::{Field3, SoaField, StateField};
pub use index::{Dims, Ijk, IndexBox};
pub use transform::RigidTransform;
