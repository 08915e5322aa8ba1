//! OVERFLOW-D: the parallel dynamic overset grid driver of the Wissink &
//! Meakin (SC'97) reproduction.
//!
//! An unsteady calculation loops three barrier-separated phases per step:
//!
//! 1. **flow solve** — the implicit structured solver on every subdomain
//!    ([`overset_solver`]), with halo exchange and pipelined cross-subdomain
//!    implicit lines over the message-passing runtime,
//! 2. **grid motion** — prescribed or 6-DOF rigid motion of moving
//!    components ([`overset_motion`]),
//! 3. **domain connectivity** — hole cutting and the distributed donor
//!    search ([`overset_connectivity`]),
//!
//! plus the paper's contribution: Algorithm 1 static load balancing at
//! startup and the Algorithm 2 dynamic scheme, which measures the donor-
//! search service load I(p) and repartitions (with full state
//! redistribution) when `f(p) = I(p)/Ī` exceeds the user threshold `f_o`.
//!
//! Entry points: [`driver::run_case`] (parallel, N ranks of a machine
//! model) and [`driver::run_case_serial`] (single-processor baseline);
//! [`cases`] builds the paper's three test problems.

pub mod cases;
pub mod comm_impl;
pub mod driver;
pub mod export;
pub mod redistribute;
pub mod setup;

pub use cases::{airfoil_case, delta_wing_case, store_case, store_case_sixdof};
pub use driver::{run_case, run_case_serial, AllocRecord, CaseConfig, LbConfig, RunResult};
