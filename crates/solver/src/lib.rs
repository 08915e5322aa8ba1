//! Structured-grid implicit flow solver — the OVERFLOW analogue of the
//! OVERFLOW-D reproduction.
//!
//! Compressible Euler / thin-layer Navier–Stokes on curvilinear overset
//! component grids: second-order central differencing with scalar JST
//! dissipation, ALE grid-velocity terms for moving grids, a Baldwin–Lomax-
//! type algebraic turbulence model, and a diagonalized approximate-
//! factorization implicit scheme whose line solves are pipelined across
//! subdomain boundaries so that implicitness — and hence convergence — is
//! independent of the processor count (Section 2.1 of the paper).
//!
//! The solver operates on per-rank [`block::Block`]s; all communication goes
//! through the [`adi::SolverComm`] trait (serial no-op impl here, message-
//! passing impl in the driver crate), and every kernel reports its flop
//! count for the virtual-time machine model.

pub mod adi;
pub mod bc;
pub mod block;
pub mod conditions;
pub mod kernels;
pub mod lanes;
pub mod rhs;
pub mod step;
#[cfg(test)]
mod testutil;
#[cfg(test)]
mod tridiag;
pub mod turbulence;

pub use adi::{Scratch, SerialComm, SolverComm};
pub use block::{Blank, Block, HALO};
pub use conditions::{FlowConditions, GAMMA};
#[cfg(target_arch = "x86_64")]
pub use lanes::AvxLanes;
pub use lanes::{select_isa, Isa, Lane4, ScalarLanes, W};
pub use step::{step_block, StepReport};
pub use turbulence::WallGeometry;
