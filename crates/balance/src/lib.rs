//! Load balancing for parallel dynamic overset grid computations — the
//! primary contribution of Wissink & Meakin (SC'97).
//!
//! * [`static_lb`] — Algorithm 1: distribute processors over component grids
//!   proportionally to gridpoints (ε/τ tolerance iteration), minimizing
//!   flow-solver imbalance,
//! * [`dynamic_lb`] — Algorithm 2: measure the donor-search service load
//!   `I(p)`, and when `f(p) = I(p)/Ī` exceeds the user threshold `f_o`,
//!   grant extra processors to connectivity-bound grids and re-run the
//!   static routine,
//! * [`grouping`] — Algorithm 3: gather many small Cartesian grids into
//!   balanced, connectivity-preserving processor groups (Section 5 scheme),
//! * [`partition`] — concrete rank ↔ (grid, subdomain) maps built on the
//!   prime-factor splitting.

pub mod dynamic_lb;
pub mod grouping;
pub mod partition;
pub mod static_lb;

pub use dynamic_lb::{dynamic_rebalance, service_imbalance, DynamicDecision, ServiceWindow};
pub use grouping::{group_grids, round_robin, AdjacencyMatrix, Connectivity, Grouping};
pub use partition::{Partition, RankAssignment};
pub use static_lb::{
    fit_np_to_dims_min, imbalance_tau, static_balance, static_balance_with_minima, BalanceError,
    StaticBalance,
};
