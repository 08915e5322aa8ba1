//! Message-passing substrate with deterministic virtual time.
//!
//! The paper ran MPI on the IBM SP2 and IBM SP. This crate substitutes a
//! rank-per-thread MIMD runtime — each rank owns only its subdomain data and
//! communicates through typed channel messages — combined with machine
//! models of the 1997 systems that convert the *recorded* work (flops) and
//! communication (message latency + bytes/bandwidth) into virtual seconds.
//! Parallel speedups, Mflops/node rates and phase-time fractions computed in
//! virtual time reproduce the cost structure the paper measured, and are
//! bit-deterministic regardless of host scheduling.
//!
//! Observability rides on the same virtual clock: every rank carries a
//! [`metrics::MetricsRegistry`] and (optionally) a [`trace::Tracer`] whose
//! spans export to Chrome `trace_event` JSON — see docs/OBSERVABILITY.md.
//!
//! Ranks run as one OS thread each or as coroutines multiplexed onto a few
//! worker threads ([`UniverseBuilder::max_threads`]), with bit-identical
//! virtual time. Message payloads move between ranks as values, and a
//! traced run's spans stay in memory until the run returns them: nothing
//! in this crate has a byte encoding.
//!
//! See DESIGN.md §2 for the substitution argument.

pub mod alloc;
pub mod arena;
pub mod error;
pub mod flight;
pub mod machine;
pub mod metrics;
pub mod runtime;
mod sched;
pub mod stats;
pub mod trace;

pub use alloc::{AllocTotals, CountingAlloc, RankAllocCounters};
pub use arena::VecPool;
pub use error::OversetError;
pub use flight::{FlightRecorder, StepRecord, Wait, NUM_WAITS};
pub use machine::{CacheModel, MachineModel, WorkClass};
pub use metrics::{Counter, Hist, Histogram, MetricsRegistry};
pub use runtime::{Comm, Gathered, PhaseGuard, RankOutput, Universe, UniverseBuilder};
pub use stats::{PerfSummary, Phase, NUM_PHASES};
pub use trace::{chrome_trace_json, ArgVal, RankTrace, TraceConfig, TraceEvent, Tracer};

/// One-stop imports for writing a rank program:
/// `use overset_comm::prelude::*;`.
pub mod prelude {
    pub use crate::alloc::AllocTotals;
    pub use crate::error::OversetError;
    pub use crate::flight::{StepRecord, Wait};
    pub use crate::machine::{MachineModel, WorkClass};
    pub use crate::metrics::{Counter, Hist, MetricsRegistry};
    pub use crate::runtime::{Comm, PhaseGuard, RankOutput, Universe, UniverseBuilder};
    pub use crate::stats::{PerfSummary, Phase, NUM_PHASES};
    pub use crate::trace::{chrome_trace_json, ArgVal, RankTrace, TraceConfig, TraceEvent};
}
