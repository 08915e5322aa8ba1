//! The benchmark harness of the OVERFLOW-D reproduction: one entry point
//! per table and figure of the paper's evaluation (Section 4) plus the
//! design-choice experiments (`ablate-*`, A1–A4) listed in DESIGN.md. The
//! `repro` binary drives these from the command line.

pub mod amr_experiments;
pub mod analyze;
pub mod experiments;
pub mod report;

pub use experiments::{Effort, PerfRow};
