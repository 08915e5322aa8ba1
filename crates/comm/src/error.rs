//! Workspace-wide error type (hand-rolled thiserror-style, no deps).
//!
//! A failed run and a rejected configuration both surface as
//! [`OversetError`]. A protocol violation inside a run — a mistyped
//! receive, a receive from a rank that has finished, a mixed-type
//! collective — panics where it is found, and the runtime reports that
//! panic as [`OversetError::RankPanicked`].

use std::fmt;

/// Errors surfaced by the runtime, the case setup and the benchmark tools.
#[derive(Clone, Debug, PartialEq)]
pub enum OversetError {
    /// A rank's body panicked during the run; peers were unblocked and the
    /// universe shut down. The lowest-numbered rank that failed on its own
    /// is named; `phase` is the statistics phase it was in when it
    /// panicked.
    RankPanicked { rank: usize, phase: &'static str, message: String },
    /// Case/topology validation failed before the run started.
    Setup(String),
    /// Invalid run configuration (rank counts, thresholds, CLI arguments).
    Config(String),
}

impl fmt::Display for OversetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OversetError::RankPanicked { rank, phase, message } => {
                write!(f, "rank {rank} panicked in phase {phase}: {message}")
            }
            OversetError::Setup(msg) => write!(f, "setup error: {msg}"),
            OversetError::Config(msg) => write!(f, "config error: {msg}"),
        }
    }
}

impl std::error::Error for OversetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OversetError::RankPanicked {
            rank: 3,
            phase: "flow",
            message: "non-physical state at step 1".into(),
        };
        assert_eq!(e.to_string(), "rank 3 panicked in phase flow: non-physical state at step 1");
        let e = OversetError::Setup("no grids".into());
        assert!(e.to_string().contains("no grids"));
    }
}
